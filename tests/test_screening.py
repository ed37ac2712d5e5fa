from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fmvscreen.mv
import fmvscreen.screening
from fmvscreen import (
    Dataset,
    DegenerateSlicesError,
    InputError,
    ResponseKind,
    default_selection_size,
    fmv_hat,
    fmv_scores,
    fks_scores,
    screen,
)
from fmvscreen.mv import ranked_columns


def make_dataset(n=60, p=5, seed=0, kind=ResponseKind.CONTINUOUS):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = x[:, 0] + 0.5 * rng.normal(size=n)
    return Dataset(y=y, x=x, kind=kind)


def test_constant_predictor_scores_zero() -> None:
    rng = np.random.default_rng(1)
    y = rng.normal(size=50)
    score = fmv_hat(np.full(50, 3.0), y, schemes=[3, 4])
    assert score.fused == 0.0
    assert not score.degenerate
    assert np.array_equal(score.per_scheme, [0.0, 0.0])


def test_categorical_uses_single_partition() -> None:
    rng = np.random.default_rng(2)
    y = np.repeat([0.0, 1.0, 2.0], 20)
    x = rng.normal(size=60) + y
    score = fmv_hat(x, y, kind=ResponseKind.CATEGORICAL, schemes=[3, 4, 5])
    assert score.per_scheme.shape == (1,)
    assert 0.0 < score.fused <= 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_categorical_response_below_27_rows_warns_about_no_scheme() -> None:
    # a categorical response ignores slice counts, so the fallback to one
    # 3-slice scheme below n = 27 does not concern it; the kind may be a string
    rng = np.random.default_rng(4)
    y = np.tile([0.0, 1.0, 2.0], 7)[:20]
    x = rng.normal(size=(20, 4)) + y[:, None]
    for kind in ("categorical", ResponseKind.CATEGORICAL):
        _, per_scheme, degenerate = fmv_scores(x, y, kind)
        assert per_scheme.shape == (1, 4) and not degenerate
        assert (fks_scores(x, y, kind) > 0).all()
    with pytest.warns(RuntimeWarning, match="below 27"):
        fmv_scores(x, y, "continuous")


def test_constant_response_flags_degenerate() -> None:
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    score = fmv_hat(x, np.zeros(40), schemes=[3, 4])
    assert score.fused == 0.0
    assert score.degenerate


def test_dependent_beats_noise_in_seeded_trials() -> None:
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        y = rng.standard_normal(200)
        noise = rng.standard_normal(200)
        dependent = fmv_hat(y, y).fused
        independent = fmv_hat(noise, y).fused
        wins += dependent > independent
    assert wins >= 99


def test_screen_copy_noise_constant_columns() -> None:
    rng = np.random.default_rng(4)
    y = rng.standard_normal(100)
    x = np.column_stack([y, rng.standard_normal(100), np.full(100, 2.0)])
    result = screen(Dataset(y=y, x=x), schemes=[3, 4], d_n=2)
    assert 0 in result.selected  # the copy column survives
    assert result.order[-1] == 2  # constant column ranks last
    assert result.scores[2] == 0.0


def test_screen_selects_all_when_dn_exceeds_p() -> None:
    ds = make_dataset()
    result = screen(ds, schemes=[3], d_n=50)
    assert len(result.selected) == ds.p
    assert sorted(result.order.tolist()) == list(range(ds.p))


def test_screen_column_permutation_equivariance() -> None:
    ds = make_dataset(p=8, seed=5)
    base = screen(ds, schemes=[3, 4], d_n=3)
    perm = np.random.default_rng(6).permutation(8)
    permuted = screen(Dataset(y=ds.y, x=ds.x[:, perm]), schemes=[3, 4], d_n=3)
    assert np.array_equal(permuted.scores, base.scores[perm])


def test_monotone_predictor_transform_leaves_scores() -> None:
    rng = np.random.default_rng(7)
    y = rng.standard_normal(120)
    x = y + rng.standard_normal(120)
    base = fmv_hat(x, y).fused
    assert abs(fmv_hat(x ** 3, y).fused - base) <= 1e-12
    assert abs(fmv_hat(np.exp(x), y).fused - base) <= 1e-12


def test_monotone_response_transform_is_bit_identical() -> None:
    rng = np.random.default_rng(8)
    y = rng.standard_normal(120)
    x = rng.standard_normal((120, 4)) + y[:, None]
    base, _, _ = fmv_scores(x, y, schemes=[3, 4, 5])
    cubed, _, _ = fmv_scores(x, y ** 3, schemes=[3, 4, 5])
    assert np.array_equal(base, cubed)


def test_row_permutation_is_bit_identical() -> None:
    rng = np.random.default_rng(9)
    y = np.round(rng.standard_normal(80), 1)  # ties included
    x = rng.standard_normal((80, 6))
    x[:, 3] = np.round(x[:, 3], 1)
    perm = rng.permutation(80)
    for xm in (x, np.round(x, 1)):  # the rounded matrix has ties in every column
        base, base_per_scheme, _ = fmv_scores(xm, y, schemes=[3, 4])
        shuffled, shuffled_per_scheme, _ = fmv_scores(xm[perm], y[perm], schemes=[3, 4])
        assert np.array_equal(base, shuffled)
        assert np.array_equal(base_per_scheme, shuffled_per_scheme)


def test_screen_deterministic_and_thread_invariant() -> None:
    ds = make_dataset(n=80, p=40, seed=10)
    a = screen(ds, schemes=[3, 4], d_n=5, threads=1)
    b = screen(ds, schemes=[3, 4], d_n=5, threads=1)
    c = screen(ds, schemes=[3, 4], d_n=5, threads=3)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.order, b.order)
    assert np.array_equal(a.scores, c.scores)
    assert np.array_equal(a.order, c.order)


def test_tie_break_is_ascending_index() -> None:
    # two identical columns produce exactly equal scores
    rng = np.random.default_rng(11)
    y = rng.standard_normal(60)
    col = rng.standard_normal(60)
    ds = Dataset(y=y, x=np.column_stack([col, col]))
    result = screen(ds, schemes=[3], d_n=1)
    assert result.scores[0] == result.scores[1]
    assert result.order[0] == 0 and result.selected[0] == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dataset_validation() -> None:
    rng = np.random.default_rng(12)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    # a finite column of +-1e308 whose sum overflows passes the finite check
    x[:, 0] = np.where(np.arange(30) % 3 == 2, -1e308, 1e308)
    assert Dataset(y=y, x=x).x.tobytes() == x.tobytes()
    for values in ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]):
        bad = x.copy()
        bad[4:4 + len(values), 1] = values
        bad[9, 2] = np.nan
        with pytest.raises(InputError, match="column 1 contains non-finite"):
            Dataset(y=y, x=bad)
    with pytest.raises(InputError):
        Dataset(y=y[:-1], x=x)
    with pytest.raises(InputError, match="^count response must be nonnegative integer-valued$"):
        Dataset(y=np.array([0.5, 1.0] * 15), x=x, kind=ResponseKind.COUNT)
    with pytest.raises(InputError):
        screen(make_dataset(), schemes=[3], d_n=0)


@pytest.mark.parametrize("kind", list(ResponseKind))
def test_screen_rejects_a_degenerate_response(kind) -> None:
    # every score would be 0, and selected would only restate column order
    x = np.random.default_rng(8).normal(size=(60, 5))
    with pytest.raises(DegenerateSlicesError, match="degenerate"):
        screen(Dataset(y=np.ones(60), x=x, kind=kind))


def test_default_selection_size() -> None:
    assert default_selection_size(200) == 38  # ceil(200 / log 200)


@pytest.mark.parametrize("kind", list(ResponseKind))
def test_fmv_column_blocks_are_bit_identical(monkeypatch, kind) -> None:
    # a cell budget of three columns: many blocks, mapped over 1, 2 and 3
    # threads, each reading its slice of a passed view or sorting its own
    rng = np.random.default_rng(41)
    n, p = 40, 23
    x = np.round(rng.normal(size=(n, p)), 1)
    x[:, 3] = rng.choice([-0.0, 0.0], size=n)
    x[:, 4] = rng.choice([-0.0, 0.0, 1.0], size=n)
    x[:, 5] = 1.0
    y = np.round(np.abs(x[:, 0] + rng.normal(size=n)) * 2)
    if kind is ResponseKind.CATEGORICAL:
        y = y % 3
    want = fmv_scores(x, y, kind, [3, 4, 5])  # one block at the default budget

    kernel = fmvscreen.screening.mv_hat_columns_multi
    widths = []

    def spy(xb, labels_list, **kwargs):
        widths.append(xb.shape[1])
        return kernel(xb, labels_list, **kwargs)

    monkeypatch.setattr(fmvscreen.screening, "mv_hat_columns_multi", spy)
    monkeypatch.setattr(fmvscreen.screening, "_BLOCK_CELLS", 3 * n)
    for threads in (1, 2, 3):
        for view in (None, ranked_columns(x)):
            widths.clear()
            fused, per_scheme, degenerate = fmv_scores(x, y, kind, [3, 4, 5],
                                                       threads=threads, ranked=view)
            assert per_scheme.tobytes() == want[1].tobytes()
            assert fused.tobytes() == want[0].tobytes() and degenerate == want[2]
            assert sum(widths) == p and max(widths) <= 3
            assert len(widths) % threads == 0 and max(widths) - min(widths) <= 1


def test_fmv_scores_checks_once_and_the_kernel_trusts_it(monkeypatch) -> None:
    # eight blocks of five columns: x, y and the view are checked once at the
    # entry, and the kernel runs none of the checks on any block
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    for name in ("check_matrix", "check_response", "check_ranked", "mv_hat_columns_multi"):
        counting(fmvscreen.screening, name)
    for name in ("check_matrix", "check_vector", "_check_labels"):
        counting(fmvscreen.mv, name)
    rng = np.random.default_rng(43)
    n, p = 30, 40
    x = np.round(rng.normal(size=(n, p)), 1)
    y = x[:, 0] + rng.normal(size=n)
    want = fmv_scores(x, y, schemes=[3, 4])
    monkeypatch.setattr(fmvscreen.screening, "_BLOCK_CELLS", 5 * n)
    for threads, view in ((1, None), (2, ranked_columns(x))):
        calls.clear()
        got = fmv_scores(x, y, schemes=[3, 4], threads=threads, ranked=view)
        assert got[1].tobytes() == want[1].tobytes()
        assert calls.count("fmvscreen.screening.mv_hat_columns_multi") == 8
        assert sorted(set(calls)) == ["fmvscreen.screening.check_matrix",
                                      "fmvscreen.screening.check_ranked",
                                      "fmvscreen.screening.check_response",
                                      "fmvscreen.screening.mv_hat_columns_multi"]
        assert calls.count("fmvscreen.screening.check_matrix") == 1
        assert calls.count("fmvscreen.screening.check_response") == 1


def test_fmv_blocks_name_the_bad_column_of_x(monkeypatch) -> None:
    monkeypatch.setattr(fmvscreen.screening, "_BLOCK_CELLS", 20)
    x = np.random.default_rng(0).normal(size=(10, 9))
    x[3, 7] = np.nan
    with pytest.raises(InputError, match="column 7 contains non-finite"):
        fmv_scores(x, x[:, 0] + 1.0, schemes=[3])


def test_import_leaves_the_thread_pool_unloaded() -> None:
    # concurrent.futures (with logging) is only imported where a pool is
    # made, so a single-threaded process never pays for it. The package
    # loads its modules on first use, so every one is imported by name.
    src = str(Path(fmvscreen.screening.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, fmvscreen.cli; from fmvscreen import *; "
            "print(all(f'fmvscreen.{m}' in sys.modules for m in fmvscreen._EXPORTS), "
            "'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "True False"


def test_auto_threads_follow_the_affinity_mask(monkeypatch) -> None:
    # taskset or a cgroup can pin the process to fewer CPUs than the host has
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert fmvscreen.screening._resolve_threads(0) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert fmvscreen.screening._resolve_threads(0) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert fmvscreen.screening._resolve_threads(0) == 1
    assert fmvscreen.screening._resolve_threads(3) == 3
