from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import fmvscreen.baselines
import fmvscreen.bench
import fmvscreen.mv
from fmvscreen import (
    ExperimentSpec,
    InputError,
    MmsSummary,
    mms,
    parse_table_csv,
    render_table_csv,
    render_table_text,
    run_replications,
    write_reports,
)


def test_mms_actives_in_leading_ranks() -> None:
    scores = np.arange(20, 0, -1, dtype=float)  # column j has rank j+1
    assert mms(scores, range(1, 9)) == 8


def test_mms_takes_worst_active_rank() -> None:
    scores = np.array([60.0, 50.0, 40.0, 30.0, 20.0, 10.0])
    assert mms(scores, [1, 2, 5]) == 5


def test_mms_full_active_set_is_p() -> None:
    scores = np.random.default_rng(0).normal(size=12)
    assert mms(scores, range(1, 13)) == 12


def test_mms_counts_a_tie_against_the_screener() -> None:
    # the active sets are the lowest indices, so ranking a tie by column
    # index would flatter the screener; every tied score counts instead
    scores = np.array([1.0, 1.0, 1.0])
    assert mms(scores, [1]) == 3
    assert mms(scores, [3]) == 3
    scores = np.array([3.0, 2.0, 2.0, 1.0, 2.0])
    assert mms(scores, [1]) == 1
    assert mms(scores, [2]) == mms(scores, [1, 3]) == 4
    assert mms(scores, [4]) == 5
    assert mms(np.zeros(6), [1, 2]) == 6  # an all-zero vector never reads as good


def test_mms_input_validation() -> None:
    with pytest.raises(InputError):
        mms(np.ones(3), [])
    with pytest.raises(InputError):
        mms(np.ones(3), [4])
    with pytest.raises(InputError):
        mms(np.ones(3), [0])


def small_spec() -> ExperimentSpec:
    return ExperimentSpec("1a", n=60, p=50)


def test_run_replications_deterministic_across_threads() -> None:
    # fmv, rcs and fks share one ranked view per replication
    names = ["fmv", "sis", "rcs", "fks"]
    serial = run_replications(small_spec(), names, reps=6, base_seed=3, threads=1)
    threaded = run_replications(small_spec(), names, reps=6, base_seed=3, threads=3)
    for a, b in zip(serial, threaded):
        assert a.screener == b.screener
        assert np.array_equal(a.mms, b.mms)
        assert a.median == b.median and a.sd == b.sd and a.se == b.se
    assert render_table_csv(serial) == render_table_csv(threaded)


def test_run_replications_summary_fields() -> None:
    out = run_replications(small_spec(), ["fmv"], reps=5, base_seed=1)
    summary = out[0]
    assert summary.experiment == "1a" and summary.screener == "fmv"
    assert summary.n_active == 8 and summary.replications == 5
    assert summary.mms.shape == (5,)
    assert np.all(summary.mms >= 8) and np.all(summary.mms <= 50)
    assert summary.median == float(np.median(summary.mms))
    assert summary.se == pytest.approx(summary.sd / np.sqrt(5))
    assert summary.spread_defined


def test_single_replication_flags_undefined_spread() -> None:
    out = run_replications(small_spec(), ["fmv"], reps=1, base_seed=2)
    assert out[0].sd == 0.0 and out[0].se == 0.0
    assert not out[0].spread_defined


def test_degenerate_replication_flagged_not_fatal() -> None:
    # base seed 13 at n=3 draws an all-zero count response in replication 0
    spec = ExperimentSpec("6", n=3, p=4)
    out = run_replications(spec, ["fmv"], reps=1, base_seed=13)
    assert out[0].degenerate_reps == (0,)
    assert out[0].mms[0] >= 1


def test_degenerate_replication_flagged_by_every_screener() -> None:
    # the all-zero count response must never read as a perfect ranking
    spec = ExperimentSpec("6", n=3, p=4)
    out = run_replications(spec, ["fmv", "sis", "rcs", "fks"], reps=1, base_seed=13)
    assert [s.screener for s in out] == ["fmv", "sis", "rcs", "fks"]
    for summary in out:
        assert summary.degenerate_reps == (0,), summary.screener


def test_degenerate_replications_counted_in_reports() -> None:
    spec = ExperimentSpec("6", n=3, p=4)
    out = run_replications(spec, ["fmv"], reps=1, base_seed=13)
    csv_text = render_table_csv(out)
    assert csv_text.split("\n")[1].endswith(",1")
    assert parse_table_csv(csv_text)[0]["degenerate"] == 1
    header, row = render_table_text(out).split("\n")[:2]
    assert header.split()[-1] == "degenerate" and row.split()[-1] == "1"


def test_flagged_replications_stay_out_of_summary_statistics() -> None:
    # the all-zero count response leaves every score 0, so each screener's
    # MMS is p (4); that value stays in mms but must never read as a median
    spec = ExperimentSpec("6", n=3, p=4)
    for summary in run_replications(spec, ["fmv", "sis", "rcs", "fks"], reps=1, base_seed=13):
        assert summary.mms.tolist() == [4], summary.screener
        assert summary.scored == 0 and not summary.spread_defined
        assert np.isnan(summary.median) and np.isnan(summary.sd) and np.isnan(summary.se)
    out = run_replications(spec, ["fmv"], reps=1, base_seed=13)
    row = parse_table_csv(render_table_csv(out))[0]
    assert row["scored"] == 0 and np.isnan(row["median"]) and np.isnan(row["se"])
    assert render_table_text(out).split("\n")[1].split()[4:6] == ["0", "nan"]


def test_summary_statistics_use_scored_replications_only(monkeypatch) -> None:
    # zero fmv's scores on every other replication, which flags it: its
    # summary must equal the statistics of the unflagged MMS values alone
    real = fmvscreen.bench._SCORERS["fmv"]
    calls = []

    def every_other(ds, schemes, ranked):
        scores = real(ds, schemes, ranked)
        calls.append(None)
        return np.zeros_like(scores) if len(calls) % 2 == 0 else scores

    monkeypatch.setitem(fmvscreen.bench._SCORERS, "fmv", every_other)
    summary, = run_replications(small_spec(), ["fmv"], reps=6, base_seed=3)
    assert summary.degenerate_reps == (1, 3, 5)
    assert summary.scored == 3 and summary.spread_defined
    kept = summary.mms[[0, 2, 4]]
    assert summary.median == float(np.median(kept))
    assert summary.sd == float(np.std(kept, ddof=1))
    assert summary.se == summary.sd / np.sqrt(3)


def test_summary_derives_its_statistics_from_the_scored_replications() -> None:
    summary = MmsSummary("1a", "fmv", 8, np.array([5, 3, 9, 4]), degenerate_reps=(2,))
    assert summary.replications == 4 and summary.scored == 3 and summary.spread_defined
    assert summary.median == 4.0
    assert summary.sd == np.std([5, 3, 4], ddof=1)
    assert summary.se == summary.sd / np.sqrt(3)


def test_summary_spread_with_one_or_no_scored_replication() -> None:
    one = MmsSummary("6", "sis", 2, np.array([7, 2]), degenerate_reps=(1,))
    assert one.scored == 1 and not one.spread_defined
    assert one.median == 7.0 and one.sd == 0.0 and one.se == 0.0
    none = MmsSummary("6", "sis", 2, np.array([2, 2]), degenerate_reps=(0, 1))
    assert none.replications == 2 and none.scored == 0 and not none.spread_defined
    assert np.isnan(none.median) and np.isnan(none.sd) and np.isnan(none.se)


def test_repeated_screener_name_gives_one_summary() -> None:
    once = run_replications(small_spec(), ["sis", "fmv"], reps=2, base_seed=4)
    repeated = run_replications(small_spec(), ["sis", "fmv", "sis"], reps=2, base_seed=4)
    assert [s.screener for s in repeated] == ["sis", "fmv"]
    assert render_table_csv(repeated) == render_table_csv(once)


@pytest.mark.parametrize("name", ["fmv", "sis", "rcs", "fks"])
def test_all_zero_scores_flag_every_screener(monkeypatch, name) -> None:
    # scores that rank nothing never read as a perfect MMS, whichever
    # screener returns them; the scorer is looked up in bench at call time
    target = {"fmv": "fmv_scores", "sis": "pearson_scores",
              "rcs": "kendall_scores", "fks": "fks_scores"}[name]
    real = getattr(fmvscreen.bench, target)

    def zeros(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        zero = np.zeros(x.shape[1])
        return (zero, *out[1:]) if isinstance(out, tuple) else zero

    monkeypatch.setattr(fmvscreen.bench, target, zeros)
    summary, = run_replications(small_spec(), [name], reps=2, base_seed=5)
    assert summary.degenerate_reps == (0, 1) and summary.scored == 0


def test_ranked_view_built_once_per_replication(monkeypatch) -> None:
    # two or more readers (fmv, fks, rcs) share a view bench builds; a lone
    # reader builds its own, so no view is held while sis runs
    real = fmvscreen.mv.ranked_columns
    calls = []

    def counting_in(module):
        def counting(x):
            calls.append((module.__name__, x.shape))
            return real(x)
        return counting

    for module in (fmvscreen.bench, fmvscreen.mv, fmvscreen.baselines):
        monkeypatch.setattr(module, "ranked_columns", counting_in(module))
    for screeners, builder in ((["fmv", "sis", "fks"], "fmvscreen.bench"),
                               (["fmv", "rcs", "fks"], "fmvscreen.bench"),
                               (["sis", "rcs"], "fmvscreen.baselines")):
        calls.clear()
        run_replications(small_spec(), screeners, reps=3, base_seed=2)
        assert calls == [(builder, (60, 50))] * 3, screeners


@pytest.mark.parametrize("case, screeners, bound", [("7", ["fmv", "sis", "fks"], 16.0),
                                                     ("2b", ["sis", "rcs"], 10.8)])
def test_replication_peak_per_cell(case, screeners, bound) -> None:
    # one replication's traced peak over its design's cells, input included:
    # design 7's is x, the shared two-byte view and fks's 3 MiB blocks, 2b's
    # x, rcs's own view and its pair comparison (tracemalloc, numpy 2.4: 15.2
    # and 10.47 B/cell); 2b took 10.99 while the view build held a float
    # copy and an int64 argsort order a block cell, and with 2**17-cell
    # blocks and fks's 6 MiB they took 17.7 and 12.7
    spec = ExperimentSpec(case)
    np.random.default_rng(0)  # numpy imports its random module on first use
    tracemalloc.start()
    try:
        summaries = run_replications(spec, screeners, reps=1, base_seed=3)
        peak = tracemalloc.get_traced_memory()[1] / (spec.n * spec.p)
    finally:
        tracemalloc.stop()
    assert not any(s.degenerate_reps for s in summaries)
    assert peak < bound


def test_scorer_bug_propagates(monkeypatch) -> None:
    # only data-degenerate errors are flagged; a plain ValueError is a bug
    def broken(*args, **kwargs):
        raise ValueError("injected scorer bug")

    monkeypatch.setattr(fmvscreen.bench, "pearson_scores", broken)
    with pytest.raises(ValueError, match="injected scorer bug"):
        run_replications(small_spec(), ["fmv", "sis"], reps=2, base_seed=0)


def test_screeners_share_instances_within_replication() -> None:
    spec = ExperimentSpec("1c", n=80, p=60)
    joint = run_replications(spec, ["fmv", "sis"], reps=4, base_seed=9)
    solo_fmv = run_replications(spec, ["fmv"], reps=4, base_seed=9)
    fmv_joint = next(s for s in joint if s.screener == "fmv")
    assert np.array_equal(fmv_joint.mms, solo_fmv[0].mms)


def test_unknown_screener_rejected() -> None:
    with pytest.raises(InputError):
        run_replications(small_spec(), ["dcs"], reps=2, base_seed=0)
    with pytest.raises(InputError):
        run_replications(small_spec(), [], reps=2, base_seed=0)
    with pytest.raises(InputError):
        run_replications(small_spec(), ["fmv"], reps=0, base_seed=0)


def test_render_single_summary_single_row() -> None:
    out = run_replications(small_spec(), ["fmv"], reps=2, base_seed=4)
    csv_text = render_table_csv(out)
    lines = csv_text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == ("experiment,screener,n_active,replications,scored,median,sd,se,"
                        "degenerate")


def test_render_is_order_insensitive() -> None:
    out = run_replications(small_spec(), ["sis", "fmv"], reps=2, base_seed=5)
    assert render_table_csv(out) == render_table_csv(out[::-1])
    assert render_table_text(out) == render_table_text(out[::-1])


def test_csv_round_trip() -> None:
    out = run_replications(small_spec(), ["fmv", "sis"], reps=3, base_seed=6)
    rows = parse_table_csv(render_table_csv(out))
    by_key = {(r["experiment"], r["screener"]): r for r in rows}
    for s in out:
        row = by_key[(s.experiment, s.screener)]
        assert row["n_active"] == s.n_active
        assert row["replications"] == s.replications
        assert row["scored"] == s.scored == 3
        assert row["median"] == s.median
        assert row["sd"] == s.sd
        assert row["se"] == s.se
        assert row["degenerate"] == 0


def test_parse_rejects_a_row_of_the_wrong_width() -> None:
    header, row = render_table_csv(
        run_replications(small_spec(), ["fmv"], reps=2, base_seed=6)).split("\n")[:2]
    for bad in (row + ",0", row.rsplit(",", 1)[0]):
        with pytest.raises(InputError, match="fields"):
            parse_table_csv(f"{header}\n{bad}\n")


def test_parse_rejects_a_non_numeric_field() -> None:
    header = fmvscreen.bench._CSV_HEADER
    for bad in ("1a,fmv,x,2,2,1.0,0.0,0.0,0", "1a,fmv,8,2,2,one,0.0,0.0,0"):
        with pytest.raises(InputError, match="malformed"):
            parse_table_csv(f"{header}\n{bad}\n")


def test_write_reports_layout(tmp_path) -> None:
    out = run_replications(small_spec(), ["fmv", "sis"], reps=2, base_seed=7)
    written = write_reports(out, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["1a_fmv.csv", "1a_sis.csv", "table1.csv"]
    combined = (tmp_path / "table1.csv").read_bytes()
    assert b"\r" not in combined  # LF endings only
    assert combined.decode("utf-8") == render_table_csv(out)
    single = parse_table_csv((tmp_path / "1a_fmv.csv").read_text(encoding="utf-8"))
    assert len(single) == 1 and single[0]["screener"] == "fmv"


def test_reports_reproducible(tmp_path) -> None:
    first = run_replications(small_spec(), ["fmv"], reps=4, base_seed=8, threads=2)
    second = run_replications(small_spec(), ["fmv"], reps=4, base_seed=8, threads=1)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_reports(first, dir_a)
    write_reports(second, dir_b)
    assert (dir_a / "table1.csv").read_bytes() == (dir_b / "table1.csv").read_bytes()
