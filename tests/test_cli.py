from __future__ import annotations

import cProfile
import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fmvscreen.cli
from fmvscreen import (
    ExperimentSpec,
    gen_experiment,
    mms,
    render_table_csv,
    run_replications,
    screen,
)
from fmvscreen.cli import main
from fmvscreen.errors import InputError
from fmvscreen.simulate import _standard_cauchy, derived_rng


def write_toy_csv(path, n=30, p=13, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = x[:, 0] + 0.3 * rng.normal(size=n)
    names = ["resp"] + [f"c{j}" for j in range(1, p + 1)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(n):
            fh.write(",".join([repr(float(y[i]))] + [repr(float(v)) for v in x[i]]) + "\n")
    return names


def test_simulate_censored_case_shape(tmp_path) -> None:
    out = tmp_path / "exp7.csv"
    assert main(["simulate", "--cases", "7", "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 401
    header = lines[0].split(",")
    assert header[:2] == ["y", "censored"]
    assert len(header) == 1002
    active = (tmp_path / "exp7_active.csv").read_text().strip().split("\n")
    assert active == ["active_index", "1", "2", "3", "4"]


def test_simulate_deterministic_bytes(tmp_path) -> None:
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--cases", "7", "--seed", "11", "--out", str(a)]) == 0
    assert main(["simulate", "--cases", "7", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("case, seed", [("7", 3), ("1c", 0)])
def test_simulate_bytes_are_per_cell_repr(tmp_path, case, seed) -> None:
    # every float cell is its repr, the censoring flag 0 or 1
    out = tmp_path / "draw.csv"
    assert main(["simulate", "--cases", case, "--seed", str(seed), "--out", str(out)]) == 0
    instance = gen_experiment(ExperimentSpec(id=case, seed=seed))
    ds, mask = instance.dataset, instance.censor_mask
    lines = [",".join(["y"] + ([] if mask is None else ["censored"])
                      + [f"x{j}" for j in range(1, ds.p + 1)])]
    for i in range(ds.n):
        cells = [repr(float(ds.y[i]))] + ([] if mask is None else [str(int(mask[i]))])
        lines.append(",".join(cells + [repr(float(v)) for v in ds.x[i]]))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_simulate_linear_case_shape(tmp_path) -> None:
    out = tmp_path / "exp1a.csv"
    assert main(["simulate", "--cases", "1a", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 201
    assert len(lines[0].split(",")) == 3001


def test_simulate_unknown_case(tmp_path, capsys) -> None:
    rc = main(["simulate", "--cases", "zz", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "unknown experiment id" in capsys.readouterr().err


def test_screen_round_trips_simulated_data(tmp_path) -> None:
    data = tmp_path / "exp1a.csv"
    ranked = tmp_path / "ranked.csv"
    assert main(["simulate", "--cases", "1a", "--seed", "21", "--out", str(data)]) == 0
    assert main(["screen", "--input", str(data), "--response", "y",
                 "--out", str(ranked)]) == 0

    lines = ranked.read_text().strip().split("\n")
    assert lines[0] == "rank,column,fused_score,mv_s3,mv_s4,mv_s5,mv_s6"
    assert len(lines) == 3001

    # ranking read back from the file reproduces the in-memory pipeline's MMS
    active = [int(v) for v in
              (tmp_path / "exp1a_active.csv").read_text().strip().split("\n")[1:]]
    rank_of = {}
    for ln in lines[1:]:
        rank, column = ln.split(",")[:2]
        rank_of[column] = int(rank)
    file_mms = max(rank_of[f"x{a}"] for a in active)

    instance = gen_experiment(ExperimentSpec("1a", seed=21))
    result = screen(instance.dataset, d_n=instance.dataset.p)
    memory_mms = mms(result.scores, active)
    assert file_mms == memory_mms


def test_screen_interactions_and_noise_reproduce_wide_design(tmp_path) -> None:
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=30, p=13)
    ranked = tmp_path / "ranked.csv"
    args = ["screen", "--input", str(data), "--response", "resp",
            "--interactions", "all", "--noise", "2909", "--seed", "5",
            "--out", str(ranked)]
    assert main(args) == 0
    lines = ranked.read_text().strip().split("\n")
    assert len(lines) == 3001  # 13 raw + 78 interactions + 2909 noise
    columns = [ln.split(",")[1] for ln in lines[1:]]
    raw_or_interaction = [c for c in columns if not c.startswith("noise")]
    assert len(raw_or_interaction) == 91
    assert "c1*c2" in columns

    again = tmp_path / "ranked2.csv"
    assert main(args[:-1] + [str(again)]) == 0
    assert ranked.read_bytes() == again.read_bytes()


def test_screen_stacks_raw_then_products_then_seeded_noise(tmp_path, monkeypatch) -> None:
    # the products follow itertools.combinations over the named columns; the
    # noise block is the seeded Cauchy draw, tan(pi * (u - 0.5)), bit for bit
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=30, p=5)
    raw = np.loadtxt(data, delimiter=",", skiprows=1)[:, 1:]
    seen = []
    real = fmvscreen.cli.fmv_scores

    def spy(x, *args, **kwargs):
        seen.append(x.copy())
        return real(x, *args, **kwargs)

    monkeypatch.setattr(fmvscreen.cli, "fmv_scores", spy)
    ranked = tmp_path / "ranked.csv"
    assert main(["screen", "--input", str(data), "--response", "resp", "--schemes", "3",
                 "--interactions", "c4,c1,c2", "--noise", "7", "--seed", "4",
                 "--out", str(ranked)]) == 0
    (x,) = seen
    assert x.shape == (30, 5 + 3 + 7)
    assert x[:, :5].tobytes() == raw.tobytes()
    products = [raw[:, a] * raw[:, b] for a, b in ((0, 1), (0, 3), (1, 3))]
    assert x[:, 5:8].tobytes() == np.column_stack(products).tobytes()
    noise = _standard_cauchy(derived_rng(4, 0), (30, 7))
    assert x[:, 8:].tobytes() == noise.tobytes()
    u = derived_rng(4, 0).random((30, 7))
    assert noise.tobytes() == np.tan(np.pi * (u - 0.5)).tobytes()
    columns = {ln.split(",")[1] for ln in ranked.read_text().strip().split("\n")[1:]}
    assert {"c1*c2", "c1*c4", "c2*c4", "noise1", "noise7"} <= columns


def test_screen_rejects_a_negative_noise_count(tmp_path, capsys) -> None:
    # --noise -1 used to append no column and exit 0
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=40, p=5)
    ranked = tmp_path / "ranked.csv"
    rc = main(["screen", "--input", str(data), "--response", "resp",
               "--schemes", "3", "--noise", "-1", "--out", str(ranked)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--noise" in err
    assert not ranked.exists()


def test_screen_interactions_take_a_repeated_name_once(tmp_path) -> None:
    # c1,c1,c2 names two columns: one product, no self-product
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=40, p=5)
    once, repeated = tmp_path / "once.csv", tmp_path / "repeated.csv"
    for subset, out in (("c1,c2", once), ("c1,c1,c2", repeated)):
        assert main(["screen", "--input", str(data), "--response", "resp",
                     "--schemes", "3", "--interactions", subset, "--out", str(out)]) == 0
    columns = [ln.split(",")[1] for ln in repeated.read_text().strip().split("\n")[1:]]
    assert sorted(columns) == ["c1", "c1*c2", "c2", "c3", "c4", "c5"]
    assert repeated.read_bytes() == once.read_bytes()


def test_screen_rejects_a_repeated_slice_count(tmp_path, capsys) -> None:
    # scheme 3 given twice would enter the fused score twice
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=40, p=5)
    ranked = tmp_path / "ranked.csv"
    rc = main(["screen", "--input", str(data), "--response", "resp",
               "--schemes", "3,4,3", "--out", str(ranked)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "slice count 3" in err
    assert not ranked.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_screen_categorical_below_27_rows_warns_about_no_scheme(tmp_path, capsys) -> None:
    data = tmp_path / "small.csv"
    rows = ["resp,a,b"] + [f"{i % 3}.0,{i}.5,{(i * 7) % 5}.25" for i in range(20)]
    data.write_text("\n".join(rows) + "\n")
    ranked = tmp_path / "ranked.csv"
    assert main(["screen", "--input", str(data), "--response", "resp",
                 "--kind", "categorical", "--out", str(ranked)]) == 0
    assert ranked.read_text().split("\n")[0] == "rank,column,fused_score,mv_labels"
    assert capsys.readouterr().err == ""


def test_screen_prints_the_small_sample_fallback_as_one_warning_line(tmp_path, capsys) -> None:
    # the library's RuntimeWarning would print its source path and line; the
    # report is the one of the single 3-slice scheme the fallback takes
    data = tmp_path / "small.csv"
    write_toy_csv(data, n=20, p=6)
    reports = []
    for extra in ([], ["--schemes", "3"]):
        ranked = tmp_path / f"ranked{len(extra)}.csv"
        assert main(["screen", "--input", str(data), "--response", "resp",
                     "--out", str(ranked), *extra]) == 0
        reports.append(ranked.read_bytes())
        err = capsys.readouterr().err
        if not extra:
            assert err == ("warning: sample size 20 is below 27; "
                           "falling back to a single 3-slice scheme\n")
    assert err == ""
    assert reports[0] == reports[1]
    with pytest.warns(RuntimeWarning, match="below 27"):
        fmvscreen.cli._resolve_schemes(None, "continuous", 20)


def test_screen_dn_larger_than_p_ranks_all(tmp_path) -> None:
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=40, p=5)
    ranked = tmp_path / "ranked.csv"
    assert main(["screen", "--input", str(data), "--response", "resp",
                 "--schemes", "3", "--dn", "99", "--out", str(ranked)]) == 0
    assert len(ranked.read_text().strip().split("\n")) == 6


@pytest.mark.parametrize("dn", ["0", "-1"])
def test_screen_rejects_dn_below_one(tmp_path, capsys, dn) -> None:
    # --dn -1 would slice off the last column and --dn 0 write a bare header
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=40, p=5)
    ranked = tmp_path / "ranked.csv"
    rc = main(["screen", "--input", str(data), "--response", "resp",
               "--schemes", "3", "--dn", dn, "--out", str(ranked)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--dn" in err
    assert not ranked.exists()


def test_screen_drops_rows_with_missing_cells(tmp_path, capsys) -> None:
    data = tmp_path / "gaps.csv"
    rows = ["resp,a,b"] + [f"{i}.0,{i}.5,{i}.25" for i in range(30)]
    rows[3] = "2.0,,1.0"
    rows[7] = "6.0,NA,3.0"
    data.write_text("\n".join(rows) + "\n")
    ranked = tmp_path / "ranked.csv"
    assert main(["screen", "--input", str(data), "--response", "resp",
                 "--schemes", "3", "--out", str(ranked)]) == 0
    assert "dropped 2 rows" in capsys.readouterr().err


def test_screen_rejects_degenerate_response(tmp_path, capsys) -> None:
    # a constant response leaves every slicing with one slice, so every score
    # is 0; the ranking would only restate the column order
    data = tmp_path / "flat.csv"
    rows = ["resp,a,b"] + [f"0.0,{i}.5,{i % 4}.25" for i in range(30)]
    data.write_text("\n".join(rows) + "\n")
    ranked = tmp_path / "ranked.csv"
    for kind in ("continuous", "count", "categorical"):
        rc = main(["screen", "--input", str(data), "--response", "resp",
                   "--kind", kind, "--schemes", "3", "--out", str(ranked)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "degenerate" in err
        assert not ranked.exists()


def test_screen_names_non_numeric_column(tmp_path, capsys) -> None:
    data = tmp_path / "bad.csv"
    data.write_text("resp,a,b\n1.0,red,2.0\n2.0,blue,3.0\n")
    rc = main(["screen", "--input", str(data), "--response", "resp",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "'a'" in capsys.readouterr().err


def test_screen_names_the_first_bad_cell_in_reading_order(tmp_path, capsys) -> None:
    # bad cells in column b (row 2) and column a (row 4): the earlier row comes
    # first, and within a row the leftmost cell
    data = tmp_path / "bad.csv"
    data.write_text("resp,a,b\n1.0,1.5,oops\n2.0,2.5,3.0\n3.0, bad ,4.0\n")
    rc = main(["screen", "--input", str(data), "--response", "resp",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: column 'b' has non-numeric value 'oops' in row 2\n")
    data.write_text("resp,a,b\n1.0,x,oops\n")
    assert main(["screen", "--input", str(data), "--response", "resp",
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == "error: column 'a' has non-numeric value 'x' in row 2\n"


@pytest.mark.parametrize("cell, shown", [("inf", "inf"), (" -Infinity ", "-inf"),
                                         ("1e999", "inf"), ("-1e999", "-inf")])
@pytest.mark.parametrize("column", ["resp", "b"])
def test_screen_names_a_non_finite_cell_by_column_and_row(tmp_path, capsys, cell,
                                                          shown, column) -> None:
    # it used to surface after the read as a predictor index with no row
    rows = [f"{i}.5,{i}.25,{i}" for i in range(40)]
    j = ["resp", "a", "b"].index(column)
    cells = rows[6].split(",")
    cells[j] = cell
    rows[6] = ",".join(cells)
    data = tmp_path / "inf.csv"
    data.write_text("\n".join(["resp,a,b"] + rows) + "\n")
    ranked = tmp_path / "r.csv"
    rc = main(["screen", "--input", str(data), "--response", "resp", "--out", str(ranked)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: column {column!r} has non-finite value {shown} in row 8\n")
    assert not ranked.exists()


def test_screen_raises_a_non_finite_cell_in_reading_order(tmp_path, capsys) -> None:
    # 1e999 and 1.2.3 are both plain, so both rows fall in one 64-line block
    # that np.loadtxt rejects and csv.reader reads again row by row
    rows = [f"{i}.5,{i}.25,{i}" for i in range(60)]
    data = tmp_path / "faults.csv"

    def err(changes):
        body = list(rows)
        for k, line in changes.items():
            body[k] = line
        data.write_text("\n".join(["resp,a,b"] + body) + "\n")
        assert main(["screen", "--input", str(data), "--response", "resp",
                     "--out", str(tmp_path / "r.csv")]) == 2
        return capsys.readouterr().err

    inf_row_3 = "error: column 'a' has non-finite value inf in row 3\n"
    assert err({1: "1.5,1e999,1", 3: "3.5,1.2.3,3"}) == inf_row_3
    assert err({1: "1.5,1e999,1", 3: "3.5,oops,3"}) == inf_row_3
    assert err({1: "1.5,inf,1", 3: "3.5,1.2.3,3"}) == inf_row_3
    assert err({1: "1.5,1e999,1", 3: "3.5,3"}) == inf_row_3
    assert err({1: "1.5,1e999,1.2.3"}) == inf_row_3
    assert err({1: "1.5,1.2.3,1e999"}) == (
        "error: column 'a' has non-numeric value '1.2.3' in row 3\n")
    assert err({1: "1.5,NA,1", 3: "3.5,3,-1e999"}) == (
        "error: column 'b' has non-finite value -inf in row 5\n")
    assert err({1: "1.5,1.2.3,1", 3: "3.5,1e999,3"}) == (
        "error: column 'a' has non-numeric value '1.2.3' in row 3\n")
    assert not (tmp_path / "r.csv").exists()


def test_screen_rejects_a_header_that_repeats_a_name(tmp_path, capsys) -> None:
    # report rows are keyed by name, so y,a,a used to write two rows named a;
    # the header is checked before the response and the body
    data = tmp_path / "dup.csv"
    ranked = tmp_path / "r.csv"
    for header, response, name in (("resp,a,a", "resp", "a"), ("resp,a,b,a", "nope", "a"),
                                   ("resp,resp,a", "resp", "resp")):
        width = header.count(",") + 1
        rows = [",".join(["1.5"] * width), ",".join(["oops"] * width)]
        data.write_text("\n".join([header] + rows) + "\n")
        rc = main(["screen", "--input", str(data), "--response", response,
                   "--out", str(ranked)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: header repeats column name {name!r}\n"
        assert not ranked.exists()


def test_screen_rejects_an_added_column_that_repeats_a_name(tmp_path, capsys) -> None:
    # an interaction or noise column named like a header column (or like
    # an earlier added one) used to write two report rows of one name
    data = tmp_path / "clash.csv"
    ranked = tmp_path / "r.csv"
    rng = np.random.default_rng(5)
    for header, added, name in (("resp,a,b,a*b", ["--interactions", "a,b"], "a*b"),
                                ("resp,a,noise1", ["--noise", "2"], "noise1"),
                                ("resp,a,b*c,a*b,c", ["--interactions", "all"], "a*b*c"),
                                ("resp,a,b", ["--interactions", "a,b"], None)):
        width = header.count(",") + 1
        rows = [",".join(f"{v:.3f}" for v in rng.normal(size=width)) for _ in range(40)]
        data.write_text("\n".join([header] + rows) + "\n")
        rc = main(["screen", "--input", str(data), "--response", "resp", *added,
                   "--out", str(ranked)])
        if name is None:
            assert rc == 0 and ranked.exists()
            continue
        assert rc == 2
        assert capsys.readouterr().err == f"error: added column {name!r} repeats a column name\n"
        assert not ranked.exists()


def test_plain_line_test_in_bytes_matches_the_text_test() -> None:
    # _is_plain deletes the plain bytes from the line's UTF-8 encoding; it
    # must agree with deleting the same characters from the text, also on
    # non-ASCII characters, NUL, tabs, quotes and spaces
    text_table = str.maketrans("", "", "0123456789.+-eE,\r\n")

    def by_text(line: str) -> bool:
        body = line.rstrip("\r\n")
        return (not line.translate(text_table) and body != "" and body[0] != ","
                and body[-1] != "," and ",," not in body)

    rng = np.random.default_rng(13)
    alphabet = list("0123456789.+-eE,,,\r\n") + ["\t", "\x00", '"', " ", "é", "\u00b5",
                                                     "\u2212", "\U0001f600", "x", "\x7f"]
    lines = ["", "\n", "1,2\n", "1.5e3,-2\r\n", ",1\n", "1,\n", "1,,2\n", "1,\u22122\n"]
    for _ in range(4000):
        cells = rng.choice(alphabet, size=int(rng.integers(1, 12)))
        plain = rng.random() < 0.5
        if plain:
            cells = [c for c in cells if c in "0123456789.+-eE,"] or ["1"]
        lines.append("".join(cells) + rng.choice(["", "\n", "\r\n"]))
    assert all(fmvscreen.cli._is_plain(line) == by_text(line) for line in lines)
    assert sum(map(by_text, lines)) > 100  # both answers are exercised


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_screen_names_an_overflowing_interaction(tmp_path, capsys) -> None:
    # it used to be named by its index in the widened matrix, after a numpy
    # RuntimeWarning on stderr
    data = tmp_path / "big.csv"
    rows = [f"{i}.5,{i}e200,{i}.25,{i}e200" for i in range(1, 40)]
    data.write_text("\n".join(["resp,a,b,c"] + rows) + "\n")
    ranked = tmp_path / "r.csv"
    for subset in ("a,b,c", "all"):
        rc = main(["screen", "--input", str(data), "--response", "resp",
                   "--interactions", subset, "--out", str(ranked)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: interaction column 'a*c' overflows the float range\n")
        assert not ranked.exists()
    assert main(["screen", "--input", str(data), "--response", "resp",
                 "--interactions", "a,b", "--out", str(ranked)]) == 0


def test_parse_missing_tokens_and_padded_numbers(tmp_path) -> None:
    header = ["resp", "a", "b"]
    rows = [[" 1.5 ", "nan", "2"],
            ["2.5", " NA ", "3"],
            ["\t3.5\t", " -0.25 ", "4e0"],
            ["4.5", "1", "NaN"],
            ["5.5", "", "7"],
            ["6.5", "2", " 6 "]]
    data = tmp_path / "cells.csv"
    data.write_text("\n".join(",".join(row) for row in [header] + rows) + "\n")
    _, _, y, x, dropped = fmvscreen.cli._read_matrix(str(data), "resp")
    assert dropped == 4
    assert y.tolist() == [3.5, 6.5]
    assert x.tolist() == [[-0.25, 4.0], [2.0, 6.0]]


@pytest.mark.parametrize("where", ["header", "body"])
def test_screen_rejects_a_file_that_is_not_utf8(tmp_path, capsys, where) -> None:
    # the body fault sits past the first read-ahead chunk, inside the
    # streamed rows rather than in the text decoded with the header
    data = tmp_path / "latin1.csv"
    rows = [b"1.0,2.0,3.0\n"] * 2000
    if where == "header":
        data.write_bytes(b"resp,caf\xe9,b\n" + b"".join(rows))
    else:
        data.write_bytes(b"resp,a,b\n" + b"".join(rows) + b"2.0,caf\xe9,1.0\n")
    rc = main(["screen", "--input", str(data), "--response", "resp",
               "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {data} is not UTF-8 text\n"
    assert not (tmp_path / "r.csv").exists()


def test_screen_reports_a_bad_cell_before_a_later_undecodable_byte(tmp_path, capsys) -> None:
    # the read stops at the bad cell in row 2 and never decodes the byte that
    # sits far past the header's read-ahead chunk
    data = tmp_path / "mixed.csv"
    rows = [b"1.0,2.0,3.0\n"] * 20000
    data.write_bytes(b"resp,a,b\n1.0,oops,2.0\n" + b"".join(rows) + b"2.0,caf\xe9,1.0\n")
    rc = main(["screen", "--input", str(data), "--response", "resp",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: column 'a' has non-numeric value 'oops' in row 2\n")


def test_screen_rejects_a_cell_past_the_csv_field_limit(tmp_path, capsys) -> None:
    data = tmp_path / "long.csv"
    data.write_text("resp,a,b\n1.0,2.0,3.0\n" + f'2.0,"{"9" * 140000}",1.0\n'
                    + "3.0,1.0,2.0\n")
    rc = main(["screen", "--input", str(data), "--response", "resp",
               "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(data) in err and "field limit" in err


@pytest.mark.parametrize("response", ["resp", "c3"])
def test_screen_reads_past_a_utf8_byte_order_mark(tmp_path, capsys, response) -> None:
    # spreadsheets' "CSV UTF-8" exports start with one; it is no part of the
    # first column's name, whether that column is the response or a predictor
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=40, p=6)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    outcomes = []
    for path in (data, marked):
        out = tmp_path / f"{path.stem}_ranked.csv"
        rc = main(["screen", "--input", str(path), "--response", response, "--out", str(out)])
        outcomes.append((rc, capsys.readouterr().err, out.read_bytes()))
    assert outcomes[0][0] == 0
    assert outcomes[1] == outcomes[0]


def test_screen_missing_response_column(tmp_path, capsys) -> None:
    data = tmp_path / "toy.csv"
    write_toy_csv(data)
    rc = main(["screen", "--input", str(data), "--response", "nope",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2


def test_bench_cli_writes_reports(tmp_path, capsys) -> None:
    out_dir = tmp_path / "reports"
    rc = main(["bench", "--cases", "1c,1a", "--screeners", "fmv,sis",
               "--reps", "2", "--seed", "7", "--out", str(out_dir)])
    assert rc == 0
    table = (out_dir / "table1.csv").read_text()
    assert len(table.strip().split("\n")) == 5  # header + 2 cases x 2 screeners
    for name in ("1a_fmv.csv", "1a_sis.csv", "1c_fmv.csv", "1c_sis.csv"):
        assert (out_dir / name).exists()
    stdout = capsys.readouterr().out
    assert "experiment" in stdout and "median" in stdout


@pytest.mark.parametrize("cases, screeners", [("1c", "sis,sis"), ("1c,1c", "sis")])
def test_bench_cli_takes_a_repeated_name_once(tmp_path, capsys, cases, screeners) -> None:
    out_dir = tmp_path / "reports"
    assert main(["bench", "--cases", cases, "--screeners", screeners, "--reps", "2",
                 "--out", str(out_dir)]) == 0
    assert len((out_dir / "table1.csv").read_text().strip().split("\n")) == 2
    stdout = capsys.readouterr().out.splitlines()
    assert [ln.split()[:2] for ln in stdout[1:-1]] == [["1c", "sis"]]
    assert stdout[-1] == f"wrote 2 report files to {out_dir}"


def test_bench_cli_thread_count_does_not_change_reports(tmp_path) -> None:
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    base = ["bench", "--cases", "1c", "--screeners", "fmv,rcs,fks", "--reps", "2",
            "--seed", "9"]
    assert main(base + ["--threads", "1", "--out", str(dir_a)]) == 0
    assert main(base + ["--threads", "2", "--out", str(dir_b)]) == 0
    assert (dir_a / "table1.csv").read_bytes() == (dir_b / "table1.csv").read_bytes()


def test_bench_cli_rejects_unknown_screener(tmp_path, capsys) -> None:
    rc = main(["bench", "--cases", "1a", "--screeners", "magic",
               "--reps", "1", "--out", str(tmp_path / "r")])
    assert rc == 2


def test_bench_cli_warns_on_degenerate_replications(tmp_path, capsys, monkeypatch) -> None:
    # base seed 13 at n=3 draws an all-zero count response in replication 0
    monkeypatch.setattr(fmvscreen.cli, "ExperimentSpec",
                        lambda id, seed: ExperimentSpec(id, n=3, p=4, seed=seed))
    out_dir = tmp_path / "reports"
    assert main(["bench", "--cases", "6", "--screeners", "fmv,sis", "--reps", "1",
                 "--seed", "13", "--out", str(out_dir)]) == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("warning:")]
    assert len(warnings) == 2
    assert "6/fmv: 1 of 1 replications degenerate" in warnings[0]
    assert "6/sis: 1 of 1 replications degenerate" in warnings[1]
    # the warning goes to stderr; the report is what run_replications renders
    spec = ExperimentSpec("6", n=3, p=4)
    expected = render_table_csv(run_replications(spec, ["fmv", "sis"], 1, base_seed=13))
    assert (out_dir / "table1.csv").read_text() == expected


def reference_read(path, response):
    """screen's parse contract, evaluated the slow way: the whole file through
    csv.reader, then every cell through strip, the missing tokens and float().
    Faults in reading order: a repeated header name, the response column,
    then row by row a wrong length or the row's leftmost non-numeric or
    infinite cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    if not records:
        raise InputError(f"{path} is empty")
    header, rows = records[0], [row for row in records[1:] if row]
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise InputError(f"header repeats column name {repeated[0]!r}")
    if response in header:
        y_idx = header.index(response)
    else:
        try:
            y_idx = int(response)
        except ValueError:
            raise InputError(f"response column {response!r} not found") from None
        if not 0 <= y_idx < len(header):
            raise InputError(f"response index {y_idx} out of range for {len(header)} columns")
    values = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise InputError(f"row {i + 2} has {len(row)} cells, header has {len(header)}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell.lower() in {"", "na", "nan", "null", "none"}:
                values[i, j] = np.nan
                continue
            try:
                value = float(cell)
            except ValueError:
                raise InputError(f"column {header[j]!r} has non-numeric value {cell!r} "
                                 f"in row {i + 2}") from None
            if math.isinf(value):
                raise InputError(f"column {header[j]!r} has non-finite value {value!r} "
                                 f"in row {i + 2}")
            values[i, j] = value
    keep = ~np.isnan(values).any(axis=1)
    return header, y_idx, values[keep], int(len(rows) - keep.sum())


def reference_split(path, response):
    """reference_read's matrix split into the response and the predictors."""
    header, y_idx, mat, dropped = reference_read(path, response)
    return header, y_idx, mat[:, y_idx], np.delete(mat, y_idx, axis=1), dropped


def read_outcome(reader, path, response):
    try:
        header, y_idx, y, x, dropped = reader(str(path), response)
    except InputError as exc:
        return "error", str(exc)
    return header, y_idx, y.shape, y.tobytes(), x.shape, x.tobytes(), dropped


PLAIN_CELLS = ["1.5", "-2", "+3e-2", "1E5", ".5", "5.", "0", "-0.0", "0.0", "7",
               "12345678901234567890.25", "1.7e308", "2.5e-310"]
OTHER_GOOD_CELLS = [" 1.5 ", '"2.5"', "1_0", "\u0661\u0662", "\t3\t", '"4.5\n"', "+1.0 "]
MISSING_CELLS = ["", "NA", " na ", "NaN", "nUlL", " None ", "nan", "\tNA"]
BAD_CELLS = ["#", "oops", "N/A", '"1,0"', "1e", ".", "-", "e5", "1.2.3", "--1", "0x10"]
# they parse, but an infinite cell is a fault; the last two are plain
NON_FINITE_CELLS = ["inf", "-Infinity", " +INF ", "1e999", "-1e999"]
ENDINGS = ["\n", "\r\n", "\r"]


def random_csv(rng, rows, p, faults, kinds=5):
    """A CSV text of ``rows`` data rows and p columns; ``faults`` is the
    chance of a non-plain, missing, bad or non-finite, ragged or blank line,
    the first ``kinds`` of these five."""
    header = ["y"] + [f"c{j}" for j in range(1, p)]
    lines = [",".join(header)]
    for _ in range(rows):
        cells = [str(c) for c in rng.choice(PLAIN_CELLS, size=p)]
        if rng.random() < faults:
            kind = rng.integers(kinds)
            pool = [OTHER_GOOD_CELLS, MISSING_CELLS, BAD_CELLS + NON_FINITE_CELLS][min(kind, 2)]
            cells[rng.integers(p)] = str(rng.choice(pool))
            if kind == 3:
                cells = cells[:-1] if rng.random() < 0.5 else cells + ["1"]
            elif kind == 4:
                lines.append(str(rng.choice(["", "  ", "\t"])))
        lines.append(",".join(cells))
    ending = ENDINGS[rng.integers(3)]
    text = ending.join(lines)
    return text + ending if rng.random() < 0.8 else text


def test_reader_matches_reference_parser(tmp_path) -> None:
    # rows at and around the reader's block size, and past several growth
    # steps of its buffers, with faults of every kind; half the files hold
    # only non-plain and missing cells, so long ones are read to the end
    block = fmvscreen.cli._BLOCK_LINES
    rng = np.random.default_rng(2026)
    outcomes = set()
    for case in range(480):
        rows = [block - 1, block, block + 1, 2 * block + 1, 5 * block + 3,
                int(rng.integers(0, 9))][case % 6]
        p = int(rng.integers(1, 6))
        faults = [0.0, 0.02, 0.1, 0.5][case // 6 % 4]
        kinds = [2, 5][case // 24 % 2]
        path = tmp_path / f"case{case}.csv"
        path.write_text(random_csv(rng, rows, p, faults, kinds), encoding="utf-8",
                        newline="")
        # the response first, in the middle, last, by index, unknown, out of range
        response = str(rng.choice(["y", f"c{p // 2}", f"c{p - 1}", str(rng.integers(p)),
                                   "nope", str(p)]))
        want = read_outcome(reference_split, path, response)
        assert read_outcome(fmvscreen.cli._read_matrix, path, response) == want, case
        outcomes.add("ok" if want[0] != "error" else
                     "non-finite" if "non-finite" in want[1] else want[1].split()[0])
    # every kind of fault was met: ragged rows, the response, bad and
    # non-finite cells
    assert {"ok", "row", "response", "column", "non-finite"} <= outcomes
    # long files with missing and non-plain rows, the response first, in the
    # middle, last and by index
    for response in ["y", "c2", "c4", "3"]:
        path = tmp_path / f"long_{response}.csv"
        path.write_text(random_csv(rng, 5 * block + 3, 5, 0.2, kinds=2), encoding="utf-8",
                        newline="")
        want = read_outcome(reference_split, path, response)
        assert want[0] != "error" and want[2][0] > 4 * block and want[-1] > 0
        assert read_outcome(fmvscreen.cli._read_matrix, path, response) == want, response


@pytest.mark.parametrize("ending", ENDINGS)
def test_reader_line_endings_blank_lines_and_quotes(tmp_path, ending) -> None:
    lines = ["y,a,b", "1,2,3", "", "  ", '"4.5","5",6', '7,"8\n",9', "\t", "10,11,12"]
    path = tmp_path / "mixed.csv"
    path.write_text(ending.join(lines) + ending, encoding="utf-8", newline="")
    want = read_outcome(reference_split, path, "y")
    assert want[0] == "error" and "row 3 has 1 cells" in want[1]
    assert read_outcome(fmvscreen.cli._read_matrix, path, "y") == want
    path.write_text(ending.join(lines[:3] + lines[4:6] + lines[7:]) + ending,
                    encoding="utf-8", newline="")
    header, y_idx, y, x, dropped = fmvscreen.cli._read_matrix(str(path), "b")
    assert (header, y_idx, dropped) == (["y", "a", "b"], 2, 0)
    assert y.tolist() == [3, 6, 9, 12]
    assert x.tolist() == [[1, 2], [4.5, 5], [7, 8], [10, 11]]
    assert read_outcome(reference_split, path, "b") == read_outcome(
        fmvscreen.cli._read_matrix, path, "b")


def test_screen_fault_order_follows_the_read(tmp_path, capsys) -> None:
    # the response is resolved from the header, then rows fail in file order
    rows = [f"{i}.5,{i}.25,{i}" for i in range(70)]
    rows[3] = "3.5,oops,3"
    data = tmp_path / "bad.csv"

    def err(response, body):
        data.write_text("\n".join(["resp,a,b"] + body) + "\n")
        rc = main(["screen", "--input", str(data), "--response", response,
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        return capsys.readouterr().err

    bad_cell = "error: column 'a' has non-numeric value 'oops' in row 5\n"
    unknown = "error: response column 'nope' not found\n"
    assert err("resp", rows) == bad_cell
    assert err("nope", rows) == unknown
    ragged = rows[:66] + ["1,2,3,4"] + rows[66:]  # after the bad cell, in a later block
    assert err("resp", ragged) == bad_cell
    assert err("nope", ragged) == unknown
    ragged = rows[:1] + ["1,2"] + rows[1:]  # before the bad cell, in the same block
    assert err("resp", ragged) == "error: row 3 has 2 cells, header has 3\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("hook", ["cprofile", "setprofile", "settrace"])
def test_screen_runs_under_a_profiler_or_tracer(tmp_path, hook) -> None:
    # a profile or trace hook holds one more reference during each call,
    # and numpy's resize refcheck would refuse to grow the reader's buffers
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=150, p=6)
    plain, hooked = tmp_path / "plain.csv", tmp_path / "hooked.csv"
    argv = ["screen", "--input", str(data), "--response", "resp", "--out"]
    assert main(argv + [str(plain)]) == 0
    saved = sys.getprofile(), sys.gettrace()
    profiler = cProfile.Profile()
    if hook == "cprofile":
        profiler.enable()
    elif hook == "setprofile":
        sys.setprofile(lambda frame, event, arg: None)
    else:
        sys.settrace(lambda frame, event, arg: None)
    try:
        rc = main(argv + [str(hooked)])
    finally:
        profiler.disable()
        sys.setprofile(saved[0])
        sys.settrace(saved[1])
    assert rc == 0
    assert hooked.read_bytes() == plain.read_bytes()


def traced_peak(call):
    """``call()``'s result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def rounded_csv(tmp_path_factory):
    """A 200 x 3000 predictor CSV rounded to one decimal, with an NA cell in 5
    rows, and its predictor cell count."""
    n, p = 200, 3000
    rng = np.random.default_rng(18)
    cells = [list(map("{:.1f}".format, row)) for row in rng.normal(size=(n, p + 1)).tolist()]
    for i, j in zip(rng.choice(n, size=5, replace=False), rng.integers(0, p + 1, size=5)):
        cells[i][j] = "NA"
    path = tmp_path_factory.mktemp("rounded") / "rounded.csv"
    lines = [",".join(["y"] + [f"x{j}" for j in range(1, p + 1)])] + list(map(",".join, cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, n * p


def test_reader_holds_the_matrix_once(rounded_csv) -> None:
    # y and x with up to a quarter of rows unfilled, plus one block; parsing
    # into blocks and joining them took 16.15
    path, cells = rounded_csv
    (_, _, y, x, dropped), peak = traced_peak(lambda: fmvscreen.cli._read_matrix(str(path), "y"))
    assert (y.shape, x.shape, dropped) == ((195,), (195, 3000), 5)
    assert peak / cells <= 11


def test_screen_peak_is_set_by_scoring(rounded_csv, tmp_path) -> None:
    # the read (about 10) and fmv's blocks above x (about 12) in turn; a
    # parsed matrix split into copies of y and x took about 16.4
    path, cells = rounded_csv
    argv = ["screen", "--input", str(path), "--response", "y", "--threads", "1",
            "--out", str(tmp_path / "ranked.csv")]
    rc, peak = traced_peak(lambda: main(argv))
    assert rc == 0
    assert peak / cells <= 13


def test_screen_peak_memory_per_cell(tmp_path) -> None:
    # x's 8 bytes a cell plus bounded blocks; reading the whole CSV as cell
    # strings first took over 100
    n, p = 200, 1500
    rng = np.random.default_rng(5)
    values = rng.normal(size=(n, p + 1))
    data = tmp_path / "wide.csv"
    with open(data, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["y"] + [f"x{j}" for j in range(1, p + 1)]) + "\n")
        for row in values.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
    argv = ["screen", "--input", str(data), "--response", "y", "--threads", "1",
            "--out", str(tmp_path / "ranked.csv")]
    rc, peak = traced_peak(lambda: main(argv))
    assert rc == 0
    assert peak / (n * p) <= 40


def test_screen_report_is_byte_identical_to_per_cell_repr(tmp_path) -> None:
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=40, p=9)
    ranked = tmp_path / "ranked.csv"
    assert main(["screen", "--input", str(data), "--response", "resp", "--schemes", "3,4",
                 "--dn", "6", "--out", str(ranked)]) == 0
    _, _, y, x, _ = fmvscreen.cli._read_matrix(str(data), "resp")
    fused, per_scheme, _ = fmvscreen.fmv_scores(x, y, schemes=[3, 4])
    order = np.argsort(-fused, kind="stable")[:6]
    want = ["rank,column,fused_score,mv_s3,mv_s4"] + [
        ",".join([str(r), f"c{j + 1}", repr(float(fused[j]))]
                 + [repr(float(v)) for v in per_scheme[:, j]])
        for r, j in enumerate(order, start=1)]
    assert ranked.read_text() == "\n".join(want) + "\n"


def test_screen_does_not_import_numpy_ma(tmp_path) -> None:
    # numpy 2's first np.unique call without index outputs imports numpy.ma,
    # about 20 ms of every fresh process
    src = str(Path(fmvscreen.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    preloaded = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    if preloaded == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    data = tmp_path / "toy.csv"
    write_toy_csv(data, n=40, p=5)
    code = ("import sys; from fmvscreen.cli import main; "
            f"assert main(['screen', '--input', {str(data)!r}, '--response', 'resp', "
            f"'--out', {str(tmp_path / 'r.csv')!r}]) == 0; "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False"
