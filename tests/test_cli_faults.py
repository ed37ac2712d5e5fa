"""The honest-failure contract of ``fmvscreen screen``, swept over small CSV
files with every kind of cell fault: each run either exits 0 with a report,
or exits 2 with exactly one ``error:`` line and no report. Exit 1, a
traceback and a Python warning all fail, and every column an error names is
a header cell or an added column's name."""

from __future__ import annotations

import ast
import io
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fmvscreen.cli import main  # noqa: E402

FINITE = st.one_of(st.floats(-1e3, 1e3, allow_nan=False).map(repr),
                   st.sampled_from(["0", "1", "2", "-0.0", "3", "1e200", "-1e200"]))
# missing, bad, non-finite and quoted cells
OTHER_CELLS = ["NA", "", "nan", " None ", "oops", "1.2.3", "#", '"1,0"',
               "inf", "-Infinity", "1e999", "-1e999", '"1.5"', '" 2 "', '"-0.0"']
CELLS = st.one_of(FINITE, st.sampled_from(OTHER_CELLS))
NAMES = st.sampled_from(["y", "a", "b", "c d", "", "x1"])
# a column an error names, quoted as repr quotes it
QUOTED = r"('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")"
NAMED = re.compile(rf"(?:\bcolumn(?: name)?|\bresponse) {QUOTED}")


@st.composite
def screen_runs(draw):
    """A CSV text, its header, and the options of one ``screen`` run."""
    header = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    if draw(st.integers(0, 9)) == 0:
        header.append(draw(st.sampled_from(header)))
    p = len(header)
    fault_percent = draw(st.sampled_from([0, 3, 20]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 30))):
        faulty = draw(st.integers(0, 99)) < fault_percent
        width = p + draw(st.sampled_from([-1, 1])) if faulty and draw(st.booleans()) else p
        cells = st.one_of(FINITE, CELLS) if faulty else FINITE
        lines.append(",".join(draw(st.lists(cells, min_size=width, max_size=width))))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + ending.join(lines) + ending
    options = ["--response", draw(st.sampled_from([header[0], "0"])),
               "--kind", draw(st.sampled_from(["continuous", "count", "categorical"])),
               "--schemes", draw(st.sampled_from(["3", "2,3", "auto"]))]
    if draw(st.booleans()):
        options += ["--interactions", "all"]
    if draw(st.booleans()):
        options += ["--noise", "2"]
    return text, header, options


@settings(max_examples=250, deadline=None)
@given(screen_runs())
def test_screen_exits_0_with_a_report_or_2_with_one_error_line(run) -> None:
    text, header, options = run
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data.csv", Path(tmp) / "ranked.csv"
        data.write_text(text, encoding="utf-8", newline="")
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would reach stderr
            rc = main(["screen", "--input", str(data), "--threads", "1",
                       "--out", str(out), *options])
        report = out.read_text(encoding="utf-8").splitlines() if out.exists() else None
    lines = stderr.getvalue().splitlines()
    assert all(ln.startswith(("error: ", "warning: ", "dropped ")) for ln in lines), lines
    errors = [ln for ln in lines if ln.startswith("error: ")]
    if rc == 0:
        assert not errors and report and report[0].startswith("rank,column,fused_score,")
        names = [row.split(",")[1] for row in report[1:]]
        assert len(set(names)) == len(names), names  # rows are keyed by name
        return
    assert rc == 2 and len(errors) == 1 and report is None, (rc, lines)
    # every name the error quotes: a header cell, or a product or noise column
    # (which only header cells and the noise count can name)
    for quoted in NAMED.findall(errors[0]):
        name = ast.literal_eval(quoted)
        factors = name.split("*")
        assert (name in header or name.startswith("noise")
                or (len(factors) == 2 and set(factors) <= set(header))), errors[0]
    assert not re.search(r"\bcolumn \d", errors[0]), errors[0]
