"""Command-line front end: screen CSV datasets, materialize experiment draws,
and run the minimum-model-size benchmark."""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import os
import stat
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import InputError
from .screening import (
    Dataset,
    ResponseKind,
    _resolve_schemes,
    _resolve_threads,
    fmv_scores,
    rank_descending,
)

__all__ = ["main", "build_parser"]

# copies of bench.SCREENER_NAMES and simulate.EXPERIMENT_IDS for the help
# texts, so ``screen`` loads neither module; tests/test_cli.py pins them.
# Each command imports the modules it runs.
_SCREENER_NAMES = ("fks", "fmv", "rcs", "sis")
_EXPERIMENT_IDS = ("1a", "1b", "1c", "1d", "2a", "2b", "2c", "3", "4", "5", "6", "7")

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}
# characters of plain body lines per np.loadtxt call in ``screen``'s CSV
# reader: a block ends at the line that reaches this many, so its lines, its
# parsed values and loadtxt's working copy of a line, the reader's whole
# working set beside y and x, do not grow with the input, and narrow lines
# still parse many to a call
_BLOCK_CHARS = 1 << 17
# the bytes a plain line may hold (see ``_is_plain``)
_PLAIN_BYTES = b"0123456789.+-eE,\r\n"
# from this many bytes on, ``_is_plain`` finds adjacent commas with one numpy
# compare, whose cost hardly grows with the length; a substring search grows
# by about a nanosecond a byte on comma-dense text, and below this it is the
# cheaper (the two meet between 2.5 and 3 KB; ``is_plain_scan`` in
# BENCH_29.json)
_SCAN_BYTES = 2560
# bytes per read when ``_body_capacity`` counts a file's line breaks
_COUNT_BYTES = 1 << 16
# report rows formatted per slice, so the report holds one slice of Python
# floats and text at a time
_REPORT_ROWS = 256


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmvscreen",
        description="Model-free feature screening with the fused mean-variance filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_screen = sub.add_parser("screen", help="rank the predictors of a CSV dataset")
    p_screen.add_argument("--input", required=True, help="input CSV with a header row")
    p_screen.add_argument("--response", required=True,
                          help="response column name (or 0-based index if no such name)")
    p_screen.add_argument("--kind", choices=[k.value for k in ResponseKind],
                          default="continuous", help="response type")
    p_screen.add_argument("--schemes", default="auto",
                          help="comma-separated slice counts, or 'auto'")
    p_screen.add_argument("--dn", type=int, default=None,
                          help="number of top rows to write (default: all columns)")
    p_screen.add_argument("--interactions", default=None,
                          help="'all' or comma-separated column names; appends pairwise products")
    p_screen.add_argument("--noise", type=int, default=0,
                          help="append this many seeded standard-Cauchy noise columns")
    p_screen.add_argument("--seed", type=int, default=0, help="seed for noise columns")
    p_screen.add_argument("--threads", type=int, default=0, help="0 = auto")
    p_screen.add_argument("--out", required=True, help="output CSV of ranked scores")

    p_sim = sub.add_parser("simulate", help="materialize one experiment draw as CSV")
    p_sim.add_argument("--cases", required=True,
                       help=f"experiment id, one of {', '.join(_EXPERIMENT_IDS)}")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV (y first column)")

    p_bench = sub.add_parser("bench", help="run the replicated MMS benchmark")
    p_bench.add_argument("--cases", required=True, help="comma-separated experiment ids")
    p_bench.add_argument("--screeners", default="fmv",
                         help=f"comma-separated subset of {{{','.join(_SCREENER_NAMES)}}}")
    p_bench.add_argument("--reps", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--threads", type=int, default=0, help="0 = auto")
    p_bench.add_argument("--out", default="reports", help="report directory")
    return parser


def _parse_schemes(text: str) -> list[int] | None:
    """The slice counts of ``--schemes``; None for 'auto'. A count given twice
    would enter the fused score twice, so it is rejected."""
    if text == "auto":
        return None
    try:
        schemes = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise InputError(f"bad --schemes value {text!r}") from exc
    repeated = [s for i, s in enumerate(schemes) if s in schemes[:i]]
    if repeated:
        raise InputError(f"--schemes repeats slice count {repeated[0]}")
    return schemes


def _is_plain(line: str) -> bool:
    """True when the line holds only digits, signs, points, exponent letters
    and commas, with no empty field: ``np.loadtxt`` then reads it exactly as
    ``csv.reader`` and ``float()`` would, or rejects it. The test deletes
    those bytes from the line's UTF-8 encoding: a non-ASCII character leaves
    bytes of 0x80 and above, so its line is not plain. A long line's empty
    field is found as two adjacent comma bytes by one numpy compare, not by a
    substring search that stops at every comma."""
    body = line.rstrip("\r\n")
    encoded = body.encode()
    if (encoded.translate(None, _PLAIN_BYTES) or body == "" or body[0] == ","
            or body[-1] == ","):
        return False
    if len(encoded) < _SCAN_BYTES:
        return ",," not in body
    commas = np.frombuffer(encoded, dtype=np.uint8) == ord(",")
    return not (commas[1:] & commas[:-1]).any()


def _parse_row(row: list[str], out: np.ndarray) -> tuple[int, str] | None:
    """Parse one row's cells into ``out``; missing tokens become NaN.

    The row converts in one call unless it holds a missing token or a bad
    cell. Only then is it read cell by cell: each cell goes through
    ``float()`` once, and only a cell it rejects is stripped and matched
    against the missing tokens. Returns the first bad cell as (column,
    stripped text), or None; the cells before it are written.
    """
    try:
        out[:] = np.fromiter(map(float, row), dtype=np.float64, count=len(row))
        return None
    except ValueError:
        pass
    values = []
    for j, cell in enumerate(row):
        try:
            values.append(float(cell))
        except ValueError:
            token = cell.strip()
            if token.lower() not in _MISSING_TOKENS:
                out[:j] = values
                return j, token
            values.append(np.nan)
    out[:] = values
    return None


class _Body:
    """The data rows of a CSV, parsed block by block straight into the
    response vector ``y`` and the predictor matrix ``x``.

    ``x`` is allocated at its final width: the ``p - 1`` columns of every
    header column but the response's, which the body fills, then ``added``
    columns that the caller writes in place (``screen``'s products and
    noise). ``y`` and ``x`` start with ``_body_capacity`` rows, at least one,
    so a width that cannot be allocated fails as an ``InputError`` naming
    the shape before the body is read. They grow in place by a quarter only
    when a row finds them full, as on input that cannot be sized beforehand
    (a pipe). Rows with a missing value are dropped as each block lands. The
    first fault in reading order raises: a row of the wrong length, or a
    row's leftmost non-numeric or infinite cell (a parsed ``inf`` or
    ``1e999``).
    """

    def __init__(self, fh, header: list[str], y_idx: int, added: int):
        self.header = header
        self.p = len(header)
        self.y_idx = y_idx
        self.rows = 0  # nonempty rows read so far
        self.kept = 0  # rows written to y and x
        self.dropped = 0
        self.width = self.p - 1 + added
        self.y, self.x = np.empty(0), np.empty((0, 0))
        self.resize(max(_body_capacity(fh), 1))

    def add_plain(self, lines: list[str]) -> None:
        """Plain lines (``_is_plain``) in one ``np.loadtxt`` call; a block it
        rejects, or returns in another shape, goes through ``add_rows``.
        ``lines`` is emptied, so its text is not held beside the values."""
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64,
                               ndmin=2)
        except ValueError:
            block = None
        if block is None or block.shape != (len(lines), self.p):
            self.add_rows(csv.reader(lines))
            lines.clear()
        else:
            self.rows += len(lines)
            lines.clear()
            self._keep(block)

    def add_rows(self, rows) -> None:
        """csv.reader rows; empty ones (blank lines) are skipped uncounted.
        An infinite cell read before a row's fault raises first."""
        rows = [row for row in rows if row]
        if not rows:
            return
        # zeros: the cells after a row's bad cell stay finite
        block = np.zeros((len(rows), self.p))
        for k, row in enumerate(rows):
            if len(row) != self.p:
                self._raise_infinite(block[:k])
                raise InputError(f"row {self.rows + 2} has {len(row)} cells, header has {self.p}")
            self.rows += 1  # the header is row 1
            bad = _parse_row(row, block[k])
            if bad is not None:
                self._raise_infinite(block[:k + 1])
                raise InputError(f"column {self.header[bad[0]]!r} has non-numeric value "
                                 f"{bad[1]!r} in row {self.rows + 1}")
        self._keep(block)

    def _raise_infinite(self, block: np.ndarray) -> None:
        """Raises on the block's first infinite cell in reading order, naming
        its column and row; the block's rows are the last ones counted."""
        cells = np.argwhere(np.isinf(block))
        if cells.size:
            i, j = cells[0].tolist()
            raise InputError(f"column {self.header[j]!r} has non-finite value "
                             f"{float(block[i, j])!r} in row {self.rows - len(block) + i + 2}")

    def _keep(self, block: np.ndarray) -> None:
        # one pass finds both a missing value (NaN), whose row is dropped,
        # and an infinite cell, which is a fault
        keep = np.isfinite(block).all(axis=1)
        if not keep.all():
            self._raise_infinite(block)
            block = block[keep]
        self.dropped += keep.shape[0] - block.shape[0]
        start, end = self.kept, self.kept + block.shape[0]
        if end > self.y.shape[0]:
            self.resize(max(end, self.y.shape[0] * 5 // 4))
        j = self.y_idx
        self.y[start:end] = block[:, j]
        self.x[start:end, :j] = block[:, :j]
        self.x[start:end, j:self.p - 1] = block[:, j + 1:]
        self.kept = end

    def resize(self, rows: int) -> None:
        # in place, without numpy's refcheck: a profiler or tracer holds one
        # more reference during the call, and the check would refuse. No view
        # of y or x outlives a statement of ``_keep``, and the arrays leave
        # ``_Body`` only after the final trim, so nothing can dangle.
        try:
            self.y.resize(rows, refcheck=False)
            self.x.resize((rows, self.width), refcheck=False)
        except (MemoryError, ValueError):  # ValueError: past numpy's largest size
            raise InputError(f"cannot allocate a {rows} x {self.width} predictor matrix") from None


def _first_repeat(names: list[str], taken: list[str] | tuple = ()) -> str | None:
    """The first of ``names`` that ``taken`` or an earlier one of ``names``
    already holds, or None. Report rows are keyed by name, so the header and
    the added columns' names are checked with it; its set of names is freed
    on return, before the body is read."""
    seen = set(taken)
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def _response_index(header: list[str], response: str) -> int:
    if response in header:
        return header.index(response)
    try:
        y_idx = int(response)
    except ValueError:
        raise InputError(f"response column {response!r} not found") from None
    if not 0 <= y_idx < len(header):
        raise InputError(f"response index {y_idx} out of range for {len(header)} columns")
    return y_idx


def _body_capacity(fh) -> int:
    """Rows enough for the body of the open CSV ``fh``: its lines less the
    header's. A row spans one line or more, and a blank line is no row, so
    the body holds no more. The lines are counted from the line breaks, LF
    and CR bytes less CR LF pairs, plus a last line with no break; the file
    is read through its descriptor, ``_COUNT_BYTES`` at a time, so the text
    layer's position does not move. 0 for input that cannot be sized
    beforehand, such as a pipe."""
    fd = fh.fileno()
    if not hasattr(os, "pread") or not stat.S_ISREG(os.fstat(fd).st_mode):
        return 0
    lines = offset = 0
    last = b""
    while chunk := os.pread(fd, _COUNT_BYTES, offset):
        lines += chunk.count(b"\n")
        if b"\r" in chunk:
            lines += chunk.count(b"\r") - chunk.count(b"\r\n")
        if last == b"\r" and chunk[:1] == b"\n":  # a \r\n across two pieces
            lines -= 1
        last = chunk[-1:]
        offset += len(chunk)
    if last not in (b"", b"\r", b"\n"):
        lines += 1
    return max(lines - 1, 0)


@contextlib.contextmanager
def _csv_input(path: str):
    """``path`` open as UTF-8 text (a leading byte-order mark skipped) for
    ``_read_header`` and ``_read_body``. A file that is not UTF-8, or that
    ``csv`` cannot split (a field past its size limit, say), fails as an
    ``InputError`` where the read meets it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # its position counts from the decoder's chunk, not the file
            raise InputError(f"{path} is not UTF-8 text") from None
        except csv.Error as exc:
            raise InputError(f"cannot read {path} as CSV: {exc}") from None


def _read_header(fh, path: str, response: str) -> tuple[list[str], int]:
    """The header of the open CSV and the response's column index. A header
    that repeats a name (report rows are keyed by name) fails first, then an
    unknown response."""
    header = next(csv.reader(fh), None)
    if header is None:
        raise InputError(f"{path} is empty")
    repeated = _first_repeat(header)
    if repeated is not None:
        raise InputError(f"header repeats column name {repeated!r}")
    return header, _response_index(header, response)


def _read_body(fh, body: _Body) -> tuple[np.ndarray, np.ndarray, int]:
    """The complete rows after the header, split into the response vector
    and the predictor matrix, and the number of rows dropped for a missing
    value.

    ``body`` holds ``y`` and ``x``, allocated once (``_Body``): sized from
    the file's line count (``_body_capacity``), at ``x``'s final width, and
    trimmed here to the rows kept. So each row is written straight into the
    raw columns and the matrix is held once. The body streams through in
    blocks of plain lines of about ``_BLOCK_CHARS`` characters, each one
    ``np.loadtxt`` call; any other line is read by ``csv.reader`` (which may
    pull further lines for a quoted field) and ``float()``. So cells parse
    exactly as ``float()`` does, and no list of cell strings is held. Row by
    row, the first fault in reading order is raised at once: a row of the
    wrong length or its leftmost non-numeric or infinite cell.
    """
    plain: list[str] = []
    chars = 0
    for line in fh:
        if _is_plain(line):
            plain.append(line)
            chars += len(line)
            if chars >= _BLOCK_CHARS:
                body.add_plain(plain)
                chars = 0
            continue
        if plain:
            body.add_plain(plain)
            chars = 0
        body.add_rows([next(csv.reader(itertools.chain((line,), fh)))])
    if plain:
        body.add_plain(plain)
    body.resize(body.kept)
    return body.y, body.x, body.dropped


def _interaction_columns(spec: str, names: list[str]) -> list[int]:
    """The positions in ``names`` of the ``--interactions`` columns (``spec``:
    'all' or comma-separated names), each once and in order; an unknown name
    fails."""
    subset = names if spec == "all" else [tok for tok in spec.split(",") if tok]
    missing = [s for s in subset if s not in names]
    if missing:
        raise InputError(f"interaction columns not found: {', '.join(missing)}")
    return sorted({names.index(s) for s in subset})


def _added_names(names: list[str], pos: list[int], noise: int) -> list[str]:
    """The names of the added columns: the products of the columns at
    ``pos`` in ``itertools.combinations`` order, then ``noise`` noise
    columns. The header alone decides them, so an added name that repeats a
    column name fails before the body is read."""
    added_names = [f"{names[a]}*{names[b]}" for a, b in itertools.combinations(pos, 2)]
    added_names += [f"noise{i}" for i in range(1, noise + 1)]
    repeated = _first_repeat(added_names, names)
    if repeated is not None:
        raise InputError(f"added column {repeated!r} repeats a column name")
    return added_names


def _write_report(path: Path, headers: list[str], names: list[str], top: np.ndarray,
                  fused: np.ndarray, per_scheme: np.ndarray) -> None:
    """The ranked report: one row per column of ``top``, its rank, name,
    fused score and per-scheme scores, each float as its ``repr``. Rows are
    formatted ``_REPORT_ROWS`` at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(headers) + "\n")
        for lo in range(0, len(top), _REPORT_ROWS):
            cols = top[lo:lo + _REPORT_ROWS]
            rows = np.column_stack([fused[cols], per_scheme[:, cols].T]).tolist()
            fh.write("".join(f"{rank},{names[j]},{','.join(map(repr, row))}\n"
                             for rank, j, row in zip(itertools.count(lo + 1), cols.tolist(),
                                                     rows)))


def cmd_screen(args) -> int:
    if args.dn is not None and args.dn < 1:
        raise InputError(f"--dn must be at least 1, got {args.dn}")
    if args.noise < 0:
        raise InputError(f"--noise must be at least 0, got {args.noise}")
    requested = _parse_schemes(args.schemes)
    threads = _resolve_threads(args.threads)
    with _csv_input(args.input) as fh:
        header, y_idx = _read_header(fh, args.input, args.response)
        names = [name for j, name in enumerate(header) if j != y_idx]
        pos = [] if args.interactions is None else _interaction_columns(args.interactions, names)
        # x is allocated at its final width, from counts, before any added
        # name is made, so a width past memory fails at once
        body = _Body(fh, header, y_idx, math.comb(len(pos), 2) + args.noise)
        names += _added_names(names, pos, args.noise)
        y, x, dropped = _read_body(fh, body)
    if dropped:
        print(f"dropped {dropped} rows with missing values", file=sys.stderr)
    if y.shape[0] < 2:
        raise InputError("fewer than two complete rows after dropping missing values")

    with np.errstate(over="ignore"):  # an overflow is named below
        for k, (a, b) in enumerate(itertools.combinations(pos, 2), start=len(header) - 1):
            np.multiply(x[:, a], x[:, b], out=x[:, k])
            if not np.isfinite(x[:, k]).all():
                raise InputError(f"interaction column {names[k]!r} overflows the float range")
    if args.noise:
        from .simulate import _standard_cauchy, derived_rng

        x[:, x.shape[1] - args.noise:] = _standard_cauchy(derived_rng(args.seed, 0),
                                                          (x.shape[0], args.noise))

    # the small-sample fallback reaches the user as a warning line, without
    # the library's source path and line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        schemes = _resolve_schemes(requested, args.kind, x.shape[0])
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    dataset = Dataset(y=y, x=x, kind=args.kind)
    fused, per_scheme, degenerate = fmv_scores(dataset.x, dataset.y, dataset.kind, schemes,
                                               threads=threads)
    if degenerate:
        # every score would be 0, and a ranking by column index reads as real
        raise InputError(f"response {header[y_idx]!r} is degenerate: "
                         "every slicing collapses to a single slice")
    order = rank_descending(fused)
    top = order if args.dn is None else order[: min(args.dn, len(order))]

    if dataset.kind is ResponseKind.CATEGORICAL:
        scheme_headers = ["mv_labels"]
    else:
        scheme_headers = [f"mv_s{s}" for s in schemes]
    out_path = Path(args.out)
    _write_report(out_path, ["rank", "column", "fused_score"] + scheme_headers, names, top,
                  fused, per_scheme)
    print(f"wrote {len(top)} ranked columns to {out_path}")
    return 0


def cmd_simulate(args) -> int:
    from .simulate import ExperimentSpec, gen_experiment

    spec = ExperimentSpec(id=args.cases, seed=args.seed)
    instance = gen_experiment(spec)
    ds = instance.dataset
    out_path = Path(args.out)

    cols = ["y"]
    if instance.censor_mask is not None:
        cols.append("censored")
    cols += [f"x{j}" for j in range(1, ds.p + 1)]
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        lead = list(map(repr, ds.y.tolist()))
        if instance.censor_mask is not None:
            lead = [f"{y},{int(c)}" for y, c in zip(lead, instance.censor_mask.tolist())]
        for head, row in zip(lead, ds.x):
            fh.write(f"{head},{','.join(map(repr, row.tolist()))}\n")

    active_path = out_path.with_name(out_path.stem + "_active" + out_path.suffix)
    with open(active_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("active_index\n")
        for a in instance.active:
            fh.write(f"{a}\n")
    print(f"wrote {ds.n} rows to {out_path}; active set in {active_path}")
    return 0


def cmd_bench(args) -> int:
    from .bench import render_table_text, run_replications, write_reports
    from .simulate import ExperimentSpec

    # each name once, in first-seen order, as run_replications takes screeners
    cases = list(dict.fromkeys(tok for tok in args.cases.split(",") if tok))
    screeners = [tok for tok in args.screeners.split(",") if tok]
    if not cases:
        raise InputError("case list is empty")
    summaries = []
    for case in cases:
        spec = ExperimentSpec(id=case, seed=args.seed)
        summaries.extend(run_replications(spec, screeners, args.reps,
                                          base_seed=args.seed, threads=args.threads))
    for s in summaries:
        if s.degenerate_reps:
            print(f"warning: {s.experiment}/{s.screener}: {len(s.degenerate_reps)} of "
                  f"{s.replications} replications degenerate (scores all zero or "
                  "unscorable); left out of median, sd and se",
                  file=sys.stderr)
    written = write_reports(summaries, args.out)
    print(render_table_text(summaries), end="")
    print(f"wrote {len(written)} report files to {args.out}")
    return 0


_COMMANDS = {"screen": cmd_screen, "simulate": cmd_simulate, "bench": cmd_bench}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
