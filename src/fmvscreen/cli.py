"""Command-line front end: screen CSV datasets, materialize experiment draws,
and run the minimum-model-size benchmark."""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
import warnings
from pathlib import Path

import numpy as np

from .bench import SCREENER_NAMES, render_table_text, run_replications, write_reports
from .errors import InputError
from .screening import Dataset, ResponseKind, _resolve_schemes, fmv_scores, rank_descending
from .simulate import EXPERIMENT_IDS, ExperimentSpec, _standard_cauchy, derived_rng, gen_experiment

__all__ = ["main", "build_parser"]

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}
# body lines per np.loadtxt call in ``screen``'s CSV reader
_BLOCK_LINES = 64
# the bytes a plain line may hold (see ``_is_plain``)
_PLAIN_BYTES = b"0123456789.+-eE,\r\n"


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
                       help=f"experiment id, one of {', '.join(EXPERIMENT_IDS)}")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV (y first column)")

    p_bench = sub.add_parser("bench", help="run the replicated MMS benchmark")
    p_bench.add_argument("--cases", required=True, help="comma-separated experiment ids")
    p_bench.add_argument("--screeners", default="fmv",
                         help=f"comma-separated subset of {{{','.join(SCREENER_NAMES)}}}")
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
    bytes of 0x80 and above, so its line is not plain."""
    body = line.rstrip("\r\n")
    return (not line.encode().translate(None, _PLAIN_BYTES) and body != "" and body[0] != ","
            and body[-1] != "," and ",," not in body)


def _parse_row(row: list[str], out: np.ndarray) -> tuple[int, str] | None:
    """Parse one row's cells into ``out``; missing tokens become NaN.

    The row converts in one call unless it holds a missing token or a bad
    cell; only then is it read cell by cell. Returns the first bad cell as
    (column, stripped text), or None.
    """
    try:
        out[:] = np.fromiter(map(float, row), dtype=np.float64, count=len(row))
        return None
    except ValueError:
        pass
    for j, cell in enumerate(row):
        cell = cell.strip()
        if cell.lower() in _MISSING_TOKENS:
            out[j] = np.nan
            continue
        try:
            out[j] = float(cell)
        except ValueError:
            return j, cell
    return None


class _Body:
    """The data rows of a CSV, parsed block by block straight into the
    response vector ``y`` and the predictor matrix ``x`` (every column but
    the response's).

    Rows with a missing value are dropped as each block lands. ``y`` and
    ``x`` grow in place by a quarter when full, so the matrix is held once,
    plus one block and the unfilled rows. The first fault in reading order
    raises: a row of the wrong length, or a row's leftmost non-numeric or
    infinite cell (a parsed ``inf`` or ``1e999``).
    """

    def __init__(self, header: list[str], y_idx: int):
        self.header = header
        self.p = len(header)
        self.y_idx = y_idx
        self.rows = 0  # nonempty rows read so far
        self.kept = 0  # rows written to y and x
        self.dropped = 0
        self.y = np.empty(0)
        self.x = np.empty((0, self.p - 1))

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
        self.x[start:end, j:] = block[:, j + 1:]
        self.kept = end

    def resize(self, rows: int) -> None:
        # in place, without numpy's refcheck: a profiler or tracer holds one
        # more reference during the call, and the check would refuse. No view
        # of y or x outlives a statement of ``_keep``, and the arrays leave
        # ``_Body`` only after the final trim, so nothing can dangle.
        self.y.resize(rows, refcheck=False)
        self.x.resize((rows, self.x.shape[1]), refcheck=False)


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


def _read_matrix(path: str, response: str
                 ) -> tuple[list[str], int, np.ndarray, np.ndarray, int]:
    """The header, the response's column index, the complete rows split into
    the response vector and the predictor matrix, and the number of rows
    dropped for a missing value.

    The response is resolved from the header before the body is read, so
    each row is written straight into ``y`` and ``x`` and the matrix is held
    once. The body streams through in blocks of ``_BLOCK_LINES`` plain
    lines, each one ``np.loadtxt`` call; any other line is read by
    ``csv.reader`` (which may pull further lines for a quoted field) and
    ``float()``. So cells parse exactly as ``float()`` does, and no list of
    cell strings is held. A leading UTF-8 byte-order mark is skipped. The
    first fault in reading order is raised at once: a header that repeats a
    name (report rows are keyed by name), an unknown response, then, row by
    row, a row of the wrong length or its leftmost non-numeric or infinite
    cell. A file that is not UTF-8, or that ``csv`` cannot split (a field
    past its size limit, say), fails where the read meets it.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh), None)
            if header is None:
                raise InputError(f"{path} is empty")
            repeated = _first_repeat(header)
            if repeated is not None:
                raise InputError(f"header repeats column name {repeated!r}")
            body = _Body(header, _response_index(header, response))
            plain: list[str] = []
            for line in fh:
                if _is_plain(line):
                    plain.append(line)
                    if len(plain) == _BLOCK_LINES:
                        body.add_plain(plain)
                    continue
                if plain:
                    body.add_plain(plain)
                body.add_rows([next(csv.reader(itertools.chain((line,), fh)))])
            if plain:
                body.add_plain(plain)
        except UnicodeDecodeError:
            # its position counts from the decoder's chunk, not the file
            raise InputError(f"{path} is not UTF-8 text") from None
        except csv.Error as exc:
            raise InputError(f"cannot read {path} as CSV: {exc}") from None
    body.resize(body.kept)
    return header, body.y_idx, body.y, body.x, body.dropped


def cmd_screen(args) -> int:
    if args.dn is not None and args.dn < 1:
        raise InputError(f"--dn must be at least 1, got {args.dn}")
    if args.noise < 0:
        raise InputError(f"--noise must be at least 0, got {args.noise}")
    header, y_idx, y, x, dropped = _read_matrix(args.input, args.response)
    if dropped:
        print(f"dropped {dropped} rows with missing values", file=sys.stderr)
    if y.shape[0] < 2:
        raise InputError("fewer than two complete rows after dropping missing values")
    names = [name for j, name in enumerate(header) if j != y_idx]

    pairs = []
    if args.interactions is not None:
        subset = names if args.interactions == "all" else [
            tok for tok in args.interactions.split(",") if tok
        ]
        missing = [s for s in subset if s not in names]
        if missing:
            raise InputError(f"interaction columns not found: {', '.join(missing)}")
        pos = sorted({names.index(s) for s in subset})  # each named column once
        pairs = list(itertools.combinations(pos, 2))
    added_names = [f"{names[a]}*{names[b]}" for a, b in pairs]
    added_names += [f"noise{i}" for i in range(1, args.noise + 1)]
    repeated = _first_repeat(added_names, names)
    if repeated is not None:
        raise InputError(f"added column {repeated!r} repeats a column name")
    added = []
    for (a, b), name in zip(pairs, added_names):
        with np.errstate(over="ignore"):  # an overflow is named below
            product = x[:, a] * x[:, b]
        if not np.isfinite(product).all():
            raise InputError(f"interaction column {name!r} overflows the float range")
        added.append(product)
    if args.noise:
        added.append(_standard_cauchy(derived_rng(args.seed, 0), (x.shape[0], args.noise)))
    if added:
        x = np.column_stack([x, *added])
        names += added_names

    # the small-sample fallback reaches the user as a warning line, without
    # the library's source path and line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        schemes = _resolve_schemes(_parse_schemes(args.schemes), args.kind, x.shape[0])
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    dataset = Dataset(y=y, x=x, kind=args.kind)
    fused, per_scheme, degenerate = fmv_scores(dataset.x, dataset.y, dataset.kind, schemes,
                                               threads=args.threads)
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
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["rank", "column", "fused_score"] + scheme_headers) + "\n")
        rows = np.column_stack([fused, per_scheme.T])[top].tolist()
        for rank, (j, row) in enumerate(zip(top.tolist(), rows), start=1):
            fh.write(f"{rank},{names[j]},{','.join(map(repr, row))}\n")
    print(f"wrote {len(top)} ranked columns to {out_path}")
    return 0


def cmd_simulate(args) -> int:
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
