"""Command-line front end: screen CSV datasets, materialize experiment draws,
and run the minimum-model-size benchmark."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .bench import SCREENER_NAMES, render_table_text, run_replications, write_reports
from .errors import InputError
from .screening import Dataset, ResponseKind, fmv_scores, rank_descending
from .simulate import EXPERIMENT_IDS, ExperimentSpec, derived_rng, gen_experiment
from .slicing import default_schemes

__all__ = ["main", "build_parser"]

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


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


def _parse_schemes(text: str, n: int) -> list[int]:
    if text == "auto":
        return default_schemes(n)
    try:
        schemes = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise InputError(f"bad --schemes value {text!r}") from exc
    if not schemes:
        raise InputError("schemes list is empty")
    return schemes


def _read_csv_columns(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path} is empty") from None
        rows = [row for row in reader if row]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise InputError(f"row {i + 2} has {len(row)} cells, header has {len(header)}")
    return header, rows


def _to_float_matrix(header: list[str], rows: list[str]) -> tuple[np.ndarray, int]:
    """Parse cells to floats; missing tokens become NaN rows that are dropped.

    A row converts in one call unless it holds a missing token or a bad
    cell; only such rows are read cell by cell. The error names the first
    bad cell in column-major order.
    """
    n, p = len(rows), len(header)
    mat = np.empty((n, p))
    first_bad = None  # (column, row, cell) of the bad cell to report
    for i, row in enumerate(rows):
        try:
            mat[i] = np.fromiter(map(float, row), dtype=np.float64, count=p)
            continue
        except ValueError:
            pass
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell.lower() in _MISSING_TOKENS:
                mat[i, j] = np.nan
                continue
            try:
                mat[i, j] = float(cell)
            except ValueError:
                if first_bad is None or j < first_bad[0]:
                    first_bad = (j, i, cell)
                break
    if first_bad is not None:
        j, i, cell = first_bad
        raise InputError(
            f"column {header[j]!r} has non-numeric value {cell!r} in row {i + 2}"
        )
    keep = ~np.isnan(mat).any(axis=1)
    return mat[keep], int(n - keep.sum())


def _fmt(v: float) -> str:
    return repr(float(v))


def cmd_screen(args) -> int:
    header, raw_rows = _read_csv_columns(args.input)
    if args.response in header:
        y_idx = header.index(args.response)
    else:
        try:
            y_idx = int(args.response)
        except ValueError:
            raise InputError(f"response column {args.response!r} not found") from None
        if not 0 <= y_idx < len(header):
            raise InputError(f"response index {y_idx} out of range for {len(header)} columns")

    mat, dropped = _to_float_matrix(header, raw_rows)
    if dropped:
        print(f"dropped {dropped} rows with missing values", file=sys.stderr)
    if mat.shape[0] < 2:
        raise InputError("fewer than two complete rows after dropping missing values")

    y = mat[:, y_idx]
    pred_idx = [j for j in range(len(header)) if j != y_idx]
    names = [header[j] for j in pred_idx]
    x = mat[:, pred_idx]

    if args.interactions is not None:
        subset = names if args.interactions == "all" else [
            tok for tok in args.interactions.split(",") if tok
        ]
        missing = [s for s in subset if s not in names]
        if missing:
            raise InputError(f"interaction columns not found: {', '.join(missing)}")
        pos = [names.index(s) for s in subset]
        pos.sort()
        inter_cols, inter_names = [], []
        for a_i, a in enumerate(pos):
            for b in pos[a_i + 1:]:
                inter_cols.append(x[:, a] * x[:, b])
                inter_names.append(f"{names[a]}*{names[b]}")
        if inter_cols:
            x = np.column_stack([x] + inter_cols)
            names = names + inter_names

    if args.noise > 0:
        rng = derived_rng(args.seed, 0)
        noise = np.tan(np.pi * (rng.random((x.shape[0], args.noise)) - 0.5))
        x = np.column_stack([x, noise])
        names = names + [f"noise{i}" for i in range(1, args.noise + 1)]

    kind = ResponseKind(args.kind)
    schemes = _parse_schemes(args.schemes, x.shape[0])
    dataset = Dataset(y=y, x=x, kind=kind, names=tuple(names))
    fused, per_scheme, degenerate = fmv_scores(dataset.x, dataset.y, kind, schemes,
                                               threads=args.threads)
    if degenerate:
        # every score would be 0, and a ranking by column index reads as real
        raise InputError(f"response {header[y_idx]!r} is degenerate: "
                         "every slicing collapses to a single slice")
    order = rank_descending(fused)
    top = order if args.dn is None else order[: min(args.dn, len(order))]

    if kind is ResponseKind.CATEGORICAL:
        scheme_headers = ["mv_labels"]
    else:
        scheme_headers = [f"mv_s{s}" for s in schemes]
    out_path = Path(args.out)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["rank", "column", "fused_score"] + scheme_headers) + "\n")
        for rank, j in enumerate(top, start=1):
            cells = [str(rank), names[j], _fmt(fused[j])]
            cells += [_fmt(per_scheme[k, j]) for k in range(per_scheme.shape[0])]
            fh.write(",".join(cells) + "\n")
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
        for i in range(ds.n):
            cells = [_fmt(ds.y[i])]
            if instance.censor_mask is not None:
                cells.append(str(int(instance.censor_mask[i])))
            cells += [_fmt(v) for v in ds.x[i]]
            fh.write(",".join(cells) + "\n")

    active_path = out_path.with_name(out_path.stem + "_active" + out_path.suffix)
    with open(active_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("active_index\n")
        for a in instance.active:
            fh.write(f"{a}\n")
    print(f"wrote {ds.n} rows to {out_path}; active set in {active_path}")
    return 0


def cmd_bench(args) -> int:
    cases = [tok for tok in args.cases.split(",") if tok]
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
