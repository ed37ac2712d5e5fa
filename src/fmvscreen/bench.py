"""Replicated minimum-model-size benchmark over the experiment designs.

One replication draws an instance, scores it with every requested screener,
and records each screener's minimum model size: the smallest ranking prefix
containing the whole active set, with every score tied to an active one
ranked ahead of it. Replications use independently derived seeds, so any
execution order (or thread count) produces the same report.
A replication is flagged as degenerate for a screener when the screener
rejects the instance (``InputError`` or ``DegenerateSlicesError``) or
returns all-zero scores, which rank nothing. It keeps its MMS in
``MmsSummary.mms`` but stays out of that screener's ``median``, ``sd`` and
``se``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import fks_scores, kendall_scores, pearson_scores
from .errors import DegenerateSlicesError, InputError
from .mv import ranked_columns
from .screening import _resolve_threads, _thread_map, fmv_scores
from .simulate import (
    ExperimentSpec,
    active_set,
    derived_rng,
    experiment_schemes,
    gen_experiment,
)

__all__ = [
    "SCREENER_NAMES",
    "MmsSummary",
    "mms",
    "run_replications",
    "render_table_csv",
    "render_table_text",
    "parse_table_csv",
    "write_reports",
]


@dataclass(frozen=True)
class MmsSummary:
    """Replicated minimum-model-size record for one (experiment, screener).

    It is made from ``experiment``, ``screener``, ``n_active``, ``mms`` (every
    replication's value) and ``degenerate_reps`` (the flagged replications'
    indices), and derives the rest: ``replications`` counts ``mms``,
    ``scored`` the replications not flagged, and ``median``, ``sd`` and
    ``se`` summarise those alone. With none scored the three read nan; with
    one, ``sd`` and ``se`` read 0.0 and ``spread_defined`` (``scored > 1``)
    is False.
    """

    experiment: str
    screener: str
    n_active: int
    mms: np.ndarray
    degenerate_reps: tuple[int, ...] = ()
    replications: int = field(init=False)
    scored: int = field(init=False)
    median: float = field(init=False)
    sd: float = field(init=False)
    se: float = field(init=False)
    spread_defined: bool = field(init=False)

    def __post_init__(self) -> None:
        kept = np.delete(self.mms, self.degenerate_reps)
        spread_defined = kept.size > 1
        median = float(np.median(kept)) if kept.size else math.nan
        sd = (float(np.std(kept, ddof=1)) if spread_defined
              else 0.0 if kept.size else math.nan)
        se = sd / math.sqrt(kept.size) if spread_defined else sd
        for name, value in (("replications", self.mms.size), ("scored", kept.size),
                            ("median", median), ("sd", sd), ("se", se),
                            ("spread_defined", spread_defined)):
            object.__setattr__(self, name, value)  # the dataclass is frozen


def mms(scores, active) -> int:
    """The minimum model size of a ranking: the count of scores not below
    the lowest active score (``active`` holds 1-based column indices). A tie
    counts against the screener, since no order within it is better founded
    than another, so an all-zero score vector reads p."""
    scores = np.asarray(scores, dtype=np.float64)
    active = sorted(set(int(a) for a in active))
    if not active:
        raise InputError("active set must be nonempty")
    if active[0] < 1 or active[-1] > scores.size:
        raise InputError(f"active indices out of range 1..{scores.size}")
    lowest = scores[np.array(active) - 1].min()
    return scores.size - int(np.count_nonzero(scores < lowest))


# each scorer takes the dataset, the slice counts and the ranked view of x
# (None when the scorer is to build its own), which fmv, fks and rcs read,
# and returns the scores
_SCORERS = {
    "fmv": lambda ds, schemes, ranked: fmv_scores(ds.x, ds.y, ds.kind, schemes,
                                                  ranked=ranked)[0],
    "sis": lambda ds, schemes, ranked: pearson_scores(ds.x, ds.y),
    "rcs": lambda ds, schemes, ranked: kendall_scores(ds.x, ds.y, ranked=ranked),
    "fks": lambda ds, schemes, ranked: fks_scores(ds.x, ds.y, ds.kind, schemes,
                                                  ranked=ranked),
}
_READS_RANKED = frozenset({"fmv", "fks", "rcs"})

SCREENER_NAMES = tuple(sorted(_SCORERS))


def _score_one(name: str, instance, schemes, ranked) -> tuple[np.ndarray, bool]:
    ds = instance.dataset
    try:
        scores = _SCORERS[name](ds, schemes, ranked)
    except (InputError, DegenerateSlicesError):
        # a pathological draw (e.g. zero-variance response) flags, never
        # aborts; any other error is a bug and must not read as a good MMS
        return np.zeros(ds.p), True
    # all-zero scores (a constant response, say) rank nothing
    return scores, not scores.any()


def run_replications(spec: ExperimentSpec, screeners, reps: int,
                     base_seed: int | None = None, threads: int = 1) -> list[MmsSummary]:
    """Benchmark every requested screener over ``reps`` replications.

    All screeners score the same instance within a replication (paired
    comparison). The screeners that do not read x's ranked view (sis) score
    first. When two or more of fmv, fks and rcs are requested they then
    share one ranked view of its columns, built when the first of them comes
    up; a lone reader builds its own. So the view is never held beside a
    screener that does not read it. Results are kept per screener name, so
    the scoring order changes no report. Replication r uses the stream
    derived from (base_seed, r), so parallel execution is bit-reproducible.
    """
    screeners = list(dict.fromkeys(screeners))  # each name once, first-seen order
    if reps < 1:
        raise InputError(f"need at least one replication, got {reps}")
    if not screeners:
        raise InputError("screener list must be nonempty")
    for name in screeners:
        if name not in SCREENER_NAMES:
            raise InputError(f"unknown screener {name!r}; expected one of {SCREENER_NAMES}")
    if base_seed is None:
        base_seed = spec.seed
    schemes = experiment_schemes(spec)

    values = {name: np.empty(reps, dtype=np.int64) for name in screeners}
    flagged = {name: np.zeros(reps, dtype=bool) for name in screeners}
    shares_view = len(_READS_RANKED.intersection(screeners)) > 1
    # the view-free screeners first, each group in first-seen order
    scoring_order = sorted(screeners, key=lambda name: name in _READS_RANKED)

    def one_rep(r: int) -> None:
        instance = gen_experiment(spec, derived_rng(base_seed, r))
        ranked = None
        for name in scoring_order:
            if shares_view and ranked is None and name in _READS_RANKED:
                # the dataset has checked x, so building its view cannot fail
                ranked = ranked_columns(instance.dataset.x)
            scores, degenerate = _score_one(name, instance, schemes, ranked)
            values[name][r] = mms(scores, instance.active)
            flagged[name][r] = degenerate

    _thread_map(one_rep, range(reps), _resolve_threads(threads))

    n_active = len(active_set(spec.id))
    return [MmsSummary(spec.id, name, n_active, values[name],
                       tuple(int(i) for i in np.flatnonzero(flagged[name])))
            for name in screeners]


# the report's columns, with the type parse_table_csv reads each back as
_COLUMNS = (("experiment", str), ("screener", str), ("n_active", int),
            ("replications", int), ("scored", int), ("median", float), ("sd", float),
            ("se", float), ("degenerate", int))
_CSV_HEADER = ",".join(name for name, _ in _COLUMNS)
# render_table_text's own labels and number formats; other cells print as str
_TEXT_LABELS = {"n_active": "N#", "replications": "reps"}
_TEXT_FORMATS = {"median": "g", "sd": ".4g", "se": ".4g"}


def _values(s: MmsSummary) -> list:
    """A summary's report cells in ``_COLUMNS`` order: each column reads the
    attribute of its name, and ``degenerate`` counts the flagged replications."""
    return [len(s.degenerate_reps) if name == "degenerate" else getattr(s, name)
            for name, _ in _COLUMNS]


def _sorted_rows(summaries) -> list[MmsSummary]:
    return sorted(summaries, key=lambda s: (s.experiment, s.screener))


def render_table_csv(summaries) -> str:
    """Deterministic CSV rendering, keyed and sorted by (experiment, screener).

    ``degenerate`` counts the flagged replications and ``scored`` the
    others, which alone enter ``median``, ``sd`` and ``se``; with none
    scored these read ``nan``.
    """
    if not summaries:
        raise InputError("no summaries to render")
    lines = [_CSV_HEADER]
    # str of a Python float is its repr, so every float round-trips
    lines += [",".join(map(str, _values(s))) for s in _sorted_rows(summaries)]
    return "\n".join(lines) + "\n"


def parse_table_csv(text: str) -> list[dict]:
    """Inverse of render_table_csv for the emitted fields."""
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != _CSV_HEADER:
        raise InputError("unrecognized report header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(_COLUMNS):
            raise InputError(f"report row has {len(cells)} fields, expected "
                             f"{len(_COLUMNS)}: {ln!r}")
        try:
            row = {name: kind(cell) for (name, kind), cell in zip(_COLUMNS, cells)}
        except ValueError as exc:
            raise InputError(f"report row has a malformed field ({exc}): {ln!r}") from None
        rows.append(row)
    return rows


def render_table_text(summaries) -> str:
    """Aligned human-readable rendering of the same rows as the CSV."""
    rows = [[_TEXT_LABELS.get(name, name) for name, _ in _COLUMNS]]
    rows += [[format(value, _TEXT_FORMATS.get(name, "")) for (name, _), value
              in zip(_COLUMNS, _values(s))] for s in _sorted_rows(summaries)]
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines) + "\n"


def write_reports(summaries, out_dir) -> list[Path]:
    """One CSV per (experiment, screener) plus the combined table1.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for s in _sorted_rows(summaries):
        path = out_dir / f"{s.experiment}_{s.screener}.csv"
        path.write_text(render_table_csv([s]), encoding="utf-8", newline="\n")
        written.append(path)
    combined = out_dir / "table1.csv"
    combined.write_text(render_table_csv(summaries), encoding="utf-8", newline="\n")
    written.append(combined)
    return written
