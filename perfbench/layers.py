"""Which calls the benchmark wraps, what it counts there, and the per-layer
metrics it derives from the spans.

Layers are named after the package's modules. ``ecdf`` is on no production
path and ``errors`` does no work, so neither has a span.
"""

from __future__ import annotations

import numpy as np

from spans import aggregate

SIMULATE = "simulate.gen_experiment"
MMS = "bench.mms"
MV = "mv.mv_hat_columns_multi"
SLICING = "slicing.labels_for_schemes"
FMV = "screening.fmv_scores"
DATASET = "screening.dataset"
CLI_MAIN = "cli.main"
ITEM = "item"

# (module, attribute the layer's caller looks up, span name)
TARGETS = (
    ("fmvscreen.bench", "gen_experiment", SIMULATE),
    ("fmvscreen.bench", "fmv_scores", FMV),
    ("fmvscreen.bench", "pearson_scores", "baselines.sis"),
    ("fmvscreen.bench", "kendall_scores", "baselines.rcs"),
    ("fmvscreen.bench", "fks_scores", "baselines.fks"),
    ("fmvscreen.bench", "mms", MMS),
    ("fmvscreen.screening", "labels_for_schemes", SLICING),
    ("fmvscreen.baselines", "labels_for_schemes", SLICING),
    ("fmvscreen.screening", "mv_hat_columns_multi", MV),
    ("fmvscreen.cli", "Dataset", DATASET),
    ("fmvscreen.cli", "fmv_scores", FMV),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _mv_counts(args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 0, "x"))
    labels_list = _arg(args, kwargs, 1, "labels_list")
    n, p = x.shape
    slices = sum(lab.s_eff for lab in labels_list if lab is not None and lab.s_eff > 1)
    xs = np.sort(x, axis=0)
    tied = int(np.count_nonzero((xs[1:] == xs[:-1]).any(axis=0)))
    return {"cells": n * p, "cell_slices": n * p * slices, "tied_columns": tied}


def _slicing_counts(args, kwargs, result):
    schemes = _arg(args, kwargs, 2, "schemes")
    live = [lab for lab in result if lab is not None]
    return {
        "s_requested": int(sum(int(s) for s in schemes)),
        "s_eff": int(sum(lab.s_eff for lab in live)),
        "degenerate_schemes": sum(1 for lab in result if lab is None or lab.s_eff < 2),
    }


COUNTERS = {
    MV: _mv_counts,
    SLICING: _slicing_counts,
    "baselines.rcs": lambda args, kwargs, result: {"columns": int(np.shape(args[0])[1])},
    DATASET: lambda args, kwargs, result: {"rows": int(result.x.shape[0])},
}

# name -> (unit, better); every value is per traced item unless the unit says not
PER_LAYER = {
    "mv.calls": ("count/item", "lower"),
    "mv.busy_s": ("s/item", "lower"),
    "mv.cells": ("count/item", "lower"),
    "mv.cell_slices": ("count/item", "lower"),
    "mv.ns_per_cell_slice": ("ns", "lower"),
    "mv.tied_columns": ("count/item", "lower"),
    "mv.peak_bytes_per_cell": ("B/cell", "lower"),
    "baselines.fks.calls": ("count/item", "lower"),
    "baselines.fks.busy_s": ("s/item", "lower"),
    "baselines.fks.peak_bytes_per_cell": ("B/cell", "lower"),
    "baselines.rcs.calls": ("count/item", "lower"),
    "baselines.rcs.busy_s": ("s/item", "lower"),
    "baselines.rcs.columns": ("count/item", "lower"),
    "baselines.sis.busy_s": ("s/item", "lower"),
    "bench.mms.calls": ("count/item", "lower"),
    "bench.mms.busy_s": ("s/item", "lower"),
    "bench.degenerate_reps": ("count/item", "lower"),
    "slicing.calls": ("count/item", "lower"),
    "slicing.busy_s": ("s/item", "lower"),
    "slicing.s_requested": ("count/item", "higher"),
    "slicing.s_eff": ("count/item", "higher"),
    "slicing.degenerate_schemes": ("count/item", "lower"),
    "simulate.calls": ("count/item", "lower"),
    "simulate.busy_s": ("s/item", "lower"),
    "screening.calls": ("count/item", "lower"),
    "screening.busy_s": ("s/item", "lower"),
    "screening.self_s": ("s/item", "lower"),
    "screening.parallel_eff": ("ratio", "higher"),
    "cli.main_s": ("s/item", "lower"),
    "cli.self_s": ("s/item", "lower"),
    "cli.bytes_in": ("B/item", "lower"),
    "cli.rows_dropped": ("count/item", "lower"),
    "cli.peak_bytes_per_cell": ("B/cell", "lower"),
    "cli.simulate_s": ("s", "lower"),
    "item.traced_ms": ("ms", "lower"),
    "trace.bookkeeping_s": ("s/item", "lower"),
    "trace.items_per_s": ("1/s", "higher"),
    "trace.untraced_items_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def per_layer(spans, items: int, extra: dict) -> dict[str, float]:
    """Per-layer metrics from the traced items' spans.

    ``extra`` supplies what spans cannot: tracemalloc peaks from the separate
    peak pass, set-up and input sizes, degenerate replications, the parallel
    efficiency of the thread-blocked path and the throughput of the traced and
    untraced halves. A layer the workload never reaches reads zero; the run
    checks apart that every layer the workload should reach has spans.
    """
    agg = aggregate(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def per_item(value):
        return value / items if items else 0.0

    def seconds(name, key="busy_ns"):
        return per_item(get(name, key) / 1e9)

    mv_busy = get(MV, "busy_ns")
    traced, untraced = extra["trace.items_per_s"], extra["trace.untraced_items_per_s"]
    out = {
        "mv.calls": per_item(get(MV, "calls")),
        "mv.busy_s": seconds(MV),
        "mv.cells": per_item(get(MV, "cells")),
        "mv.cell_slices": per_item(get(MV, "cell_slices")),
        "mv.ns_per_cell_slice": mv_busy / get(MV, "cell_slices") if get(MV, "cell_slices") else 0.0,
        "mv.tied_columns": per_item(get(MV, "tied_columns")),
        "baselines.fks.calls": per_item(get("baselines.fks", "calls")),
        "baselines.fks.busy_s": seconds("baselines.fks"),
        "baselines.rcs.calls": per_item(get("baselines.rcs", "calls")),
        "baselines.rcs.busy_s": seconds("baselines.rcs"),
        "baselines.rcs.columns": per_item(get("baselines.rcs", "columns")),
        "baselines.sis.busy_s": seconds("baselines.sis"),
        "bench.mms.calls": per_item(get(MMS, "calls")),
        "bench.mms.busy_s": seconds(MMS),
        "slicing.calls": per_item(get(SLICING, "calls")),
        "slicing.busy_s": seconds(SLICING),
        "slicing.s_requested": per_item(get(SLICING, "s_requested")),
        "slicing.s_eff": per_item(get(SLICING, "s_eff")),
        "slicing.degenerate_schemes": per_item(get(SLICING, "degenerate_schemes")),
        "simulate.calls": per_item(get(SIMULATE, "calls")),
        "simulate.busy_s": seconds(SIMULATE),
        "screening.calls": per_item(get(FMV, "calls")),
        "screening.busy_s": seconds(FMV),
        "screening.self_s": seconds(FMV, "self_ns"),
        "cli.main_s": seconds(CLI_MAIN),
        "cli.self_s": seconds(CLI_MAIN, "self_ns"),
        "cli.rows_dropped": (extra["cli.rows_in"] - per_item(get(DATASET, "rows"))
                             if get(DATASET, "calls") else 0.0),
        "item.traced_ms": per_item(get(ITEM, "busy_ns") / 1e6),
        "trace.bookkeeping_s": seconds("trace.bookkeeping"),
        "trace.overhead": 1.0 - traced / untraced if untraced else 0.0,
    }
    for key in ("mv.peak_bytes_per_cell", "baselines.fks.peak_bytes_per_cell",
                "cli.peak_bytes_per_cell", "cli.simulate_s", "cli.bytes_in",
                "bench.degenerate_reps", "screening.parallel_eff", "trace.items_per_s",
                "trace.untraced_items_per_s"):
        out[key] = extra[key]
    return {name: out[name] for name in PER_LAYER}
