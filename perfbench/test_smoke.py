"""Reduced-size smoke test of the benchmark harness.

Runs every workload on small designs for a fraction of a second, traced and
untraced, and checks that it emits exactly the metrics BENCHMARK.json names,
with their units, and no failures. A scorer made to raise must show up as
failed items, never as a good minimum model size.
"""

import json
from pathlib import Path

import pytest

import fmvscreen.bench

import layers
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

SMALL = workloads.Config(
    sizes={"1a": (60, 120), "6": (60, 120), "7": (80, 100), "2b": (40, 60)},
    csv_shape=(60, 120),
    setup_reps=1,
)


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_emitted_without_failures(name, trace, tmp_path):
    spans = tmp_path / "spans.json"
    result, record = workloads.run(name, 3, 0.2, trace, SMALL, tmp_path / "work",
                                   spans if trace else None)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("per_layer" if trace else "end_to_end")
    if trace:
        assert json.loads(spans.read_text())
        if name == "screen-csv":
            assert result["metrics"]["screening.parallel_eff"]["value"] > 0.0
    else:
        assert result["metrics"]["success_ratio"]["value"] == 1.0
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["item_tail_ms"] >= metrics["item_p50_ms"]
        for metric in ("setup_s", "items_per_s", "item_p50_ms", "item_cpu_ms",
                       "peak_bytes_per_cell"):
            assert result["metrics"][metric]["value"] > 0.0


def test_crashing_scorer_counts_as_failed(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ValueError("injected scorer failure")

    monkeypatch.setattr(fmvscreen.bench, "fks_scores", broken)
    result, _ = workloads.run("table1", 3, 0.2, False, SMALL, tmp_path / "work")
    assert not result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_ratio"]["value"] == 0.0


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
def test_missing_wrapped_name_marks_run_incorrect(trace, monkeypatch, tmp_path):
    # a layer function renamed away must fail the run, not read as 0 busy time
    renamed = [t for t in layers.TARGETS if t[1] != "fks_scores"]
    renamed.append(("fmvscreen.bench", "fks_scores_renamed", "baselines.fks"))
    monkeypatch.setattr(layers, "TARGETS", tuple(renamed))
    result, record = workloads.run("table1", 3, 0.2, trace, SMALL, tmp_path / "work")
    assert not result["correct"]
    assert "fmvscreen.bench.fks_scores_renamed" in " ".join(record["problems"])


def test_unreached_layer_marks_traced_run_incorrect(monkeypatch, tmp_path):
    # as if generation moved behind a name the benchmark does not wrap: the
    # simulate layer's span never opens
    kept = tuple(t for t in layers.TARGETS if t[2] != layers.SIMULATE)
    monkeypatch.setattr(layers, "TARGETS", kept)
    result, record = workloads.run("rank-baselines", 3, 0.2, True, SMALL, tmp_path / "work")
    assert not result["correct"]
    assert "layers never reached: " + layers.SIMULATE in record["problems"]
