"""The benchmark's workloads, the loop that times their items, and the
passes that trace them and measure their memory.

Every workload is a closed loop of one client: the next item starts when the
previous one has finished and been checked. Checks run outside the timed
section. An item that raises or fails a check counts as failed, and failed
items give no timing sample.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fmvscreen
import fmvscreen.cli
from fmvscreen import ExperimentSpec, ResponseKind, active_set, default_schemes, run_replications

import layers
import oracles
from spans import PeakTracker, Probe, Tracer, missing_targets, patched

HERE = Path(__file__).resolve().parent
SRC = Path(fmvscreen.__file__).resolve().parents[1]

CLI = [sys.executable, "-m", "fmvscreen.cli"]
# a hung child is killed and waited for, so a run still ends in time
SUBPROCESS_TIMEOUT = 60

# seed streams, so the timed, traced and peak items never share inputs
TIMED, TRACED, PEAK = 0, 1, 2

# inactive columns checked against an oracle per scorer and item
CHECK_COLUMNS = 3

SCORER_SPANS = {
    "fmv": "screening.fmv_scores",
    "sis": "baselines.sis",
    "rcs": "baselines.rcs",
    "fks": "baselines.fks",
}


@dataclass(frozen=True)
class Config:
    """Problem sizes and repetitions. The defaults are the paper's sizes; the
    smoke test shrinks them."""

    sizes: dict = field(default_factory=dict)  # design id -> (n, p)
    csv_shape: tuple | None = None  # (rows, predictors) kept from the simulated CSV
    setup_reps: int | None = None  # set-ups timed per run; None: the workload's own count


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def item_seed(seed: int, stream: int, i: int) -> int:
    """Base seed of one item's replication, distinct for every (seed, stream, i)."""
    return int(np.random.SeedSequence([seed, stream, i]).generate_state(1, np.uint64)[0])


class Replications:
    """Each item is ``run_replications`` with one replication, cycling over
    the designs."""

    setup_reps = 9  # a set-up is a 0.2 s interpreter start; its median needs many

    def __init__(self, name, designs, screeners, reaches, cfg: Config, seed: int, workdir: Path):
        self.name = name
        self.designs = designs
        self.screeners = screeners
        self.reaches = reaches
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.cycle = len(designs)
        self.tracer = None
        self.specs = [ExperimentSpec(d, *cfg.sizes.get(d, (None, None))) for d in designs]

    def setup(self) -> float:
        """A fresh interpreter importing the package: all this workload sets up."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fmvscreen"], env=child_env(),
                       check=True, capture_output=True, timeout=SUBPROCESS_TIMEOUT)
        return time.perf_counter() - t0

    def prepare(self) -> None:
        pass

    def parallel_efficiency(self) -> float:
        return 0.0  # every item scores on one thread

    def cells(self, i: int) -> int:
        spec = self.specs[i % self.cycle]
        return spec.n * spec.p

    def item(self, stream: int, i: int):
        return run_replications(self.specs[i % self.cycle], self.screeners, reps=1,
                                base_seed=item_seed(self.seed, stream, i), threads=1)

    def peak_item(self, i: int):
        return self.item(PEAK, i)

    def degenerate_reps(self, summaries) -> int:
        return sum(len(s.degenerate_reps) for s in summaries)

    def check(self, stream: int, i: int, summaries, calls) -> None:
        spec = self.specs[i % self.cycle]
        active = active_set(spec.id)
        if sorted(s.screener for s in summaries) != sorted(self.screeners):
            raise oracles.CheckFailed("one summary per screener expected")
        for s in summaries:
            if s.degenerate_reps:
                # _score_one turns a scorer's ValueError into all-zero scores,
                # which would rank the leading active columns first
                raise oracles.CheckFailed(f"{s.screener}: degenerate replication")
            if not len(active) <= int(s.mms[0]) <= spec.p:
                raise oracles.CheckFailed(f"{s.screener}: minimum model size {s.mms[0]}")
        wanted = sorted(SCORER_SPANS[s] for s in self.screeners)
        scored = [c for c in calls if c[0] in wanted]
        if sorted(c[0] for c in scored) != wanted:
            raise oracles.CheckFailed(f"scorer calls {[c[0] for c in calls]}, expected {wanted}")
        rng = np.random.default_rng([self.seed, stream, i])
        columns = oracles.sample_columns(rng, spec.p, active, CHECK_COLUMNS)
        for name, args, kwargs, result in scored:
            oracles.check_scorer_call(name, args, kwargs, result, columns)


class ScreenCsv:
    """Each item runs ``fmvscreen screen --threads 1`` as a subprocess on one
    CSV: design 1c materialised by ``fmvscreen simulate``, every cell rounded
    to one decimal, and a few cells set to NA.

    Items run one scoring thread. With two, an item's wall time depends on
    whether the machine's second CPU is free at that moment, and on a shared
    two-CPU machine that made run medians differ by a third. The
    thread-blocked path still runs once per run, in the check that its report
    is byte-identical.
    """

    name = "screen-csv"
    cycle = 1
    setup_reps = 5  # a set-up takes about 1.7 s
    na_cells = 5
    reaches = (layers.CLI_MAIN, layers.DATASET, layers.FMV, layers.SLICING, layers.MV)

    def __init__(self, cfg: Config, seed: int, workdir: Path):
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.input = workdir / "screen_input.csv"
        self.simulate_s: list[float] = []
        self.ref_digest = None

    def setup(self) -> float:
        """Materialise the simulated CSV and write the rounded input from it."""
        t0 = time.perf_counter()
        simulated = self.workdir / "simulated.csv"
        subprocess.run([*CLI, "simulate", "--cases", "1c", "--seed", str(self.seed),
                        "--out", str(simulated)],
                       env=child_env(), check=True, capture_output=True, timeout=SUBPROCESS_TIMEOUT)
        self.simulate_s.append(time.perf_counter() - t0)
        self._write_input(simulated)
        return time.perf_counter() - t0

    def _write_input(self, simulated: Path) -> None:
        with open(simulated, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
        rows, predictors = self.cfg.csv_shape or (values.shape[0], values.shape[1] - 1)
        header = header[: predictors + 1]
        cells = [list(map("{:.1f}".format, row)) for row in values[:rows, : predictors + 1].tolist()]
        rng = np.random.default_rng([self.seed, 1])
        na_rows = rng.choice(rows, size=self.na_cells, replace=False)
        for r, c in zip(na_rows, rng.integers(0, predictors + 1, size=self.na_cells)):
            cells[r][c] = "NA"
        text = "\n".join([",".join(header)] + [",".join(row) for row in cells]) + "\n"
        self.input.write_text(text, encoding="utf-8")
        self.names = header[1:]
        self.rows_in = rows
        self.bytes_in = self.input.stat().st_size

    def _parse_input(self) -> None:
        """The benchmark's own parse of the input, for the reference check."""
        lines = self.input.read_text(encoding="utf-8").splitlines()[1:]
        numeric = np.array([[float(c) if c != "NA" else np.nan for c in line.split(",")]
                            for line in lines])
        keep = ~np.isnan(numeric).any(axis=1)
        self.y, self.x = numeric[keep, 0], numeric[keep, 1:]

    def cells(self, i: int) -> int:
        return self.rows_in * len(self.names)

    def _argv(self, threads: int, out: Path) -> list[str]:
        return ["screen", "--input", str(self.input), "--response", "y",
                "--threads", str(threads), "--out", str(out)]

    def prepare(self) -> None:
        """The reference report: byte-identical under ``--threads 1`` and
        ``--threads 2``, equal to in-process ``fmv_scores`` on the same parsed
        matrix, and to the oracle on the checked columns."""
        self._parse_input()
        reports = []
        for threads in (1, 2):
            out = self.workdir / f"ranked_threads{threads}.csv"
            proc = subprocess.run([*CLI, *self._argv(threads, out)], env=child_env(),
                                  capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
            if proc.returncode != 0:
                raise oracles.CheckFailed(f"screen --threads {threads} exited "
                                          f"{proc.returncode}: {proc.stderr}")
            reports.append(out.read_bytes())
        if reports[0] != reports[1]:
            raise oracles.CheckFailed("report under --threads 2 differs from --threads 1")
        n = self.x.shape[0]
        schemes = default_schemes(n)
        fused, per_scheme, degenerate = fmvscreen.fmv_scores(
            self.x, self.y, ResponseKind.CONTINUOUS, schemes, threads=1)
        if degenerate:
            raise oracles.CheckFailed("in-process fmv_scores flagged a degenerate response")
        lines = reports[0].decode("utf-8").splitlines()
        expected = ",".join(["rank", "column", "fused_score"] + [f"mv_s{s}" for s in schemes])
        if lines[0] != expected or len(lines) != len(self.names) + 1:
            raise oracles.CheckFailed(f"unexpected report shape: {lines[0]!r}, {len(lines)} lines")
        column = {name: j for j, name in enumerate(self.names)}
        seen = set()
        for rank, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            j = column[cells[1]]
            seen.add(j)
            got = [float(c) for c in cells[2:]]
            want = [float(fused[j])] + [float(v) for v in per_scheme[:, j]]
            if int(cells[0]) != rank or got != want:
                raise oracles.CheckFailed(f"report row {rank} ({cells[1]}) differs from fmv_scores")
        if len(seen) != len(self.names):
            raise oracles.CheckFailed("report repeats a column")
        labels = oracles.slicings(self.y, ResponseKind.CONTINUOUS, schemes)
        rng = np.random.default_rng([self.seed, 2])
        columns = oracles.sample_columns(rng, self.x.shape[1], active_set("1c"), CHECK_COLUMNS)
        oracles.check_columns("screen", fused, columns,
                              lambda j: oracles.fmv_oracle(self.x[:, j], labels))
        self.ref_digest = hashlib.sha256(reports[0]).digest()

    def parallel_efficiency(self, threads: int = 2, reps: int = 3) -> float:
        """``mv`` busy time ÷ (threads × wall) of in-process ``fmv_scores`` on
        the parsed input with ``threads`` column blocks; median of ``reps``.

        The timed items score on one thread, so the thread-blocked path is
        measured here, with the kernel's calls timed on the pool's threads.
        """
        threads = min(threads, len(os.sched_getaffinity(0)))
        kernel = fmvscreen.screening.mv_hat_columns_multi
        busy = []

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return kernel(*args, **kwargs)
            finally:
                busy.append(time.perf_counter() - t0)  # list.append is atomic

        schemes = default_schemes(self.x.shape[0])
        ratios = []
        fmvscreen.screening.mv_hat_columns_multi = timed
        try:
            for _ in range(reps):
                busy.clear()
                t0 = time.perf_counter()
                fmvscreen.fmv_scores(self.x, self.y, ResponseKind.CONTINUOUS, schemes,
                                     threads=threads)
                ratios.append(sum(busy) / (threads * (time.perf_counter() - t0)))
        finally:
            fmvscreen.screening.mv_hat_columns_multi = kernel
        return statistics.median(ratios)

    def peak_item(self, i: int) -> Path:
        """The item in process, so the parser's per-cell strings are traced too."""
        out = self.workdir / "ranked.csv"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = fmvscreen.cli.main(self._argv(1, out))
        if rc != 0:
            raise RuntimeError(f"screen exited {rc}")
        return out

    def item(self, stream: int, i: int) -> Path:
        out = self.workdir / "ranked.csv"
        argv = self._argv(1, out)
        if self.tracer is None:
            cmd = [*CLI, *argv]
        else:
            spans_path = self.workdir / "child_spans.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"screen exited {proc.returncode}: {proc.stderr}")
        if self.tracer is not None:
            with open(spans_path, encoding="utf-8") as fh:
                self.tracer.adopt(json.load(fh), parent=self.tracer.current())
        return out

    def degenerate_reps(self, out) -> int:
        return 0

    def check(self, stream: int, i: int, out: Path, calls) -> None:
        if self.ref_digest is None:
            raise oracles.CheckFailed("no checked reference report")
        if hashlib.sha256(out.read_bytes()).digest() != self.ref_digest:
            raise oracles.CheckFailed("report differs from the checked reference")


WORKLOADS = {
    "table1": lambda cfg, seed, wd: Replications(
        "table1", ("1a", "6", "7"), ("fmv", "sis", "fks"),
        (layers.SIMULATE, layers.SLICING, layers.MV, layers.FMV, "baselines.sis",
         "baselines.fks", layers.MMS), cfg, seed, wd),
    "rank-baselines": lambda cfg, seed, wd: Replications(
        "rank-baselines", ("2b",), ("sis", "rcs"),
        (layers.SIMULATE, "baselines.sis", "baselines.rcs", layers.MMS), cfg, seed, wd),
    "screen-csv": ScreenCsv,
}


@dataclass
class Timing:
    times: list = field(default_factory=list)  # seconds, successful items only
    cpus: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0
    degenerate: int = 0

    @property
    def items_per_s(self) -> float:
        return len(self.times) / self.busy if self.busy else 0.0


def _failure(what: str, exc: BaseException) -> None:
    print(f"{what} failed: {exc!r}", file=sys.stderr)
    if not isinstance(exc, oracles.CheckFailed):
        traceback.print_exception(exc, file=sys.stderr)


def measure(wl, seconds: float, stream: int, probe: Probe) -> Timing:
    """Run whole cycles of items until ``seconds`` of item time have passed."""
    tracer = probe.tracer
    wl.tracer = tracer
    timing = Timing()
    # With several designs per cycle, the tail order statistic (ten samples
    # above it) lies inside the slowest design's samples only once that
    # design has eleven of them; fewer cycles would move it between designs.
    min_items = 11 * wl.cycle if wl.cycle > 1 else 1
    give_up = time.perf_counter() + 2 * seconds + 30
    i = 0
    while ((timing.busy < seconds or i % wl.cycle or i < min_items)
           and time.perf_counter() < give_up):
        probe.calls.clear()
        span = None
        if tracer is not None:
            tracer.item = i
            span = tracer.open(layers.ITEM)
        error = out = None
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out = wl.item(stream, i)
        except Exception as exc:  # a crashing item is a failed item, not a crashed run
            error = exc
        t1, c1 = time.perf_counter(), cpu_seconds()
        if span is not None:
            tracer.close(span)
        timing.busy += t1 - t0
        timing.attempted += 1
        if error is None:
            try:
                timing.degenerate += wl.degenerate_reps(out)
                wl.check(stream, i, out, probe.calls)
            except Exception as exc:
                error = exc
        if error is None:
            timing.times.append(t1 - t0)
            timing.cpus.append(c1 - c0)
        else:
            timing.failed += 1
            _failure(f"{wl.name} item {i}", error)
        i += 1
    probe.calls.clear()
    wl.tracer = None
    return timing


def peak_pass(wl, targets) -> dict[str, float]:
    """tracemalloc peaks per item cell, for the items of one cycle and for the
    layers inside them; the largest over the cycle is kept."""
    probe = Probe(peaks=PeakTracker())
    with patched(targets, probe):
        tracemalloc.start()
        try:
            for i in range(wl.cycle):
                probe.item_cells = wl.cells(i)
                probe.calls.clear()
                token = probe.peaks.enter()
                out = wl.peak_item(i)
                probe.record_peak(layers.ITEM, probe.peaks.exit(token))
                wl.check(PEAK, i, out, probe.calls)
        finally:
            tracemalloc.stop()
            probe.calls.clear()
    return probe.layer_peak


def tail(times_ms: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it, and its
    percentile. Below 20 samples that would fall under the median, so the
    median (percentile 50) is reported instead."""
    ordered = sorted(times_ms)
    if len(ordered) < 20:
        return statistics.median(ordered), 50.0
    k = len(ordered) - 10
    return ordered[k - 1], 100.0 * k / len(ordered)


END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "item_cpu_ms": "ms",
    "peak_bytes_per_cell": "B/cell",
    "success_ratio": "ratio",
}


def run(name: str, seed: int, seconds: float, trace: bool, cfg: Config, workdir: Path,
        spans_path: Path | None = None):
    """Set up, check, measure and report one workload.

    Returns the result object (correct, attempted, failed, metrics) and a
    record of how it was obtained.
    """
    seed &= (1 << 64) - 1  # numpy seeds must be nonnegative
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](cfg, seed, workdir)
    setups = [wl.setup() for _ in range(cfg.setup_reps or wl.setup_reps)]
    problems = []
    missing = missing_targets(layers.TARGETS)
    if missing:
        # a renamed or moved layer: measure what is left, but never as correct
        problems.append(f"wrapped names missing: {', '.join(missing)}")
        print(problems[-1], file=sys.stderr)
    targets = [t for t in layers.TARGETS if f"{t[0]}.{t[1]}" not in missing]
    try:
        wl.prepare()
    except Exception as exc:
        problems.append("reference check")
        _failure("reference check", exc)
    try:
        peaks = peak_pass(wl, targets)
    except Exception as exc:
        problems.append("peak pass")
        _failure("peak pass", exc)
        peaks = {}
    with patched(targets, Probe()) as probe:
        timing = measure(wl, seconds / 2 if trace else seconds, TIMED, probe)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "items": timing.attempted, "problems": problems}

    if trace:
        untraced = timing
        tracer = Tracer()
        with patched(targets, Probe(tracer=tracer, counters=layers.COUNTERS)) as probe:
            timing = measure(wl, seconds / 2, TRACED, probe)
        if spans_path is not None:
            tracer.write(spans_path)
        reached = {s["name"] for s in tracer.spans}
        unreached = [layer for layer in wl.reaches if layer not in reached]
        if unreached:
            problems.append(f"layers never reached: {', '.join(unreached)}")
            print(problems[-1], file=sys.stderr)
        try:
            parallel_eff = wl.parallel_efficiency()
        except Exception as exc:
            problems.append("parallel efficiency")
            _failure("parallel efficiency", exc)
            parallel_eff = 0.0
        is_cli = isinstance(wl, ScreenCsv)
        extra = {
            "mv.peak_bytes_per_cell": peaks.get(layers.MV, 0.0),
            "baselines.fks.peak_bytes_per_cell": peaks.get("baselines.fks", 0.0),
            "cli.peak_bytes_per_cell": peaks.get(layers.ITEM, 0.0) if is_cli else 0.0,
            "cli.simulate_s": statistics.median(wl.simulate_s) if is_cli else 0.0,
            "cli.bytes_in": wl.bytes_in if is_cli else 0,
            "cli.rows_in": wl.rows_in if is_cli else 0,
            "bench.degenerate_reps": timing.degenerate / timing.attempted,
            "screening.parallel_eff": parallel_eff,
            "trace.items_per_s": timing.items_per_s,
            "trace.untraced_items_per_s": untraced.items_per_s,
        }
        values = layers.per_layer(tracer.spans, timing.attempted, extra)
        units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
        attempted = untraced.attempted + timing.attempted
        failed = untraced.failed + timing.failed
        record["traced_items"] = timing.attempted
    else:
        times_ms = [t * 1e3 for t in timing.times] or [0.0]
        tail_ms, tail_pct = tail(times_ms)
        cpus = timing.cpus or [0.0]
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": timing.items_per_s,
            "item_p50_ms": statistics.median(times_ms),
            "item_tail_ms": tail_ms,
            "item_cpu_ms": 1e3 * sum(cpus) / len(cpus),
            "peak_bytes_per_cell": peaks.get(layers.ITEM, 0.0),
            "success_ratio": 1.0 - timing.failed / timing.attempted,
        }
        units = END_TO_END_UNITS
        attempted, failed = timing.attempted, timing.failed
        record.update(tail_percentile=tail_pct, samples=len(timing.times),
                      setup_runs_s=setups)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    return result, record
