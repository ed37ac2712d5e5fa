"""fmvscreen benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout; it imports the package from ``src/``:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 16 --trace 0

Workloads: ``table1``, ``rank-baselines`` and ``screen-csv`` (see
``perfbench/BASELINE.md``). With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` a traced run gives the per-layer ones and writes its
spans to ``.perfbench/``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records how the numbers were obtained. Exits non-zero, printing no
result, when the package sources are missing.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy loads, so pearson_scores' matmul adds no hidden threads; the
# children inherit the setting
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("table1", "rank-baselines", "screen-csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "fmvscreen"
    if not (package / "__init__.py").is_file():
        print(f"error: no package sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import fmvscreen

    if Path(fmvscreen.__file__).resolve().parent != package.resolve():
        print(f"error: imported fmvscreen from {fmvscreen.__file__}", file=sys.stderr)
        return 2
    import workloads

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        result, record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                       workloads.Config(), workdir, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
