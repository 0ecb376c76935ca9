"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload train-v2-n10000 --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
src/. With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The last line of
standard output is one JSON object with exactly the keys correct,
attempted, failed and metrics; the line before it records the settings
the run used. Full details go to bench/out/results/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train-v2-n10000", "train-full-hetero-n2708", "distance-pairs")


def blas_threads() -> int:
    """One BLAS thread: a closed loop from one process, no oversubscription
    of the transport pool, and the same count on any machine."""
    return min(1, os.cpu_count() or 1)


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                metric_specs: list) -> str:
    """The result object: every metric of metric_specs, no other, each with
    its value and the unit BENCHMARK.json gives it."""
    names = [m["name"] for m in metric_specs]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    metrics = {}
    for spec in metric_specs:
        value = float(values[spec["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {spec['name']} is {value}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"attempted {attempted}, failed {failed}")
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fgwcl" / "__init__.py").is_file():
        print(f"error: no fgwcl sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    threads = blas_threads()
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    import numpy as np
    import workloads

    if args.workload == "distance-pairs":
        run = workloads.trace_distance if args.trace else \
            workloads.run_distance
        result = run(args.seed, args.seconds, T_START)
    else:
        run = workloads.trace_train if args.trace else workloads.run_train
        result = run(args.workload, args.seed, args.seconds,
                     OUT / "train", T_START)
    problems = result["report"].problems
    line = result_line(not problems, result["attempted"], result["failed"],
                       result["metrics"], metric_specs)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "blas_threads": threads, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "closed_loop_clients": 1, "problems": problems}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"info": info, "result": json.loads(line),
         "details": result.get("details", {})}, indent=1, default=float))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
