"""Record benchmark runs of a source checkout in a BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_16.json --label change \
        --seeds 4201 4202 --seconds 20 --tier1 tier1.txt

Runs `bench/run.py` of the checkout at --tree (default: this repo) once
per workload, trace level and seed, each in its own process, and reads
the run's last two lines: the settings line and the result line. The
runs go into the record named --label in --out, which is created if it
does not exist; a run with the same workload, seed and trace as an
earlier one of that record replaces it, so a record can be built up
over several calls (to alternate two checkouts run by run, say).

A training run also keeps `user_sys_s_per_epoch`: the median over its
rounds of the process's user+sys CPU seconds per epoch, read from the
`round_user_sys_s` that bench/run.py saves under
`bench/out/results/<workload>-seed<seed>-trace<trace>.json`. Next to
`epoch_s` it tells a wall-time gain from a second core apart from a
gain from less work.

A record holds, next to its runs:
- the checkout's git revision (`git describe --always --dirty`, or null
  outside a git checkout) and a SHA-256 over the files of its `src/`,
  which tells an uncommitted tree from its base;
- `src_lines`: the line count of the `.py` files under its `src/`;
- the machine: core count, Python, numpy and BLAS versions, and the BLAS
  threads the runs used;
- with --tier1, the wall time, outcome and ten slowest tests of a saved
  `pytest --durations=10` run of the tier-1 suite;
- `cold_start`, measured on every call: the wall time of `import
  fgwcl.cli` from the checkout's `src/` in 7 fresh interpreters with
  BLAS at 1 thread (median and quartiles), the median ru_maxrss after
  the import, and the sorted `scipy.*` modules the import loaded.

Every metric keeps the unit the benchmark reports with it. Traced
metrics known to measure something other than their name says are
recorded as they are, with the fault under "wrong".

    python3 tools/bench_record.py --trajectory

reads every BENCH_*.json of the repo and prints, in file order, each
workload's `change` median of every end-to-end metric over its untraced
runs. Then it prints each pair of records run on the same `src/` (a
file's `change` record and the next file's `parent` with the same
`src_sha256`), with their tier-1 wall times, as measured drift between
sessions. A gain still counts only against its parent in the same file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-v2-n10000", "train-full-hetero-n2708", "distance-pairs")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COLD_START_RUNS = 7

# run in a fresh interpreter: times the CLI's import and reports what it
# loaded
_COLD_IMPORT = """
import json, resource, sys, time
t0 = time.perf_counter()
import fgwcl.cli
import_s = time.perf_counter() - t0
print(json.dumps({
    "import_s": import_s,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy": sorted(m for m in sys.modules if m.startswith("scipy."))}))
"""

# traced metrics whose value does not mean what their name says
WRONG_TRACED = {
    "ot.cost_ms": "times a per-pair cost build that training does not "
                  "run; only distance-pairs calls it",
    "ot.converged_ratio": "counts solves with iterations < max_iters, "
                          "not the solver's status codes",
    "kernels.bapg_us_per_iter": "microseconds per problem-iteration, not "
                                "per stacked iteration",
    "kernels.bapg_us_per_iter.k4": "median of 3 repeats only; beta = 5 "
                                   "problems, which never go subnormal",
    "kernels.bapg_us_per_iter.k12": "median of 3 repeats only; beta = 5 "
                                    "problems, which never go subnormal",
    "kernels.bapg_us_per_iter.k30": "median of 3 repeats only; beta = 5 "
                                    "problems, which never go subnormal",
    "autodiff.retained_mb": "read before the tape is reset",
    "train.trace_overhead_ms": "traced minus untraced epoch from different "
                               "rounds; reads negative",
}


def git_rev(tree: Path):
    try:
        out = subprocess.run(["git", "-C", str(tree), "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def src_sha256(tree: Path) -> str:
    """SHA-256 over the relative paths and contents of src/'s files."""
    digest = hashlib.sha256()
    src = tree / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def src_lines(tree: Path) -> int:
    """Lines of the .py files under src/."""
    return sum(p.read_bytes().count(b"\n")
               for p in (tree / "src").rglob("*.py"))


def machine(info: dict) -> dict:
    """The machine and library versions, from a run's settings line and
    this interpreter's numpy (the one the runs import)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": info["cpu_count"], "python": info["python"],
            "numpy": info["numpy"],
            "blas": {"name": blas.get("name"),
                     "version": blas.get("version")},
            "blas_threads": info["blas_threads"]}


def parse_tier1(text: str) -> dict:
    """Outcome, wall time and slowest tests of a saved pytest run."""
    slowest = [{"seconds": float(s), "test": t} for s, t in re.findall(
        r"^\s*([\d.]+)s\s+(?:call|setup|teardown)\s+(\S+)", text, re.M)]
    summary = re.findall(r"^=*\s*(\d+ (?:failed|passed).*?) in ([\d.]+)s",
                         text, re.M)
    if not summary:
        raise ValueError("no pytest summary line found")
    outcome, wall = summary[-1]
    return {"outcome": outcome, "wall_s": float(wall),
            "slowest": slowest[:10]}


def quartiles(values, unit: str) -> dict:
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "unit": unit}


def cold_start(tree: Path, runs: int = COLD_START_RUNS) -> dict:
    """`import fgwcl.cli` from tree's src/ in `runs` fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           **{var: "1" for var in BLAS_VARS}}
    samples = [json.loads(subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT], env=env, capture_output=True,
        text=True, check=True).stdout) for _ in range(runs)]
    return {"runs": runs,
            "import_s": quartiles([s["import_s"] for s in samples], "s"),
            "maxrss_mb": {"median": float(np.median(
                [s["maxrss_mb"] for s in samples])), "unit": "MB"},
            "scipy_modules": samples[-1]["scipy"]}


def run_one(tree: Path, workload: str, seed: int, trace: int,
            seconds: float) -> tuple[dict, dict]:
    """One bench/run.py process: its settings line, and the run as the
    record keeps it."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: "
                           f"{out.stderr.strip()[-2000:]}")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    for name, fault in WRONG_TRACED.items():
        if name in metrics:
            metrics[name]["wrong"] = fault
    run = {"workload": workload, "seed": seed, "trace": trace,
           "seconds": seconds, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"],
           "problems": info["problems"], "metrics": metrics}
    saved = tree / "bench" / "out" / "results" / (
        f"{workload}-seed{seed}-trace{trace}.json")
    cpu = user_sys_per_epoch(json.loads(saved.read_text())["details"],
                             result["attempted"])
    if cpu is not None:
        run["user_sys_s_per_epoch"] = {"median": cpu, "unit": "s"}
    return info, run


def user_sys_per_epoch(details: dict, attempted: int):
    """Median user+sys CPU seconds per epoch over a training run's rounds,
    from the details of its saved results; None for a run whose details
    keep no CPU times."""
    cpu = details.get("round_user_sys_s")
    if not cpu:
        return None
    epochs = attempted / details["rounds"]
    return float(np.median([(user + sys_s) / epochs for user, sys_s in cpu]))


def record(path: Path, label: str, tree: Path, runs: list, info=None,
           tier1=None, cold=None) -> None:
    """Merge runs, the machine of a settings line `info`, a tier-1
    summary and a cold-start block into the record `label` of the file
    at `path`."""
    doc = json.loads(path.read_text()) if path.exists() else {
        "benchmark": "BENCHMARK.json", "wrong_traced_metrics": WRONG_TRACED,
        "records": []}
    rec = next((r for r in doc["records"] if r["label"] == label), None)
    if rec is None:
        rec = {"label": label, "runs": []}
        doc["records"].append(rec)
    rec.update(rev=git_rev(tree), src_sha256=src_sha256(tree),
               src_lines=src_lines(tree))
    if info is not None:
        rec["machine"] = machine(info)
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"])
        rec["runs"] = [r for r in rec["runs"]
                       if (r["workload"], r["seed"], r["trace"]) != key]
        rec["runs"].append(run)
    rec["runs"].sort(key=lambda r: (r["workload"], r["trace"], r["seed"]))
    if tier1 is not None:
        rec["tier1"] = tier1
    if cold is not None:
        rec["cold_start"] = cold
    path.write_text(json.dumps(doc, indent=1) + "\n")


def bench_files(root: Path = ROOT) -> list:
    """The BENCH_<n>.json files under root, in the order of n."""
    return sorted(root.glob("BENCH_*.json"),
                  key=lambda p: int(p.stem.split("_")[1]))


def end_to_end_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def record_of(path: Path, label: str) -> dict:
    doc = json.loads(path.read_text())
    return next(r for r in doc["records"] if r["label"] == label)


def medians(rec: dict, metrics) -> dict:
    """{workload: {metric: median}} over a record's untraced runs."""
    values = {}
    for run in rec["runs"]:
        for name in metrics:
            if run["trace"] == 0 and name in run["metrics"]:
                values.setdefault(run["workload"], {}).setdefault(
                    name, []).append(run["metrics"][name]["value"])
    return {w: {m: float(np.median(v)) for m, v in by_metric.items()}
            for w, by_metric in values.items()}


def change_trajectory(paths) -> dict:
    """{(workload, metric): [(file, median)]} over the `change` records of
    `paths`, in their order."""
    units, rows = end_to_end_units(), {}
    for path in paths:
        for workload, by_metric in medians(record_of(path, "change"),
                                           units).items():
            for name, value in by_metric.items():
                rows.setdefault((workload, name), []).append(
                    (path.stem, value))
    return rows


def same_src_pairs(paths) -> list:
    """[(change file, parent file, {workload: {metric: (change median,
    parent median)}}, {probe: (change, parent)})] for each file's `change`
    record whose src_sha256 the next file's `parent` record shares; the
    one probe is the tier-1 wall time, where both records have it."""
    units, pairs = end_to_end_units(), []
    for first, second in zip(paths, paths[1:]):
        before, after = record_of(first, "change"), record_of(second,
                                                              "parent")
        if before["src_sha256"] != after["src_sha256"]:
            continue
        b, a = medians(before, units), medians(after, units)
        metrics = {w: {m: (v, a[w][m]) for m, v in b[w].items()
                       if m in a.get(w, {})} for w in b if w in a}
        probes = {}
        if "tier1" in before and "tier1" in after:
            probes["tier1_wall_s"] = (before["tier1"]["wall_s"],
                                      after["tier1"]["wall_s"])
        pairs.append((first.stem, second.stem, metrics, probes))
    return pairs


def print_trajectory(paths) -> None:
    units = end_to_end_units()
    print("change medians at trace 0")
    for (workload, name), rows in change_trajectory(paths).items():
        print(f"{workload} {name} [{units[name]}]")
        for stem, median in rows:
            print(f"  {stem}  {median:.4g}")
    print("same-src pairs: change record, then the next file's parent")
    for first, second, metrics, probes in same_src_pairs(paths):
        print(f"{first} change -> {second} parent")
        for workload, by_metric in metrics.items():
            for name, (b, a) in by_metric.items():
                print(f"  {workload} {name}: {b:.4g} -> {a:.4g} "
                      f"(x{a / b:.3f})")
        for name, (b, a) in probes.items():
            print(f"  {name}: {b:.4g} -> {a:.4g} (x{a / b:.3f})")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trajectory", action="store_true",
                        help="print the checked-in BENCH files' trajectory "
                             "and same-src drift, and record nothing")
    parser.add_argument("--out", type=Path,
                        help="the BENCH file, relative to the repo root")
    parser.add_argument("--label")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="source checkout to run (default: this repo)")
    parser.add_argument("--seeds", type=int, nargs="*", default=[])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--traces", type=int, nargs="+", default=[0, 1],
                        choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--tier1", type=Path,
                        help="saved output of a `pytest --durations=10` run")
    args = parser.parse_args(argv)
    if not args.trajectory and (args.out is None or args.label is None):
        parser.error("--out and --label are required to record")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trajectory:
        print_trajectory(bench_files())
        return 0
    out = args.out if args.out.is_absolute() else ROOT / args.out
    tier1 = parse_tier1(args.tier1.read_text()) if args.tier1 else None
    tree = args.tree.resolve()
    runs, info = [], None
    for seed in args.seeds:
        for workload in args.workloads:
            for trace in args.traces:
                info, run = run_one(tree, workload, seed, trace,
                                    args.seconds)
                print(json.dumps({k: run[k] for k in (
                    "workload", "seed", "trace", "correct")}), flush=True)
                runs.append(run)
    record(out, args.label, tree, runs, info, tier1, cold_start(tree))
    return 0


if __name__ == "__main__":
    sys.exit(main())
