"""Alternating benchmark pairs of a base commit and the current checkout.

Run from the repository root:

    python3 tools/bench_pairs.py --base HEAD --out BENCH_<n>.json

The base commit's files are extracted with ``git archive`` into a temporary
directory, so the repository's own git state is not touched.  For each
workload in ``BENCHMARK.json`` the script runs ``bench/run.py`` for the
benchmark's ``run_seconds`` in both trees, ten times each, alternating which
side runs first, with the pair's index as ``--seed`` and the BLAS thread
variables set to 1.  It writes one JSON file: per workload and per
end-to-end metric the median, the quartiles and every value of each side,
the pairs the checkout won (ties count for neither), and whether the gain
is resolved, that is won in at least nine tenths of the pairs and by a median
gap larger than the base's interquartile range.  It also records each run's
correctness, fixed-point step counts and the machine's facts.  After a
workload's pairs it runs ``bench/run.py --trace 1`` three times in each tree,
again alternating which side runs first, and writes under the workload's
``layers`` each per-layer metric's median over those runs next to every run's
value, so the file shows which layer a change moved: one traced run per side
does not resolve the layer times on a shared host.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACED = 3
WIN_SHARE = 0.9
# set to 1 in each child's environment: bench/run.py imports numpy before it
# sets them itself, so a child started without them runs OpenBLAS's default
# worker threads (3 OS threads after ``import run`` against 1 with them set)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``bench/run.py`` process, BLAS on one thread: its result line and
    its stderr facts."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, **dict.fromkeys(THREAD_VARS, "1")))
    if proc.returncode != 0:
        raise SystemExit(f"error: bench/run.py failed in {tree} ({workload}, seed {seed}):\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = json.loads(proc.stderr.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "fp_steps": info.get("fp_steps"), "machine": info.get("machine"),
            "problems": info.get("problems", [])}


def alternating(trees: dict, workload: str, count: int, first_seed: int, seconds: float,
                trace: int = 0) -> dict:
    """``count`` runs in each tree, alternating which side runs first, with
    seeds ``first_seed``, ``first_seed + 1``, ...: each side's list of runs."""
    runs = {side: [] for side in trees}
    for i in range(count):
        sides = list(trees.items())
        if i % 2:
            sides.reverse()
        for side, tree in sides:
            runs[side].append(run_once(tree, workload, first_seed + i, seconds, trace))
            print(f"{workload} {'traced' if trace else 'pair'} {i + 1} {side}: "
                  f"{runs[side][-1]['metrics']}", file=sys.stderr)
    return runs


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def layer_medians(runs: list) -> dict:
    """Each per-layer metric's median over the traced runs, next to every run's value."""
    values = {name: [r["metrics"][name] for r in runs] for name in runs[0]["metrics"]}
    return {name: {"median": statistics.median(v), "values": v} for name, v in values.items()}


def compare(base: list, change: list, better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    b, c = spread(base), spread(change)
    gap = sign * (b["median"] - c["median"])  # positive: the checkout is better
    return {"base": b, "change": c, "better": better, "wins": wins, "pairs": len(base),
            "median_gain": gap, "base_iqr": b["q3"] - b["q1"],
            "resolved_gain": wins >= WIN_SHARE * len(base) and gap > b["q3"] - b["q1"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base_rev = git("rev-parse", args.base)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    report = {"base": base_rev, "change": git("rev-parse", "HEAD") + ("+dirty" if dirty else ""),
              "seconds": seconds, "pairs": PAIRS, "workloads": {}}

    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        extract(base_rev, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for workload in workloads:
            runs = alternating(trees, workload, PAIRS, 1, seconds)
            traced = alternating(trees, workload, TRACED, PAIRS + 1, seconds, trace=1)
            report["machine"] = runs["change"][-1]["machine"]
            report["workloads"][workload] = {
                "metrics": {name: compare([r["metrics"][name] for r in runs["base"]],
                                          [r["metrics"][name] for r in runs["change"]], better)
                            for name, better in directions.items()},
                **{side: {"correct": [r["correct"] for r in rs],
                          "failed": [r["failed"] for r in rs],
                          "attempted": [r["attempted"] for r in rs],
                          "fp_steps": rs[0]["fp_steps"][0] if rs[0]["fp_steps"] else None,
                          "problems": sorted({p for r in rs for p in r["problems"]})}
                   for side, rs in runs.items()},
                "layers": {side: {"correct": [r["correct"] for r in rs],
                                  "metrics": layer_medians(rs)}
                           for side, rs in traced.items()},
            }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
