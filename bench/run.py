"""Benchmark of lakevortex through its user entry point, ``lakevortex.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload sweep_critical_257 --seed 1 --seconds 32 --trace 0

One process runs one workload, a bundled config under the CLI defaults (serial
sweep), on the main thread with BLAS on one thread.  It first runs the
workload once untimed (the cold run, logged for information only), then
repeats it, interleaved with timed repetitions of the CLI's set-up path, for
as long as the next repetition would still end within ``--seconds``.  Every
repetition's outputs are compared with ``reference.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` count
sweep points, and ``metrics`` holds the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``).  Machine facts, sample counts, raw
wall times and failure reasons go to stderr as one JSON line.

End-to-end times are medians over the run's repetitions of each repetition's
time at reference host speed (see ``hostspeed.py``): on a shared host the raw
wall time follows other tenants' load, which moved a run's median by up to
40% between runs of the same code.  The raw wall times go to stderr.
Per-layer times are raw wall times.

The configs are deterministic, so ``--seed`` changes no input: it only sets
the order in which command and set-up repetitions (or, with ``--trace 1``,
untraced and traced repetitions) interleave within a run.

``--write-reference`` runs every workload once and rewrites ``reference.json``;
use it only on a commit whose physics output is the accepted one.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

from hostspeed import HostSpeed
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# name -> (CLI command, bundled config).  Why each is here:
# - sweep_critical_257: per-step work (bathtub ~48%, apply_K ~44% of the
#   run, 309 fixed-point steps); the bathtub, LU ordering and eps
#   continuation all act here.
# - sweep_below_critical_257: same lake, only 7-20 steps per point, so set-up
#   and per-point work (initial patch, diagnostics) weigh more; continuation
#   should barely move it.
# - solve_critical_129: one 129^2 solve; the bathtub costs ~3x apply_K per
#   step, set-up ~20% and the full-grid state.json ~10% of the command.
# sweep_above_critical is left out: the same per-step mix as the critical
# sweep at ~15 s per command.
WORKLOADS = {
    "sweep_critical_257": ("sweep", "sweep_critical.json"),
    "sweep_below_critical_257": ("sweep", "sweep_below_critical.json"),
    "solve_critical_129": ("solve", "solve_critical.json"),
}

MIN_SETUPS = 5

# Physics tolerance against reference.json.  An exact bathtub reproduces mu to
# ~12 digits and the converged state to the fixed-point tolerance (1e-8 of the
# mass), and may add or drop a tie cell at the support edge; a core that moves
# shifts mu by ~1e-3 and the vorticity center by at least a cell.
MU_RTOL = 1e-6
E_RTOL = 1e-6
DIAM_TOL_CELLS = 2.0
CENTER_TOL_CELLS = 0.5
SELF_TIME_TOL = 0.01  # traced self times must sum to the traced wall time

# The package makes only vector-sized BLAS calls; a second OpenBLAS thread
# gains nothing on them and spins on the other core, so BLAS runs on one
# thread unless the caller sets these.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# instrumentation: names are wrapped where the caller looks them up


def _on_solve(tracer: Tracer, state) -> None:
    tracer.count("fp_steps", state.iterations)
    tracer.count("points")
    tracer.record((state.iterations, state.converged))


def install_probe(tracer: Tracer, lv) -> None:
    """Untraced runs: one span per point, for the step count and convergence."""
    for owner in (lv.cli, lv.asymptotics):
        tracer.patch(owner, "solve_vortex", "variational.solve_vortex", _on_solve)


def install_layers(tracer: Tracer, lv) -> None:
    """Traced runs: a span around every call into each layer."""
    install_probe(tracer, lv)
    tracer.patch(lv.cli, "build_lake", "geometry.build_lake")
    tracer.patch(lv.cli, "assemble_operator", "elliptic.assemble_operator")
    tracer.patch(lv.elliptic, "splu", "elliptic.lu_factor")
    # cmd_solve imports solve_background from elliptic inside the function
    for owner in (lv.elliptic, lv.asymptotics):
        tracer.patch(owner, "solve_background", "elliptic.solve_background")
    tracer.patch(lv.variational, "initial_patch", "variational.initial_patch")
    tracer.patch(lv.variational, "iterate_step", "variational.iterate_step")
    tracer.patch(lv.variational, "apply_K", "elliptic.apply_K")
    tracer.patch(lv.variational, "energy", "variational.energy")
    for attr in ("state_to_dict", "write_json", "write_csv"):
        tracer.patch(lv.cli, attr, "cli.write")
    tracer.patch_counter(lv.nonlinearity.VorticityFunction, "f", "nonlinearity.f", size_arg=1)


@contextlib.contextmanager
def instrumented(tracer: Tracer, install, lv):
    install(tracer, lv)
    try:
        yield tracer
    finally:
        tracer.unpatch()


# ---------------------------------------------------------------------------
# one workload


class Runner:
    """Runs one workload's command and set-up path and checks the physics."""

    def __init__(self, lv, workload: str, reference: dict | None):
        self.lv = lv
        self.command_name, config_file = WORKLOADS[workload]
        self.config = SRC / "lakevortex" / "configs" / config_file
        self.out = OUT / workload
        self.ref = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.observed: dict | None = None

    def command(self, tracer: Tracer) -> float:
        """Run the CLI command once under ``tracer``; return its wall time."""
        shutil.rmtree(self.out, ignore_errors=True)
        tracer.run_id += 1
        argv = [self.command_name, "--config", str(self.config), "--out", str(self.out)]
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            with tracer.span("cli.main"):
                code = self.lv.cli.main(argv)
            wall = time.perf_counter() - start
        seen = self.observe(code, tracer.records[tracer.run_id])
        if self.ref is None:
            self.observed = seen
        else:
            self.check(seen)
        return wall

    def setup(self) -> float:
        """Time the CLI's set-up path once: lake, operator with LU, background."""
        cli = self.lv.cli
        cfg = cli.load_config(self.config)
        gc.collect()
        start = time.perf_counter()
        lake = cli.build_lake_from(cfg)
        handle = cli.assemble_operator(lake)
        self.lv.elliptic.solve_background(handle, cli.flux_from(cfg, lake))
        return time.perf_counter() - start

    def lu_nnz(self) -> int:
        """nnz(L) + nnz(U) of the workload's operator, outside any timing."""
        cli = self.lv.cli
        handle = cli.assemble_operator(cli.build_lake_from(cli.load_config(self.config)))
        return int(handle.lu.L.nnz + handle.lu.U.nnz)

    def observe(self, code: int, solves: list) -> dict:
        """The command's physics, in the form reference.json records it."""
        seen = {"exit_code": code, "points": [], "checks": {}}
        name = "sweep.csv" if self.command_name == "sweep" else "diag.csv"
        try:
            with open(self.out / name, newline="") as fh:
                next(fh)  # provenance comment: package version and config hash
                points = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
            if self.command_name == "sweep":
                summary = json.loads((self.out / "summary.json").read_text())
                seen["checks"] = {k: v for k, v in summary["checks"].items() if isinstance(v, bool)}
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            seen["error"] = f"outputs unreadable: {exc!r}"
            return seen
        for p, (iterations, converged) in zip(points, solves):
            p["iterations"] = iterations
            p["converged"] = converged
        seen["points"] = points
        return seen

    def check(self, seen: dict) -> None:
        ref_points = self.ref["points"]
        h = self.ref["h"]
        self.attempted += len(ref_points)
        whole = []  # reasons that fail every point of the command
        if "error" in seen:
            whole.append(seen["error"])
        if seen["exit_code"] != 0:
            whole.append(f"exit code {seen['exit_code']}")
        points = seen["points"]
        if len(points) != len(ref_points) or any("converged" not in p for p in points):
            whole.append(f"{len(points)} points written or solved, reference has {len(ref_points)}")
        lost = sorted(k for k, v in self.ref["checks"].items() if v and seen["checks"].get(k) is not True)
        if lost:
            whole.append(f"regime checks turned false: {lost}")
        if whole:
            self.failed += len(ref_points)
            self.problems.extend(whole)
            return
        for p, r in zip(points, ref_points):
            why = point_mismatch(p, r, h)
            if why:
                self.failed += 1
                self.problems.append(f"eps={r['eps']}: " + "; ".join(why))


def point_mismatch(point: dict, ref: dict, h: float) -> list[str]:
    why = []
    if not point["converged"]:
        why.append("not converged")
    for key, rtol in (("mu", MU_RTOL), ("E_total", E_RTOL)):
        if not abs(point[key] - ref[key]) <= rtol * abs(ref[key]):  # NaN fails too
            why.append(f"{key} {point[key]!r} != reference {ref[key]!r}")
    if not abs(point["diam_supp"] - ref["diam_supp"]) <= DIAM_TOL_CELLS * h:
        why.append(f"diam_supp {point['diam_supp']!r} != reference {ref['diam_supp']!r}")
    moved = math.hypot(point["xc"] - ref["xc"], point["yc"] - ref["yc"])
    if not moved <= CENTER_TOL_CELLS * h:
        why.append(f"core moved by {moved:.3g}")
    return why


# ---------------------------------------------------------------------------
# measurement modes


def repeat_for(seconds: float, body) -> None:
    """Call ``body`` once, then again while a call as long as the last one
    would still end within ``seconds`` of the first call's start."""
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            return


def end_to_end(runner: Runner, seconds: float, rng: random.Random):
    probe = Tracer()
    walls, setups, ref_walls, ref_setups, rates, fp_steps = [], [], [], [], [], []

    def timed_command():
        wall, factor = host.timed(lambda: runner.command(probe))
        solve = sum(s.duration - host.spent_in(s.start, s.end) for s in probe.spans
                    if s.run_id == probe.run_id and s.name == "variational.solve_vortex")
        steps = probe.counts[probe.run_id]["fp_steps"]
        walls.append(wall)
        ref_walls.append(wall * factor)
        if solve > 0:
            rates.append(steps / (solve * factor))
        fp_steps.append(steps)

    def timed_setup():
        wall, factor = host.timed(runner.setup)
        setups.append(wall)
        ref_setups.append(wall * factor)

    def command_and_setup():
        phases = [timed_command, timed_setup]
        rng.shuffle(phases)
        for phase in phases:
            phase()

    with instrumented(probe, install_probe, runner.lv):
        cold = runner.command(probe)
        # a process that ran the command once, as a user runs it; taken
        # before the calibration kernel adds its own arrays
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        host = HostSpeed()
        probe.patch_before(runner.lv.variational, "apply_K", host.maybe_sample)
        repeat_for(seconds, command_and_setup)
        while len(setups) < MIN_SETUPS:
            timed_setup()

    metrics = {
        "run_s": (median(ref_walls), "s"),
        "setup_s": (median(ref_setups), "s"),
        "steps_per_s": (median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    kernel = host.kernel_times()
    info = {
        "cold_run_s": cold,
        "samples": {"run_s": len(walls), "setup_s": len(setups), "steps_per_s": len(rates),
                    "peak_rss_mb": 1, "host_speed": len(kernel)},
        "wall_s": {"run_median": median(walls), "run_min": min(walls),
                   "setup_median": median(setups), "setup_min": min(setups)},
        "kernel_s": {"median": median(kernel), "min": min(kernel), "max": max(kernel)},
        "run_s_all": ref_walls,
        "setup_s_all": ref_setups,
        "fp_steps": fp_steps,
    }
    return metrics, info


def traced(runner: Runner, seconds: float, rng: random.Random):
    probe, full = Tracer(), Tracer()
    with instrumented(probe, install_probe, runner.lv):
        cold = runner.command(probe)
    untraced_walls, traced_walls = [], {}

    def untraced_and_traced():
        phases = [(probe, install_probe), (full, install_layers)]
        rng.shuffle(phases)
        for tracer, install in phases:
            with instrumented(tracer, install, runner.lv):
                wall = runner.command(tracer)
            if tracer is full:
                traced_walls[full.run_id] = wall
            else:
                untraced_walls.append(wall)

    repeat_for(seconds, untraced_and_traced)
    spans_file = OUT / f"spans-{runner.out.name}.csv"  # kept by later runs
    full.write_csv(spans_file)
    metrics = layer_metrics(full, traced_walls, untraced_walls)
    metrics["elliptic.lu_nnz"] = (runner.lu_nnz(), "count")

    coverage = self_time_coverage(full, traced_walls)
    bad = {r: c for r, c in coverage.items() if abs(c - 1.0) > SELF_TIME_TOL}
    if bad:
        runner.problems.append(f"traced self times do not add up to the wall time: {bad}")
    info = {
        "cold_run_s": cold,
        "samples": {"traced_runs": len(traced_walls), "untraced_runs": len(untraced_walls),
                    "apply_K_calls": sum(1 for s in full.spans if s.name == "elliptic.apply_K")},
        "self_time_coverage": coverage,
        "missing_targets": sorted(set(full.missing)),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, info, not bad


def self_time_coverage(tracer: Tracer, walls: dict) -> dict:
    """Per traced run: sum of all self times over the wall time outside the root span."""
    total = defaultdict(float)
    for s, own in zip(tracer.spans, tracer.self_times()):
        total[s.run_id] += own
    return {r: total[r] / wall for r, wall in walls.items()}


def layer_metrics(tracer: Tracer, traced_walls: dict, untraced_walls: list) -> dict:
    runs = list(traced_walls)
    per_run = {r: defaultdict(float) for r in runs}   # name -> summed duration
    calls = {r: Counter() for r in runs}
    durations = defaultdict(list)                      # name -> per-call duration
    own = defaultdict(list)                            # name -> per-call self time
    root_self = {}
    for s, self_time in zip(tracer.spans, tracer.self_times()):
        per_run[s.run_id][s.name] += s.duration
        calls[s.run_id][s.name] += 1
        durations[s.name].append(s.duration)
        own[s.name].append(self_time)
        if s.parent_id < 0:
            root_self[s.run_id] = self_time

    def per_rep(fn):
        return median(fn(r) for r in runs)

    counts = tracer.counts
    steps = {r: max(counts[r]["fp_steps"], 1.0) for r in runs}
    return {
        "geometry.build_lake_s": (per_rep(lambda r: per_run[r]["geometry.build_lake"]), "s"),
        "elliptic.assemble_s": (per_rep(lambda r: per_run[r]["elliptic.assemble_operator"]), "s"),
        "elliptic.lu_factor_s": (per_rep(lambda r: per_run[r]["elliptic.lu_factor"]), "s"),
        "elliptic.background_s": (per_rep(lambda r: per_run[r]["elliptic.solve_background"]), "s"),
        "elliptic.apply_K_ms": (1e3 * median(durations["elliptic.apply_K"]), "ms"),
        "elliptic.apply_K_calls": (per_rep(lambda r: calls[r]["elliptic.apply_K"]), "count"),
        "nonlinearity.f_calls_per_step": (
            per_rep(lambda r: counts[r]["nonlinearity.f.calls"] / steps[r]), "calls/step"),
        "nonlinearity.f_cells_per_step": (
            per_rep(lambda r: counts[r]["nonlinearity.f.cells"] / steps[r]), "cells/step"),
        "variational.bathtub_ms": (1e3 * median(own["variational.iterate_step"]), "ms"),
        "variational.energy_ms": (1e3 * median(durations["variational.energy"]), "ms"),
        "variational.fp_steps": (per_rep(lambda r: counts[r]["fp_steps"]), "count"),
        "variational.initial_patch_ms": (1e3 * median(durations["variational.initial_patch"]), "ms"),
        # time in the command outside every wrapped layer, per point: config
        # loading, per-point diagnostics and the regime checks
        "asymptotics.diagnostics_ms": (
            per_rep(lambda r: 1e3 * root_self[r] / max(counts[r]["points"], 1.0)), "ms"),
        "cli.write_s": (per_rep(lambda r: per_run[r]["cli.write"]), "s"),
        "trace_overhead_frac": (median(traced_walls.values()) / median(untraced_walls) - 1.0, "ratio"),
    }


# ---------------------------------------------------------------------------
# entry point


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def load_package():
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "lakevortex" / "cli.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("cli", "elliptic", "variational", "asymptotics", "nonlinearity")
    lv = SimpleNamespace(**{n: importlib.import_module(f"lakevortex.{n}") for n in names})
    if not Path(lv.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported {lv.cli.__file__}, not the checkout's source")
    return lv


def write_reference(lv) -> None:
    ref = {"tolerance": {"mu_rtol": MU_RTOL, "E_rtol": E_RTOL, "diam_cells": DIAM_TOL_CELLS,
                         "center_cells": CENTER_TOL_CELLS},
           "workloads": {}}
    for name in WORKLOADS:
        runner = Runner(lv, name, reference=None)
        probe = Tracer()
        with instrumented(probe, install_probe, lv):
            runner.command(probe)
        seen = runner.observed
        if "error" in seen or seen["exit_code"] != 0:
            raise SystemExit(f"error: {name} did not run cleanly: {seen}")
        cfg = lv.cli.load_config(runner.config)
        ref["workloads"][name] = {
            "h": 2.0 / cfg["lake"]["resolution"],  # every lake preset spans [-1, 1]^2
            "points": seen["points"],
            "checks": seen["checks"],
        }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")  # before numpy is imported
    lv = load_package()
    if args.write_reference:
        write_reference(lv)
        return 0
    if not REFERENCE.is_file():
        raise SystemExit(f"error: {REFERENCE} is missing")
    reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]

    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(lv, args.workload, reference)
    rng = random.Random(args.seed)
    if args.trace:
        metrics, info, trace_ok = traced(runner, args.seconds, rng)
    else:
        metrics, info = end_to_end(runner, args.seconds, rng)
        trace_ok = True

    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                machine=machine_facts(), fail_frac=runner.failed / runner.attempted,
                problems=runner.problems[:20])
    print(json.dumps(info, default=str), file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0 and trace_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
