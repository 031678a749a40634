"""Command-line interface: configuration, orchestration, persistence.

Subcommands: solve, sweep, oracle-test, check-hypotheses, kernel-test.
All runs are driven by a JSON config; outputs embed the config hash and the
package version, and reruns of the same config are byte-identical (the only
randomness is the seeded sampling in kernel-test).

Exit codes: 0 success, 1 numerical failure, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, elliptic
from .asymptotics import DIAG_COLUMNS, diagnose, run_sweep, sweep_params
from .elliptic import (
    CompatibilityError,
    SolverError,
    assemble_operator,
    flux_preset,
    kernel_representation_residual,
)
from .geometry import (
    GeometryError,
    build_lake,
    disk_indicator_averaged,
    green_disk,
    h_kernel,
    h_kernel_bounds,
    rect_lake,
)
from .nonlinearity import VorticityFunction, verify_hypotheses
from .variational import (
    AdmissibilityError,
    AdmissibleParams,
    brute_force_oracle,
    solve_vortex,
)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid or missing configuration."""


# Sample budget, measured on x86-64 with numpy 2: 10^6 hypothesis samples
# peak at about 125 MB RSS.
MAX_HYPOTHESIS_SAMPLES = 10**6

# every key some command reads (see COMMANDS): each section's fields, with
# their kind (see _field) and default (None: required), and the seed point
CONFIG_KEYS = {
    "lake": {"preset": ("name", None), "resolution": ("integer", None)},
    "flux": {"preset": ("name", None), "amplitude": ("finite", 1.0), "points": ("pairs", ())},
    "nonlinearity": {"preset": ("name", None), "p": ("number", 2.0), "c": ("number", 0.0),
                     "points": ("pairs", ())},
    "params": dict.fromkeys(("eps", "delta", "kappa0", "lam"), ("positive", None)),
    "sweep": {"schedule": ("name", None), "eps_list": ("positives", None),
              "kappa0": ("positive", 1.0), "lam": ("positive", 50.0)},
    "hypotheses": {"s_max": ("positive", 10.0), "n": ("integer", 2000)},
    "seed": None,
}


# ---------------------------------------------------------------------------
# config handling


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path: str | Path, command: str | None = None) -> dict:
    """The JSON config at path, as written, with its keys checked: each
    top-level key must be one that command reads (one that some command reads
    when command is None), and each section must parse (see section)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    allowed = CONFIG_KEYS if command is None else COMMANDS[command][1]
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}: " + (
                "no command reads it" if command is None
                else f"{command} reads {', '.join(allowed) or 'no key'}"))
        if CONFIG_KEYS[key] is not None:
            section(cfg, key)
    return cfg


def section(cfg: dict, key: str, absent: dict | None = None) -> dict:
    """Section key of cfg (absent when cfg has none; None: required) with each
    field parsed by its kind, and each field it omits at its default."""
    if key not in cfg and absent is None:
        raise ConfigError(f"config: missing required key {key!r}")
    value = cfg.get(key, absent)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    fields = CONFIG_KEYS[key]
    unknown = sorted(set(value) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key '{key}.{unknown[0]}': {key} holds "
                          f"{', '.join(sorted(fields))}")
    parsed = {}
    for name, (kind, default) in fields.items():
        if name in value:
            parsed[name] = _field(kind, value[name], f"{key}.{name}")
        elif default is None:
            raise ConfigError(f"{key}: missing required key {name!r}")
        else:
            parsed[name] = default
    return parsed


def _number(value, name: str) -> float:
    """A JSON number (not a string or a boolean) as a float."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an integer beyond float range
        pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _field(kind: str, value, name: str):
    """value as a field of its kind: a name (a JSON string), a number, a finite
    number, a positive (finite) number, an integer (an integral number), pairs
    (a list of [x, y] numbers) or positives (a non-empty list of them)."""
    if kind == "name":
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if kind == "pairs":
        if not isinstance(value, list) or not all(isinstance(p, list) and len(p) == 2 for p in value):
            raise ConfigError(f"{name} must be a list of [x, y] pairs, got {value!r}")
        return tuple((_number(x, name), _number(y, name)) for x, y in value)
    if kind == "positives":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
        return [_field("positive", v, f"{name} entry") for v in value]
    if kind not in ("number", "finite", "positive", "integer"):  # a kind without a rule
        raise TypeError(f"{name}: unknown kind {kind!r}")
    v = _number(value, name)
    if kind == "finite" and not math.isfinite(v):
        raise ConfigError(f"{name} must be finite, got {v}")
    if kind == "positive" and not 0.0 < v < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {v}")
    if kind == "integer":
        if not v.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(v)
    return v


def build_lake_from(cfg: dict):
    lcfg = section(cfg, "lake")
    try:
        return build_lake(lcfg["preset"], lcfg["resolution"])
    except GeometryError as exc:
        raise ConfigError(f"lake: {exc}") from exc


def seed_from(cfg: dict):
    """The optional seed point as two finite floats, or None."""
    seed = cfg.get("seed")
    if seed is None:
        return None
    point = tuple(_number(v, "seed") for v in seed) if isinstance(seed, list) else ()
    if len(point) != 2 or not all(map(math.isfinite, point)):
        raise ConfigError(f"seed must be two finite numbers, got {seed!r}")
    return point


def flux_from(cfg: dict, lake) -> np.ndarray:
    fcfg = section(cfg, "flux", {"preset": "zero"})
    try:
        return flux_preset(lake, fcfg["preset"], fcfg["amplitude"], fcfg["points"])
    except ValueError as exc:
        raise ConfigError(f"flux: {exc}") from exc


def vf_from(cfg: dict) -> VorticityFunction:
    fields = section(cfg, "nonlinearity")
    try:
        return VorticityFunction(**fields)
    except ValueError as exc:
        raise ConfigError(f"nonlinearity: {exc}") from exc


def solver_vf_from(cfg: dict) -> VorticityFunction:
    """vf_from for the commands that solve: they need f strictly increasing on
    [0, inf), which check-hypotheses only reports on."""
    vf = vf_from(cfg)
    if not vf.strictly_increasing:
        raise ConfigError("nonlinearity: table f-values must strictly increase from f(0+) >= 0")
    return vf


# ---------------------------------------------------------------------------
# output helpers


def write_csv(path: Path, rows: list, cfg_hash: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# lakevortex {__version__} config_sha256={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(DIAG_COLUMNS)
        for r in rows:
            # every cell is a float: shortest round-trip, whatever numpy's scalar repr
            writer.writerow([repr(float(v)) for v in r.row()])


# a float array's marker string as json writes it, with its line's indent
# and whatever precedes it on that line (the key)
_ARRAY_MARKER = re.compile(r'^( *)(.*)"\\u0000(\d+)"', re.MULTILINE)


def write_json(path: Path, payload: dict, cfg_hash: str) -> None:
    """Sorted keys, indent 2, NaN and +-inf as null.  json's indented encoder
    is pure Python, so each finite 1-d float array goes in as a marker string
    and is joined in afterwards at its line's depth, in the encoder's own layout."""
    payload = dict(payload)
    payload["version"] = __version__
    payload["config_sha256"] = cfg_hash
    arrays: list = []
    text = json.dumps(_jsonable(payload, arrays), sort_keys=True, indent=2)

    def expand(m: re.Match) -> str:
        values = arrays[int(m.group(3))]
        if not len(values):
            return f"{m.group(1)}{m.group(2)}[]"
        inner = m.group(1) + "  "
        sep = ",\n" + inner
        # most of a full-grid field is 0.0: each run of them is one repeated
        # string and repr writes the rest, -0.0 too, in one join
        keep = (values != 0.0) | np.signbit(values)
        keep[-1] = True  # repr(0.0) is "0.0": the pieces end with the last item
        pieces, zero, last = [f"{m.group(1)}{m.group(2)}[\n{inner}"], "0.0" + sep, -1
        for j, v in zip(np.flatnonzero(keep).tolist(), values[keep].tolist()):
            pieces += (zero * (j - last - 1), repr(v), sep)
            last = j
        pieces[-1] = f"\n{m.group(1)}]"  # in place of the last item's separator
        return "".join(pieces)

    path.write_text(_ARRAY_MARKER.sub(expand, text) + "\n")


def _jsonable(obj, arrays: list):
    if isinstance(obj, dict):
        return {k: _jsonable(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, arrays) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim == 1 and np.isfinite(obj).all():
            arrays.append(obj)  # finite floats: repr is json's form
            return f"\0{len(arrays) - 1}"
        return [_jsonable(v, arrays) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()  # then a NaN or inf is caught as a Python float
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def state_to_dict(state) -> dict:
    """Serializable solve state: full-grid row-major vorticity on its
    operator's lake, multiplier, energies, solver counters and parameters."""
    lake = state.ctx.handle.lake
    grid = lake.field_to_grid(state.zeta)
    return {
        "zeta_row_major": grid.ravel(),
        "grid": {
            "nx": int(lake.mask.shape[1]),
            "ny": int(lake.mask.shape[0]),
            "h": lake.h,
            "x0": float(lake.xs[0]),
            "y0": float(lake.ys[0]),
            "preset": lake.preset_id,
        },
        "mu": state.mu,
        "energy": {"E_q": state.energy.e_q, "F_eps": state.energy.f_eps,
                   "E_total": state.energy.total},
        "energy_trace": state.energy_trace,
        "iterations": state.iterations,
        "converged": state.converged,
        "fp_residual": state.fp_residual,
        "params": dataclasses.asdict(state.ctx.params),
    }


# ---------------------------------------------------------------------------
# subcommands


def _set_up(cfg: dict, points: list):
    """Seed, f, flux and operator for points, a solving command's params (a
    sweep's in eps order), checked in order: seed, f, lake, seed in the lake,
    each point's class, and the flux; the background solve and the bathtub
    find a flux too large for float range or for the mass tolerance."""
    seed = seed_from(cfg)
    vf = solver_vf_from(cfg)
    lake = build_lake_from(cfg)
    if seed is not None and not lake.domain.contains(seed):
        raise ConfigError(f"seed {list(seed)} lies outside the {lake.preset_id} lake")
    for params in points:
        params.check_nonempty(lake, vf)
    return seed, vf, flux_from(cfg, lake), assemble_operator(lake)


def cmd_solve(cfg: dict, out: Path) -> int:
    params = AdmissibleParams(**section(cfg, "params"))
    seed, vf, nu, handle = _set_up(cfg, [params])
    # looked up in elliptic at call time, where instrumentation can wrap it
    q = elliptic.solve_background(handle, nu)
    state = solve_vortex(handle, q, params, vf, init=seed)
    chash = config_hash(cfg)
    diag = diagnose(state, seed)
    write_json(out / "state.json", state_to_dict(state), chash)
    write_csv(out / "diag.csv", [diag], chash)
    print(f"solve: converged={state.converged} iterations={state.iterations} "
          f"mu={state.mu:.6g} E={state.energy.total:.8g}")
    return 0 if state.converged else 1


def cmd_sweep(cfg: dict, out: Path) -> int:
    scfg = section(cfg, "sweep")
    schedule = scfg["schedule"], scfg["kappa0"], scfg["lam"], scfg["eps_list"]
    seed, vf, nu, handle = _set_up(cfg, sweep_params(*schedule))
    report = run_sweep(handle, nu, *schedule, vf, seed=seed)
    chash = config_hash(cfg)
    write_csv(out / "sweep.csv", report.rows, chash)
    slope = report.checks["diam_slope"]
    summary = {
        "regime": scfg["schedule"],
        "target": report.target,
        "diam_slope": slope,
        "checks": report.checks,
    }
    write_json(out / "summary.json", summary, chash)
    failed = [r for r in report.rows if not r.converged]
    print(f"sweep: {len(report.rows)} points, {len(failed)} failed, diam_slope={slope}")
    return 0 if not failed else 1


def tiny_oracle_fixtures():
    """The bundled tiny-lake fixtures (name, lake, q, params, m), q = slope * x."""
    params = AdmissibleParams(eps=0.5, delta=0.5, kappa0=1.0, lam=8.0)
    out = []
    for name, nx, ny, slope in (("tiny1", 1, 1, 0.0), ("tiny2", 2, 1, 0.0), ("tiny4", 2, 2, 0.1)):
        lake = rect_lake(nx, ny, 0.5, preset_id=name)
        out.append((name, lake, slope * lake.centers[:, 0], params, 8))
    return out


def cmd_oracle_test(cfg: dict, out: Path) -> int:
    vf = solver_vf_from(cfg)
    results = []
    ok = True
    for name, lake, q, params, m in tiny_oracle_fixtures():
        handle = assemble_operator(lake)
        _, e_star, gap = brute_force_oracle(handle, q, params, vf, m)
        state = solve_vortex(handle, q, params, vf, init=lake.centers[0])
        passed = state.energy.total >= e_star - gap
        ok = ok and passed and state.converged
        results.append({
            "fixture": name,
            "cells": lake.n_cells,
            "oracle_energy": e_star,
            "solver_energy": state.energy.total,
            "gap_bound": gap,
            "converged": state.converged,
            "passed": bool(passed),
        })
        print(f"oracle {name}: solver={state.energy.total:.8g} "
              f"oracle={e_star:.8g} gap={gap:.3g} passed={passed}")
    write_json(out / "oracle_report.json", {"fixtures": results, "all_passed": ok},
               config_hash(cfg))
    return 0 if ok else 1


def cmd_check_hypotheses(cfg: dict, out: Path) -> int:
    vf = vf_from(cfg)
    hcfg = section(cfg, "hypotheses", {})
    if hcfg["n"] > MAX_HYPOTHESIS_SAMPLES:
        raise ConfigError(f"hypotheses.n must be <= {MAX_HYPOTHESIS_SAMPLES}, got {hcfg['n']}")
    try:
        report = verify_hypotheses(vf, hcfg["s_max"], hcfg["n"])
    except ValueError as exc:  # the sampled range is out of float range for this f
        raise ConfigError(f"hypotheses: {exc}") from exc
    payload = dataclasses.asdict(report)
    payload["preset"] = vf.preset
    write_json(out / "hypotheses.json", payload, config_hash(cfg))
    print(f"hypotheses: theta0={report.theta0_estimate:.6g} "
          f"theta1={report.theta1_estimate:.6g} "
          f"theta1_jump_adjusted={report.theta1_jump_adjusted:.6g} "
          f"monotone={report.h1_monotone}")
    if not report.h1_monotone:
        return 1
    return 0


def cmd_kernel_test(cfg: dict, out: Path) -> int:
    n_pairs = 1000
    rng = np.random.default_rng(20240801)
    lake = build_lake("disk_constant_b", 128)

    # sample interior pairs; the seeded draw has 3,146 points inside, and its
    # pairs lie at least 0.02 apart
    pts = rng.uniform(-1, 1, size=(4 * n_pairs, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 0.999]
    xs, ys = pts[:n_pairs], pts[n_pairs:2 * n_pairs]

    min_upper_slack = float("inf")
    min_lower_slack = float("inf")
    max_sym = 0.0
    for a, b in zip(xs, ys):
        hval = h_kernel(lake, a, b)
        upper, lower = h_kernel_bounds(lake, a, b)
        min_upper_slack = min(min_upper_slack, upper - hval)
        min_lower_slack = min(min_lower_slack, hval - lower)
        max_sym = max(max_sym, abs(green_disk(a, b) - green_disk(b, a)))
    upper_ok = min_upper_slack >= -1e-12
    sym_ok = max_sym <= 1e-12

    # representation residual for the constant-depth disk (unit weighted mass)
    handle = assemble_operator(lake)
    zeta = disk_indicator_averaged(lake, (0.2, 0.1), 0.3)
    zeta = zeta / float(np.dot(zeta, lake.nu_weights))
    sample = np.linspace(0, lake.n_cells - 1, 200).astype(int)
    residual = float(np.abs(kernel_representation_residual(handle, zeta, sample)).max())
    repr_ok = residual <= 5.0 * lake.h

    payload = {
        "pairs": n_pairs,
        "upper_bound_min_slack": min_upper_slack,
        "upper_bound_ok": upper_ok,
        "lower_bound_min_slack_logged": min_lower_slack,  # recorded, not asserted
        "green_symmetry_max": max_sym,
        "green_symmetry_ok": sym_ok,
        "representation_residual": residual,
        "representation_tol": 5.0 * lake.h,
        "representation_ok": repr_ok,
    }
    write_json(out / "kernel_report.json", payload, config_hash(cfg))
    print(f"kernel: upper_ok={upper_ok} (slack {min_upper_slack:.3e}) "
          f"sym_ok={sym_ok} repr={residual:.3e} (tol {5 * lake.h:.3e}) "
          f"lower_slack_logged={min_lower_slack:.3e}")
    return 0 if (upper_ok and sym_ok and repr_ok) else 1


# each command with the top-level config keys it reads
COMMANDS = {
    "solve": (cmd_solve, ("lake", "flux", "nonlinearity", "params", "seed")),
    "sweep": (cmd_sweep, ("lake", "flux", "nonlinearity", "sweep", "seed")),
    "oracle-test": (cmd_oracle_test, ("nonlinearity",)),
    "check-hypotheses": (cmd_check_hypotheses, ("nonlinearity", "hypotheses")),
    "kernel-test": (cmd_kernel_test, ()),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lakevortex",
        description="Steady lake-vortex laboratory: solves, sweeps, validation",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, args.command)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way: a usage error, found before any set-up
            print(f"usage error: --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
        return COMMANDS[args.command][0](cfg, out)
    except (ConfigError, AdmissibilityError, CompatibilityError) as exc:  # the input's fault
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:  # the numerics' fault, inside an admissible problem
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
