from __future__ import annotations

import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lakevortex
from lakevortex import __version__
from lakevortex.cli import (
    _ARRAY_MARKER,
    COMMANDS,
    CONFIG_KEYS,
    _jsonable,
    config_hash,
    load_config,
    main,
    state_to_dict,
    write_json,
)
from lakevortex.variational import MASS_TOL_REL

CONFIG_DIR = Path(lakevortex.__file__).parent / "configs"
TOOLS = Path(__file__).resolve().parents[1] / "tools"

SMALL_SOLVE = {
    "lake": {"preset": "disk_interior_max_b", "resolution": 64},
    "flux": {"preset": "cosine", "amplitude": 0.02},
    "nonlinearity": {"preset": "jump_linear", "c": 0.5},
    "params": {"eps": 0.15, "delta": 0.5, "kappa0": 1.0, "lam": 50.0},
    "seed": [0.0, 0.0],
}

SMALL_SWEEP = {
    "lake": {"preset": "disk_interior_max_b", "resolution": 64},
    "flux": {"preset": "cosine", "amplitude": 0.02},
    "nonlinearity": {"preset": "jump_linear", "c": 0.5},
    "sweep": {"schedule": "critical", "eps_list": [0.2, 0.14], "kappa0": 1.0,
              "lam": 50.0},
}

# the base config of each command holds only the keys that command reads
BASES = {
    "solve": SMALL_SOLVE,
    "sweep": SMALL_SWEEP,
    "oracle-test": {"nonlinearity": {"preset": "jump_linear", "c": 0.5}},
    "check-hypotheses": {"nonlinearity": {"preset": "power", "p": 2.0},
                         "hypotheses": {"s_max": 10.0, "n": 400}},
    "kernel-test": {},
}


def _write(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_solve_writes_state_and_diagnostics(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVE)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    state = json.loads((tmp_path / "out" / "state.json").read_text())
    assert state["converged"] is True
    assert state["version"] == __version__
    assert state["config_sha256"] == config_hash(SMALL_SOLVE)
    assert len(state["zeta_row_major"]) == state["grid"]["nx"] * state["grid"]["ny"]
    csv_text = (tmp_path / "out" / "diag.csv").read_text().splitlines()
    assert csv_text[0].startswith(f"# lakevortex {__version__} config_sha256=")
    assert csv_text[1].split(",")[0] == "eps"
    assert len(csv_text) == 3


def test_sweep_writes_csv_and_summary(tmp_path):
    cfg = _write(tmp_path, SMALL_SWEEP)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2 + len(SMALL_SWEEP["sweep"]["eps_list"])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary) == {"regime", "target", "diam_slope", "checks", "version",
                            "config_sha256"}
    assert summary["regime"] == "critical"


def test_sweep_csv_cells_are_plain_floats(tmp_path):
    import csv

    cfg = _write(tmp_path, SMALL_SWEEP)
    main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    with open(tmp_path / "out" / "sweep.csv") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    for row in rows[1:]:
        for cell in row:
            float(cell)  # every cell round-trips as a plain float literal


def test_sweep_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, SMALL_SWEEP)
    main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
        (tmp_path / "b" / "sweep.csv").read_bytes()
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()


def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The bundled critical sweep at 129^2 writes the same sweep.csv and
    summary.json bytes with BLAS on one thread and on two.  A BLAS dot over
    more than about 1e4 cells splits across threads, so the vorticity center
    and the step residual sum with numpy's own reduction; with dots, the
    center's last digits differed here between the two counts."""
    cfg = json.loads((CONFIG_DIR / "sweep_critical.json").read_text())
    cfg["lake"]["resolution"] = 129
    path = _write(tmp_path, cfg)
    src = str(Path(lakevortex.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "lakevortex.cli", "sweep", "--config",
                               str(path), "--out", str(out)], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append({name: (out / name).read_bytes() for name in ("sweep.csv", "summary.json")})
    assert outputs[0] == outputs[1]


def test_increasing_eps_list_is_config_error(tmp_path):
    bad = json.loads(json.dumps(SMALL_SWEEP))
    bad["sweep"]["eps_list"] = [0.1, 0.2]
    cfg = _write(tmp_path, bad)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_unknown_preset_is_config_error(tmp_path):
    bad = json.loads(json.dumps(SMALL_SOLVE))
    bad["lake"]["preset"] = "pacific"
    cfg = _write(tmp_path, bad)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("solver", [{"max_iters": 0}, {"fp_tol_rel": -1e-8},
                                    {"fp_tol_rel": float("nan")},
                                    {"fp_tol_rel": 1e-8, "max_iters": 500},
                                    {"max_iters": 1, "fp_tol_rel": "junk"}, {}])
def test_bad_solver_settings_are_config_errors(tmp_path, capsys, solver):
    # the stopping rule is fixed: any solver section, the former defaults too
    for command, base in (("solve", SMALL_SOLVE), ("sweep", SMALL_SWEEP)):
        cfg = _write(tmp_path, dict(base, solver=solver))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'solver'" in capsys.readouterr().err


def test_unconverged_runs_exit_1(tmp_path, monkeypatch, caplog):
    from lakevortex import variational

    monkeypatch.setattr(variational, "MAX_ITERS", 2)  # read at call time
    cfg = _write(tmp_path, SMALL_SOLVE)
    with caplog.at_level(logging.WARNING, logger="lakevortex.variational"):
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 1
    state = json.loads((tmp_path / "solve" / "state.json").read_text())
    assert state["converged"] is False and state["iterations"] == 2
    assert "fixed point not reached in 2 iterations" in caplog.text
    cfg = _write(tmp_path, SMALL_SWEEP)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 1
    summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
    assert summary["checks"]["all_converged"] is False


# b0, the least depth within eps sqrt(kappa0/pi) = 0.93 of the seed, is 0.57: the
# whole lake at the uniform value delta b0/(eps^2 b) carries 10.0, under the
# target mass kappa0 delta = 15, while the cap carries cap |D|_nu = 656
LARGE_CIRCULATION = {"eps": 0.3, "delta": 0.5, "kappa0": 30.0, "lam": 50.0}


def test_circulation_beyond_the_uniform_patch_is_solved(tmp_path, capsys):
    """A non-empty class whose mass the uniform seed patch cannot carry is
    seeded at the cap instead, and the solve converges."""
    cfg = _write(tmp_path, dict(SMALL_SOLVE, params=LARGE_CIRCULATION))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "converged=True" in capsys.readouterr().out


def test_sweep_keeps_a_point_beyond_the_uniform_patch(tmp_path):
    """The critical 64^2 sweep at kappa0 = 30 solves its eps = 0.3 point."""
    sweep = dict(SMALL_SWEEP["sweep"], eps_list=[0.3, 0.2], kappa0=30.0)
    cfg = _write(tmp_path, dict(SMALL_SWEEP, sweep=sweep))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["checks"]["all_converged"] is True


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_numerical_failure_exits_1_with_one_line(tmp_path, monkeypatch, capsys, command):
    import lakevortex.cli as cli
    from lakevortex.elliptic import SolverError

    def failing(lake):
        raise SolverError("operator factorization failed: singular")

    monkeypatch.setattr(cli, "assemble_operator", failing)
    cfg = _write(tmp_path, BASES[command])
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: operator factorization failed: singular"]


class _Checked(Exception):
    """Raised by the first set-up step: every config check before it passed."""


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_configs_pass_config_checks(tmp_path, monkeypatch, path):
    import lakevortex.cli as cli

    def set_up(*args, **kwargs):
        raise _Checked

    for first_step in ("build_lake", "rect_lake", "verify_hypotheses"):
        monkeypatch.setattr(cli, first_step, set_up)
    # the command comes from the one config-name table, which CI reads too
    monkeypatch.syspath_prepend(str(TOOLS))
    import compare_outputs

    command = compare_outputs.COMMANDS[path.stem.split("_")[0]]
    with pytest.raises(_Checked):
        main([command, "--config", str(path), "--out", str(tmp_path)])


def test_nan_flux_amplitude_is_config_error(tmp_path, capsys):
    bad = dict(SMALL_SOLVE, flux={"preset": "cosine", "amplitude": float("nan")})
    cfg = _write(tmp_path, bad)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "amplitude must be finite" in capsys.readouterr().err


NAN = float("nan")
# f rises by 0.01 over its first unit of s: 100 times less than s itself
SHALLOW_TABLE = {"preset": "table", "points": [[0, 0.5], [1, 0.51], [2, 3]]}
OVERFLOWING_FLUX = {"preset": "custom", "points": [[0, 1e300], [3, -1e300]], "amplitude": 1e10}
# a table whose last slope, or whose knot f-value difference, overflows
STEEP_SLOPE_TABLE = {"preset": "table", "points": [[0, 0], [1e-320, 1]]}
WIDE_STEP_TABLE = {"preset": "table", "points": [[0, -1e308], [1, 1e308]]}


@pytest.mark.parametrize("command, changes", [
    ("solve", {"lake": {"preset": "disk_interior_max_b", "resolution": "abc"}}),
    ("solve", {"nonlinearity": {"preset": "power", "p": NAN}}),
    ("solve", {"seed": [0.0]}),
    ("solve", {"flux": {"preset": "custom", "points": [1.0, 2.0]}}),
    ("solve", {"flux": {"preset": "custom", "points": [[-1.0, 1.0], [5.283185307179586, 0.0]]}}),
    ("sweep", {"seed": [0.0]}),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], eps_list=["x"])}),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], eps_list=[0.2, NAN])}),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], eps_list=[0.4, 0.2])}),  # 0.4 >= 1/e
    # an empty admissible class: lam <= f(0+) + 1 = 1.5, or cap |D|_nu below the mass
    ("solve", {"params": dict(SMALL_SOLVE["params"], lam=1.0)}),
    ("solve", {"params": dict(SMALL_SOLVE["params"], kappa0=1e4)}),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], lam=1.0)}),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], kappa0=1e4)}),
    ("oracle-test", {"nonlinearity": {"preset": "jump_linear", "c": 10.0}}),  # lam 8 <= 11
    # finite points and amplitude whose flux overflows
    ("solve", {"flux": OVERFLOWING_FLUX}),
    ("sweep", {"flux": OVERFLOWING_FLUX}),
    # a finite flux whose circulation potential Q overflows (nu_i + nu_i+1)
    ("solve", {"flux": {"preset": "custom", "points": [[0, 1.05e308], [0.7, 0], [5.58, 0]]}}),
    ("check-hypotheses", {"hypotheses": {"n": "many"}}),
    ("check-hypotheses", {"nonlinearity": {"preset": "power", "p": 2.0},
                          "hypotheses": {"s_max": 1e300, "n": 100}}),
    ("check-hypotheses", {"nonlinearity": {"preset": "power", "p": 2.0},
                          "hypotheses": {"s_max": 1e-300, "n": 100}}),
    ("check-hypotheses", {"nonlinearity": {"preset": "jump_linear", "c": 0.5},
                          "hypotheses": {"s_max": 1e-9, "n": 100}}),
    ("check-hypotheses", {"nonlinearity": SHALLOW_TABLE, "hypotheses": {"s_max": 1e-6, "n": 100}}),
    ("solve", {"nonlinearity": STEEP_SLOPE_TABLE}),
    ("check-hypotheses", {"nonlinearity": STEEP_SLOPE_TABLE}),
    ("check-hypotheses", {"nonlinearity": WIDE_STEP_TABLE}),
    # a JSON string or boolean is not a number, and a fraction is not an integer
    ("solve", {"lake": {"preset": "disk_interior_max_b", "resolution": 64.7}}),
    ("solve", {"lake": {"preset": "disk_interior_max_b", "resolution": "64"}}),
    ("solve", {"flux": {"preset": "cosine", "amplitude": "0.02"}}),
    ("solve", {"seed": [True, False]}),
    # every field present is parsed, also one the preset does not read
    ("solve", {"nonlinearity": {"preset": "jump_linear", "c": 0.5, "p": "junk"}}),
    ("solve", {"nonlinearity": {"preset": "jump_linear", "c": 0.5, "points": 5}}),
    ("solve", {"nonlinearity": {"preset": "power", "p": 2.0, "c": [1]}}),
    # a JSON integer beyond float range
    ("solve", {"lake": {"preset": "disk_interior_max_b", "resolution": 10**400}}),
    # a cap lam delta/eps^2 beyond float range: eps^2 underflows to 0, overflows,
    # or is subnormal; at a sweep's second point; lam overflows it
    ("solve", {"params": dict(SMALL_SOLVE["params"], eps=1e-200)}),
    ("solve", {"params": dict(SMALL_SOLVE["params"], eps=1e200)}),
    ("solve", {"params": dict(SMALL_SOLVE["params"], eps=1e-160)}),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], eps_list=[0.2, 1e-200])}),
    ("solve", {"params": dict(SMALL_SOLVE["params"], lam=1e308)}),
    # a target mass whose fields' squared norm sum((b zeta)^2) overflows: in a
    # solve, at every sweep point, and at a sweep's second point only
    ("solve", {"params": dict(SMALL_SOLVE["params"], kappa0=1e300, lam=1e305)}),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], kappa0=1e300, lam=1e305)}),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], eps_list=[0.2, 1e-3], kappa0=5e152,
                             lam=1e151)}),
], ids=["lake-resolution", "power-p-nan", "solve-seed-1d", "flux-points-1d",
        "flux-points-one-direction",
        "sweep-seed-1d", "eps-string", "eps-nan", "eps-above-1/e",
        "solve-lam-below-jump", "solve-empty-class", "sweep-lam-below-jump", "sweep-empty-class",
        "oracle-lam-below-jump", "solve-flux-overflow", "sweep-flux-overflow", "solve-Q-overflow",
        "hypotheses-n", "hypotheses-s_max-overflow", "hypotheses-s_max-underflow",
        "hypotheses-s_max-below-jump-resolution", "hypotheses-shallow-table-below-resolution",
        "solve-table-slope-overflow", "hypotheses-table-slope-overflow",
        "hypotheses-table-difference-overflow",
        "lake-resolution-fraction", "lake-resolution-string", "flux-amplitude-string",
        "seed-booleans", "jump-unread-p", "jump-unread-points", "power-unread-c",
        "lake-resolution-beyond-float", "solve-eps-1e-200", "solve-eps-1e200",
        "solve-eps-1e-160", "sweep-eps-1e-200", "solve-lam-1e308", "solve-mass-1e300",
        "sweep-mass-1e300", "sweep-second-point-mass"])
def test_bad_numeric_inputs_are_config_errors(tmp_path, capsys, command, changes):
    cfg = _write(tmp_path, dict(BASES[command], **changes))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:")


FALLING_TABLE = {"preset": "table", "points": [[0, 1], [1, 0.5], [2, 0.2]]}
NEGATIVE_JUMP_TABLE = {"preset": "table", "points": [[0, -1], [1, 0.5], [2, 2]]}


@pytest.mark.parametrize("command, changes", [
    ("solve", {"lake": 5}),
    ("solve", {"flux": 5}),
    ("solve", {"nonlinearity": 5}),
    ("solve", {"params": 5}),
    ("solve", {"solver": [1]}),
    ("sweep", {"sweep": 5}),
    ("check-hypotheses", {"hypotheses": 5}),
    ("solve", {"flux": {"preset": "custom", "points": 5}}),
    ("solve", {"flux": {"preset": "cosine", "amplitude": [1]}}),
    ("solve", {"nonlinearity": {"preset": "table", "points": 5}}),
    ("solve", {"nonlinearity": {"preset": "power", "p": [2]}}),
    ("solve", {"nonlinearity": FALLING_TABLE}),
    ("solve", {"nonlinearity": NEGATIVE_JUMP_TABLE}),
    ("sweep", {"nonlinearity": FALLING_TABLE}),
    ("sweep", {"nonlinearity": NEGATIVE_JUMP_TABLE}),
    ("oracle-test", {"nonlinearity": FALLING_TABLE}),
    ("solve", {"lake": {"preset": ["disk_interior_max_b"], "resolution": 64}}),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], schedule=5)}),
    ("solve", {"flux": {"preset": "source"}}),
    ("sweep", {"flux": {"preset": "source"}}),
], ids=["lake-int", "flux-int", "nonlinearity-int", "params-int", "solver-list", "sweep-int",
        "hypotheses-int", "flux-points-int", "flux-amplitude-list", "table-points-int",
        "power-p-list", "solve-falling-table", "solve-negative-jump-table",
        "sweep-falling-table", "sweep-negative-jump-table", "oracle-falling-table",
        "lake-preset-list", "sweep-schedule-int", "solve-unknown-flux", "sweep-unknown-flux"])
def test_malformed_configs_are_config_errors(tmp_path, capsys, command, changes):
    cfg = _write(tmp_path, dict(BASES[command], **changes))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def _run_in_a_child(tmp_path, capfd, cfg: dict, command: str = "solve"):
    """The exit code and stderr of command on cfg, run in a child process with
    numpy's RuntimeWarning an error, so that a warning reaches the captured
    stderr and fails the run."""
    path = _write(tmp_path, cfg)
    src = str(Path(lakevortex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "lakevortex.cli",
                           command, "--config", str(path), "--out", str(tmp_path / "out")],
                          env=env).returncode
    return code, capfd.readouterr().err


def test_jump_far_above_zero_solves_without_a_warning(tmp_path, capfd):
    """f(0+) = 1e300: the penalty's conjugate at a cell filled inside the jump
    is 0 and must not square t - f(0+) on the way."""
    cfg = dict(SMALL_SOLVE, nonlinearity={"preset": "jump_linear", "c": 1e300},
               params=dict(SMALL_SOLVE["params"], lam=1e301))
    assert _run_in_a_child(tmp_path, capfd, cfg) == (0, "")


def test_mass_near_float_range_solves_without_a_warning(tmp_path, capfd):
    """kappa0 = 1e150: the seed patch puts the whole mass in one cell, whose
    squared norm (m/h^2)^2 = 2.6e305 is still a float, so the solve runs, and
    E = 3.2e297."""
    cfg = dict(SMALL_SOLVE, flux={"preset": "zero"},
               params={"eps": 0.2, "delta": 0.5, "kappa0": 1e150, "lam": 1e155})
    assert _run_in_a_child(tmp_path, capfd, cfg) == (0, "")
    state = json.loads((tmp_path / "out" / "state.json").read_text())
    assert state["converged"] and state["energy"]["E_total"] == pytest.approx(3.23e297, rel=1e-3)


def test_penalty_beyond_float_range_is_a_numerical_failure(tmp_path, capfd):
    """eps = 1e10: delta/eps^2 = 1e-20, so the penalty's conjugate is taken at
    t = zeta eps^2/delta up to lam = 1e161 and overflows, although the class
    passes check_nonempty.  One line, no numpy warning, and not E = -inf."""
    cfg = dict(SMALL_SOLVE, flux={"preset": "zero"},
               params={"eps": 1e10, "delta": 1.0, "kappa0": 1e140, "lam": 1e161})
    code, err = _run_in_a_child(tmp_path, capfd, cfg)
    assert code == 1
    assert err.startswith("numerical failure: penalty F_eps is out of float range for "
                          "AdmissibleParams(eps=10000000000.0,")
    assert len(err.splitlines()) == 1


def test_large_compatible_flux_solves_without_a_warning(tmp_path, capfd):
    """A mean-corrected cosine flux of amplitude 1e9: its integral rounds to
    -3.2e-8, within the tolerance relative to the integral of |nu| (4e9)."""
    cfg = dict(SMALL_SOLVE, flux={"preset": "cosine", "amplitude": 1e9})
    assert _run_in_a_child(tmp_path, capfd, cfg) == (0, "")


# the bathtub's line where one float step of mu moves more than the mass tolerance
UNRESOLVED = "config error: the mass is not resolved in float to 1e-08 of the target, "
POWER_2 = {"preset": "power", "p": 2.0}
STEEP_TABLE = {"preset": "table", "points": [[0, 1], [0.1, 40], [1, 60]]}


def _mass_error(out: Path) -> float:
    """Relative mass error of the state a solve on SMALL_SOLVE's lake wrote to out."""
    from lakevortex.geometry import build_lake
    from lakevortex.variational import AdmissibleParams

    state = json.loads((out / "state.json").read_text())
    lake = build_lake(SMALL_SOLVE["lake"]["preset"], SMALL_SOLVE["lake"]["resolution"])
    zeta = np.asarray(state["zeta_row_major"]).reshape(lake.mask.shape)[lake.mask]
    target = AdmissibleParams(**state["params"]).target_mass
    return abs(float(np.dot(zeta, lake.nu_weights)) / target - 1.0)


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("amplitude", [1e12, 1e200])
def test_background_beyond_the_mass_tolerance_is_a_config_error(tmp_path, capfd, command,
                                                                amplitude):
    """A cosine flux of amplitude 1e12 leaves mu 1.2e-4 apart in float, so the
    bathtub cannot meet the mass target (it missed by 3.4e-7 while that was a
    numerical failure), and one of 1e200 overflowed the sparse solve's norm
    (numpy's warning, then a NaN residual).  Each is one config error line:
    the bathtub's names the first point, the background solve's the float
    range."""
    from lakevortex.asymptotics import sweep_params
    from lakevortex.variational import AdmissibleParams

    cfg = dict(BASES[command], flux={"preset": "cosine", "amplitude": amplitude})
    code, err = _run_in_a_child(tmp_path, capfd, cfg, command)
    [line] = err.splitlines()
    assert code == 2
    if amplitude == 1e200:
        assert line == "config error: boundary flux is out of float range for the background solve"
        return
    assert line.startswith(UNRESOLVED)
    first = (AdmissibleParams(**SMALL_SOLVE["params"]) if command == "solve"
             else sweep_params("critical", 1.0, 50.0, SMALL_SWEEP["sweep"]["eps_list"])[0])
    assert line.endswith(f" for {first}")


@pytest.mark.parametrize("nonlinearity, amplitude", [
    (POWER_2, 1.58e8), (POWER_2, 2e8), (POWER_2, 2.51e8),
    (STEEP_TABLE, 5.01e6), (STEEP_TABLE, 6.31e6), (STEEP_TABLE, 1e7), (STEEP_TABLE, 1.58e7),
    (STEEP_TABLE, 1e8),
], ids=lambda v: v["preset"] if isinstance(v, dict) else f"{v:g}")
def test_curved_f_beyond_the_mass_tolerance_is_a_config_error(tmp_path, capsys, nonlinearity,
                                                               amplitude):
    """A curved f moves more mass per step of mu than the band's mean slope
    says: these amplitudes passed a set-up rule built on that slope, then
    missed the mass target as numerical failures.  The bathtub measures the
    step itself (1.3e-7 of mass for the table at 1e8).  All but the table at
    1e8 solve: where the bisected mu misses, its next float meets the mass."""
    cfg = _write(tmp_path, dict(SMALL_SOLVE, nonlinearity=nonlinearity,
                                flux={"preset": "cosine", "amplitude": amplitude}))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    if amplitude != 1e8:
        assert code == 0 and _mass_error(tmp_path / "out") <= MASS_TOL_REL
        return
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(UNRESOLVED)
    assert line.endswith(" for AdmissibleParams(eps=0.15, delta=0.5, kappa0=1.0, lam=50.0)")


@pytest.mark.parametrize("nonlinearity", [SMALL_SOLVE["nonlinearity"], POWER_2, STEEP_TABLE],
                         ids=lambda v: v["preset"])
def test_no_flux_size_is_a_numerical_failure(tmp_path, capsys, nonlinearity):
    """Cosine amplitudes from 1e6 to 1e13 in steps of 10^0.2, and 1e50 to
    1e300: every solve exits 0 or is a config error, whatever f, never a
    numerical failure (tier-1 makes a numpy warning one too)."""
    amplitudes = np.geomspace(1e6, 1e13, 36).tolist() + [1e50, 1e100, 1e150, 1e200, 1e300]
    for amplitude in amplitudes:
        cfg = _write(tmp_path, dict(SMALL_SOLVE, nonlinearity=nonlinearity,
                                    flux={"preset": "cosine", "amplitude": amplitude}))
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code in (0, 2), (amplitude, capsys.readouterr().err)
    assert "numerical failure" not in capsys.readouterr().err


def test_no_background_size_is_a_numerical_failure(tmp_path, capsys):
    """Cosine amplitudes from 1e8 to 1e13 in steps of 10^0.1 solve or are config
    errors.  Past 2e9 whether one float step of mu moves more than the mass
    tolerance depends on the exact q, so acceptance is not monotone: 5e9,
    1.26e10, 1.58e10, 2.5e10, 1e11, 1.26e11, 2e11 and 3.16e11 up are config
    errors, and the others solve; 2.5e9 to 4e9 solve at the next float above
    the bisected mu, within the mass tolerance."""
    codes = []
    for amplitude in np.geomspace(1e8, 1e13, 51).tolist():
        cfg = _write(tmp_path, dict(SMALL_SOLVE, flux={"preset": "cosine", "amplitude": amplitude}))
        codes.append(main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]))
        if 2.5e9 < amplitude < 4e9:
            assert _mass_error(tmp_path / "out") <= MASS_TOL_REL
    assert codes == ([0] * 17 + [2] + [0] * 3 + [2] * 2 + [0, 2] + [0] * 5 + [2] * 2
                     + [0, 2, 0] + [2] * 16)
    assert capsys.readouterr().err.count(UNRESOLVED) == 23


def test_constant_custom_flux_is_zero_flux(tmp_path):
    """At 64^2 the mean correction of a constant custom flux leaves rounding
    (integral 5.6e-15), not exact zeros: the solve is the zero-flux solve."""
    states = {}
    for name, flux in (("custom", {"preset": "custom", "points": [[0, 5], [2, 5], [4, 5]]}),
                       ("zero", {"preset": "zero"})):
        cfg = _write(tmp_path, dict(SMALL_SOLVE, flux=flux))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        states[name] = json.loads((tmp_path / name / "state.json").read_text())
        del states[name]["config_sha256"]
    assert states["custom"] == states["zero"]


def test_sweep_names_the_point_that_fails_its_class_check(tmp_path, capsys):
    # the second point's target mass is out of float range on this lake
    sweep = dict(SMALL_SWEEP["sweep"], eps_list=[0.2, 1e-3], kappa0=5e152, lam=1e151)
    cfg = _write(tmp_path, dict(SMALL_SWEEP, flux={"preset": "zero"}, sweep=sweep))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: target mass 7.238e+151 is out of float range")
    assert line.endswith("for AdmissibleParams(eps=0.001, delta=0.14476482730108395, "
                         "kappa0=5e+152, lam=1e+151)")


# one fault each, in configs that solve and sweep read alike: the sweep's only
# eps point is the solve's params, at the critical delta(eps); each is found
# before the operator is assembled
SHARED_FAULTS = {
    "bad-seed": ({"seed": [1.0]}, 0.2, 1.0),
    "seed-outside-the-lake": ({"seed": [5, 5]}, 0.2, 1.0),
    "seed-far-outside-the-lake": ({"seed": [1e200, 0]}, 0.2, 1.0),
    "empty-class": ({}, 0.2, 1e4),
    "non-increasing-table": ({"nonlinearity": FALLING_TABLE}, 0.2, 1.0),
    "eps-beyond-float": ({}, 1e-200, 1.0),
}


@pytest.mark.parametrize("fault", list(SHARED_FAULTS))
def test_solve_and_sweep_report_a_fault_alike(tmp_path, monkeypatch, capsys, fault):
    from lakevortex import cli
    from lakevortex.asymptotics import delta_of_eps

    def assemble(lake):
        raise AssertionError(f"{fault} reached the operator's assembly")

    monkeypatch.setattr(cli, "assemble_operator", assemble)
    changes, eps, kappa0 = SHARED_FAULTS[fault]
    params = {"eps": eps, "delta": delta_of_eps("critical", eps), "kappa0": kappa0, "lam": 50.0}
    sweep = {"schedule": "critical", "eps_list": [eps], "kappa0": kappa0, "lam": 50.0}
    lines = {}
    for command, cfg in (("solve", dict(SMALL_SOLVE, params=params, **changes)),
                         ("sweep", dict(SMALL_SWEEP, sweep=sweep, **changes))):
        path = _write(tmp_path, cfg, f"{command}.json")
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
        [lines[command]] = capsys.readouterr().err.splitlines()
    assert lines["solve"].startswith("config error: ")
    assert lines["sweep"] == lines["solve"]


def _schema_fields():
    for key, fields in CONFIG_KEYS.items():
        command = next(c for c, (_, keys) in COMMANDS.items() if key in keys)
        for name, (kind, _) in (fields or {}).items():
            if kind != "name":
                yield pytest.param(command, key, name, id=f"{key}.{name}")


@pytest.mark.parametrize("command, key, name", _schema_fields())
def test_every_schema_field_rejects_a_string(tmp_path, monkeypatch, capsys, command, key, name):
    # a field added to CONFIG_KEYS without a parse rule for its kind fails here
    import lakevortex.cli as cli

    def set_up(*args, **kwargs):
        raise AssertionError(f"{key}.{name} = 'junk' was accepted")

    for first_step in ("build_lake", "verify_hypotheses"):
        monkeypatch.setattr(cli, first_step, set_up)
    base = BASES[command]
    cfg = _write(tmp_path, dict(base, **{key: dict(base.get(key, {}), **{name: "junk"})}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}.{name} must be")


@pytest.mark.parametrize("command, changes, set_up", [
    ("solve", {"params": dict(SMALL_SOLVE["params"], eps=-0.1)}, "assemble_operator"),
    ("solve", {"nonlinearity": FALLING_TABLE}, "assemble_operator"),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], eps_list=[0.2, 0.3])}, "build_lake"),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], schedule="sideways")}, "build_lake"),
    ("sweep", {"sweep": dict(SMALL_SWEEP["sweep"], lam=1.0)}, "assemble_operator"),
], ids=["solve-params-eps", "solve-falling-table", "sweep-eps-list", "sweep-schedule",
        "sweep-lam-below-jump"])
def test_config_is_checked_before_set_up(tmp_path, monkeypatch, command, changes, set_up):
    import lakevortex.cli as cli

    def expensive(*args):
        raise AssertionError(f"{set_up} ran before the config was checked")

    monkeypatch.setattr(cli, set_up, expensive)
    base = {"solve": SMALL_SOLVE, "sweep": SMALL_SWEEP}[command]
    cfg = _write(tmp_path, dict(base, **changes))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command, base, changes, key", [
    ("solve", SMALL_SOLVE, {"target_radius": 0.2}, "'target_radius'"),
    ("sweep", SMALL_SWEEP, {"target_radius": 0.2}, "'target_radius'"),
    ("kernel-test", {}, {"kernel": {"pairs": 10}}, "'kernel'"),
    ("solve", SMALL_SOLVE, {"sead": [0.0, 0.1]}, "'sead'"),
    ("sweep", SMALL_SWEEP, {"sweep": dict(SMALL_SWEEP["sweep"], kapa0=2.0)}, "'sweep.kapa0'"),
    ("solve", SMALL_SOLVE, {"lake": dict(SMALL_SOLVE["lake"], resolutoin=32)}, "'lake.resolutoin'"),
    # keys another command reads: a params section would not set the sweep's kappa0
    ("sweep", SMALL_SWEEP, {"params": SMALL_SOLVE["params"]}, "'params'"),
    ("solve", SMALL_SOLVE, {"sweep": SMALL_SWEEP["sweep"]}, "'sweep'"),
    ("check-hypotheses", BASES["check-hypotheses"], {"lake": SMALL_SOLVE["lake"]}, "'lake'"),
    ("kernel-test", {}, {"lake": SMALL_SOLVE["lake"]}, "'lake'"),
], ids=["solve-target_radius", "sweep-target_radius", "kernel", "sead", "sweep.kapa0",
        "lake.resolutoin", "sweep-params", "solve-sweep", "check-hypotheses-lake",
        "kernel-test-lake"])
def test_unknown_config_keys_are_config_errors(tmp_path, monkeypatch, capsys, command, base,
                                               changes, key):
    # a key the running command does not read is a misspelling, a retired
    # setting or another command's, never ignored
    import lakevortex.cli as cli

    def set_up(*args, **kwargs):
        raise AssertionError(f"{key} was accepted")

    for first_step in ("build_lake", "verify_hypotheses"):
        monkeypatch.setattr(cli, first_step, set_up)
    cfg = _write(tmp_path, dict(base, **changes))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown key") and key in err


def test_solve_measures_mass_fraction_within_target_radius(tmp_path, monkeypatch):
    import csv

    from lakevortex import asymptotics

    fractions = []
    for radius in (0.2, 0.01):
        monkeypatch.setattr(asymptotics, "TARGET_RADIUS", radius)  # read at call time
        cfg = _write(tmp_path, SMALL_SOLVE)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "diag.csv", newline="") as fh:
            next(fh)  # provenance comment
            (row,) = list(csv.DictReader(fh))
        fractions.append(float(row["mass_frac"]))
    assert fractions[0] > fractions[1]


@pytest.mark.parametrize("command, changes", [
    ("solve", {"lake": {"preset": "disk_interior_max_b", "resolution": 1025}}),
])
def test_oversized_grid_is_rejected_before_allocation(tmp_path, monkeypatch, command, changes):
    from lakevortex import geometry

    assert 1025**2 > geometry.MAX_CELLS >= 1024**2

    def allocate(*args):
        raise AssertionError("build_lake went past the cell budget")

    # the first step of build_lake after its checks; nothing is allocated before it
    monkeypatch.setattr(geometry, "DiskDomain", allocate)
    cfg = _write(tmp_path, dict(SMALL_SOLVE, **changes))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command, changes, first_allocation", [
    ("check-hypotheses", {"hypotheses": {"n": 10**11}}, "verify_hypotheses"),
], ids=["hypotheses-n"])
def test_oversized_sample_count_is_rejected_before_allocation(tmp_path, monkeypatch, capsys,
                                                              command, changes,
                                                              first_allocation):
    from lakevortex import cli

    def allocate(*args):
        raise AssertionError(f"{command} went past its sample budget")

    monkeypatch.setattr(cli, first_allocation, allocate)
    cfg = _write(tmp_path, dict(BASES[command], **changes))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "must be <=" in capsys.readouterr().err


def test_solve_reads_the_lake_from_its_operator(tmp_path):
    """The operator is the one source of the lake: a solve given the 48^2
    disk_constant_b operator writes the end-to-end state.json bit for bit, and
    no solve-path function takes a lake beside it."""
    import inspect

    import lakevortex.asymptotics as asymptotics
    import lakevortex.variational as variational
    from lakevortex.elliptic import assemble_operator, flux_preset, solve_background
    from lakevortex.geometry import build_lake
    from lakevortex.nonlinearity import VorticityFunction

    cfg = dict(SMALL_SOLVE, lake={"preset": "disk_constant_b", "resolution": 48})
    assert main(["solve", "--config", str(_write(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    handle = assemble_operator(build_lake("disk_constant_b", 48))
    q = solve_background(handle, flux_preset(handle.lake, "cosine", amplitude=0.02))
    state = variational.solve_vortex(handle, q, variational.AdmissibleParams(**cfg["params"]),
                                     VorticityFunction("jump_linear", c=0.5), init=cfg["seed"])
    write_json(tmp_path / "api.json", state_to_dict(state), config_hash(cfg))
    assert (tmp_path / "api.json").read_bytes() == (tmp_path / "state.json").read_bytes()
    for fn in (variational.solve_vortex, asymptotics.run_sweep, variational.brute_force_oracle,
               asymptotics.diagnose, state_to_dict, variational.iterate_step,
               variational.bathtub, variational.energy, variational.initial_patch):
        assert "lake" not in inspect.signature(fn).parameters, fn.__name__


def test_solve_and_sweep_share_one_diagnostics_path(tmp_path):
    # solve_critical.json sets delta = 1/ln(10) to one ulp: the critical schedule at eps = 0.1
    import csv
    import math

    from sweep_states import sweep_with_states

    from lakevortex.asymptotics import DIAG_COLUMNS
    from lakevortex.cli import build_lake_from, flux_from, seed_from, vf_from
    from lakevortex.elliptic import assemble_operator

    path = CONFIG_DIR / "solve_critical.json"
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "diag.csv", newline="") as fh:
        next(fh)  # provenance comment
        (solved,) = list(csv.DictReader(fh))
    cfg = load_config(path)
    lake = build_lake_from(cfg)
    report, states = sweep_with_states(
        assemble_operator(lake), flux_from(cfg, lake), "critical",
        kappa0=cfg["params"]["kappa0"], lam=cfg["params"]["lam"],
        eps_list=[cfg["params"]["eps"]], vf=vf_from(cfg), seed=seed_from(cfg))
    (swept,), (state,) = report.rows, states
    # mass_frac differs only by its anchor: the seed in solve, the nearest tie in sweep
    for column in DIAG_COLUMNS:
        if column != "mass_frac":
            assert float(solved[column]) == pytest.approx(getattr(swept, column), rel=1e-12), column
    assert math.isfinite(swept.sup_K)
    assert swept.sup_K == state.k_zeta.max()


def test_malformed_json_reports_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "lake": {,}\n}')
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "broken.json:2" in err


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
def test_out_blocked_by_a_file_is_a_usage_error(tmp_path, monkeypatch, capsys, command, below):
    """--out naming a file, or a path below one, exits 2 with one line on
    stderr, before the lake is built."""
    import lakevortex.cli as cli

    def expensive(*args):
        raise AssertionError("build_lake ran before --out was created")

    monkeypatch.setattr(cli, "build_lake", expensive)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / below if below else blocker
    cfg = _write(tmp_path, BASES[command])
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: --out {out}: ")


def test_missing_required_key(tmp_path, capsys):
    cfg = _write(tmp_path, {"lake": {"preset": "disk_constant_b", "resolution": 64}})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    # a section without one of its required fields
    cfg = _write(tmp_path, dict(SMALL_SOLVE, lake={"preset": "disk_interior_max_b"}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.endswith("config error: lake: missing required key 'resolution'\n")


def test_oracle_test_bundled(tmp_path):
    cfg = CONFIG_DIR / "oracle_tiny.json"
    assert main(["oracle-test", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["all_passed"] is True
    assert [f["cells"] for f in report["fixtures"]] == [1, 2, 4]
    for f in report["fixtures"]:
        assert f["solver_energy"] >= f["oracle_energy"] - f["gap_bound"]


def test_check_hypotheses_bundled(tmp_path):
    cfg = CONFIG_DIR / "hypotheses_power2.json"
    assert main(["check-hypotheses", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "hypotheses.json").read_text())
    assert report["h1_monotone"] is True
    assert abs(report["theta0_estimate"] - 1.0 / 3.0) < 1e-3
    assert abs(report["theta1_estimate"] - 2.0 / 3.0) < 1e-3


def test_check_hypotheses_flags_non_monotone(tmp_path):
    cfg = _write(tmp_path, {
        "nonlinearity": {"preset": "table",
                         "points": [[0.0, 0.5], [1.0, 2.0], [2.0, 1.0], [3.0, 4.0]]},
        "hypotheses": {"s_max": 3.0, "n": 500},
    })
    assert main(["check-hypotheses", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_check_hypotheses_resolves_steep_table(tmp_path):
    # the smallest grid step in s (2e-9) is below the float spacing of
    # f(0+) = 1e8, but f rises 1e6 times faster than s, by 2e-3 per step
    cfg = _write(tmp_path, {
        "nonlinearity": {"preset": "table", "points": [[0.0, 1e8], [1.0, 1.01e8]]},
        "hypotheses": {"s_max": 1.0, "n": 100},
    })
    assert main(["check-hypotheses", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "hypotheses.json").read_text())["h1_monotone"] is True


def test_kernel_test_small(tmp_path):
    cfg = _write(tmp_path, {})
    assert main(["kernel-test", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "kernel_report.json").read_text())
    assert report["upper_bound_ok"] and report["green_symmetry_ok"]
    assert report["representation_ok"]
    # the printed lower envelope is recorded but not asserted
    assert "lower_bound_min_slack_logged" in report


def test_bundled_solve_config(tmp_path):
    cfg = CONFIG_DIR / "solve_critical.json"
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "diag.csv").exists()
    # a count, not a time: the plain iteration took 28 steps, the mixed tail 17
    state = json.loads((tmp_path / "state.json").read_text())
    assert state["converged"] and state["iterations"] <= 17


def test_load_config_rejects_non_object(tmp_path):
    from lakevortex.cli import ConfigError

    p = tmp_path / "list.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(p)


def _walked_jsonable(obj):
    """Frozen copy of the writer's value-by-value conversion, before float
    arrays without NaN went through one tolist(); a numpy NaN scalar is null
    like a Python NaN, and so is an infinity of either sign."""
    if isinstance(obj, dict):
        return {k: _walked_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_walked_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_walked_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def test_write_json_matches_value_by_value_walk(tmp_path):
    rng = np.random.default_rng(4)
    with_nan = rng.normal(size=(3, 4))
    with_nan[1, 2] = np.nan
    payload = {
        "nan": NAN,
        "inf": [float("inf"), -0.0, 1e-310],
        "scalars": [np.float64(0.1), np.float32(0.3), np.int64(7), np.float64(NAN)],
        "float_array": rng.normal(size=50) * 1e7,
        "float_grid": rng.normal(size=(4, 3)),
        "float32_array": rng.normal(size=5).astype(np.float32),
        "nan_array": np.array([1.0, NAN, -2.5]),
        "inf_array": np.array([1.0, float("inf"), -float("inf")]),
        "nan_grid": with_nan,
        "zero_array": np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.0, 5e-324]),
        "zero_float32_array": np.array([-0.0, 0.0, 0.1], dtype=np.float32),
        "int_array": np.arange(-3, 4),
        "bool_array": np.array([True, False]),
        "nested": {"list": [1, 2.5, NAN, (3, "x"), [np.arange(3.0), {"z": None}]],
                   "empty": np.empty(0), "text": "lake"},
    }
    write_json(tmp_path / "out.json", payload, "abc")
    expected = dict(payload, version=__version__, config_sha256="abc")
    text = json.dumps(_walked_jsonable(expected), sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "out.json").read_text() == text


def test_write_json_writes_every_nan_as_null(tmp_path):
    def reject(token):
        raise AssertionError(f"{token} is not JSON")

    write_json(tmp_path / "out.json", {"numpy": np.float64(NAN), "float32": np.float32(NAN),
                                       "python": NAN, "list": [np.float64(NAN), 1.5]}, "abc")
    data = json.loads((tmp_path / "out.json").read_text(), parse_constant=reject)
    assert data["numpy"] is None and data["float32"] is None and data["python"] is None
    assert data["list"] == [None, 1.5]


def test_write_json_writes_every_infinity_as_null(tmp_path):
    def reject(token):
        raise AssertionError(f"{token} is not JSON")

    inf = float("inf")
    write_json(tmp_path / "out.json", {"python": [inf, -inf], "numpy": np.float64(-inf),
                                       "array": np.array([1.0, inf])}, "abc")
    data = json.loads((tmp_path / "out.json").read_text(), parse_constant=reject)
    assert data["python"] == [None, None] and data["numpy"] is None
    assert data["array"] == [1.0, None]


def _object_array_write_json(path: Path, payload: dict, cfg_hash: str) -> None:
    """Frozen copy of write_json before zero runs: each float array's items
    were one object array of strings, joined once."""
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
        # repr only the nonzeros: most of a full-grid field is 0.0
        items = np.where(np.signbit(values), "-0.0", "0.0").astype(object)
        nonzero = values != 0.0
        items[nonzero] = list(map(float.__repr__, values[nonzero].tolist()))
        items = f",\n{inner}".join(items)
        return f"{m.group(1)}{m.group(2)}[\n{inner}{items}\n{m.group(1)}]"

    path.write_text(_ARRAY_MARKER.sub(expand, text) + "\n")


def test_write_json_zero_runs_match_the_object_array_text(tmp_path):
    """Runs of 0.0 written as one repeated string give the text of the frozen
    object-array writer, on arrays with -0.0, 5e-324 and runs at either end,
    and on all-zero, zero-free, one-item and empty arrays, at two depths."""
    rng = np.random.default_rng(7)
    field = np.zeros(300)
    field[rng.choice(300, 40, replace=False)] = rng.normal(size=40)
    arrays = {
        "signed_zeros": np.array([-0.0, 0.0, 0.0, -0.0, 1.5, -0.0]),
        "subnormal": np.array([0.0, 5e-324, 0.0, -5e-324, 0.0, 0.0]),
        "runs_at_both_ends": np.array([0.0, 0.0, 2.0, 0.0, -3.0, 0.0, 0.0, 0.0]),
        "field": field,
        "all_zero": np.zeros(17),
        "no_zero": rng.normal(size=9),
        "one_zero": np.zeros(1),
        "one_negative_zero": np.array([-0.0]),
        "one_value": np.array([0.25]),
        "empty": np.empty(0),
    }
    payload = dict(arrays, nested={"deeper": dict(arrays)})
    write_json(tmp_path / "runs.json", payload, "abc")
    _object_array_write_json(tmp_path / "objects.json", payload, "abc")
    assert (tmp_path / "runs.json").read_text() == (tmp_path / "objects.json").read_text()


def test_write_json_of_a_129_state_traces_under_half_a_megabyte(tmp_path, critical_state_129):
    """The 129^2 state.json (17,161 floats, most of them 0.0) is written with
    under 0.5 MB traced at the peak: the text and its pieces, without a
    string object per float (1.33 MB with one)."""
    _, _, _, _, state = critical_state_129
    payload = state_to_dict(state)
    write_json(tmp_path / "warm.json", payload, "abc")  # first-call caches are not the write's
    tracemalloc.start()
    try:
        write_json(tmp_path / "state.json", payload, "abc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_write_json_of_a_solve_state_matches_value_by_value_walk(tmp_path, critical_state_129):
    _, _, _, _, state = critical_state_129
    payload = state_to_dict(state)
    write_json(tmp_path / "state.json", payload, "abc")
    expected = dict(payload, version=__version__, config_sha256="abc")
    text = json.dumps(_walked_jsonable(expected), sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "state.json").read_text() == text


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_overflowing_flux_prints_only_the_config_error(tmp_path, capfd, command):
    """A flux that overflows leaves one line on stderr, the config error: no
    numpy RuntimeWarning before it.  The command runs in a child process that
    writes to the captured stderr, since pytest records warnings raised in
    its own process instead of printing them."""
    cfg = _write(tmp_path, dict(BASES[command], flux=OVERFLOWING_FLUX))
    src = str(Path(lakevortex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = subprocess.run([sys.executable, "-m", "lakevortex.cli", command, "--config", str(cfg),
                           "--out", str(tmp_path / "out")], env=env).returncode
    assert code == 2
    err = capfd.readouterr().err
    assert err.splitlines() == ["config error: flux: values are not finite: the flux overflows"]


def test_cli_imports_no_csgraph_ndimage_or_spatial():
    """A fresh process that imports the CLI loads no scipy.sparse.csgraph,
    scipy.ndimage or scipy.spatial: the last two cost about 9 MB of resident
    memory on every run, and csgraph about 1 MB at import."""
    src = str(Path(lakevortex.__file__).resolve().parents[1])
    prefixes = ("scipy.sparse.csgraph", "scipy.ndimage", "scipy.spatial")
    code = ("import lakevortex.cli, sys; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
