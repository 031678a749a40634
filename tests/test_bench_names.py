"""The benchmark wraps package names where the caller looks them up; a
refactor that drops one, or moves a call off the wrapped name, would silently
empty a per-layer metric."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import lakevortex.asymptotics
import lakevortex.cli
import lakevortex.elliptic
import lakevortex.nonlinearity
import lakevortex.variational

BENCH = Path(__file__).resolve().parent.parent / "bench"

# every span name install_layers records, and the counter it keeps
LAYER_SPANS = (
    "variational.solve_vortex", "geometry.build_lake", "elliptic.assemble_operator",
    "elliptic.lu_factor", "elliptic.solve_background", "variational.initial_patch",
    "variational.iterate_step", "elliptic.apply_K", "variational.energy", "cli.write",
)

SMALL_CONFIGS = {
    "solve": {
        "lake": {"preset": "disk_interior_max_b", "resolution": 48},
        "flux": {"preset": "cosine", "amplitude": 0.02},
        "nonlinearity": {"preset": "jump_linear", "c": 0.5},
        "params": {"eps": 0.15, "delta": 0.5, "kappa0": 1.0, "lam": 50.0},
        "seed": [0.0, 0.0],
    },
    "sweep": {
        "lake": {"preset": "disk_interior_max_b", "resolution": 48},
        "flux": {"preset": "cosine", "amplitude": 0.02},
        "nonlinearity": {"preset": "jump_linear", "c": 0.5},
        "sweep": {"schedule": "critical", "eps_list": [0.2, 0.14], "kappa0": 1.0, "lam": 50.0},
    },
}


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py imported read-only, with the package modules it instruments."""
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its siblings by name
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    lv = SimpleNamespace(cli=lakevortex.cli, elliptic=lakevortex.elliptic,
                         variational=lakevortex.variational,
                         asymptotics=lakevortex.asymptotics,
                         nonlinearity=lakevortex.nonlinearity)
    return run, lv


def test_benchmark_finds_every_wrapped_name(bench_run):
    run, lv = bench_run
    tracer = run.Tracer()
    try:
        run.install_layers(tracer, lv)
        assert tracer.missing == []
    finally:
        tracer.unpatch()


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_every_layer_records_calls(bench_run, tmp_path, command):
    run, lv = bench_run
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(SMALL_CONFIGS[command]))
    tracer = run.Tracer()
    try:
        run.install_layers(tracer, lv)
        with contextlib.redirect_stdout(io.StringIO()):
            code = lakevortex.cli.main([command, "--config", str(config),
                                        "--out", str(tmp_path / "out")])
    finally:
        tracer.unpatch()
    assert code == 0
    recorded = {s.name for s in tracer.spans}
    assert [name for name in LAYER_SPANS if name not in recorded] == []
    assert tracer.counts[tracer.run_id]["nonlinearity.f.calls"] >= 1
