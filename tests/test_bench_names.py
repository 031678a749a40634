"""The benchmark wraps package names where the caller looks them up; a
refactor that drops one would silently empty a per-layer metric."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import lakevortex.asymptotics
import lakevortex.cli
import lakevortex.elliptic
import lakevortex.nonlinearity
import lakevortex.variational

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its siblings by name
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    lv = SimpleNamespace(cli=lakevortex.cli, elliptic=lakevortex.elliptic,
                         variational=lakevortex.variational,
                         asymptotics=lakevortex.asymptotics,
                         nonlinearity=lakevortex.nonlinearity)
    tracer = run.Tracer()
    try:
        run.install_layers(tracer, lv)
        assert tracer.missing == []
    finally:
        tracer.unpatch()
