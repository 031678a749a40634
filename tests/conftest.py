from __future__ import annotations

import math

import numpy as np
import pytest

from lakevortex.elliptic import assemble_operator, flux_preset, solve_background
from lakevortex.geometry import build_lake
from lakevortex.nonlinearity import VorticityFunction

ACCEPTANCE_STASH = pytest.StashKey[list]()


@pytest.fixture(scope="session")
def acceptance_report(request):
    """Collector for per-criterion gate lines, echoed in the terminal summary."""
    lines = request.config.stash.setdefault(ACCEPTANCE_STASH, [])

    def _report(criterion: str, passed: bool, detail: str = "") -> None:
        line = (f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
                + (f" — {detail}" if detail else ""))
        print(line)
        lines.append(line)

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(ACCEPTANCE_STASH, None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def disk_const_64():
    return build_lake("disk_constant_b", 64)


@pytest.fixture(scope="session")
def disk_const_64_handle(disk_const_64):
    return assemble_operator(disk_const_64)


@pytest.fixture(scope="session")
def interior_128():
    return build_lake("disk_interior_max_b", 128)


@pytest.fixture(scope="session")
def interior_128_handle(interior_128):
    return assemble_operator(interior_128)


@pytest.fixture(scope="session")
def interior_128_q(interior_128, interior_128_handle):
    nu = flux_preset(interior_128, "cosine", amplitude=0.02)
    return solve_background(interior_128_handle, nu)


@pytest.fixture(scope="session")
def vf_power2():
    return VorticityFunction("power", p=2.0)


@pytest.fixture(scope="session")
def vf_jump():
    return VorticityFunction("jump_linear", c=0.5)


@pytest.fixture(scope="session")
def critical_state_129():
    """Converged core on the standard fixture lake at eps = 0.1 (critical rate)."""
    from lakevortex.variational import AdmissibleParams, solve_vortex

    lake = build_lake("disk_interior_max_b", 129)
    handle = assemble_operator(lake)
    q = solve_background(handle, flux_preset(lake, "cosine", amplitude=0.02))
    params = AdmissibleParams(eps=0.1, delta=1.0 / math.log(10.0), kappa0=1.0, lam=50.0)
    state = solve_vortex(handle, q, params, VorticityFunction("jump_linear", c=0.5),
                         init=(0.0, 0.28))
    assert state.converged
    return lake, handle, q, params, state
