"""run_sweep with each point's solved state, for the tests that check the
states themselves: the sweep keeps only its Diagnostics rows."""

from __future__ import annotations

import lakevortex.asymptotics as asymptotics


def sweep_with_states(*args, **kwargs):
    """run_sweep's report and, aligned with its rows, each point's solved
    state, captured by wrapping asymptotics.solve_vortex where run_sweep
    looks it up; None for a point whose solve raised or never started."""
    live = asymptotics.solve_vortex
    solved = {}

    def capturing(handle, q, params, *rest, **kw):
        state = live(handle, q, params, *rest, **kw)
        solved[params.eps] = state
        return state

    asymptotics.solve_vortex = capturing
    try:
        report = asymptotics.run_sweep(*args, **kwargs)
    finally:
        asymptotics.solve_vortex = live
    return report, [solved.get(row.eps) for row in report.rows]
