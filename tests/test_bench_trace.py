"""The benchmark's traced calls still reach every per-layer metric.

``bench/tracing.py`` wraps library names by attribute; a name the library
drops is skipped silently, and the metrics built from it go absent.  This
runs one traced ``verify_mass_comparison`` per grid kind and checks that
every per-layer metric of ``BENCHMARK.json`` comes out, apart from the two
that ``bench/run.py`` computes from whole calls, and that the traced LUs are
the factorizations the report counts.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from anisosym import (make_interval_grid, make_p_laplacian, make_square_grid,
                      verify_mass_comparison)

ROOT = Path(__file__).resolve().parent.parent
RUN_LEVEL = {"trace.verify_s", "trace.overhead_s"}


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bump(c, y):
    return np.exp(-20 * ((c - 0.3) ** 2).sum(axis=1)) * (1 + 0.5 * np.sin(np.pi * y))


@pytest.mark.parametrize("grid", [make_interval_grid(1.0, 16), make_square_grid(1.0, 6)],
                         ids=["interval", "square"])
def test_traced_call_yields_every_per_layer_metric(grid):
    tracing = _tracing()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in bench["per_layer"]} - RUN_LEVEL
    tracer = tracing.Tracer()
    with tracer.installed():
        rep = tracer.wrap(tracing.ROOT, verify_mass_comparison)(
            grid, make_p_laplacian(3), f_fn=bump, N=3, M=8)
    metrics = tracing.layer_metrics(tracer.spans, rep)
    assert sorted(expected - set(metrics)) == []
    # every traced LU is one the report counts: none is hidden from it
    assert metrics["solver.lu_count"] == (rep.meta["u_factorizations"]
                                          + rep.meta["v_factorizations"])
    # every sweep resolves each slice once: a warm start neither hides nor adds a call
    assert metrics["mass_ode.resolvent_calls"] == rep.meta["N"] * rep.meta["ode_sweeps"]
    # every pipeline stage is made of traced calls
    stages = tracing.stage_agreement(tracer.spans, rep.timings)
    assert set(stages) == set(rep.timings)
