"""Pass-through timing wrappers around the calls into each anisosym layer.

The traced run still calls ``verify_mass_comparison`` itself; the wrappers
only record a span (name, parent, start, end, attributes) and hand arguments
and results through unchanged.  They are installed for one call and removed
afterwards, so untraced calls in the same process run the plain library.

Wrapped points, by layer:

* ``grids``        -- ``compare.sample_slices``, ``compare.symmetrized_grid``
* ``nonlinearity`` -- ``compare.moreau_yosida`` and the returned law's
  ``a``/``B``/``beta``/``dbeta``
* ``rearrange``    -- ``compare.steiner_rearrangement``,
  ``compare.mass_functions_from_stack``
* ``solver``       -- ``compare.solve_stack``, ``compare.solve_symmetrized``
  and ``scipy.sparse.linalg.splu``
* ``mass_ode``     -- ``compare.solve_mass_system``, ``MassOperator.resolvent``

A name the library no longer has is skipped, and the metrics built from it
are reported as absent.
"""

import functools
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import scipy.sparse.linalg as spla

from anisosym import compare, mass_ode

COMPARE_NAMES = ("sample_slices", "moreau_yosida", "symmetrized_grid",
                 "steiner_rearrangement", "solve_stack", "solve_symmetrized",
                 "mass_functions_from_stack", "solve_mass_system")
LAW_METHODS = ("a", "B", "beta", "dbeta")
LAW = "nonlinearity.law"
SPLU = "solver.splu"
RESOLVENT = "mass_ode.resolvent"
ROOT = "compare.verify_mass_comparison"

SOLVES = ("compare.solve_stack", "compare.solve_symmetrized")
# Metrics that are the summed duration of every span of one name.
TOTALS = {
    "solver.lu_s": SPLU,
    "solver.solve_s": "compare.solve_stack",
    "solver.solve_symmetrized_s": "compare.solve_symmetrized",
    "nonlinearity.law_build_s": "compare.moreau_yosida",
    "rearrange.steiner_s": "compare.steiner_rearrangement",
    "rearrange.mass_s": "compare.mass_functions_from_stack",
    "mass_ode.solve_s": "compare.solve_mass_system",
    "mass_ode.resolvent_s": RESOLVENT,
}

# Which ComparisonReport.timings stage each compare-level span belongs to.
STAGE_OF = {
    "compare.sample_slices": "data",
    "compare.moreau_yosida": "nonlinearity",
    "compare.solve_stack": "solve",
    "compare.symmetrized_grid": "symmetrize",
    "compare.steiner_rearrangement": "symmetrize",
    "compare.solve_symmetrized": "solve-symmetrized",
    "compare.mass_functions_from_stack": "mass",
    "compare.solve_mass_system": "ode",
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Spans of one process, kept in memory; nesting follows the call stack.

    ``spans`` holds ``Span`` rows as plain tuples, appended when a span
    closes; the wrapper does no other work, to keep the tracing overhead of
    tens of thousands of law evaluations small.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self._ids = itertools.count()

    def wrap(self, name, fn, attrs_of=None):
        """``fn`` with a span around every call; ``attrs_of(result)`` adds attributes."""
        spans, open_, ids, clock = self.spans, self._open, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = open_[-1] if open_ else None
            open_.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
            spans.append((sid, parent, name, t0, t1,
                          attrs_of(out) if attrs_of is not None else {}))
            return out

        return traced

    def _wrap_law(self, law):
        """Trace the evaluation methods of one law instance, in place."""
        for meth in LAW_METHODS:
            fn = getattr(law, meth, None)
            if fn is not None:
                setattr(law, meth, self.wrap(LAW, fn))
        return law

    def _law_builder(self, build):
        """``build`` (a law constructor) with its result's evaluations traced."""

        @functools.wraps(build)
        def traced_build(*args, **kwargs):
            return self._wrap_law(build(*args, **kwargs))
        return traced_build

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        attrs = {"symmetrized_grid": lambda g: {"cells": int(g.num_cells)}}
        targets = [(compare, name, f"compare.{name}", attrs.get(name))
                   for name in COMPARE_NAMES]
        targets += [(mass_ode.MassOperator, "resolvent", RESOLVENT, None),
                    (spla, "splu", SPLU, lambda lu: {"nnz": int(lu.L.nnz + lu.U.nnz)})]
        saved = []
        for owner, attr, span_name, attrs_of in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            if attr == "moreau_yosida":
                fn = self._law_builder(fn)
            setattr(owner, attr, self.wrap(span_name, fn, attrs_of))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _under(span, by_id, names):
    """True when an ancestor of ``span`` has one of ``names``."""
    p = span.parent
    while p is not None:
        if by_id[p].name in names:
            return True
        p = by_id[p].parent
    return False


def layer_metrics(spans, report):
    """Per-layer metrics of one traced verify call (absent names are skipped).

    Spans of one thread nest strictly, so a span's self time is its duration
    minus the summed durations of its direct children.
    """
    spans = [Span(*row) for row in spans]
    by_id = {s.id: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in named.get(name, ()))

    out = {}
    root = named[ROOT][0]
    children = [s for s in spans if s.parent == root.id]
    out["compare.self_s"] = root.duration - sum(s.duration for s in children)

    for metric, name in TOTALS.items():
        if name in named:
            out[metric] = total(name)
    splu = named.get(SPLU, [])
    if splu:
        out["solver.lu_count"] = len(splu)
        out["solver.lu_fill_nnz"] = max(s.attrs["nnz"] for s in splu)
    out["solver.newton_iters"] = report.meta["u_iterations"] + report.meta["v_iterations"]
    outer_law = [s for s in named.get(LAW, []) if by_id.get(s.parent, root).name != LAW]
    if any(n in named for n in SOLVES):
        inner = [s for s in splu + outer_law if _under(s, by_id, SOLVES)]
        out["solver.self_s"] = sum(map(total, SOLVES)) - sum(s.duration for s in inner)
    if outer_law:
        out["nonlinearity.calls"] = len(outer_law)
        out["nonlinearity.eval_s"] = sum(s.duration for s in outer_law)
    if "compare.symmetrized_grid" in named:
        out["grids.ball_cells"] = named["compare.symmetrized_grid"][0].attrs["cells"]
    if RESOLVENT in named:
        out["mass_ode.resolvent_calls"] = len(named[RESOLVENT])
        out["mass_ode.sweeps"] = len(named[RESOLVENT]) / report.meta["N"]
    return out


def stage_agreement(spans, timings, abs_tol=2e-3, rel_tol=0.05):
    """Compare compare-level spans with ``ComparisonReport.timings``.

    Each stage's spans run inside the stage's own timer, so they may fall
    short of it only by the untraced glue in that stage.  Returns
    ``{stage: (stage_s, span_s, ok)}`` for every stage that has spans.
    """
    per_stage = {}
    for _, _, name, start, end, _ in spans:
        stage = STAGE_OF.get(name)
        if stage is not None:
            per_stage[stage] = per_stage.get(stage, 0.0) + (end - start)
    out = {}
    for stage, span_s in per_stage.items():
        stage_s = timings[stage]
        gap = stage_s - span_s
        ok = -1e-6 <= gap <= abs_tol + rel_tol * stage_s
        out[stage] = (stage_s, span_s, ok)
    return out
