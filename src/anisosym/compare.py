"""End-to-end mass-comparison verification and parameter sweeps.

``verify_mass_comparison`` runs the full pipeline: solve the sliced
problem, Schwarz-rearrange the data onto the ball grid, solve the
symmetrized problem, build the slice mass functions U_j (original) and V_j
(symmetrized), and certify

    U_j(s)  <=  V_j(s)  +  slack

at every radial node, with an explicit slack budget C * (dx + ds + h).
The symmetrized masses are computed twice -- by rearranging the solved
symmetrized stack and by solving the rearranged ODE system directly -- and
the mutual gap between the two routes is recorded.

Sweeps refine the regularization parameters (monotone-energy and Cauchy
checks) or the slice count (boundedness and self-convergence checks).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .grids import (_resolve_grading, make_radial_grid, sample_slices,
                    symmetrized_grid, SliceStack)
from .mass_ode import MassOperator, MassSystem, mass_functions_from_stack, \
    solve_mass_system, subsolution_slack
from .nonlinearity import moreau_yosida
from .rearrange import steiner_rearrangement
from .solver import DiscreteProblem, solve_stack, solve_symmetrized, y_interpolant


class PipelineError(RuntimeError):
    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class ComparisonError(ValueError):
    pass


def _stage(name, fn, timings):
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc
    timings[name] = time.perf_counter() - t0
    return out


@dataclass(eq=False)
class ComparisonReport:
    """Node-wise masses of both solutions and the certified gap.

    ``U``, ``V``, ``gap`` have one row per interior slice and one column per
    radial node s_1..s_M (the trivial identity at s = 0 is excluded).
    """

    s_nodes: np.ndarray
    U: np.ndarray
    V: np.ndarray
    gap: np.ndarray
    worst_gap: float
    mutual_gap: float
    slack_c: float
    slack_budget: float
    passed: bool
    meta: dict
    u_stack: SliceStack
    v_stack: SliceStack
    u_energy: float
    timings: dict = field(default_factory=dict)

    @property
    def deficiency(self):
        """How far below zero the worst gap sits (0 when the ordering holds)."""
        return max(0.0, -self.worst_gap)

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "worst_gap": self.worst_gap,
            "mutual_gap": self.mutual_gap,
            "slack_c": self.slack_c,
            "slack_budget": self.slack_budget,
            "deficiency": self.deficiency,
            "meta": dict(self.meta),
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("j,s,U,V,gap\n")
            for j in range(self.U.shape[0]):
                for i, s in enumerate(self.s_nodes):
                    fh.write(f"{j + 1},{s:.17g},{self.U[j, i]:.17g},"
                             f"{self.V[j, i]:.17g},{self.gap[j, i]:.17g}\n")


def verify_mass_comparison(grid, nl, f_fn=None, f_stack=None, N=7, M=64,
                           grading="auto", eps=1e-6, tau=1e-6, slack_c=10.0,
                           tol=1e-9, radial_tol=1e-8, always_regularize=False,
                           mollify=0.0):
    """Run the full comparison pipeline and certify the mass ordering.

    The data comes either as a callable f_fn(centers, y) or a prepared
    stack.  Laws without two-sided slope bounds are solved through their
    (eps, tau) regularization; the comparison then certifies the theorem
    for the regularized law, which satisfies the same hypotheses.
    """
    timings = {}
    if (f_fn is None) == (f_stack is None):
        raise ValueError("provide exactly one of f_fn and f_stack")

    def build_data():
        stack = f_stack if f_stack is not None else sample_slices(grid, N, f_fn)
        if np.any(stack.values < 0.0):
            raise ValueError("data must be nonnegative")
        if mollify > 0.0:
            stack = mollify_stack(stack, mollify)
        return stack

    f = _stage("data", build_data, timings)
    h = f.h
    N = f.num_interior

    def build_law():
        if always_regularize or getattr(nl, "smooth_eps", None) is None:
            return moreau_yosida(nl, eps, tau)
        return nl

    law = _stage("nonlinearity", build_law, timings)
    u_sol = _stage("solve", lambda: solve_stack(DiscreteProblem(grid, law, f), tol), timings)

    def symmetrize():
        ball = symmetrized_grid(grid)
        return ball, steiner_rearrangement(f, ball)

    ball, f_star = _stage("symmetrize", symmetrize, timings)
    v_sol = _stage("solve-symmetrized",
                   lambda: solve_symmetrized(DiscreteProblem(ball, law, f_star),
                                             tol, radial_tol=radial_tol), timings)

    grade = _resolve_grading(grid.n, grading)
    s_grid = make_radial_grid(grid.n, grid.total_measure, M, grade)

    def build_masses():
        return [mass_functions_from_stack(st, s_grid) for st in (u_sol.stack, v_sol.stack, f)]

    U_list, V_list, F_list = _stage("mass", build_masses, timings)

    def solve_ode():
        system = MassSystem(MassOperator(s_grid, law), h, F_list[1:-1])
        return solve_mass_system(system, tol=1e-9, init=V_list[1:-1])

    V_ode = _stage("ode", solve_ode, timings)

    Uarr = np.stack([U_list[j].values[1:] for j in range(1, N + 1)])
    Varr = np.stack([V_list[j].values[1:] for j in range(1, N + 1)])
    Vode = np.stack([V_ode[j][1:] for j in range(1, N + 1)])
    gap = Varr - Uarr
    worst = float(gap.min())
    mutual = float(np.max(np.abs(Vode - Varr)))
    ds_max = float(np.max(s_grid.spacings))
    budget = slack_c * (grid.dx + ds_max + h)
    meta = {
        "n": grid.n, "omega_kind": grid.kind, "cells": grid.num_cells,
        "dx": grid.dx, "ds_max": ds_max, "h": h, "N": N, "M": M,
        "grading": grade, "law": law.name, "p": law.p,
        "eps": getattr(law, "eps", None), "tau": getattr(law, "tau", None),
        "u_residual": u_sol.residual_norm, "v_residual": v_sol.residual_norm,
        "u_iterations": u_sol.iterations, "v_iterations": v_sol.iterations,
        "u_cg_iterations": u_sol.cg_iterations, "v_cg_iterations": v_sol.cg_iterations,
        "u_fallbacks": u_sol.fallbacks, "v_fallbacks": v_sol.fallbacks,
        "ball_measure": ball.total_measure,
    }
    return ComparisonReport(
        s_grid.s_nodes[1:], Uarr, Varr, gap, worst, mutual, slack_c, budget,
        worst >= -budget, meta, u_sol.stack, v_sol.stack, u_sol.energy, timings)


@dataclass
class LqComparison:
    q: float
    lhs: float
    rhs: float
    slack: float

    @property
    def passed(self):
        return self.lhs <= self.rhs + self.slack


def verify_lq_consequence(report, q):
    """Check the integral of |u|^q against |v|^q over the product domain.

    The ordering follows from the mass comparison in the continuum; here it
    is evaluated directly from the solved stacks, with a slack scaled from
    the report's budget.  Returns (lhs, rhs); raises on violation.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    h = report.u_stack.h
    lhs = h * report.u_stack.grid.cell_measure * float(np.sum(report.u_stack.interior ** q))
    rhs = h * report.v_stack.grid.cell_measure * float(np.sum(report.v_stack.interior ** q))
    vmax = max(float(report.u_stack.values.max()), float(report.v_stack.values.max()), 0.0)
    slack = report.slack_budget * q * (1.0 + vmax) ** max(q - 1.0, 0.0)
    out = LqComparison(q, lhs, rhs, slack)
    if not out.passed:
        raise ComparisonError(
            f"L^{q:g} ordering violated: {lhs:.6e} > {rhs:.6e} + {slack:.2e}")
    return lhs, rhs


def mollify_stack(stack, delta):
    """Gaussian mollification of a data stack (half-width delta in x and y).

    Discrete convolution with the normalized Gaussian kernel, with the data
    extended by zero outside the domain and outside the slice range -- so
    the smoothed stack decays toward the boundary like a compactly
    supported mollification.  The kernel is positive, so nonnegativity is
    preserved.
    """
    if delta <= 0:
        return stack
    grid = stack.grid
    d2 = ((grid.centers[:, None, :] - grid.centers[None, :, :]) ** 2).sum(axis=2)
    Kx = np.exp(-0.5 * d2 / delta ** 2) * grid.cell_measure \
        / (2.0 * np.pi * delta ** 2) ** (grid.n / 2.0)
    h = stack.h
    yj = np.arange(1, stack.num_interior + 1) * h
    Ky = np.exp(-0.5 * (yj[:, None] - yj[None, :]) ** 2 / delta ** 2) * h \
        / np.sqrt(2.0 * np.pi * delta ** 2)
    vals = np.zeros_like(stack.values)
    vals[1:-1] = Ky @ (stack.interior @ Kx.T)
    return SliceStack(grid, vals)


@dataclass(eq=False)
class SweepReport:
    parameter: str
    points: list
    checks: dict
    reports: list | None = None        # full ComparisonReports when retained

    @property
    def passed(self):
        return all(self.checks.values())

    def to_dict(self):
        return {"parameter": self.parameter, "points": self.points,
                "checks": {k: bool(v) for k, v in self.checks.items()},
                "passed": self.passed}


def _run_points(jobs, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda fn: fn(), jobs))
    return [fn() for fn in jobs]


def epsilon_tau_sweep(grid, nl, f_fn, eps_list, tau_list, N=7, M=64,
                      slack_c=10.0, tol=1e-9, threads=1, **kw):
    """Solve across the regularization grid and check the approximation laws.

    At fixed tau the minimal energies must not decrease as eps shrinks
    (the smoothed density grows monotonically toward the true one) and the
    solutions must look Cauchy in L^1; the mass comparison must pass at
    every point.  Failed solves are recorded, not fatal.
    """
    eps_sorted = sorted(eps_list, reverse=True)
    combos = [(t, e) for t in tau_list for e in eps_sorted]

    def job(pair):
        t, e = pair

        def run():
            try:
                rep = verify_mass_comparison(grid, nl, f_fn=f_fn, N=N, M=M,
                                             eps=e, tau=t, slack_c=slack_c,
                                             tol=tol, always_regularize=True, **kw)
                return {"eps": e, "tau": t, "worst_gap": rep.worst_gap,
                        "passed": rep.passed, "energy": rep.u_energy,
                        "stack": rep.u_stack, "error": None}
            except Exception as exc:  # recorded, not fatal
                return {"eps": e, "tau": t, "worst_gap": None, "passed": False,
                        "energy": None, "stack": None, "error": str(exc)}
        return run

    results = _run_points([job(c) for c in combos], threads)
    checks = {}
    for t in tau_list:
        full_row = [r for r in results if r["tau"] == t]
        row = [r for r in full_row if r["error"] is None]
        energies = [r["energy"] for r in row]
        checks[f"energy_monotone_tau={t:g}"] = all(
            b >= a - 1e-10 * max(1.0, abs(a)) for a, b in zip(energies, energies[1:]))
        stacks = [r["stack"] for r in row]
        diffs = [float(np.abs(a.values - b.values).sum() * a.grid.cell_measure * a.h)
                 for a, b in zip(stacks, stacks[1:])]
        checks[f"l1_cauchy_tau={t:g}"] = all(
            b <= a + 1e-14 for a, b in zip(diffs, diffs[1:]))
        # errored points count as failures here (recorded, not fatal)
        checks[f"comparison_tau={t:g}"] = all(r["passed"] for r in full_row)
    points = [{k: v for k, v in r.items() if k != "stack"} for r in results]
    return SweepReport("eps-tau", points, checks)


def h_refinement_study(grid, nl, f_fn, N_list, M=64, slack_c=10.0, tol=1e-9,
                       threads=1, **kw):
    """Refine the slice count: self-convergence in L^1 and bounded energy.

    Interpolated solutions at successive N are compared exactly in y; the
    L^1 differences must decrease, the discrete H^1 norms stay bounded, and
    the comparison deficiency must not grow under refinement.
    """
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must increase")

    def job(N):
        def run():
            rep = verify_mass_comparison(grid, nl, f_fn=f_fn, N=N, M=M,
                                         slack_c=slack_c, tol=tol, **kw)
            return N, rep
        return run

    results = _run_points([job(N) for N in N_list], threads)
    interps = [y_interpolant(rep.u_stack) for _, rep in results]
    h1 = [it.h1_norm_sq() ** 0.5 for it in interps]
    diffs = [a.l1_distance(b) for a, b in zip(interps, interps[1:])]
    defic = [rep.deficiency for _, rep in results]
    checks = {
        "l1_self_convergence": all(b < a for a, b in zip(diffs, diffs[1:])),
        "h1_bounded": max(h1) <= 2.0 * min(h1),
        "comparison_all_pass": all(rep.passed for _, rep in results),
        "deficiency_non_increasing": all(b <= a + 1e-15 for a, b in zip(defic, defic[1:])),
    }
    points = [{"N": N, "h": 1.0 / (N + 1), "worst_gap": rep.worst_gap,
               "deficiency": rep.deficiency, "passed": rep.passed,
               "h1_norm": h1[i], "l1_diff_to_next": diffs[i] if i < len(diffs) else None}
              for i, (N, rep) in enumerate(results)]
    return SweepReport("h", points, checks, reports=[rep for _, rep in results])


def pipeline_subsolution_slack(u_stack, f_stack, law, s_grid):
    """Slack of the subsolution inequalities for a solved stack and its data."""
    return subsolution_slack(mass_functions_from_stack(u_stack, s_grid),
                             mass_functions_from_stack(f_stack, s_grid)[1:-1],
                             MassOperator(s_grid, law), f_stack.h)
