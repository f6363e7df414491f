"""Command-line entry point: solve, star-check, compare, sweep.

Every run writes a ``manifest.json`` recording the config hash, seed,
library versions, per-stage wall clock and artifact paths; identical
(config, seed) pairs reproduce identical CSV bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .compare import (ComparisonError, PipelineError, _stage, epsilon_tau_sweep,
                      h_refinement_study, sample_data, solvable_law,
                      verify_lq_consequence, verify_mass_comparison)
from .config import _SCHEMA, ConfigError, parse_config
from .grids import make_radial_grid
from .mass_ode import (MassOperator, mass_functions_from_stack,
                       subsolution_slack, t_accretivity_check)
from .solver import DiscreteProblem, SolverError, solve_stack


@dataclass
class RunManifest:
    subcommand: str
    config_hash: str
    seed: int
    versions: dict
    wall_clock: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)

    def write(self, out_dir):
        path = os.path.join(out_dir, "manifest.json")
        _write_json(path, {
            "subcommand": self.subcommand,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "versions": self.versions,
            "wall_clock": {k: round(v, 6) for k, v in self.wall_clock.items()},
            "artifacts": sorted(self.artifacts),
        })
        return path


def _versions():
    return {"anisosym": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3]))}


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(cfg, args, subcommand):
    digest = hashlib.sha256(cfg.raw.encode()).hexdigest()
    seed = args.seed if args.seed is not None else cfg.seed
    return RunManifest(subcommand, digest, seed, _versions())


def _problem(cfg):
    """The config's one problem: grid, law, data function, verify keywords."""
    kw = dict(N=cfg["slices.N"], M=cfg["sgrid.M"], grading=cfg["sgrid.grading"],
              eps=cfg["regularization.eps"], tau=cfg["regularization.tau"],
              slack_c=cfg["slack_c"], tol=cfg["tol"], mollify=cfg["f.mollify"])
    return cfg.build_grid(), cfg.build_nonlinearity(), cfg.data_function(), kw


def _cmd_solve(cfg, args, out_dir, manifest):
    grid, nl, f_fn, kw = _problem(cfg)
    law = solvable_law(nl, kw["eps"], kw["tau"])
    f = _stage("data", lambda: sample_data(grid, kw["N"], f_fn, kw["mollify"]),
               manifest.wall_clock)
    t0 = time.perf_counter()
    sol = solve_stack(DiscreteProblem(grid, law, f), kw["tol"])
    manifest.wall_clock["solve"] = time.perf_counter() - t0
    sol_path = os.path.join(out_dir, "solution.csv")
    with open(sol_path, "w") as fh:
        fh.write(("x,j,u\n" if grid.n == 1 else "x,y,j,u\n"))
        for j in range(sol.stack.values.shape[0]):
            for c, v in zip(grid.centers, sol.stack.values[j]):
                coords = ",".join(f"{x:.17g}" for x in c)
                fh.write(f"{coords},{j},{v:.17g}\n")
    energy_path = os.path.join(out_dir, "energy.json")
    _write_json(energy_path, {"energy": sol.energy, "residual": sol.residual_norm,
                              "iterations": sol.iterations, "converged": sol.converged})
    manifest.artifacts += [sol_path, energy_path]
    return 0


def _cmd_star_check(cfg, args, out_dir, manifest):
    grid, nl, f_fn, kw = _problem(cfg)
    law = solvable_law(nl, kw["eps"], kw["tau"])
    s_grid = make_radial_grid(grid.n, grid.total_measure, kw["M"], kw["grading"])
    op = MassOperator(s_grid, law)
    t0 = time.perf_counter()
    rep = t_accretivity_check(op, trials=cfg["trials"], lambdas=cfg["lambdas"],
                              rng=np.random.default_rng(manifest.seed))
    manifest.wall_clock["accretivity"] = time.perf_counter() - t0
    acc_path = os.path.join(out_dir, "accretivity.json")
    payload = rep.to_dict()
    payload.update({"n": grid.n, "law": law.name, "seed": manifest.seed})
    _write_json(acc_path, payload)

    f = _stage("data", lambda: sample_data(grid, kw["N"], f_fn, kw["mollify"]),
               manifest.wall_clock)
    t0 = time.perf_counter()
    sol = solve_stack(DiscreteProblem(grid, law, f), kw["tol"])
    slack = subsolution_slack(mass_functions_from_stack(sol.stack, s_grid),
                              mass_functions_from_stack(f, s_grid)[1:-1], op, f.h)
    manifest.wall_clock["subsolution"] = time.perf_counter() - t0
    sub_path = os.path.join(out_dir, "subsolution.csv")
    with open(sub_path, "w") as fh:
        fh.write("j,s,slack\n")
        for j in range(slack.shape[0]):
            for i, s in enumerate(s_grid.s_nodes[1:]):
                fh.write(f"{j + 1},{s:.17g},{slack[j, i]:.17g}\n")
    manifest.artifacts += [acc_path, sub_path]
    return 0 if rep.passed else 1


def _cmd_compare(cfg, args, out_dir, manifest):
    grid, nl, f_fn, kw = _problem(cfg)
    rep = verify_mass_comparison(grid, nl, f_fn=f_fn, **kw)
    manifest.wall_clock.update(rep.timings)
    csv_path = os.path.join(out_dir, "comparison.csv")
    rep.write_csv(csv_path)
    payload = rep.to_dict()
    payload["lq"] = {}
    for q in cfg["lq"]:
        try:
            lhs, rhs = verify_lq_consequence(rep, q)
            payload["lq"][f"{q:g}"] = {"lhs": lhs, "rhs": rhs, "passed": True}
        except ComparisonError as exc:
            payload["lq"][f"{q:g}"] = {"error": str(exc), "passed": False}
            payload["passed"] = False
    report_path = os.path.join(out_dir, "report.json")
    _write_json(report_path, payload)
    manifest.artifacts += [csv_path, report_path]
    return 0 if payload["passed"] else 1


def _cmd_sweep(cfg, args, out_dir, manifest):
    grid, nl, f_fn, kw = _problem(cfg)
    t0 = time.perf_counter()
    if args.param == "h":
        del kw["N"]
        rep = h_refinement_study(grid, nl, f_fn, [int(v) for v in args.values], **kw)
    else:
        lists = {"eps": [kw.pop("eps")], "tau": [kw.pop("tau")], args.param: args.values}
        rep = epsilon_tau_sweep(grid, nl, f_fn, lists["eps"], lists["tau"], **kw)
    manifest.wall_clock["sweep"] = time.perf_counter() - t0
    sweep_path = os.path.join(out_dir, "sweep.json")
    _write_json(sweep_path, rep.to_dict())
    manifest.artifacts.append(sweep_path)
    if rep.reports is not None:
        for pt, full in zip(rep.points, rep.reports):
            path = os.path.join(out_dir, f"comparison_N{pt['N']}.csv")
            full.write_csv(path)
            manifest.artifacts.append(path)
    return 0 if rep.passed else 1


def main(argv=None):
    # The global flags are accepted both before and after the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the config seed")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (default: config)")
    parser = argparse.ArgumentParser(
        prog="anisosym", parents=[common],
        description="Sliced solver and symmetrization comparison checks for "
                    "anisotropic quasilinear Dirichlet problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "star-check", "compare"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--config", required=True)
    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--config", required=True)
    p.add_argument("--param", choices=("eps", "tau", "h"), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated parameter values")
    args = parser.parse_args(argv)
    # flags carry SUPPRESS defaults so either position survives the merge
    args.seed = getattr(args, "seed", None)
    args.out = getattr(args, "out", None)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, base_dir=os.path.dirname(os.path.abspath(args.config)))
    except ConfigError as exc:
        for ln, msg in exc.errors:
            print(f"config error line {ln}: {msg}", file=sys.stderr)
        return 2

    if hasattr(args, "values") and isinstance(args.values, str):
        try:
            args.values = [float(tok) for tok in args.values.split(",") if tok]
        except ValueError:
            print("config error line 0: --values must be comma-separated numbers",
                  file=sys.stderr)
            return 2
        if not args.values or (args.param == "h" and not all(v.is_integer() and v >= 1
                                                               for v in args.values)):
            print("config error line 0: --values must list at least one value, and slice "
                  "counts (integers >= 1) for h", file=sys.stderr)
            return 2
        if args.param != "h":           # the config key's own range
            _, valid, desc, _ = _SCHEMA[("solver", f"regularization.{args.param}")]
            if not all(valid(v) for v in args.values):
                print(f"config error line 0: --values for {args.param} out of range: "
                      f"expected {desc}", file=sys.stderr)
                return 2

    out_dir = args.out or cfg["dir"]
    os.makedirs(out_dir, exist_ok=True)
    manifest = _manifest(cfg, args, args.command)

    try:
        t0 = time.perf_counter()
        if args.command == "solve":
            code = _cmd_solve(cfg, args, out_dir, manifest)
        elif args.command == "star-check":
            code = _cmd_star_check(cfg, args, out_dir, manifest)
        elif args.command == "compare":
            code = _cmd_compare(cfg, args, out_dir, manifest)
        else:
            code = _cmd_sweep(cfg, args, out_dir, manifest)
        manifest.wall_clock["total"] = time.perf_counter() - t0
    except (PipelineError, SolverError, ValueError) as exc:
        stage, message = ((exc.stage, exc.message) if isinstance(exc, PipelineError)
                          else ("run", exc))
        print(f"stage failure [{stage}]: {message}", file=sys.stderr)
        return 1
    manifest.artifacts.append(manifest.write(out_dir))
    return code


if __name__ == "__main__":
    sys.exit(main())
