"""Experiment configuration: INI-style text with sectioned dotted keys.

Format::

    [problem]
    nl.kind = p_laplacian        # p_laplacian | shifted_p | table
    nl.p = 3
    omega1.kind = interval       # interval | square | disk
    omega1.size = 1.0
    omega1.resolution = 64
    slices.N = 7
    sgrid.M = 64
    sgrid.grading = auto         # auto | uniform | sqrt
    f.expr = sin(pi*x) * (1 + y)

    [solver]
    tol = 1e-9
    regularization.eps = 1e-6
    regularization.tau = 1e-6

    [verify]
    slack_c = 10

    [output]
    dir = out

Parsing reports every error it finds (with line numbers), not just the
first; unknown keys, type mismatches, range violations and duplicates are
all collected.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass

import numpy as np

from .grids import make_disk_grid, make_interval_grid, make_square_grid
from .nonlinearity import from_beta_table, make_p_laplacian, shifted_p


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(f"line {ln}: {msg}" for ln, msg in self.errors))


_ALLOWED_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "sinh": np.sinh, "cosh": np.cosh,
    "tanh": np.tanh, "arctan": np.arctan, "maximum": np.maximum,
    "minimum": np.minimum, "where": np.where,
}
_ALLOWED_NAMES = {"x", "x1", "x2", "r", "y", "pi", "e"} | set(_ALLOWED_FUNCS)

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod,
    ast.USub, ast.UAdd, ast.Compare, ast.Gt, ast.GtE, ast.Lt, ast.LtE,
)


def compile_expression(text):
    """Compile a data expression over a whitelisted numeric namespace.

    Returns a callable (centers, y) -> values.  Raises ValueError for
    syntax errors, unknown names, or disallowed constructs.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"syntax error in expression: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"disallowed construct {type(node).__name__!r} in expression")
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES:
            raise ValueError(f"unknown name {node.id!r} in expression")
        if isinstance(node, ast.Call) and (
                not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS):
            raise ValueError("only whitelisted function calls are allowed in expressions")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError("only numeric constants are allowed in expressions")
    code = compile(tree, "<f.expr>", "eval")

    def fn(centers, y):
        env = dict(_ALLOWED_FUNCS)
        env.update({"pi": np.pi, "e": np.e, "y": float(y)})
        if centers.shape[1] == 1:
            env["x"] = centers[:, 0]
            env["r"] = np.abs(centers[:, 0])
        else:
            env["x1"] = centers[:, 0]
            env["x2"] = centers[:, 1]
            env["r"] = np.sqrt((centers ** 2).sum(axis=1))
        out = eval(code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(out, dtype=float), (centers.shape[0],)).copy()

    return fn


def _floats(v):
    return tuple(float(tok) for tok in v.split())


# (section, key) -> (parser, validator or None, description, default)
_SCHEMA = {
    ("problem", "nl.kind"): (str, lambda v: v in ("p_laplacian", "shifted_p", "table"),
                             "p_laplacian | shifted_p | table", "p_laplacian"),
    ("problem", "nl.p"): (float, lambda v: v > 1.0, "> 1", 2.0),
    ("problem", "nl.tau"): (float, lambda v: v >= 0.0, ">= 0", 0.0),
    ("problem", "nl.table"): (str, None, "path to (t, beta) table", None),
    ("problem", "omega1.kind"): (str, lambda v: v in ("interval", "square", "disk"),
                                 "interval | square | disk", "interval"),
    ("problem", "omega1.size"): (float, lambda v: v > 0.0, "> 0", 1.0),
    ("problem", "omega1.resolution"): (int, lambda v: v >= 4, ">= 4", 64),
    ("problem", "slices.N"): (int, lambda v: v >= 1, ">= 1", 7),
    ("problem", "sgrid.M"): (int, lambda v: v >= 4, ">= 4", 64),
    ("problem", "sgrid.grading"): (str, lambda v: v in ("auto", "uniform", "sqrt"),
                                   "auto | uniform | sqrt", "auto"),
    ("problem", "f.expr"): (str, None, "expression in x[,x1,x2,r], y", None),
    ("problem", "f.csv"): (str, None, "path to gridded data (j,cell,value)", None),
    ("problem", "f.mollify"): (float, lambda v: v >= 0.0, ">= 0", 0.0),
    ("solver", "tol"): (float, lambda v: v > 0.0, "> 0", 1e-9),
    ("solver", "regularization.eps"): (float, lambda v: v > 0.0, "> 0", 1e-6),
    ("solver", "regularization.tau"): (float, lambda v: v >= 0.0, ">= 0", 1e-6),
    ("verify", "slack_c"): (float, lambda v: v > 0.0, "> 0", 10.0),
    ("verify", "lq"): (_floats, lambda v: all(q >= 1.0 for q in v),
                       "space-separated q >= 1", (1.0, 2.0)),
    ("verify", "radial_tol"): (float, lambda v: v > 0.0, "> 0", 1e-8),
    ("verify", "trials"): (int, lambda v: v >= 1, ">= 1", 1000),
    ("verify", "lambdas"): (_floats, lambda v: all(l > 0.0 for l in v),
                            "space-separated > 0", (0.01, 1.0, 100.0)),
    ("verify", "seed"): (int, None, "rng seed", 12345),
    ("output", "dir"): (str, None, "output directory", "out"),
}


@dataclass
class ExperimentConfig:
    """Validated experiment description; ``raw`` keeps the source text."""

    values: dict
    raw: str = ""
    base_dir: str = "."

    def __getitem__(self, key):
        return self.values[key]

    @property
    def seed(self):
        return self.values["seed"]

    def build_grid(self):
        kind = self.values["omega1.kind"]
        size = self.values["omega1.size"]
        res = self.values["omega1.resolution"]
        if kind == "interval":
            return make_interval_grid(size, res)
        if kind == "square":
            return make_square_grid(size, res)
        return make_disk_grid(size, res)

    def build_nonlinearity(self):
        kind = self.values["nl.kind"]
        if kind == "p_laplacian":
            return make_p_laplacian(self.values["nl.p"])
        if kind == "shifted_p":
            return shifted_p(self.values["nl.p"], self.values["nl.tau"])
        return from_beta_table(os.path.join(self.base_dir, self.values["nl.table"]),
                               p=self.values["nl.p"])

    def data_function(self):
        """The data sampler f(centers, y), from expression or CSV."""
        if self.values["f.expr"] is not None:
            return compile_expression(self.values["f.expr"])
        path = os.path.join(self.base_dir, self.values["f.csv"])
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        N = self.values["slices.N"]
        h = 1.0 / (N + 1)
        rows = {}
        for j, cell, value in table:
            rows.setdefault(int(round(j)), {})[int(round(cell))] = float(value)

        def fn(centers, y):
            j = int(round(y / h))
            row = rows.get(j, {})
            cells = range(centers.shape[0])
            missing = [i for i in cells if i not in row]
            if missing or len(row) != len(cells):
                where = f"cell {missing[0]} of " if missing else ""
                raise ValueError(f"f.csv does not cover {where}slice {j} on this grid")
            return np.array([row[i] for i in cells])

        return fn


def parse_config(text, base_dir="."):
    """Parse and validate; raises ConfigError carrying every found problem."""
    errors = []
    seen = {}
    values = {key: spec[3] for (_, key), spec in _SCHEMA.items()}
    sections = {"problem", "solver", "verify", "output"}
    section = None
    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                errors.append((ln, f"unknown section [{name}]"))
                section = name  # keep parsing to catch more problems
            else:
                section = name
            continue
        if "=" not in line:
            errors.append((ln, f"cannot parse {rawline.strip()!r}; expected key = value"))
            continue
        key, _, raw_val = line.partition("=")
        key = key.strip()
        val = raw_val.strip()
        if section is None:
            errors.append((ln, f"key {key!r} appears before any section"))
            continue
        spec = _SCHEMA.get((section, key))
        if spec is None:
            if any(k == key for s, k in _SCHEMA if s != section):
                errors.append((ln, f"key {key!r} does not belong in section [{section}]"))
            else:
                errors.append((ln, f"unknown key {key!r} in section [{section}]"))
            continue
        if (section, key) in seen:
            errors.append((ln, f"duplicate key {key!r}; first set on line {seen[(section, key)]}"))
            continue
        seen[(section, key)] = ln
        parser, validator, desc, _ = spec
        try:
            parsed = parser(val)
        except ValueError:
            errors.append((ln, f"cannot parse value for {key!r}: expected {desc}"))
            continue
        if validator is not None and not validator(parsed):
            errors.append((ln, f"value for {key!r} out of range: expected {desc}"))
            continue
        values[key] = parsed

    if values["f.expr"] is not None and values["f.csv"] is not None:
        where = max(seen.get(("problem", "f.expr"), 0), seen.get(("problem", "f.csv"), 0))
        errors.append((where, "set only one of f.expr and f.csv"))
    if values["f.expr"] is None and values["f.csv"] is None:
        errors.append((0, "one of f.expr or f.csv is required"))
    if values["omega1.kind"] == "disk" and values["omega1.resolution"] < 8:
        errors.append((seen.get(("problem", "omega1.resolution"), 0),
                       "omega1.kind = disk needs omega1.resolution >= 8"))
    if values["nl.kind"] == "table" and values["nl.table"] is None:
        errors.append((0, "nl.kind = table requires nl.table"))
    for key in ("nl.table", "f.csv"):
        if values[key] is not None:
            path = os.path.join(base_dir, values[key])
            if not os.path.exists(path):
                errors.append((seen.get(("problem", key), 0), f"file not found: {path}"))
    if values["f.expr"] is not None:
        try:
            compile_expression(values["f.expr"])
        except ValueError as exc:
            errors.append((seen.get(("problem", "f.expr"), 0), str(exc)))

    if errors:
        raise ConfigError(sorted(errors))
    return ExperimentConfig(values, text, base_dir)
