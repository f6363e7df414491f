"""Seeded workload generator for the anisosym benchmark.

Each workload is a fixed problem shape (grid, law, slice and radial counts)
plus data built from a seed.  Seed 0 gives exactly the reference
configurations documented in ``bench/README.md``.  On a workload with
``jitter``, any other seed moves every bump centre by up to ``CENTRE_SHIFT``
along each axis and scales every bump amplitude by a factor in
``AMPLITUDE_RANGE``.  The library only ever receives the generated ``f_fn``,
so a claim can be re-checked on a seed that was not used while writing it.

``ode31`` and ``stiff15`` have no jitter: their cost is not a smooth function
of the data.  Moving the centre by up to 0.01 and the amplitude by up to 3 %
changes the mass-ODE resolvent count on ``ode31`` from 6,541 to
5,704-9,021 over seeds 1-8.  Moving the centres by up to 0.001 and the
amplitudes by up to 0.5 % sends the stiff Newton on ``stiff15`` from 323
iterations to 114-397, or to no convergence within 500 iterations (3 of 8
seeds).  Jittered, those workloads would measure the data draw instead of
the code (see README.md).
"""

from dataclasses import dataclass

import numpy as np

from anisosym import make_interval_grid, make_p_laplacian, make_square_grid

DEFAULT_SEED = 0
CENTRE_SHIFT = 0.03
AMPLITUDE_RANGE = (0.9, 1.1)


@dataclass(frozen=True)
class Bump:
    """amplitude * exp(-width * |x - centre|^2) * y_factor(y)."""

    amplitude: float
    width: float
    centre: tuple
    y_kind: str          # "sin" -> (1 + y_amp sin(pi y)), "linear" -> (1 + y), "flat" -> 1
    y_amp: float = 0.0

    def __call__(self, c, y):
        d2 = sum((c[:, k] - x0) ** 2 for k, x0 in enumerate(self.centre))
        if self.y_kind == "sin":
            fy = 1 + self.y_amp * np.sin(np.pi * y)
        elif self.y_kind == "linear":
            fy = 1 + y
        else:
            fy = 1.0
        return self.amplitude * np.exp(-self.width * d2) * fy


@dataclass(frozen=True)
class Data:
    """Sum of bumps; the callable the library receives as ``f_fn``."""

    bumps: tuple

    def __call__(self, c, y):
        out = self.bumps[0](c, y)
        for b in self.bumps[1:]:
            out = out + b(c, y)
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    grid_kind: str       # "square" or "interval"
    cells: int           # cells per axis
    p: float
    N: int
    M: int
    grading: str
    bumps: tuple
    jitter: bool

    def build(self, seed):
        """Return (grid, law, f_fn, kwargs) for one verify_mass_comparison call."""
        if self.grid_kind == "square":
            grid = make_square_grid(1.0, self.cells)
        else:
            grid = make_interval_grid(1.0, self.cells)
        law = make_p_laplacian(self.p)
        f_fn = Data(perturb(self.bumps, seed) if self.jitter else self.bumps)
        return grid, law, f_fn, {"N": self.N, "M": self.M, "grading": self.grading}


def perturb(bumps, seed):
    """Bumps for ``seed``: unchanged for the default seed, jittered otherwise."""
    if seed == DEFAULT_SEED:
        return tuple(bumps)
    rng = np.random.default_rng(seed)
    out = []
    for b in bumps:
        shift = rng.uniform(-CENTRE_SHIFT, CENTRE_SHIFT, size=len(b.centre))
        scale = rng.uniform(*AMPLITUDE_RANGE)
        out.append(Bump(b.amplitude * scale, b.width,
                        tuple(float(x + d) for x, d in zip(b.centre, shift)),
                        b.y_kind, b.y_amp))
    return tuple(out)


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # solver and grids: the 3,228-cell ball makes SuperLU dominate.
    Workload(
        "square2d", "square", 32, 3.0, 7, 48, "sqrt",
        (Bump(1.0, 8.0, (0.85, 0.5), "sin", 0.5),), jitter=True),
    # mass_ode: thousands of resolvent calls, trivial LU.
    Workload(
        "ode31", "interval", 64, 3.0, 31, 64, "uniform",
        (Bump(1.0, 60.0, (0.3,), "sin", 0.5),), jitter=False),
    # solver at p = 1.5: hundreds of cheap Newton steps, many law calls.
    Workload(
        "stiff15", "interval", 128, 1.5, 15, 64, "uniform",
        (Bump(1.0, 80.0, (0.25,), "flat"),
         Bump(0.7, 90.0, (0.7,), "linear")), jitter=False),
)}
