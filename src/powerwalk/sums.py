"""Grid eigenphase sums governing search performance, with bracketing bounds.

Three sums over the nonzero Fourier modes of the torus drive the principal
eigenphase and the two overlap factors:

    S1 = sum 1/(1 - cos^t phi_k)
    S2 = sum 1/(1 - cos^t phi_k)^2
    S3 = sum cot^2(phi^(t)_k / 2)

S3 = 1 - N + 2*S1 exactly (cot^2 = cosec^2 - 1). S1 is bracketed below by
(1/t) sum 1/(1 - cos phi_k) (telescoping the geometric factor) and above by
the square-shell bound 8 sum_l l / (1 - exp(-4 l^2 t / N)).

The sums read ``orbit_measure``, the one (x, weight) measure of (L, t) that
the search engine reads too: x = cos^t phi on each symmetry orbit of the modes
(torus.mode_orbits) and the orbit's mode count, about N/8 terms. The counts
are powers of two, so every scaled term is exact, and compensated (exact)
summation makes the result independent of the evaluation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .torus import TorusGrid, mode_orbits

# Largest GridSums.identity_residual that the S3 = 1 - N + 2*S1 check accepts.
IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class GridSums:
    side: int
    t: int
    S1: float
    S2: float
    S3: float
    lower: float
    upper: float

    @property
    def vertex_count(self) -> int:
        return self.side * self.side

    def identity_residual(self) -> float:
        """Relative residual of S3 = 1 - N + 2*S1."""
        expected = 1.0 - self.vertex_count + 2.0 * self.S1
        return abs(self.S3 - expected) / max(abs(self.S3), 1.0)

    def bracketed(self) -> bool:
        return self.lower <= self.S1 <= self.upper


@functools.lru_cache(maxsize=1)
def orbit_measure(grid: TorusGrid, t: int) -> tuple[np.ndarray, np.ndarray]:
    """x = cos^t phi and mode count per orbit, read-only. The cache keeps the
    last (grid, t): one search or tulsi record reads no other."""
    cos, count = mode_orbits(grid)
    x = cos**t
    x.flags.writeable = False
    return x, count


@functools.lru_cache(maxsize=8)
def _telescoped_sum(grid: TorusGrid) -> float:
    """sum 1/(1 - cos phi_k) over the nonzero modes: t times the lower bound
    of S1 at every t, so a sweep sums it once per side (cached as mode_orbits)."""
    cos, count = mode_orbits(grid)
    return math.fsum((count / (1.0 - cos)).tolist())


def check_finite(grid: TorusGrid, t: int) -> None:
    """Raise ValueError unless the sums of (L, t) are finite."""
    if t < 1:
        raise ValueError(f"power must be >= 1, got {t}")
    if t % 2 == 0 and grid.side % 2 == 0:  # the (L/2, L/2) orbit has x = 1
        raise ValueError(f"S1, S2 and S3 diverge at even t={t} on even L={grid.side}")


def grid_sums(grid: TorusGrid, t: int) -> GridSums:
    """Evaluate S1, S2, S3 and the S1 bracket by exact summation over orbits."""
    check_finite(grid, t)
    N = grid.vertex_count
    x, count = orbit_measure(grid, t)
    one_minus = 1.0 - x
    # math.fsum reads a list of floats faster than an array
    S1 = math.fsum((count / one_minus).tolist())
    S2 = math.fsum((count / one_minus**2).tolist())
    S3 = math.fsum((count * (1.0 + x) / one_minus).tolist())
    lower = _telescoped_sum(grid) / t

    shells = np.arange(1, grid.side // 2 + 1)
    upper = 8.0 * math.fsum(shells / (1.0 - np.exp(-4.0 * shells**2 * t / N)))
    return GridSums(side=grid.side, t=t, S1=S1, S2=S2, S3=S3, lower=lower, upper=upper)
