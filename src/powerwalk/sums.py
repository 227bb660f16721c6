"""Grid eigenphase sums governing search performance, with bracketing bounds.

Three sums over the nonzero Fourier modes of the torus drive the principal
eigenphase and the two overlap factors:

    S1 = sum 1/(1 - cos^t phi_k)
    S2 = sum 1/(1 - cos^t phi_k)^2
    S3 = sum cot^2(phi^(t)_k / 2)

S3 = 1 - N + 2*S1 exactly (cot^2 = cosec^2 - 1). S1 is bracketed below by
(1/t) sum 1/(1 - cos phi_k) (telescoping the geometric factor) and above by
the square-shell bound 8 sum_l l / (1 - exp(-4 l^2 t / N)).

cos phi_k is constant on the symmetry orbits of the modes (torus.mode_orbits),
so each sum runs over about N/8 orbit terms, each scaled by its mode count.
The counts are powers of two, so every scaled term is exact, and compensated
(exact) summation makes the result independent of the evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .torus import TorusGrid, mode_orbits


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


def grid_sums(grid: TorusGrid, t: int) -> GridSums:
    """Evaluate S1, S2, S3 and the S1 bracket by exact summation over orbits."""
    if t < 1:
        raise ValueError(f"power must be >= 1, got {t}")
    N = grid.vertex_count
    cos, count = mode_orbits(grid)
    cos_t = cos**t
    one_minus = 1.0 - cos_t
    # math.fsum reads a list of floats faster than an array
    S1 = math.fsum((count / one_minus).tolist())
    S2 = math.fsum((count / one_minus**2).tolist())
    S3 = math.fsum((count * (1.0 + cos_t) / one_minus).tolist())
    lower = math.fsum((count / (1.0 - cos)).tolist()) / t

    shells = np.arange(1, grid.side // 2 + 1)
    upper = 8.0 * math.fsum(shells / (1.0 - np.exp(-4.0 * shells**2 * t / N)))
    return GridSums(side=grid.side, t=t, S1=S1, S2=S2, S3=S3, lower=lower, upper=upper)
