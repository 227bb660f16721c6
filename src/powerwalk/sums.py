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
the search engine and the full-walk phase check read too: x = cos^t phi on
each symmetry orbit of the modes (torus.mode_orbits, in lattice order) and
the orbit's mode count, about N/8 terms. The counts are powers of two, so
every scaled term is exact. ``exact_sum`` adds each array of terms correctly
rounded (math.fsum's value), so no sum depends on the evaluation order. It
takes one round of vector passes, and more only where a bounded plain sum of
the remainder leaves the rounding open.
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


def exact_sum(p: np.ndarray, buf: np.ndarray) -> float:
    """Correctly rounded sum of the float64 array p: math.fsum's value.

    Error-free extraction (Rump, Ogita & Oishi 2008, "Accurate floating-point
    summation part I"). With sigma a power of two at least (n + 2) max|p|,
    q = (sigma + p) - sigma and p - q are exact, and the q are multiples of
    ulp(sigma)/2 whose partial sums stay below sigma, so np.sum(q) is exact in
    any order. Each remainder r is then at most ulp(sigma)/2, so a plain
    np.sum(r) in any order is within a slack of its exact value. Rounding is
    monotone: when math.fsum rounds partials + np.sum(r) -+ slack to one float,
    that float is the exact total rounded, so the exit changes no result;
    otherwise the next round extracts the remainder. Overwrites p (it ends
    holding the remainder) and buf, a scratch array of p's shape. Raises
    ValueError on a NaN or infinite term and when (n + 2) max|p| overflows.
    """
    room = (p.size + 1).bit_length()  # ceil(log2(n + 2))
    partials = []
    while True:
        top = float(np.abs(p, out=buf).max(initial=0.0))
        if top == 0.0:
            return math.fsum(partials)
        if not math.isfinite(top):
            raise ValueError(f"exact_sum of a non-finite term ({top})")
        exponent = math.frexp(top)[1] + room
        if exponent > 1023:
            raise ValueError(f"exact_sum of {p.size} terms up to {top} overflows")
        sigma = math.ldexp(1.0, exponent)
        np.add(p, sigma, out=buf)
        buf -= sigma
        partials.append(float(np.sum(buf)))
        p -= buf
        # |r| <= 2^(exponent - 53) and n < 2^room, so np.sum(p) is off by less
        # than (n - 1) u n 2^(exponent - 53) < 2^(exponent + 2 room - 106); the
        # slack is twice that. Where it underflows to 0 the bound is below
        # 2^-1074, and an addition's error is a multiple of 2^-1074: it is 0.
        rest = float(np.sum(p))
        slack = math.ldexp(1.0, exponent + 2 * room - 105)
        lo = math.fsum(partials + [rest, -slack])
        if lo == math.fsum(partials + [rest, slack]):
            return lo


@functools.lru_cache(maxsize=1)
def _workspace(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    """Four orbit-sized scratch rows for the analytic layer of one side.

    Above about 16k orbits (L = 360) an orbit-sized array passes glibc's
    default 128 KB mmap threshold, so freeing it returns its pages to the
    kernel and the next record faults them in again. These rows stay mapped
    for the side, and a row no call touches is never resident. They are
    separate arrays: one (4, orbits) block would pass numpy's 4 MiB huge-page
    advice at L = 1001, where touching a row can make a whole 2 MB page
    resident.

    grid_sums, _telescoped_sum, search.compute_alpha and search.return_moments
    take their scratch here. The rule that keeps rows from aliasing: a function
    holds rows only during its own call and calls nothing else that takes rows
    meanwhile (compute_alpha takes its rows only after alpha_estimate has run
    grid_sums), and no returned or cached array is ever a row. The rows are
    shared by the whole process, so records run one at a time.
    """
    n = mode_orbits(grid)[0].size
    return tuple(np.empty(n) for _ in range(4))


@functools.lru_cache(maxsize=1)
def orbit_measure(grid: TorusGrid, t: int) -> tuple[np.ndarray, np.ndarray]:
    """x = cos^t phi and mode count per orbit, read-only. The cache keeps the
    last (grid, t): one search or tulsi record reads no other.

    x is |cos|^t, with the sign of cos put back for odd t. numpy's SIMD
    power kernel takes non-negative bases only and sends a negative one to a
    scalar pow that can round differently, so powering |cos| keeps every
    orbit on one routine and makes x(-c) = -x(c) (odd t) exact. At t = 1 that
    is cos itself, so the measure is the orbit table.
    """
    cos, count = mode_orbits(grid)
    if t == 1:
        return cos, count
    x = np.abs(cos)
    np.power(x, t, out=x)
    if t % 2:
        np.copysign(x, cos, out=x)
    x.flags.writeable = False
    return x, count


@functools.lru_cache(maxsize=8)
def _telescoped_sum(grid: TorusGrid) -> float:
    """sum 1/(1 - cos phi_k) over the nonzero modes: t times the lower bound
    of S1 at every t, so a sweep sums it once per side (cached as mode_orbits)."""
    cos, count = mode_orbits(grid)
    terms, buf = _workspace(grid)[:2]
    np.divide(count, np.subtract(1.0, cos, out=buf), out=terms)
    return exact_sum(terms, buf)


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
    lower = _telescoped_sum(grid) / t  # before this call takes its rows
    terms, buf, gap = _workspace(grid)[:3]
    np.subtract(1.0, x, out=gap)
    # At t = 1 the S1 terms are the telescoped ones, count / (1 - cos).
    S1 = lower if t == 1 else exact_sum(np.divide(count, gap, out=terms), buf)
    np.square(gap, out=terms)
    S2 = exact_sum(np.divide(count, terms, out=terms), buf)
    np.add(1.0, x, out=terms)
    np.multiply(count, terms, out=terms)
    S3 = exact_sum(np.divide(terms, gap, out=terms), buf)

    shells = np.arange(1, grid.side // 2 + 1)
    shell_terms = shells / (1.0 - np.exp(-4.0 * shells**2 * t / N))
    upper = 8.0 * exact_sum(shell_terms, np.empty_like(shell_terms))
    return GridSums(side=grid.side, t=t, S1=S1, S2=S2, S3=S3, lower=lower, upper=upper)
