"""Reduced-space search engine for plain and ancilla-controlled torus search.

The search operator U_t = W_t O_t preserves the subspace spanned by the
uniform state and the non-real walk eigenvectors. In that subspace the walk is
a diagonal phase multiply e^{+-i phi^(t)_k}, phi^(t)_k = arccos(cos^t phi_k),
and the oracle is a rank-one reflection about the target's eigenbasis
coordinate vector, whose moduli on the torus are exactly a_0 = 1/sqrt(N) and
a_k = 1/sqrt(2N).

Tulsi's controlled search is the same operator with one more mode: an ancilla
rotated by ``delta`` adds a walk eigenvector of eigenphase pi carrying target
overlap sin(delta), and every walk-mode overlap shrinks by cos(delta). The
model's ``delta`` selects it; delta = 0 is plain search.

Modes related by the torus symmetries (swapping k_x and k_y, k -> L - k) share
their eigenphase, and the start state and target are symmetric within each
orbit, so the dynamics sees one (phase, weight) pair per orbit: about N/8 of
them. The +phi and -phi halves of every pair stay complex conjugates, so the
engine stores only the +phi half plus the real 0 and pi modes, and one search
step costs O(number of orbits).

One (x, weight) measure per (L, t), ``sums.orbit_measure`` with x_k =
cos phi^(t)_k = cos^t phi_k, feeds the secular root, the trajectory and the
grid sums S1, S2 and S3; as a_k^2 = 1/(2N), the closed-form alpha estimate
and both overlap factors are read off those sums (``SpectralModel.sums``).
It comes in the orbit table's lattice order; return_moments sorts by phase.

The trajectory a record reports comes from ``search_trajectory``, the one
production route: a power-series reciprocal over the return moments
h(m) = <T|D^m|T>, a type-1 non-uniform FFT of the orbit measure
(``return_moments``). A record then costs O(orbits * kernel width + Q log Q),
with no BLAS call, instead of the O(Q * orbits) of stepping the state.

The model holds the orbit measure and nothing per mode. Stepping the state,
the dense operator U_t over every mode and its eigendecomposition are test
oracles in tests/oracles.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sums import GridSums, _workspace, grid_sums, orbit_measure
from .torus import TorusGrid, mode_orbits

# Amplification rounds are budgeted when the p_s estimate falls below this.
AMPLIFICATION_THRESHOLD = 0.25

# Half-width in grid points of return_moments' Gaussian spreading kernel. At
# 2x oversampling the kernel's cut-off tail is exp(-3 pi width / 4), 5e-15 at
# 14, which bounds the moments' absolute error as sum |coefficient| <= 1.
SPREAD_HALF_WIDTH = 14

# |h(0) - 1| above this fails a trajectory row's moment check.
MOMENT_TOL = 1e-12


def nearest_odd(x: float) -> int:
    """Nearest odd integer to x (at least 1; ties go down)."""
    lo = max(1, 2 * int((x - 1) // 2) + 1)
    hi = lo + 2
    return lo if (x - lo) <= (hi - x) else hi


@dataclass
class SearchResult:
    """Analytic accounting of one search run: iterations, success probability
    estimate, amplification rounds and query costs.

    Q_G = t * Q_O is an exact integer identity: each walk step costs t calls
    to the rotation map.
    """

    Q: int
    p_s: float
    amplification_rounds: int
    Q_O: int
    Q_G: int


@functools.lru_cache(maxsize=1)
def _orbit_weights(grid: TorusGrid) -> np.ndarray:
    """count * a_k**2 per orbit, a_k = 1/sqrt(2N), read-only: every model of
    the side shares it."""
    ak = (2.0 * grid.vertex_count) ** -0.5
    weights = mode_orbits(grid)[1] * ak**2
    weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=1)
def _phase_order(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """Stable argsort of -cos (ascending phase at odd t) and the weights in it."""
    order = np.argsort(-mode_orbits(grid)[0], kind="stable")
    return order, _orbit_weights(grid)[order]


@dataclass
class SpectralModel:
    """Eigenphases and target overlaps driving the reduced-space search.

    Translation invariance makes every overlap modulus equal: a_k = 1/sqrt(2N)
    for k != 0 and a_0 = 1/sqrt(N), whichever vertex is marked, so the model
    names none. ``delta`` is the ancilla angle of the controlled search (0 for
    plain search).
    """

    grid: TorusGrid
    t: int
    delta: float = 0.0

    @property
    def a0(self) -> float:
        return self.grid.vertex_count**-0.5

    @cached_property
    def distinct_phases(self) -> tuple[np.ndarray, np.ndarray]:
        """One (cos phi^(t), weight) pair per symmetry orbit of the nonzero
        modes: the shared x of sums.orbit_measure, and the orbit's total
        squared overlap on the +phi side."""
        return orbit_measure(self.grid, self.t)[0], _orbit_weights(self.grid)

    @cached_property
    def sums(self) -> GridSums:
        """S1, S2 and S3 of (L, t): they fix alpha_estimate and both overlaps."""
        return grid_sums(self.grid, self.t)

    @property
    def phi1(self) -> float:
        """Smallest walk eigenphase, arccos of the largest x: the first, as orbit
        (0, 1) has the largest cos and x = cos^t rises with cos for odd t."""
        return math.acos(self.distinct_phases[0][0])


def build_model(grid: TorusGrid, t: int, delta: float = 0.0) -> SpectralModel:
    """Spectral search model for the t-step walk with one marked vertex.

    ``delta`` in [0, pi/2) is the ancilla angle of the controlled search.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError(f"search requires odd t >= 1, got {t}")
    if not 0.0 <= delta < math.pi / 2.0:
        raise ValueError(f"delta must lie in [0, pi/2), got {delta}")
    return SpectralModel(grid=grid, t=t, delta=delta)


def return_moments(model: SpectralModel, Q: int) -> np.ndarray:
    """h(m) = <T|D^m|T> for m = 0..Q: the return amplitudes of the target
    under the walk, D the diagonal phase multiply. h(0) = 1.

        h(m) = a0^2 cos^2(delta) + sin^2(delta) (-1)^m
               + sum_orbits 2 cos^2(delta) w cos(m theta),  theta = arccos x

    The orbit sum is a type-1 non-uniform FFT (Greengard & Lee 2004): each
    coefficient is spread onto a 2x oversampled grid of 4(Q+1) points with a
    Gaussian whose values at the 2*SPREAD_HALF_WIDTH nearest points factor as
    E1 * E2^l * E3(l), so only E1 and E2 cost an exp per orbit. Taken in
    ascending phase (_phase_order), each grid cell's orbits form one run,
    which np.add.reduceat sums pairwise, not term after term. One inverse FFT of
    the grid and a division by the Gaussian's Fourier coefficients leave the
    sum at every m, in O(orbits * width + Q log Q).
    """
    if Q < 0:
        raise ValueError(f"iteration count must be >= 0, got {Q}")
    from numpy import fft  # not loaded by importing numpy; only this route reads it

    order, weights = _phase_order(model.grid)
    # cell and e2 serve as scratch before they are formed, cell again once
    # occupied has read it; value holds x in phase order until the first offset
    # (mode "wrap" gathers straight into it, where "raise" would buffer).
    theta, cell, e2, value = _workspace(model.grid)
    x = np.take(model.distinct_phases[0], order, out=value, mode="wrap")
    c2, s2 = math.cos(model.delta) ** 2, math.sin(model.delta) ** 2
    width = SPREAD_HALF_WIDTH
    modes = 2 * (Q + 1)  # the NUFFT's mode range [-(Q+1), Q+1)
    size = 2 * modes
    spacing = 2.0 * math.pi / size
    tau = math.pi * width / (modes * modes * 3.0)  # pi w / (M^2 R (R - 1/2)), R = 2
    # atan2 keeps small phases at full precision, where arccos(x) would not:
    # theta = arctan2(sqrt((1 - x)(1 + x)), x).
    np.subtract(1.0, x, out=theta)
    np.multiply(theta, np.add(1.0, x, out=cell), out=theta)
    np.arctan2(np.sqrt(theta, out=theta), x, out=theta)
    np.floor(np.divide(theta, spacing, out=cell), out=cell)
    # The offset in [0, spacing), in theta's row.
    gap = np.subtract(theta, np.multiply(cell, spacing, out=e2), out=theta)
    # A run of equal cells starts where the cell changes; the first orbit opens one.
    np.subtract(cell[1:], cell[:-1], out=e2[1:])
    e2[0] = 1.0
    starts = np.flatnonzero(e2)
    occupied = cell[starts].astype(np.intp)
    np.exp(np.multiply(gap, spacing / (2.0 * tau), out=e2), out=e2)
    # E1 * E2^l at the first offset l = 1 - width, then one product per offset:
    # (2 c2) w exp(gap (gap / (-4 tau) + (1 - width) spacing / (2 tau))).
    np.divide(gap, -4.0 * tau, out=value)
    value += (1 - width) * spacing / (2.0 * tau)
    np.exp(np.multiply(gap, value, out=value), out=value)
    value *= np.multiply(2.0 * c2, weights, out=cell)
    grid = np.zeros(size)
    for offset in range(1 - width, width + 1):
        e3 = math.exp(-((offset * spacing) ** 2) / (4.0 * tau))
        np.add.at(grid, (occupied + offset) % size, e3 * np.add.reduceat(value, starts))
        value *= e2
    m = np.arange(Q + 1)
    h = fft.ifft(grid)[: Q + 1].real * (math.sqrt(math.pi / tau) * np.exp(m * m * tau))
    h += model.a0**2 * c2
    h[0::2] += s2
    h[1::2] -= s2
    return h


def search_trajectory(model: SpectralModel, moments: np.ndarray) -> np.ndarray:
    """The search trajectory, Q+1 success probabilities (before any step and
    after each), from the return moments h(0..Q) of return_moments in O(Q log Q).

    Unrolling psi_q = D R psi_{q-1}, R = I - 2|T><T| and psi_0 the uniform
    0 mode, gives the target overlaps the generating function a0 cos(delta) /
    ((1 - z) b(z)), b(z) = 1 + 2 sum_{m>=1} h(m) z^m, so p_s(q) = ov_q^2 with
    ov = a0 cos(delta) cumsum(g), g = 1/b mod z^(Q+1). h(0) does not enter it,
    so |h(0) - 1| is an independent reading of the moments' accuracy.

    g is solved term by term to 32 coefficients, then doubled by Newton's
    iteration g <- g - g (b g - 1) (Brent & Kung 1978), two steps per length
    so that error does not compound; the last residual b g - 1 is formed in
    long double. b's pi-mode part 2 sin^2(delta) (-1)^m peaks at z = -1, where
    an rfft product would lose digits, so its product is a cumulative sum.
    """
    from numpy import fft

    n = moments.size
    pi_mode = 2.0 * math.sin(model.delta) ** 2
    sign = np.ones(n)
    sign[1::2] = -1.0
    rest = 2.0 * moments - pi_mode * sign  # b without the pi mode
    rest[0] = 1.0
    lengths = [n]
    while lengths[-1] > 32:
        lengths.append((lengths[-1] + 1) // 2)
    g = np.ones(lengths.pop())
    for q in range(1, g.size):
        g[q] = -2.0 * np.sum(moments[q:0:-1] * g[:q])  # h(q), ..., h(1)
    for k in reversed(lengths):
        size = 1 << (2 * k - 2).bit_length()  # no wrap-around in a k x k product
        b = fft.rfft(rest[:k], size)
        g = np.concatenate([g, np.zeros(k - g.size)])
        for wide in (False, k == n):
            tg = fft.rfft(g, size)
            if wide:
                b, tg_ld = (fft.rfft(v.astype(np.longdouble), size) for v in (rest, g))
            residual = fft.irfft(b * (tg_ld if wide else tg), size)[:k].astype(float)
            residual[0] -= 1.0
            residual[1:] += pi_mode * sign[1:k] * np.cumsum(sign[: k - 1] * g[:-1])
            g -= fft.irfft(tg * fft.rfft(residual, size), size)[:k]
    overlap = model.a0 * math.cos(model.delta) * np.cumsum(g)
    return overlap * overlap


def alpha_estimate(model: SpectralModel) -> float:
    """Closed-form estimate of the principal eigenphase (Theta constant 1):

        a_0(delta) / sqrt(sum_{k!=0} a_k^2(delta) / (1 - cos phi^(t)_k)
                          + sin^2(delta) / 4)

    with a(delta) = a cos(delta). Every a_k^2 is 1/(2N), so the sum is
    cos^2(delta) S1 / (2N).
    """
    c = math.cos(model.delta)
    denom = c**2 * model.sums.S1 / (2.0 * model.grid.vertex_count)
    denom += math.sin(model.delta) ** 2 / 4.0
    if denom <= 0.0:
        raise ValueError("degenerate model: no nonzero-mode overlap")
    return float(model.a0 * c / math.sqrt(denom))


def compute_alpha(model: SpectralModel) -> tuple[float, float]:
    """(alpha_exact, alpha_estimate): the exact smallest nonzero eigenphase of
    U_t, and the closed form, which starts the root search.

    U_t restricted to the invariant subspace is a diagonal unitary times a
    rank-one reflection (Bunch, Nielsen & Sorensen 1978); its coupled
    eigenphases solve sum_j |T_j|^2 cot((alpha - theta_j)/2) = 0. Each +-phi
    pair combines into 2 sin(alpha) / (x - cos alpha), x = cos phi, and the
    pi mode's term is -tan(alpha/2):

        f(alpha) = a0^2(delta) cot(alpha/2) - sin^2(delta) tan(alpha/2)
                   + 2 cos^2(delta) sin(alpha) sum w / (x - cos alpha)

    f falls strictly from +inf to -inf on (0, phi_1), so the principal
    eigenphase is that interval's unique root. Newton steps from the estimate
    find it, each one pass over the orbits that also yields f' from
    sum w / (x - cos alpha)^2; a step that would leave the bracket of known
    signs bisects it instead.
    """
    est = alpha_estimate(model)
    x, weights = model.distinct_phases
    c2 = math.cos(model.delta) ** 2
    a02 = model.a0**2 * c2
    api2 = math.sin(model.delta) ** 2
    gaps, terms = _workspace(model.grid)[:2]  # taken after grid_sums has run
    lo, hi = 0.0, model.phi1
    alpha = min(est, 0.5 * hi)  # the estimate, kept inside the bracket
    for _ in range(100):
        cos, sin = math.cos(alpha), math.sin(alpha)
        half_tan = math.tan(alpha / 2.0)
        np.subtract(x, cos, out=gaps)
        np.divide(weights, gaps, out=terms)
        S = float(np.sum(terms))
        S2 = float(np.sum(np.divide(terms, gaps, out=terms)))
        f = a02 / half_tan + 2.0 * c2 * sin * S - api2 * half_tan
        # cot(a/2)' = -cot(a/2)/sin(a) and tan(a/2)' = tan(a/2)/sin(a)
        df = 2.0 * c2 * (cos * S - sin * sin * S2) - (
            a02 / half_tan + api2 * half_tan
        ) / sin
        step = -f / df
        if f > 0.0:
            lo = alpha
        elif f < 0.0:
            hi = alpha
        if abs(step) <= 1e-14 * alpha:  # quadratic: alpha + step is then exact
            return alpha + step, est
        alpha += step
        if not lo < alpha < hi:
            alpha = 0.5 * (lo + hi)
    raise RuntimeError("principal eigenphase root did not converge")


def overlap_ws(model: SpectralModel, alpha: float) -> float:
    """Start-state overlap with the principal rotation plane (Theta constant 1):

        1 - alpha^4 ( sum_{k!=0} (a_k^2/a_0^2) / (1 - cos phi^(t)_k)^2
                      + sin^2(delta) / a_0^2(delta) )

    Every a_k^2/a_0^2 is 1/2, so the bracket is S2/2 + N tan^2(delta).
    Valid when alpha < phi^(t)_1 / 2; the caller checks that precondition.
    """
    loss = model.sums.S2 / 2.0 + model.grid.vertex_count * math.tan(model.delta) ** 2
    return float(max(0.0, 1.0 - alpha**4 * loss))


def overlap_wt(model: SpectralModel) -> float:
    """Target overlap with the principal rotation plane (Theta constant 1):

        min( 1 / sqrt(sum_{k!=0} a_k^2(delta) cot^2(phi^(t)_k / 2)), 1 )

    The cotangent is squared at half the eigenphase (not a quarter), so the
    sum is cos^2(delta) S3 / (2N); the pi mode adds cot^2(pi/2) = 0, so the
    controlled overlap gains 1/cos(delta).
    """
    total = math.cos(model.delta) ** 2 * model.sums.S3 / (2.0 * model.grid.vertex_count)
    return min(1.0, total**-0.5) if total > 0.0 else 1.0


def success_probability(model: SpectralModel, alpha: float) -> SearchResult:
    """Analytic success probability and query accounting at Q = floor(pi/2a).

    ``alpha`` is the model's principal eigenphase (compute_alpha). p_s is the
    three-factor product cos^2(alpha) * ws^2 * wt^2. When it falls below
    AMPLIFICATION_THRESHOLD, ceil(1/sqrt(p_s)) amplification rounds are
    budgeted and Q_O = (rounds + 1) * Q; Q_G = t * Q_O always.

    This is the Theta(1)-constant estimate, not a bound: it can sit above the
    measured p_s (0.304 against 0.132 at L=257, t=1). A measured trajectory
    value (search_trajectory) is the authoritative number on any one instance.
    """
    Q = math.floor(math.pi / (2.0 * alpha))
    ws = overlap_ws(model, alpha)
    wt = overlap_wt(model)
    p_s = min(1.0, math.cos(alpha) ** 2 * ws**2 * wt**2)
    rounds = math.ceil(1.0 / math.sqrt(p_s)) if p_s < AMPLIFICATION_THRESHOLD else 0
    Q_O = (rounds + 1) * Q
    return SearchResult(Q, p_s, rounds, Q_O, model.t * Q_O)
