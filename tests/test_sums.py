import math

import numpy as np
import pytest

from powerwalk.search import nearest_odd
from powerwalk.sums import exact_sum, grid_sums, orbit_measure
from powerwalk.torus import TorusGrid, mode_cosines, mode_orbits


def test_smallest_grid_exact_value():
    # three nonzero modes with cos phi in {0, 0, -1}: S1 = 1 + 1 + 0.5
    gs = grid_sums(TorusGrid(2), 1)
    assert gs.S1 == pytest.approx(2.5, abs=1e-14)
    assert gs.lower == pytest.approx(2.5, abs=1e-14)  # t=1: same sum
    assert gs.S1 <= gs.upper


def test_identity_s3_from_s1():
    for side in (2, 5, 16, 33):
        for t in (1, 3, 7):
            gs = grid_sums(TorusGrid(side), t)
            assert gs.identity_residual() <= 1e-9


def test_bracketing_small():
    for side in (4, 8, 17, 32):
        for t in (1, 3, 5):
            gs = grid_sums(TorusGrid(side), t)
            assert gs.lower <= gs.S1 <= gs.upper, (side, t)


def test_lower_bound_is_the_t1_sum_over_t():
    # The telescoped sum is t-free: at t = 1 it is S1 itself, term for term,
    # and every t divides that one exact sum.
    for side in (2, 5, 16, 33):
        S1 = grid_sums(TorusGrid(side), 1).S1
        for t in (1, 3, 5, 7):
            assert grid_sums(TorusGrid(side), t).lower == S1 / t, (side, t)


def test_sums_positive_and_ordered():
    gs = grid_sums(TorusGrid(16), 3)
    assert 0 < gs.S1 < gs.S2  # every term of S2 dominates its S1 term here
    assert gs.S3 > 0


def test_rejects_bad_power():
    with pytest.raises(ValueError):
        grid_sums(TorusGrid(8), 0)
    # Even t on an even side puts the (L/2, L/2) orbit at cos^t phi = 1.
    for side, t in ((2, 2), (8, 2), (8, 4)):
        with pytest.raises(ValueError, match="diverge"):
            grid_sums(TorusGrid(side), t)
    assert math.isfinite(grid_sums(TorusGrid(9), 2).S2)


def test_band_at_log_schedule():
    values = []
    for side in (8, 16, 32, 64):
        n = side * side
        t = nearest_odd(math.log(n))
        gs = grid_sums(TorusGrid(side), t)
        values.append(gs.S1 * t / (n * math.log(n)))
    assert max(values) / min(values) < 4.0


def test_orbit_sums_match_per_mode_oracle():
    # Even sides include the a = b = L/2 orbit with cos = -1.
    for side in (2, 3, 4, 5, 6, 8, 9, 16, 17, 33, 64):
        cos = mode_cosines(TorusGrid(side))[1:]
        for t in (1, 3, 5, 7):
            cos_t = cos**t
            one_minus = 1.0 - cos_t
            expected = (
                math.fsum(1.0 / one_minus),
                math.fsum(1.0 / one_minus**2),
                math.fsum((1.0 + cos_t) / one_minus),
                math.fsum(1.0 / (1.0 - cos)) / t,
            )
            gs = grid_sums(TorusGrid(side), t)
            for got, want in zip((gs.S1, gs.S2, gs.S3, gs.lower), expected):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (side, t)


SUMMAND_KINDS = ("normal", "wide", "subnormal", "cancelling", "equal-run")


def _summands(kind, rng):
    if kind == "normal":
        return rng.standard_normal(int(rng.integers(1, 3000)))
    if kind == "wide":  # magnitudes from 1e-300 to 1e300
        n = int(rng.integers(1, 3000))
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    if kind == "subnormal":
        return rng.standard_normal(int(rng.integers(1, 3000))) * 1e-310
    if kind == "cancelling":  # exact +- pairs leave only the tiny term
        n = int(rng.integers(1, 1500))
        pairs = rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 20, n)
        return rng.permutation(np.concatenate([pairs, -pairs, [1e-30]]))
    if kind == "equal-run":  # one NUFFT cell at large t: a long run of equal terms
        return np.full(100_000, rng.standard_normal())
    raise ValueError(kind)


@pytest.mark.parametrize("kind", SUMMAND_KINDS)
def test_exact_sum_is_fsum(kind):
    rng = np.random.default_rng(SUMMAND_KINDS.index(kind))
    for _ in range(20):
        p = _summands(kind, rng)
        want = math.fsum(p.tolist())
        assert exact_sum(p.copy(), np.empty_like(p)) == want


def test_exact_sum_small_and_zero():
    for values in ([], [2.5], [-1e-320], [0.0] * 5, [-0.0, 0.0], [1.0, 1e100, 1.0, -1e100]):
        p = np.array(values, dtype=float)
        assert exact_sum(p, np.empty_like(p)) == math.fsum(values), values


def test_exact_sum_refuses_what_it_cannot_sum():
    # max|p| compares false against 0 on NaN, so a plain loop would return 0.
    for values in ([1.0, math.nan], [math.inf, 1.0], [-math.inf], [math.inf, -math.inf]):
        p = np.array(values)
        with pytest.raises(ValueError, match="non-finite"):
            exact_sum(p, np.empty_like(p))
    p = np.array([1.7e308, 1.0])  # (n + 2) max|p| overflows
    with pytest.raises(ValueError, match="overflows"):
        exact_sum(p, np.empty_like(p))


class _Counted(np.ndarray):
    """An array that logs (ufunc, method, operand size) for every numpy ufunc
    call it enters, np.sum and ndarray.max included (both are reductions)."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        plain = [a.view(np.ndarray) if isinstance(a, _Counted) else a for a in inputs]
        size = max(np.size(a) for a in inputs)
        _Counted.log.append((ufunc.__name__, method, size))
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result if out is None else out[0]


def _counted_exact_sum(terms):
    """exact_sum of a copy of terms, and the log of the ufunc calls it made."""
    p = np.array(terms, dtype=float).view(_Counted)
    _Counted.log = []
    return exact_sum(p, np.empty_like(p)), list(_Counted.log)


def _term_arrays(grid, t):
    """The S1, S2 and S3 terms per orbit, formed as grid_sums forms them."""
    x, count = orbit_measure(grid, t)
    return count / (1.0 - x), count / (1.0 - x) ** 2, count * (1.0 + x) / (1.0 - x)


def test_exact_sum_stops_after_one_round():
    # One extraction round is |p|, its max, sigma + p, - sigma, the sum of the
    # extracted q and p -= q; the certified exit adds one sum of the remainder.
    # Running until the remainder is zero makes at least two rounds here.
    s1 = _term_arrays(TorusGrid(1001), 13)[0]
    got, log = _counted_exact_sum(s1)
    assert got == math.fsum(s1.tolist())
    assert len([call for call in log if call[2] == s1.size]) <= 7, log


@pytest.mark.parametrize(
    "values, sum_calls",
    [
        ([1.0, 2**-53], 4),  # an exact tie, rounded to even: the remainder must reach 0
        # above the tie by less than the first round's slack
        ([1.0, 2**-53] + [2**-110] * 1000, 4),
        ([1.0, 2**-53, 2**-80], 2),  # above the tie by more: fixed after one round
        ([1.0, 2**-53, -(2**-80)], 2),  # below it by more
    ],
)
def test_exact_sum_near_ties(values, sum_calls):
    # Each round makes two np.sum calls: the extracted q and the remainder.
    got, log = _counted_exact_sum(values)
    assert got == math.fsum(values)
    assert [call[:2] for call in log].count(("add", "reduce")) == sum_calls


@pytest.mark.parametrize("t", [1, 3, 13])
def test_exact_sum_is_fsum_on_grid_terms(t):
    for terms in _term_arrays(TorusGrid(1001), t):
        assert exact_sum(terms.copy(), np.empty_like(terms)) == math.fsum(terms.tolist())


def _fsum_formulas(grid, t):
    """The five sums as math.fsum over Python lists of the same terms."""
    x, count = orbit_measure(grid, t)
    cos, _ = mode_orbits(grid)
    one_minus = 1.0 - x
    shells = np.arange(1, grid.side // 2 + 1)
    return (
        math.fsum((count / one_minus).tolist()),
        math.fsum((count / one_minus**2).tolist()),
        math.fsum((count * (1.0 + x) / one_minus).tolist()),
        math.fsum((count / (1.0 - cos)).tolist()) / t,
        8.0 * math.fsum(shells / (1.0 - np.exp(-4.0 * shells**2 * t / grid.vertex_count))),
    )


def test_grid_sums_are_fsum_bytes():
    for side in (2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33, 64, 129):
        for t in (1, 3, 5, 7):
            gs = grid_sums(TorusGrid(side), t)
            got = (gs.S1, gs.S2, gs.S3, gs.lower, gs.upper)
            assert got == _fsum_formulas(TorusGrid(side), t), (side, t)


def test_orbit_measure_symmetry():
    for side in (4, 16, 64, 256):
        grid = TorusGrid(side)
        cos, _ = mode_orbits(grid)
        _, plus, minus = np.intersect1d(cos, -cos, return_indices=True)
        assert plus.size > 0  # cos[minus] == -cos[plus]
        up = cos > 0
        for t in (1, 2, 3, 7):
            x, _ = orbit_measure(grid, t)
            if t % 2:
                assert np.array_equal(x[minus], -x[plus]), (side, t)
            else:
                assert np.array_equal(x[minus], x[plus]) and (x >= 0).all(), (side, t)
            assert np.array_equal(x[up], cos[up] ** t), (side, t)
