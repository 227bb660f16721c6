import math

import pytest

from powerwalk.search import nearest_odd
from powerwalk.sums import grid_sums
from powerwalk.torus import TorusGrid, mode_cosines


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
