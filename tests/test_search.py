import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from powerwalk import cli, fullwalk, search, sums, torus
from powerwalk.search import (
    AMPLIFICATION_THRESHOLD,
    alpha_estimate,
    build_model,
    compute_alpha,
    nearest_odd,
    overlap_ws,
    overlap_wt,
    return_moments,
    search_trajectory,
    success_probability,
)
from powerwalk.sums import GridSums, orbit_measure
from powerwalk.torus import TorusGrid
from powerwalk.tulsi import DELTA_POLICIES, tune_delta

from oracles import (
    coin_uniform_state,
    dense_alpha,
    iterate_search,
    phase_rotation,
    reduced_modes,
    uniform_superposition,
    volterra_trajectory,
)


def test_nearest_odd():
    assert nearest_odd(0.3) == 1
    assert nearest_odd(5.67) == 5
    assert nearest_odd(8.35) == 9
    assert nearest_odd(11.1) == 11
    assert nearest_odd(7.0) == 7


def test_build_model_overlaps():
    model = build_model(TorusGrid(5), 1)
    _, target = reduced_modes(model.grid, model.t)
    assert target[1] ** 2 == pytest.approx(0.02, abs=1e-15)  # a_k^2
    assert model.a0 == pytest.approx(1 / math.sqrt(25), abs=1e-15)
    # full target vector is normalized
    assert np.linalg.norm(target) == pytest.approx(1.0, abs=1e-12)


def test_build_model_phases_are_arccos_of_powers():
    grid = TorusGrid(5)
    mode_cos = torus.mode_cosines(grid)[1:]
    mode_phases = reduced_modes(grid, 3)[0][1 : grid.vertex_count]  # the +phi half
    assert np.allclose(mode_phases, np.arccos(np.clip(mode_cos**3, -1, 1)))
    assert np.all((mode_phases > 0) & (mode_phases < math.pi))


def test_build_model_rejects_even_t():
    with pytest.raises(ValueError):
        build_model(TorusGrid(5), 2)


def test_orbit_multiplicities_and_phases():
    # L=8 and L=16 hold accidental degeneracies across orbits, e.g. (0, L/2)
    # against (L/4, L/4), which must stay separate orbits of equal phase.
    for side in (2, 3, 4, 5, 8, 9, 16, 17):
        for t in (1, 3):
            model = build_model(TorusGrid(side), t)
            mode_cos = torus.mode_cosines(model.grid)[1:]
            phases, target = reduced_modes(model.grid, t)
            mode_phases = phases[1 : side * side]
            ak2 = target[1] ** 2
            x, weights = model.distinct_phases
            counts = np.rint(weights / ak2).astype(int)
            assert np.allclose(weights, counts * ak2, rtol=1e-15, atol=0.0)
            assert counts.sum() == side * side - 1
            expanded = np.sort(np.repeat(x, counts))
            assert np.max(np.abs(expanded - np.sort(mode_cos**t))) <= 1e-15
            # The per-mode table may differ from the orbit table in the last bit.
            assert model.phi1 == pytest.approx(mode_phases.min(), rel=1e-15)


def test_iterate_search_start_probability():
    model = build_model(TorusGrid(5), 1)
    traj = iterate_search(model, 0)
    assert traj[-1] == pytest.approx(1 / 25, abs=1e-15)
    assert traj.shape == (1,)


def test_iterate_search_norm_preserved():
    # Even sides put an orbit at x = -1, where the rotation's sine vanishes.
    for side in (2, 4, 5, 9, 17):
        for t in (1, 3, 5):
            x, _ = build_model(TorusGrid(side), t).distinct_phases
            assert np.max(np.abs(np.abs(phase_rotation(x)) - 1.0)) <= 1e-15
    phases, T = reduced_modes(TorusGrid(7), 1)
    phases = np.exp(1j * phases)
    state = np.zeros(T.size, dtype=complex)
    state[0] = 1.0
    for _ in range(50):
        state = state - 2.0 * np.dot(T, state) * T
        state = state * phases
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


def test_reduced_matches_full_simulation():
    # Even sides included: the two +-pi copies of the -1 adjacency mode act
    # as the single -1 mode of the full walk.
    m = (3, 1)
    for side in (4, 5, 6, 8, 9, 17):
        grid = TorusGrid(side)
        for t in (1, 3, 5):
            if grid.vertex_count * 4**t > 300_000:
                continue
            model = build_model(grid, t)
            alpha, _ = compute_alpha(model)
            Q = 3 * math.floor(math.pi / (2 * alpha))
            reduced = iterate_search(model, Q)
            state = uniform_superposition(grid, t).astype(complex)
            target = coin_uniform_state(grid, t, m)
            full = [abs(np.dot(target, state)) ** 2]
            for _ in range(Q):
                state = fullwalk.apply_oracle(grid, t, m, state)
                state = fullwalk.apply_walk(grid, t, state)
                full.append(abs(np.dot(target, state)) ** 2)
            assert np.max(np.abs(reduced - np.array(full))) <= 1e-9, (side, t)


def test_search_trajectory_matches_iterate_search_on_the_sweep():
    for model in sweep_models():
        Q = math.floor(math.pi / (2.0 * compute_alpha(model)[0]))
        route = search_trajectory(model, return_moments(model, Q))
        assert route.shape == (Q + 1,)
        assert np.max(np.abs(route - iterate_search(model, Q))) <= 1e-10, (
            model.grid.side, model.t, model.delta
        )


def test_search_trajectory_matches_iterate_search_at_513():
    model = build_model(TorusGrid(513), 1)
    Q = math.floor(math.pi / (2.0 * compute_alpha(model)[0]))
    assert Q == 1165
    route = search_trajectory(model, return_moments(model, Q))
    assert np.max(np.abs(route - iterate_search(model, Q))) <= 1e-10


@pytest.mark.parametrize("t, delta, Q", [(1, 0.0, 2386), (13, 0.6, 1341)])
def test_search_trajectory_matches_volterra_recurrence(t, delta, Q):
    # The Newton route against the forward substitution it replaced, on the
    # same moments.
    model = build_model(TorusGrid(1001), t, delta)
    assert math.floor(math.pi / (2.0 * compute_alpha(model)[0])) == Q
    moments = return_moments(model, Q)
    route = search_trajectory(model, moments)
    assert np.max(np.abs(route - volterra_trajectory(model, moments))) <= 1e-10


@pytest.mark.parametrize(
    "side, t, policy, Q",
    [
        (1001, 1, "balanced", 3771),
        (2001, 7, None, 2724),
        (257, 1, None, 552),
        (193, 1, "balanced", 636),
    ],
)
def test_search_trajectory_holds_rounding_level(side, t, policy, Q):
    # Two recurrences that lose digits: the balanced angle puts weight
    # 2 sin^2(delta) = 1.87 on the pi mode's (-1)^m moments, and at t = 7 most
    # phases crowd pi/2. Forward substitution in doubles is off by 1.5e-10 and
    # 9.0e-13 there, and the route with its last residual in doubles by 2.8e-13
    # and 2.5e-11. Against the recurrence in long double on the same moments
    # the route holds 1e-12 (it reads 4.7e-15 and 8.6e-15). The last two cases
    # are the benchmark sweeps' longest records, whose doubling chains are
    # short (five doublings from 18 and 20 coefficients).
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double has no more precision than double here")
    base = build_model(TorusGrid(side), t)
    model = build_model(base.grid, t, tune_delta(base, policy) if policy else 0.0)
    assert math.floor(math.pi / (2.0 * compute_alpha(model)[0])) == Q
    moments = return_moments(model, Q)
    exact = volterra_trajectory(model, moments.astype(np.longdouble))
    assert np.max(np.abs(search_trajectory(model, moments) - exact)) <= 1e-12


def test_return_moments_match_direct_sum():
    # h(m) = sum_j T_j^2 e^{i m theta_j} over the 0 mode, both halves of every
    # orbit and the pi mode, with theta the angle of the engine's rotation.
    # Even sides tie cos across orbits (once at L=10, twice at L=16), which
    # the phase order keeps in (a, b) order. At Q <= 6 the grid's 4(Q + 1)
    # cells are fewer than the kernel's 28, so the spread wraps at both ends.
    for side, t in itertools.product((9, 10, 16, 17, 33), (1, 3)):
        base = build_model(TorusGrid(side), t)
        for delta in (0.0, tune_delta(base, "balanced")):
            model = build_model(base.grid, t, delta)
            x, weights = model.distinct_phases
            theta = np.angle(phase_rotation(x))
            c2, s2 = math.cos(delta) ** 2, math.sin(delta) ** 2
            long = 3 * math.floor(math.pi / (2.0 * compute_alpha(model)[0]))
            for Q in (0, 1, 2, 3, 6, long):
                m = np.arange(Q + 1)
                direct = (
                    model.a0**2 * c2
                    + s2 * (-1.0) ** m
                    + np.cos(np.outer(m, theta)) @ (2.0 * c2 * weights)
                )
                h = return_moments(model, Q)
                assert np.max(np.abs(h - direct)) <= 1e-13, (side, t, delta, Q)
                assert abs(h[0] - 1.0) <= 1e-13


def test_return_moments_keep_h0_on_crowded_cells():
    # At t = 15 most orbits have |x| < 1e-3 and crowd a few cells near
    # theta = pi/2; a sequential sum over such a cell read |h(0) - 1| = 2.6e-13.
    model = build_model(TorusGrid(2001), 15)
    Q = math.floor(math.pi / (2.0 * compute_alpha(model)[0]))
    assert abs(return_moments(model, Q)[0] - 1.0) <= 1e-14


@pytest.mark.parametrize(
    "side, policy, Q, cumsums", [(257, None, 552, 1), (193, "balanced", 636, 7)]
)
def test_search_trajectory_call_budget(monkeypatch, side, policy, Q, cumsums):
    # Five doublings from 18 (or 20) coefficients: one Newton step at each
    # length below Q + 1 and two at Q + 1 make 5 * 5 + 6 = 31 transforms. The
    # pi-mode correction costs one cumsum per Newton step, and plain search,
    # which has no pi mode, pays only the overlap's.
    base = build_model(TorusGrid(side), 1)
    model = build_model(base.grid, 1, tune_delta(base, policy) if policy else 0.0)
    assert math.floor(math.pi / (2.0 * compute_alpha(model)[0])) == Q
    moments = return_moments(model, Q)
    calls = {"fft": 0, "cumsum": 0}

    def counted(kind, function):
        def call(*args, **kwargs):
            calls[kind] += 1
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(np.fft, "rfft", counted("fft", np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counted("fft", np.fft.irfft))
    monkeypatch.setattr(np, "cumsum", counted("cumsum", np.cumsum))
    search_trajectory(model, moments)
    assert calls["fft"] <= 31
    assert calls["cumsum"] == cumsums


def test_search_trajectory_edge_counts():
    for model in (build_model(TorusGrid(9), 1), build_model(TorusGrid(9), 1, 0.6)):
        start = (model.a0 * math.cos(model.delta)) ** 2
        assert search_trajectory(model, return_moments(model, 0)).tolist() == [start]
        with pytest.raises(ValueError):
            return_moments(model, -1)


def toy_model(phases, weights, side):
    """Hand-built model on the side x side torus, so a_0 = 1/side: one orbit
    per phase, each of target overlap ``weights``. The orbits enter through
    the grid sums, which the estimate and the overlap factors read."""
    n = side * side
    cos_t = np.cos(np.asarray(phases, dtype=float))
    count = 2 * n * float(weights) ** 2  # squared overlap in units of a_k^2
    model = build_model(TorusGrid(side), 1)
    model.sums = GridSums(
        side=side,
        t=1,
        S1=float(np.sum(count / (1.0 - cos_t))),
        S2=float(np.sum(count / (1.0 - cos_t) ** 2)),
        S3=float(np.sum(count * (1.0 + cos_t) / (1.0 - cos_t))),
        lower=0.0,
        upper=math.inf,
    )
    return model


def test_alpha_estimate_toy_single_mode():
    # one mode at phase pi with a_1 = a_0: estimate = a0/sqrt(a0^2/2) = sqrt(2)
    model = toy_model([math.pi], weights=0.2, side=5)
    assert alpha_estimate(model) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_alpha_methods_agree():
    for side in (5, 9, 13):
        for t in (1, 3):
            model = build_model(TorusGrid(side), t)
            dense = dense_alpha(model)
            secular = compute_alpha(model)[0]
            assert secular == pytest.approx(dense, abs=1e-10)


def brentq_alpha(model):
    """The secular root by scipy's brentq, the oracle for compute_alpha: on
    (lo, phi1 (1 - 1e-9)), lo moved down until f(lo) > 0, to xtol est 1e-13
    and rtol 1e-14."""
    est = alpha_estimate(model)
    x, weights = model.distinct_phases
    c2 = math.cos(model.delta) ** 2
    weights = weights * c2
    a02 = model.a0**2 * c2
    api2 = math.sin(model.delta) ** 2

    def f(alpha):
        terms = weights / (x - math.cos(alpha))
        return (
            a02 / math.tan(alpha / 2.0)
            + 2.0 * math.sin(alpha) * float(np.sum(terms))
            - api2 * math.tan(alpha / 2.0)
        )

    hi = model.phi1 * (1.0 - 1e-9)
    lo = min(est, hi) * 1e-2
    while f(lo) <= 0.0:
        lo *= 1e-2
    return brentq(f, lo, hi, xtol=est * 1e-13, rtol=1e-14)


def sweep_models():
    """Plain search and every tuned delta policy on the odd sweep L = 17..257,
    at t = 1 and t = nearest-odd(ln N)."""
    for side in (17, 33, 65, 129, 257):
        grid = TorusGrid(side)
        for t in sorted({1, nearest_odd(math.log(grid.vertex_count))}):
            base = build_model(grid, t)
            yield base
            for policy in DELTA_POLICIES:
                yield build_model(grid, t, tune_delta(base, policy))


def test_alpha_matches_brentq_on_the_sweep():
    # Plain search (--delta-policy fixed at its default delta 0) and every
    # tuned policy, at t = 1 and t = nearest-odd(ln N).
    for model in sweep_models():
        exact = compute_alpha(model)[0]
        assert exact == pytest.approx(brentq_alpha(model), rel=1e-13, abs=0.0), (
            model.grid.side, model.t, model.delta
        )


def mpmath_alpha(model, mpmath):
    """The secular root at 40 digits by mpmath.findroot, the high-precision
    oracle for compute_alpha: the orbit measure's x and exact weights
    count/(2N), on the bracket (alpha_estimate/100, phi1 (1 - 1e-9))."""
    x, count = orbit_measure(model.grid, model.t)
    n = model.grid.vertex_count
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(v)) for v in x]
        ws = [mpmath.mpf(int(c)) / (2 * n) for c in count]
        delta = mpmath.mpf(model.delta)
        c2, api2 = mpmath.cos(delta) ** 2, mpmath.sin(delta) ** 2

        def f(alpha):
            cos = mpmath.cos(alpha)
            total = mpmath.fsum(w / (xv - cos) for xv, w in zip(xs, ws))
            half_tan = mpmath.tan(alpha / 2)
            return c2 / n / half_tan - api2 * half_tan + 2 * c2 * mpmath.sin(alpha) * total

        lo = mpmath.mpf(alpha_estimate(model)) / 100
        hi = mpmath.acos(max(xs)) * (1 - mpmath.mpf("1e-9"))
        return float(mpmath.findroot(f, (lo, hi), solver="anderson"))


def test_alpha_matches_mpmath_root():
    mpmath = pytest.importorskip("mpmath")
    for side in (17, 65, 257):
        grid = TorusGrid(side)
        for t in sorted({1, nearest_odd(math.log(grid.vertex_count))}):
            base = build_model(grid, t)
            for model in (base, build_model(grid, t, tune_delta(base, "balanced"))):
                exact = compute_alpha(model)[0]
                assert exact == pytest.approx(
                    mpmath_alpha(model, mpmath), rel=1e-14, abs=0.0
                ), (side, t, model.delta)


def _refine_peak(traj, q_star):
    """Three-point parabolic refinement of a discrete argmax."""
    if 0 < q_star < traj.size - 1:
        y0, y1, y2 = traj[q_star - 1], traj[q_star], traj[q_star + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            return q_star + 0.5 * (y0 - y2) / denom
    return float(q_star)


def trajectory_alpha(model):
    """Principal eigenphase from the success-probability oscillation period.

    Scans the trajectory across two successive maxima of the sin^2-like
    envelope (parabolic refinement of each argmax); their spacing is pi/alpha
    exactly, so the constant peak shift from start-state leakage cancels.
    An independent, coarse cross-check of the secular root; the ripple of
    non-principal modes limits agreement to a few percent of Q.
    """
    period = math.pi / alpha_estimate(model)
    q_max = max(8, math.ceil(1.7 * period))
    traj = iterate_search(model, q_max)
    first = int(np.argmax(traj[: max(3, math.ceil(0.75 * period))]))
    lo = first + max(2, math.floor(0.5 * period))
    hi = min(q_max + 1, first + math.ceil(1.5 * period))
    second = lo + int(np.argmax(traj[lo:hi]))
    spacing = _refine_peak(traj, second) - _refine_peak(traj, first)
    return math.pi / spacing


def test_trajectory_alpha_close_to_secular():
    for side, t in ((17, 1), (33, 1), (17, 5)):
        model = build_model(TorusGrid(side), t)
        exact = compute_alpha(model)[0]
        approx = trajectory_alpha(model)
        q_exact = math.pi / (2 * exact)
        q_approx = math.pi / (2 * approx)
        assert abs(q_exact - q_approx) <= max(2.0, 0.05 * q_exact)


def test_alpha_ratio_within_theta_band():
    model = build_model(TorusGrid(5), 1)
    exact, est = compute_alpha(model)
    assert 0.1 <= exact / est <= 10.0


def test_alpha_below_half_phi1_small_sweep():
    for side in (5, 9, 17):
        for t in (1, 3):
            model = build_model(TorusGrid(side), t)
            exact, _ = compute_alpha(model)
            assert exact < model.phi1 / 2.0


def test_degenerate_model_rejected():
    model = toy_model([1.0], weights=0.0, side=2)
    with pytest.raises(ValueError):
        alpha_estimate(model)


def test_overlap_ws_empty_sum_limit():
    # alpha is large enough that the L=10 grid's own S2 would cost 3.5%.
    model = toy_model([math.pi], weights=1e-12, side=10)
    assert overlap_ws(model, 0.1) == pytest.approx(1.0, abs=1e-10)


def test_overlap_wt_uses_half_angle_cotangent():
    # one mode at phase pi/2 with weight w: sum = w^2 cot^2(pi/4) = w^2,
    # whereas the quarter-angle form would give w^2 cot^2(pi/8) ~ 5.83 w^2.
    # Only w > 1 keeps the overlap below its clamp at 1.
    for w in (0.3, 3.0):
        model = toy_model([math.pi / 2], weights=w, side=10)
        assert overlap_wt(model) == pytest.approx(min(1.0, 1.0 / w), rel=1e-12)


def test_overlap_wt_clamps_at_one():
    # 1/sqrt(sum) = 1e8 here; the L=10 grid's own S3 would give 0.93.
    model = toy_model([math.pi / 2], weights=1e-8, side=10)
    assert overlap_wt(model) == 1.0


def orbit_oracles(model, alpha):
    """alpha_estimate, overlap_ws and overlap_wt summed directly over the
    orbit measure, from each docstring formula."""
    x, weights = model.distinct_phases
    c2, s2 = math.cos(model.delta) ** 2, math.sin(model.delta) ** 2
    a02 = model.a0**2
    one_minus = 1.0 - x  # 1 - cos phi^(t)
    est = model.a0 * math.sqrt(c2) / math.sqrt(
        c2 * float(np.sum(weights / one_minus)) + s2 / 4.0
    )
    loss = float(np.sum((weights / a02) / one_minus**2)) + s2 / (a02 * c2)
    ws = max(0.0, 1.0 - alpha**4 * loss)
    total = c2 * float(np.sum(weights * (1.0 + x) / one_minus))  # cot^2(phi/2)
    return est, ws, min(1.0, total**-0.5)


def test_grid_sum_readings_match_orbit_sums():
    for side in (5, 9, 17, 33, 64):
        for t in (1, 3, 5):
            for delta in (0.0, 0.4):
                model = build_model(TorusGrid(side), t, delta=delta)
                alpha, est = compute_alpha(model)
                oracle = orbit_oracles(model, alpha)
                got = (est, overlap_ws(model, alpha), overlap_wt(model))
                expected = pytest.approx(oracle, rel=1e-12, abs=0.0)
                assert got == expected, (side, t, delta)
                assert alpha_estimate(model) == est


def test_overlap_precondition_is_checked_by_the_cli():
    # overlap_ws only computes, also outside alpha < phi1/2; the search row
    # names the violation, which at L = 2 is alpha = phi1/2.
    model = build_model(TorusGrid(5), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overlap_ws(model, model.phi1)
    assert cli._search_record(model, trajectory=False)["warnings"] == []
    row = cli._search_record(build_model(TorusGrid(2), 1), trajectory=False)
    assert row["warnings"] == [
        "alpha=7.854e-01 is not below phi1/2=7.854e-01; "
        "the overlap expressions are outside their guarantee"
    ]


def test_success_probability_counters():
    model = build_model(TorusGrid(17), 3)
    res = success_probability(model, compute_alpha(model)[0])
    assert res.Q_G == 3 * res.Q_O
    assert res.Q_O == (res.amplification_rounds + 1) * res.Q
    assert 0.0 <= res.p_s <= 1.0


def test_amplification_rounds_when_probability_small():
    # L=1001, t=1: the estimate (0.2415) falls below the threshold.
    model = build_model(TorusGrid(1001), 1)
    alpha = compute_alpha(model)[0]
    res = success_probability(model, alpha)
    assert res.Q == math.floor(math.pi / (2 * alpha))
    assert res.p_s < AMPLIFICATION_THRESHOLD
    assert res.amplification_rounds == math.ceil(1.0 / math.sqrt(res.p_s)) == 3
    assert res.Q_O == (res.amplification_rounds + 1) * res.Q


def test_wt_scaling_with_size_and_steps():
    # t=1: wt^2 tracks 1/ln N (decreasing in N, banded against 1/ln N);
    # t = nearest-odd(ln N): wt^2 stays bounded below across sizes.
    single = []
    logged = []
    for side in (17, 33, 65):
        n = side * side
        single.append(overlap_wt(build_model(TorusGrid(side), 1)) ** 2)
        t = nearest_odd(math.log(n))
        logged.append(overlap_wt(build_model(TorusGrid(side), t)) ** 2)
    assert all(b > a for b, a in zip(single, single[1:]))
    normalized = [
        w * math.log(side * side) for w, side in zip(single, (17, 33, 65))
    ]
    assert max(normalized) / min(normalized) < 2.0
    assert min(logged) >= 0.5 * max(logged)
    assert min(logged) > min(single)


def test_monotone_benefit_of_t():
    # trajectory success at Q = floor(pi/2 alpha) is non-decreasing in t
    # (up to 10% slack) over odd t up to nearest-odd(ln N)
    for side in (17, 33, 65):
        grid = TorusGrid(side)
        top = nearest_odd(math.log(grid.vertex_count))
        previous = None
        for t in range(1, top + 1, 2):
            model = build_model(grid, t)
            alpha, _ = compute_alpha(model)
            p = iterate_search(model, math.floor(math.pi / (2 * alpha)))[-1]
            if previous is not None:
                assert p >= 0.9 * previous
            previous = p


def test_records_take_no_orbit_sized_scratch():
    """After two warm records at L=513, one more record allocates little more
    than its new x = cos^5 phi: its scratch comes from the side's workspace.
    tracemalloc sees numpy's buffers; the peak is counted in orbit-sized
    arrays."""
    grid = TorusGrid(513)
    orbit_bytes = torus.mode_orbits(grid)[0].nbytes
    for trajectory, bound in ((False, 2), (True, 4)):
        for t in (1, 3):
            cli._search_record(build_model(grid, t), trajectory)
        tracemalloc.start()
        try:
            cli._search_record(build_model(grid, 5), trajectory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * orbit_bytes, (trajectory, peak / orbit_bytes)


def _clear_caches():
    for module in (torus, sums, search):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_workspace_reuse_leaves_records_unchanged():
    """Records built in an interleaved order, which reuses each side's
    workspace rows and cached weights, equal bit for bit the same records
    built from cleared caches: no row aliases a live result."""
    builds = [
        lambda: cli._search_record(build_model(TorusGrid(513), 3), True),
        lambda: cli._search_record(build_model(TorusGrid(257), 1), True),
        lambda: cli._search_record(build_model(TorusGrid(513), 3), True),
        lambda: cli.run_tulsi(
            cli.ExperimentConfig(command="tulsi", sizes=(513,), t_values=(3,))
        ).records[0],
    ]
    _clear_caches()
    interleaved = [build() for build in builds]
    fresh = []
    for build in builds:
        _clear_caches()
        fresh.append(build())
    assert repr(interleaved) == repr(fresh)
