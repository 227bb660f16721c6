import math

import numpy as np
import pytest

from powerwalk import fullwalk
from powerwalk.search import (
    SpectralModel,
    alpha_estimate,
    build_model,
    compute_alpha,
    dense_alpha,
    iterate_search,
    nearest_odd,
    overlap_ws,
    overlap_wt,
    secular_alpha,
    spectral_gap_power,
    success_probability,
    trajectory_alpha,
)
from powerwalk.torus import TorusGrid


def test_nearest_odd():
    assert nearest_odd(0.3) == 1
    assert nearest_odd(5.67) == 5
    assert nearest_odd(8.35) == 9
    assert nearest_odd(11.1) == 11
    assert nearest_odd(7.0) == 7


def test_build_model_overlaps():
    model = build_model(TorusGrid(5), 1)
    assert model.ak**2 == pytest.approx(0.02, abs=1e-15)
    assert model.a0 == pytest.approx(1 / math.sqrt(25), abs=1e-15)
    # full target vector is normalized
    assert np.linalg.norm(model.target_vector) == pytest.approx(1.0, abs=1e-12)


def test_build_model_phases_are_arccos_of_powers():
    grid = TorusGrid(5)
    m1 = build_model(grid, 1)
    m3 = build_model(grid, 3)
    assert np.allclose(m3.mode_phases, np.arccos(np.clip(m1.mode_cos**3, -1, 1)))
    assert np.all((m3.mode_phases > 0) & (m3.mode_phases < math.pi))


def test_build_model_rejects_even_t():
    with pytest.raises(ValueError):
        build_model(TorusGrid(5), 2)


def test_orbit_multiplicities_and_phases():
    # L=8 and L=16 hold accidental degeneracies across orbits, e.g. (0, L/2)
    # against (L/4, L/4), which must stay separate orbits of equal phase.
    for side in (2, 3, 4, 5, 8, 9, 16, 17):
        for t in (1, 3):
            model = build_model(TorusGrid(side), t)
            phases, weights = model.distinct_phases
            counts = np.rint(weights / model.ak**2).astype(int)
            assert np.allclose(weights, counts * model.ak**2, rtol=1e-15, atol=0.0)
            assert counts.sum() == side * side - 1
            expanded = np.sort(np.repeat(phases, counts))
            expected = np.sort(np.arccos(np.clip(model.mode_cos**t, -1, 1)))
            assert np.max(np.abs(expanded - expected)) <= 1e-14


def test_iterate_search_start_probability():
    model = build_model(TorusGrid(5), 1)
    res = iterate_search(model, 0)
    assert res.p_s == pytest.approx(1 / 25, abs=1e-15)
    assert res.trajectory.shape == (1,)


def test_iterate_search_norm_preserved():
    model = build_model(TorusGrid(7), 1)
    T = model.target_vector
    phases = np.exp(1j * model.phase_vector)
    state = np.zeros(model.reduced_dim, dtype=complex)
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
            model = build_model(grid, t, m)
            alpha, _ = compute_alpha(model)
            Q = 3 * math.floor(math.pi / (2 * alpha))
            reduced = iterate_search(model, Q).trajectory
            state = fullwalk.uniform_superposition(grid, t).astype(complex)
            target = fullwalk.coin_uniform_state(grid, t, m)
            full = [abs(np.dot(target, state)) ** 2]
            for _ in range(Q):
                state = fullwalk.apply_oracle(grid, t, m, state)
                state = fullwalk.apply_walk(grid, t, state)
                full.append(abs(np.dot(target, state)) ** 2)
            assert np.max(np.abs(reduced - np.array(full))) <= 1e-9, (side, t)


def toy_model(phases, weights, a0):
    """Hand-built model: one orbit per phase, each of overlap ``weights``."""
    phases = np.asarray(phases, dtype=float)
    model = SpectralModel(grid=TorusGrid(5), t=1, marked=(0, 0), a0=a0, ak=float(weights))
    model.distinct_phases = (phases, np.full(phases.size, float(weights) ** 2))
    return model


def test_alpha_estimate_toy_single_mode():
    # one mode at phase pi with a_1 = a_0: estimate = a0/sqrt(a0^2/2) = sqrt(2)
    model = toy_model([math.pi], weights=0.2, a0=0.2)
    assert alpha_estimate(model) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_alpha_methods_agree():
    for side in (5, 9, 13):
        for t in (1, 3):
            model = build_model(TorusGrid(side), t)
            dense = dense_alpha(model)
            secular = secular_alpha(model)
            assert secular == pytest.approx(dense, abs=1e-10)


def test_trajectory_alpha_close_to_secular():
    for side, t in ((17, 1), (33, 1), (17, 5)):
        model = build_model(TorusGrid(side), t)
        exact = secular_alpha(model)
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
    model = toy_model([1.0], weights=0.0, a0=0.5)
    with pytest.raises(ValueError):
        alpha_estimate(model)


def test_overlap_ws_empty_sum_limit():
    model = toy_model([math.pi], weights=1e-12, a0=0.5)
    assert overlap_ws(model, 1e-6) == pytest.approx(1.0, abs=1e-10)


def test_overlap_wt_uses_half_angle_cotangent():
    # one mode at phase pi/2 with weight w: sum = w^2 cot^2(pi/4) = w^2,
    # whereas the quarter-angle form would give w^2 cot^2(pi/8) ~ 5.83 w^2.
    w = 0.3
    model = toy_model([math.pi / 2], weights=w, a0=0.1)
    assert overlap_wt(model) == pytest.approx(min(1.0, 1.0 / w), rel=1e-12)


def test_overlap_wt_clamps_at_one():
    model = toy_model([math.pi], weights=1e-8, a0=0.5)
    assert overlap_wt(model) == 1.0


def test_overlap_ws_warns_on_precondition_violation():
    model = build_model(TorusGrid(5), 1)
    with pytest.warns(UserWarning, match="phi1/2"):
        overlap_ws(model, model.phi1)


def test_success_probability_counters():
    model = build_model(TorusGrid(17), 3)
    res = success_probability(model, compute_alpha(model)[0])
    assert res.Q_G == 3 * res.Q_O
    assert res.Q_O == (res.amplification_rounds + 1) * res.Q
    assert 0.0 <= res.p_s <= 1.0


def test_success_probability_rounding_flag():
    model = build_model(TorusGrid(17), 1)
    alpha, _ = compute_alpha(model)
    floor_res = success_probability(model, alpha, rounding="floor")
    nearest_res = success_probability(model, alpha, rounding="nearest")
    assert floor_res.Q == math.floor(math.pi / (2 * alpha))
    assert nearest_res.Q == round(math.pi / (2 * alpha))


def test_amplification_rounds_when_probability_small():
    model = build_model(TorusGrid(17), 1)
    res = success_probability(model, compute_alpha(model)[0], amplification_threshold=1.1)
    assert res.amplification_rounds == math.ceil(1.0 / math.sqrt(res.p_s))
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
            p = iterate_search(model, math.floor(math.pi / (2 * alpha))).p_s
            if previous is not None:
                assert p >= 0.9 * previous
            previous = p


def test_spectral_gap_power():
    assert spectral_gap_power(1.0, 7) == 1.0
    assert spectral_gap_power(0.37, 1) == pytest.approx(0.37)
    g_t = spectral_gap_power(0.01, 100)
    assert g_t == pytest.approx(1 - math.exp(-1.0), rel=0.05)
    with pytest.raises(ValueError):
        spectral_gap_power(0.0, 3)
    with pytest.raises(ValueError):
        spectral_gap_power(0.5, 0)
