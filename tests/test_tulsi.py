import math

import numpy as np
import pytest

from powerwalk.fullwalk import full_dim
from powerwalk.search import (
    alpha_estimate,
    build_model,
    compute_alpha,
    overlap_ws,
    overlap_wt,
    success_probability,
)
from powerwalk.torus import TorusGrid
from powerwalk.tulsi import tune_delta

from oracles import (
    block_step,
    circuit_step,
    circuit_trajectory,
    delta_state,
    iterate_search,
    reduced_modes,
    x_delta_matrix,
)


def test_build_rejects_bad_delta():
    with pytest.raises(ValueError):
        build_model(TorusGrid(5), 1, delta=-0.1)
    with pytest.raises(ValueError):
        build_model(TorusGrid(5), 1, delta=math.pi / 2)


def test_delta_zero_reduces_to_plain_model():
    model = build_model(TorusGrid(5), 1)
    zero = build_model(TorusGrid(5), 1, delta=0.0)
    dims = [reduced_modes(m.grid, m.t, m.delta)[0].size for m in (zero, model)]
    assert dims == [49, 49]  # no pi mode at delta=0
    # identical trajectories, exactly
    plain = iterate_search(model, 25)
    controlled = iterate_search(zero, 25)
    assert np.array_equal(plain, controlled)
    # identical alpha and overlaps
    a_plain, est_plain = compute_alpha(model)
    a_ctrl, est_ctrl = compute_alpha(zero)
    assert a_ctrl == pytest.approx(a_plain, abs=1e-13)
    assert est_ctrl == pytest.approx(est_plain, abs=1e-13)
    assert overlap_ws(zero, a_ctrl) == pytest.approx(overlap_ws(model, a_plain), abs=1e-12)
    assert overlap_wt(zero) == pytest.approx(overlap_wt(model), abs=1e-12)


def test_limiting_overlaps_near_pi_half():
    _, target = reduced_modes(TorusGrid(5), 1, delta=math.pi / 2 - 1e-6)
    assert target[-1] == pytest.approx(1.0, abs=1e-9)  # a_pi
    assert np.max(np.abs(target[:-1])) < 1e-5


def test_schedule_identity():
    model = build_model(TorusGrid(33), 3)
    delta = tune_delta(model, "balanced")
    n = 33 * 33
    assert model.t * math.tan(delta) ** 2 == pytest.approx(math.log(n), rel=1e-12)


def test_tune_delta_original():
    # balanced at t = 1 is the original single-step controlled search.
    model = build_model(TorusGrid(32), 1)
    delta = tune_delta(model, "balanced")
    assert math.tan(delta) ** 2 == pytest.approx(math.log(1024), rel=1e-12)
    assert delta == pytest.approx(math.atan(math.sqrt(6.931471805599453)), rel=1e-12)


def test_tune_delta_errors_and_clamps():
    model3 = build_model(TorusGrid(17), 3)
    with pytest.raises(ValueError, match="unknown tuning target"):
        tune_delta(model3, "original-tulsi")  # retired: balanced at t = 1
    big_t = build_model(TorusGrid(5), 5)  # t=5 > ln 25 ~ 3.2
    with pytest.raises(ValueError):
        tune_delta(big_t, "balanced")
    assert tune_delta(big_t, "optimal-qo") == 0.0
    mid = build_model(TorusGrid(65), 3)  # ln 4225 ~ 8.35, ratio clamps at 1
    assert math.tan(tune_delta(mid, "optimal-qo")) ** 2 == pytest.approx(1.0)


def slab_basis(grid, t):
    """Every basis state of the walk (x) ancilla space, as a (dim, 2) slab."""
    dim = full_dim(grid, t)
    return np.eye(2 * dim).reshape(2 * dim, dim, 2)


def test_circuit_equals_block_form():
    # Both step functions on every basis state: the whole operators agree.
    grid = TorusGrid(5)
    for delta in (0.0, 0.4, 1.1):
        for state in slab_basis(grid, 1):
            C = circuit_step(grid, 1, (1, 3), delta, state)
            B = block_step(grid, 1, (1, 3), delta, state)
            assert np.max(np.abs(C - B)) <= 1e-12


def test_circuit_unitary():
    grid = TorusGrid(5)
    # Row i is the image of basis state i, so G = U^T.
    G = np.array(
        [circuit_step(grid, 1, (0, 0), 0.8, e).ravel() for e in slab_basis(grid, 1)]
    )
    assert np.max(np.abs(G @ G.T - np.eye(G.shape[0]))) <= 1e-12


def test_reduced_matches_circuit_trajectory():
    for side in (3, 4, 5, 6):
        grid = TorusGrid(side)
        m = (2 % side, 4 % side)
        for delta in (0.3, 0.9):
            reduced = iterate_search(build_model(grid, 1, delta), 40)
            full = circuit_trajectory(grid, 1, m, delta, 40)
            assert np.max(np.abs(reduced - full)) <= 1e-9, (side, delta)
    # Up to the search's own Q, at sizes the scaling claims are made at.
    for side, t in ((33, 1), (65, 1), (65, 3), (17, 5)):
        grid = TorusGrid(side)
        balanced = tune_delta(build_model(grid, t), "balanced")
        for delta in (0.0, balanced):
            model = build_model(grid, t, delta)
            Q = success_probability(model, compute_alpha(model)[0]).Q
            reduced = iterate_search(model, Q)
            full = circuit_trajectory(grid, t, (2, 4), delta, Q)
            assert np.max(np.abs(reduced - full)) <= 1e-9, (side, t, delta)


def test_reduced_iteration_is_unitary():
    phases, T = reduced_modes(TorusGrid(9), 1, delta=0.6)
    phases = np.exp(1j * phases)
    state = np.zeros(T.size, dtype=complex)
    state[0] = 1.0
    for _ in range(60):
        state = state - 2.0 * np.dot(T, state) * T
        state = state * phases
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


def test_delta_state_definition():
    d = 0.7
    vec = delta_state(d)
    assert vec[0] == pytest.approx(math.cos(d))
    assert vec[1] == pytest.approx(math.sin(d))
    X = x_delta_matrix(d)
    assert np.allclose(X @ vec, [1.0, 0.0])


def test_wt_gains_one_plus_tan_squared():
    # direct summation reproduces the (1 + tan^2 delta) gain of wt^2 while
    # the clamp is inactive
    model = build_model(TorusGrid(33), 1)
    wt0 = overlap_wt(model)
    ratios = []
    for delta in (0.0, 0.2, 0.4, 0.6):
        wt = overlap_wt(build_model(TorusGrid(33), 1, delta=delta))
        closed_form = math.sqrt(
            model.t * (1 + math.tan(delta) ** 2) / math.log(33 * 33)
        )
        ratios.append(wt / closed_form)
        assert wt == pytest.approx(wt0 / math.cos(delta), rel=1e-12)
    assert max(ratios) / min(ratios) < 1.1


def test_alpha_delta_scaling_band():
    # alpha_delta * sqrt(N) stays bounded once t tan^2(delta) >= ln N
    values = []
    for side in (17, 33, 65):
        model = build_model(TorusGrid(side), 1)
        controlled = build_model(TorusGrid(side), 1, delta=tune_delta(model, "balanced"))
        a_d, _ = compute_alpha(controlled)
        values.append(a_d * side)
    assert max(values) < 2.0
    assert max(values) / min(values) < 2.0


def test_p_s_improves_with_tan2_at_fixed_t():
    previous = None
    for delta in (0.0, 0.3, 0.6, 0.9):
        model = build_model(TorusGrid(65), 1, delta=delta)
        res = success_probability(model, compute_alpha(model)[0])
        if previous is not None:
            assert res.p_s >= previous - 1e-12
        previous = res.p_s
    assert previous <= 1.0


def test_tulsi_success_counters():
    model = build_model(TorusGrid(17), 3)
    controlled = build_model(TorusGrid(17), 3, delta=tune_delta(model, "balanced"))
    alpha, _ = compute_alpha(controlled)
    res = success_probability(controlled, alpha)
    assert res.Q_G == 3 * res.Q_O
    assert res.Q == math.floor(math.pi / (2 * alpha))


def test_estimate_collapses_to_plain_at_zero():
    _, est_plain = compute_alpha(build_model(TorusGrid(9), 1))
    zero = build_model(TorusGrid(9), 1, delta=0.0)
    assert alpha_estimate(zero) == pytest.approx(est_plain, rel=1e-12)
    # and continuously: the pi-mode term sin^2(delta)/4 vanishes as delta -> 0
    tiny = build_model(TorusGrid(9), 1, delta=1e-8)
    assert alpha_estimate(tiny) == pytest.approx(est_plain, rel=1e-12)
