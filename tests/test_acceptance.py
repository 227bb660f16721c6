"""Acceptance suite: every contract criterion at its stated tolerance.

Run as `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. Heavy shared computations (dense spectra, size sweeps) live in
module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from powerwalk import fullwalk, szegedy
from powerwalk.fullwalk import correspondence_report
from powerwalk.records import fit_loglog_slope
from powerwalk.search import (
    build_model,
    compute_alpha,
    nearest_odd,
    success_probability,
)
from powerwalk.sums import grid_sums
from powerwalk.torus import TorusGrid
from powerwalk.tulsi import tune_delta

from oracles import (
    block_step,
    circuit_step,
    circuit_trajectory,
    coin_uniform_state,
    iterate_search,
    uniform_superposition,
)

ODD_SWEEP = (17, 33, 65, 129, 257)
SUMS_SWEEP = (8, 16, 32, 64, 128, 256, 512)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def spectra():
    grid = TorusGrid(5)
    return {t: correspondence_report(grid, t) for t in (1, 3)}


@pytest.fixture(scope="module")
def sweep_t1():
    out = []
    for side in ODD_SWEEP:
        model = build_model(TorusGrid(side), 1)
        alpha, est = compute_alpha(model)
        res = success_probability(model, alpha)
        traj = iterate_search(model, res.Q)
        out.append(
            {
                "L": side,
                "N": side * side,
                "model": model,
                "alpha": alpha,
                "result": res,
                "p_traj": traj[-1],
            }
        )
    return out


@pytest.fixture(scope="module")
def sweep_tlog():
    out = []
    for side in ODD_SWEEP:
        n = side * side
        t = nearest_odd(math.log(n))
        model = build_model(TorusGrid(side), t)
        alpha, est = compute_alpha(model)
        res = success_probability(model, alpha)
        traj = iterate_search(model, res.Q)
        out.append(
            {
                "L": side,
                "N": n,
                "t": t,
                "model": model,
                "alpha": alpha,
                "result": res,
                "p_traj": traj[-1],
            }
        )
    return out


def test_criterion_01_walk_spectrum_correspondence(spectra):
    devs = []
    ok = True
    for t in (1, 3):
        rep = spectra[t]
        devs.append(rep.phase_multiset_dev)
        ok = ok and rep.phase_multiset_dev <= 1e-9
        ok = ok and rep.nonreal_count == rep.expected_nonreal_count == 48
        ok = ok and rep.invariant_dim == 49
    report(
        1,
        "non-real eigenphases of the full walk equal +-arccos(cos^t phi_k) "
        "as multisets (1e-9) and the invariant subspace has dimension 2N-1=49",
        ok,
        f"max phase dev {max(devs):.2e}",
    )


def test_criterion_02_projection_sums_and_overlap_law(spectra):
    ok = True
    proj_devs = []
    overlap_devs = []
    for t in (1, 3):
        rep = spectra[t]
        proj_devs.append(rep.projection_sum_dev)
        overlap_devs.append(rep.overlap_law_dev)
        ok = ok and rep.projection_sum_dev <= 1e-9
        ok = ok and rep.overlap_law_dev <= 1e-9
    report(
        2,
        "projection sums equal 0.5 (1e-9) for all non-real eigenvectors and "
        "per-mode marked overlaps equal 1/(2N)=0.02 (1e-9) after "
        "conjugate-pair mixing",
        ok,
        f"proj dev {max(proj_devs):.2e}, overlap dev {max(overlap_devs):.2e}",
    )


def test_criterion_03_reduced_engine_equivalence():
    grid = TorusGrid(5)
    marked = (3, 1)
    worst = 0.0
    for t in (1, 3):
        model = build_model(grid, t)
        alpha, _ = compute_alpha(model)
        Q = 3 * math.floor(math.pi / (2 * alpha))
        reduced = iterate_search(model, Q)
        state = uniform_superposition(grid, t).astype(complex)
        target = coin_uniform_state(grid, t, marked)
        full = np.empty(Q + 1)
        full[0] = abs(np.dot(target, state)) ** 2
        for step in range(1, Q + 1):
            state = fullwalk.apply_oracle(grid, t, marked, state)
            state = fullwalk.apply_walk(grid, t, state)
            full[step] = abs(np.dot(target, state)) ** 2
        worst = max(worst, float(np.max(np.abs(reduced - full))))
    report(
        3,
        "reduced-engine success trajectories match the full-space simulation "
        "pointwise (1e-9) for L=5, t in {1,3}, Q up to 3*floor(pi/2a)",
        worst <= 1e-9,
        f"max pointwise dev {worst:.2e}",
    )


def test_criterion_04_sum_bounds_identity_and_band():
    ok = True
    worst_identity = 0.0
    band_values = []
    for side in SUMS_SWEEP:
        n = side * side
        t_log = nearest_odd(math.log(n))
        for t in (1, 3, t_log):
            gs = grid_sums(TorusGrid(side), t)
            ok = ok and gs.bracketed()
            worst_identity = max(worst_identity, gs.identity_residual())
            ok = ok and gs.identity_residual() <= 1e-9
            if t == t_log:
                band_values.append(gs.S1 * t / (n * math.log(n)))
    ratio = max(band_values) / min(band_values)
    ok = ok and ratio < 4.0
    report(
        4,
        "lower bound <= S1 <= shell upper bound for L in {8..512}, "
        "t in {1,3,nearest-odd(ln N)}; S3 = 1-N+2*S1 (1e-9 rel); "
        "S1*t/(N lnN) band ratio < 4 at t = nearest-odd(ln N)",
        ok,
        f"identity residual {worst_identity:.2e}, band ratio {ratio:.3f}",
    )


def test_criterion_05_alpha_below_half_smallest_eigenphase():
    ok = True
    margin = math.inf
    for side in ODD_SWEEP:
        n = side * side
        for t in (1, 3, nearest_odd(math.log(n))):
            model = build_model(TorusGrid(side), t)
            alpha = compute_alpha(model)[0]
            margin = min(margin, model.phi1 / 2.0 - alpha)
            ok = ok and alpha < model.phi1 / 2.0
    report(
        5,
        "alpha_exact < phi1^(t)/2 for every odd L in {17..257}, "
        "t in {1,3,nearest-odd(ln N)}",
        ok,
        f"smallest margin {margin:.3e}",
    )


def test_criterion_06_single_step_recovers_sqrt_scaling(sweep_t1):
    ns = [rec["N"] for rec in sweep_t1]
    q_o = [rec["result"].Q_O for rec in sweep_t1]
    slope, resid = fit_loglog_slope(ns, [q / math.log(n) for q, n in zip(q_o, ns)])
    slope_ok = 0.4 <= slope <= 0.6
    p_bound = [rec["result"].p_s for rec in sweep_t1]
    p_traj = [rec["p_traj"] for rec in sweep_t1]
    decreasing = all(b > a for b, a in zip(p_bound, p_bound[1:])) and all(
        b > a for b, a in zip(p_traj, p_traj[1:])
    )
    report(
        6,
        "t=1 recovers the single-step scaling: log-log slope of Q_O/lnN vs N "
        "is 0.5 +- 0.1 and p_s decreases strictly in N",
        slope_ok and decreasing,
        f"slope {slope:.3f} (resid {resid:.3f}), "
        f"p_s {p_traj[0]:.3f}->{p_traj[-1]:.3f}",
    )


def test_criterion_07_log_steps_optimal_oracle_count(sweep_tlog):
    p_traj = [rec["p_traj"] for rec in sweep_tlog]
    p_floor = 0.75 * min(p_traj)
    p_ok = all(p >= p_floor for p in p_traj)
    p_ratio = max(p_traj) / min(p_traj)
    q_over_root = [
        rec["result"].Q_O / math.sqrt(rec["N"]) for rec in sweep_tlog
    ]
    q_ratio = max(q_over_root) / min(q_over_root)
    counters = all(
        rec["result"].Q_G == rec["t"] * rec["result"].Q_O for rec in sweep_tlog
    )
    ok = p_ok and p_ratio < 3.0 and q_ratio < 3.0 and counters
    report(
        7,
        "t = nearest-odd(ln N): p_s sits in a constant band (ratio < 3) and "
        "Q_O/sqrt(N) band ratio < 3 with Q_G = t*Q_O exactly",
        ok,
        f"p_s ratio {p_ratio:.3f}, Q_O/sqrt(N) ratio {q_ratio:.3f}",
    )


def test_criterion_08_controlled_search_recovery():
    # (a) t=1, tan^2(delta) = ln N: Q_delta / sqrt(N ln N) in a < 3 band
    q_norm = []
    for side in ODD_SWEEP:
        n = side * side
        model = build_model(TorusGrid(side), 1)
        controlled = build_model(
            TorusGrid(side), 1, delta=tune_delta(model, "balanced")
        )
        alpha_d, _ = compute_alpha(controlled)
        q_delta = math.floor(math.pi / (2 * alpha_d))
        q_norm.append(q_delta / math.sqrt(n * math.log(n)))
    band_a = max(q_norm) / min(q_norm)

    # (b) delta = 0 reproduces the plain engine exactly
    model5 = build_model(TorusGrid(5), 1)
    zero = build_model(TorusGrid(5), 1, delta=0.0)
    plain = iterate_search(model5, 20)
    controlled = iterate_search(zero, 20)
    zero_ok = np.array_equal(plain, controlled)
    a_plain, _ = compute_alpha(model5)
    a_zero, _ = compute_alpha(zero)
    zero_ok = zero_ok and abs(a_plain - a_zero) <= 1e-12

    # (c) the explicit circuit equals the abstract block operator on L=5,
    # applied to every basis state of the walk (x) ancilla space
    delta = 0.8
    grid5 = TorusGrid(5)
    dim = fullwalk.full_dim(grid5, 1)
    circuit_dev = 0.0
    for state in np.eye(2 * dim).reshape(2 * dim, dim, 2):
        step_dev = circuit_step(grid5, 1, (2, 2), delta, state) - block_step(
            grid5, 1, (2, 2), delta, state
        )
        circuit_dev = max(circuit_dev, float(np.max(np.abs(step_dev))))
    controlled = build_model(TorusGrid(5), 1, delta=delta)
    traj_dev = float(
        np.max(
            np.abs(
                iterate_search(controlled, 25)
                - circuit_trajectory(TorusGrid(5), 1, (2, 2), delta, 25)
            )
        )
    )

    # (d) Q_O * Q_G / (N ln N) bounded band while t tan^2(delta) = ln N
    qq_norm = []
    for side in ODD_SWEEP:
        n = side * side
        t = nearest_odd(math.log(n))
        model = build_model(TorusGrid(side), t)
        tm_b = build_model(TorusGrid(side), t, delta=tune_delta(model, "balanced"))
        res = success_probability(tm_b, compute_alpha(tm_b)[0])
        qq_norm.append(res.Q_O * res.Q_G / (n * math.log(n)))
    band_d = max(qq_norm) / min(qq_norm)

    ok = (
        band_a < 3.0
        and zero_ok
        and circuit_dev <= 1e-9
        and traj_dev <= 1e-9
        and band_d < 3.0
    )
    report(
        8,
        "controlled search: t=1, tan^2(delta)=lnN gives Q_delta/sqrt(N lnN) "
        "band < 3; delta=0 equals plain search; circuit equals the block "
        "operator (1e-9); Q_O*Q_G/(N lnN) banded under t tan^2(delta)=lnN",
        ok,
        f"bands {band_a:.3f}/{band_d:.3f}, circuit dev {circuit_dev:.2e}, "
        f"trajectory dev {traj_dev:.2e}",
    )


def test_criterion_09_markov_quantization():
    rng = np.random.default_rng(2024)
    disc_worst = 0.0
    eig_worst = 0.0
    ok = True
    for index in range(20):
        n = (2, 3, 4)[index % 3]
        [matrix] = szegedy.random_symmetric_chain(rng.random((1, n, n)))
        chain = szegedy.MarkovChain(matrix)
        for k in (1, 2, 3):
            walk = szegedy.build_isometries(chain.matrix[None], k)
            powered = np.linalg.matrix_power(chain.matrix, k)
            disc_worst = max(
                disc_worst,
                float(np.max(np.abs(szegedy.discriminant(walk) - powered))),
            )
            [multi] = szegedy.nontrivial_eigenphases(walk)
            [single] = szegedy.nontrivial_eigenphases(
                szegedy.build_isometries(szegedy.MarkovChain(powered).matrix[None], 1)
            )
            if multi.size != single.size:
                ok = False
                continue
            if multi.size:
                eig_worst = max(eig_worst, float(np.max(np.abs(multi - single))))
            ok = ok and szegedy.query_cost(walk) == 4 * k
    ok = ok and disc_worst <= 1e-10 and eig_worst <= 1e-9
    report(
        9,
        "A_k^T B_k = M^k entrywise (1e-10) for 20 random symmetric chains, "
        "N in {2,3,4}, k in {1,2,3}; nontrivial eigenphase multisets of the "
        "multi-step and powered-chain walks agree (1e-9); query counter is 4k",
        ok,
        f"disc dev {disc_worst:.2e}, eigenphase dev {eig_worst:.2e}",
    )


def test_criterion_10_spectral_gap_powering():
    # The gap of M^k, measured on M^k itself, against 1-(1-g)^k from the gap
    # of M: on the random chains of criterion 9, and on lazy cycles at
    # k = ceil(1/g), where the powered gap also clears 1 - 1/e - 0.05.
    rng = np.random.default_rng(2024)
    chains = [
        szegedy.MarkovChain(szegedy.random_symmetric_chain(rng.random((1, n, n)))[0])
        for n in ((2, 3, 4)[i % 3] for i in range(20))
    ]
    cases = [(chain, k) for chain in chains for k in (1, 2, 3)]
    for n in (5, 7, 9):
        chain = szegedy.lazy_chain(szegedy.cycle_chain(n))
        cases.append((chain, math.ceil(1.0 / szegedy.spectral_gap(chain.matrix))))
    worst = 0.0
    powered = []
    for chain, k in cases:
        g = szegedy.spectral_gap(chain.matrix)
        g_k = szegedy.spectral_gap(np.linalg.matrix_power(chain.matrix, k))
        worst = max(worst, abs(g_k - (1.0 - (1.0 - g) ** k)))
        powered.append(g_k)
    lazy = [(chain.size, k, g_k) for (chain, k), g_k in zip(cases[-3:], powered[-3:])]
    floor = 1.0 - math.exp(-1.0) - 0.05
    ok = worst <= 1e-9 and min(g_k for _, _, g_k in lazy) >= floor
    report(
        10,
        "measured gap of M^k = 1-(1-g)^k (1e-9) for the 20 random chains of "
        "criterion 9, k in {1,2,3}, and the lazy cycles n in {5,7,9} at "
        "k = ceil(1/g), whose measured g_k >= 1 - 1/e - 0.05",
        ok,
        f"dev {worst:.2e}, "
        + ", ".join(f"n={n} k={k}: g_k={g_k:.3f}" for n, k, g_k in lazy),
    )
