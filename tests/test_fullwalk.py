import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from powerwalk import fullwalk
from powerwalk.fullwalk import (
    REAL_EIGENVALUE_TOL,
    apply_coin,
    apply_oracle,
    apply_shift,
    apply_walk,
    coin_matrix,
    correspondence_report,
    expected_nonreal_phases,
    full_dim,
    walk_matrix,
    walk_spectrum,
)
from powerwalk.torus import REVERSE, TorusGrid

from oracles import (
    PathPort,
    basis_index,
    coin_uniform_state,
    dense_reflection_split,
    index_port,
    powered_rotation_apply,
    projection_sum,
    shift_matrix,
    uniform_superposition,
    vertex_overlaps,
)


def random_state(grid, t, seed=0, complex_=True):
    rng = np.random.default_rng(seed)
    dim = full_dim(grid, t)
    vec = rng.normal(size=dim)
    if complex_:
        vec = vec + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def test_basis_index_round_trip():
    grid = TorusGrid(4)
    for i in range(full_dim(grid, 2)):
        assert basis_index(grid, 2, index_port(grid, 2, i)) == i


def test_shift_on_basis_state():
    grid = TorusGrid(5)
    state = np.zeros(full_dim(grid, 1))
    state[basis_index(grid, 1, PathPort((1, 2), (0,)))] = 1.0
    out = apply_shift(grid, 1, state)
    assert out[basis_index(grid, 1, PathPort((2, 2), (1,)))] == 1.0
    assert np.count_nonzero(out) == 1


def test_shift_is_involution():
    grid = TorusGrid(5)
    state = random_state(grid, 1, seed=1)
    assert np.max(np.abs(apply_shift(grid, 1, apply_shift(grid, 1, state)) - state)) <= 1e-14


def test_shift_permutation_is_powered_rotation_map():
    # The permutation is the vectorised rotation map of the t-th graph power,
    # also on side 2, where the +1 and -1 steps reach the same neighbour.
    for side, steps in ((2, (1, 2, 3, 4)), (3, (1, 2, 3, 4)), (4, (1, 2, 3))):
        grid = TorusGrid(side)
        for t in steps:
            perm = fullwalk.shift_permutation(grid, t)
            for i in range(full_dim(grid, t)):
                partner = powered_rotation_apply(grid, t, index_port(grid, t, i))
                assert perm[i] == basis_index(grid, t, partner)


def test_shift_permutation_takes_no_per_state_scratch():
    """The build translates one 4^t-row path table over the vertices, so its
    tracemalloc peak stays within a few copies of the returned array."""
    grid = TorusGrid(17)
    tracemalloc.start()
    try:
        perm = fullwalk.shift_permutation(grid, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * perm.nbytes, peak / perm.nbytes


def test_shift_permutation_built_once_per_instance(monkeypatch):
    builds = []
    build = fullwalk.shift_permutation

    def counting(grid, t):
        builds.append((grid, t))
        return build(grid, t)

    fullwalk._shift_permutation.cache_clear()
    monkeypatch.setattr(fullwalk, "shift_permutation", counting)
    grid = TorusGrid(3)
    state = np.arange(full_dim(grid, 2), dtype=float)
    for _ in range(5):
        state = apply_walk(grid, 2, apply_shift(grid, 2, state))
    walk_matrix(grid, 2)
    assert builds == [(grid, 2)]
    perm = fullwalk._shift_permutation(grid, 2)
    assert not perm.flags.writeable


def test_shift_matrix_symmetric_permutation_no_fixed_points():
    grid = TorusGrid(3)
    S = shift_matrix(grid, 3)
    assert np.array_equal(S, S.T)
    assert np.all(S.sum(axis=0) == 1.0)
    assert np.all(np.diag(S) == 0.0)


def test_coin_fixes_uniform_and_negates_complement():
    grid = TorusGrid(4)
    psi = coin_uniform_state(grid, 1, (2, 2))
    assert np.allclose(apply_coin(grid, 1, psi), psi)
    # orthogonal within one vertex block: difference of two labels
    vec = np.zeros(full_dim(grid, 1))
    vec[basis_index(grid, 1, PathPort((2, 2), (0,)))] = 2**-0.5
    vec[basis_index(grid, 1, PathPort((2, 2), (1,)))] = -(2**-0.5)
    assert np.allclose(apply_coin(grid, 1, vec), -vec)


def test_coin_is_involution():
    grid = TorusGrid(4)
    state = random_state(grid, 2, seed=2)
    assert np.max(np.abs(apply_coin(grid, 2, apply_coin(grid, 2, state)) - state)) <= 1e-14


def test_oracle_reflects_marked_only():
    grid = TorusGrid(4)
    m = (1, 3)
    psi_m = coin_uniform_state(grid, 1, m)
    assert np.allclose(apply_oracle(grid, 1, m, psi_m), -psi_m)
    psi_u = coin_uniform_state(grid, 1, (0, 0))
    assert np.allclose(apply_oracle(grid, 1, m, psi_u), psi_u)


def test_oracle_rejects_bad_vertex():
    grid = TorusGrid(4)
    with pytest.raises(ValueError):
        apply_oracle(grid, 1, (4, 0), random_state(grid, 1))


def test_unitarity_many_random_applications():
    grid = TorusGrid(5)
    state = random_state(grid, 1, seed=3)
    for i in range(1000):
        state = apply_walk(grid, 1, state)
        state = apply_oracle(grid, 1, (2, 2), state)
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


def test_walk_matrix_is_orthogonal():
    grid = TorusGrid(3)
    W = walk_matrix(grid, 1)
    assert np.max(np.abs(W @ W.T - np.eye(W.shape[0]))) <= 1e-12
    C = coin_matrix(grid, 1)
    S = shift_matrix(grid, 1)
    assert np.allclose(W, S @ C)


def test_uniform_state_is_walk_fixed_point():
    grid = TorusGrid(5)
    psi = uniform_superposition(grid, 1)
    assert np.allclose(apply_walk(grid, 1, psi), psi)


def plane_wave(grid, b):
    """<v|k> for every vertex v = y L + x, for the momentum k of block b."""
    L = grid.side
    kx, ky = b % L, b // L
    x = np.exp(2j * np.pi * kx * np.arange(L) / L)
    y = np.exp(2j * np.pi * ky * np.arange(L) / L)
    return np.outer(y, x).ravel() / L


def one_block(spec, b):
    """(eigenvalues, eigenvectors as columns) of momentum block b alone."""
    values, vectors = spec.block(np.array([b]))
    return values[0], vectors[0]


class Gathered:
    """What the tests read of a WalkSpectrum, built from its block factory.

    ``eigenvalues`` and ``projection_sums`` (|sum(phi)|^2 / d^t) list W_t's
    eigenvectors in block order: eigenvector b d^t + j is
    |k> (x) one_block(spec, b)[1][:, j]. ``masks`` holds one boolean mask per kind:
    'plus_one' and 'minus_one' (within REAL_EIGENVALUE_TOL of +1 or -1) and
    'complex' (neither). ``slab(b, cols)`` assembles the chosen eigenvectors
    of block b in the full space, and ``vectors()`` all of them as a
    dim x dim matrix of columns, for small instances only.
    """

    def __init__(self, spec):
        self.spec = spec
        values, sums = [], []
        for b in range(spec.grid.vertex_count):
            vals, vecs = one_block(spec, b)
            values.append(vals)
            sums.append(np.abs(vecs.sum(axis=0)) ** 2 / 4**spec.t)
        self.eigenvalues = np.concatenate(values)
        self.projection_sums = np.concatenate(sums)
        plus = np.abs(self.eigenvalues - 1.0) <= REAL_EIGENVALUE_TOL
        minus = np.abs(self.eigenvalues + 1.0) <= REAL_EIGENVALUE_TOL
        self.masks = {"plus_one": plus, "minus_one": minus, "complex": ~(plus | minus)}

    def slab(self, b, cols=slice(None)):
        vecs = one_block(self.spec, b)[1][:, cols]
        wave = plane_wave(self.spec.grid, b)
        return (wave[:, None, None] * vecs).reshape(-1, vecs.shape[1])

    def vectors(self):
        blocks = range(self.spec.grid.vertex_count)
        return np.concatenate([self.slab(b) for b in blocks], axis=1)


def test_spectrum_takes_any_size():
    # dim 9 * 4^5 = 9216, over the CLI's default --budget: the library has no
    # size limit of its own. B = M_k C as in the dense-block test below.
    spec = walk_spectrum(TorusGrid(3), 5)
    d, b = 4**5, 4
    values, vecs = one_block(spec, b)
    M = np.zeros((d, d), dtype=complex)
    M[np.arange(d), spec.partner_label] = spec.phases(np.array([b]))[0]
    B = M @ (np.full((d, d), 2.0 / d) - np.eye(d))
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) <= 1e-12
    assert np.max(np.abs(B @ vecs - vecs * values)) <= 1e-12


def test_spectrum_phases_match_prediction_L5_t1():
    grid = TorusGrid(5)
    spec = Gathered(walk_spectrum(grid, 1))
    measured = np.sort(np.angle(spec.eigenvalues[spec.masks["complex"]]))
    assert measured.size == 48
    assert np.max(np.abs(measured - expected_nonreal_phases(grid, 1))) <= 1e-9


def test_cube_relation_L5_t3():
    grid = TorusGrid(5)
    spec = Gathered(walk_spectrum(grid, 3))
    cos_measured = np.sort(np.cos(np.angle(spec.eigenvalues[spec.masks["complex"]])))
    cos_expected = np.sort(np.cos(expected_nonreal_phases(grid, 3)))
    assert np.max(np.abs(cos_measured - cos_expected)) <= 1e-9


def test_projection_sums():
    grid = TorusGrid(5)
    spec = Gathered(walk_spectrum(grid, 1))
    mask = spec.masks["complex"]
    assert np.max(np.abs(spec.projection_sums[mask] - 0.5)) <= 1e-9
    psi = uniform_superposition(grid, 1)
    assert projection_sum(grid, 1, psi) == pytest.approx(1.0, abs=1e-12)
    # The block basis is arbitrary inside the degenerate +-1 eigenspaces, so
    # test the basis-free totals: the +1 eigenspace meets span{psi_u} exactly
    # in the uniform state (total weight 1), the -1 eigenspace not at all.
    plus = spec.projection_sums[spec.masks["plus_one"]].sum()
    minus = spec.projection_sums[spec.masks["minus_one"]].sum()
    assert plus == pytest.approx(1.0, abs=1e-9)
    assert minus == pytest.approx(0.0, abs=1e-9)


def test_vertex_overlaps_definition():
    grid = TorusGrid(4)
    state = random_state(grid, 1, seed=5)
    a = vertex_overlaps(grid, 1, state)
    u = (3, 1)
    # a_u = <state|psi_u>, and vdot conjugates its first argument
    direct = np.vdot(state, coin_uniform_state(grid, 1, u))
    assert a[grid.vertex_index(u)] == pytest.approx(direct, abs=1e-12)


def test_even_step_count_allowed_in_spectrum_paths():
    # even t is legal for the operators and spectrum; a path that doubles back
    # (label g, then its reverse) is a fixed point of the shift, so the path
    # basis skips it
    grid = TorusGrid(3)
    perm = fullwalk.shift_permutation(grid, 2)
    doubled = basis_index(grid, 2, PathPort((0, 0), (0, 1)))  # right then left
    assert perm[doubled] == doubled
    fixed = np.flatnonzero(perm == np.arange(perm.size))
    assert fixed.size == 4 * grid.vertex_count  # one per vertex and first label
    for i in fixed:
        g1, g2 = index_port(grid, 2, i).labels
        assert g2 == REVERSE[g1]
    spec = Gathered(walk_spectrum(grid, 2))
    assert np.max(np.abs(np.abs(spec.eigenvalues) - 1.0)) <= 1e-12


def test_operators_act_on_column_slabs():
    grid = TorusGrid(4)
    slab = np.stack([random_state(grid, 2, seed=s) for s in range(3)], axis=1)
    # Column sums may be taken in another order than a single state's.
    for op in (apply_coin, apply_shift, apply_walk, vertex_overlaps):
        out = op(grid, 2, slab)
        for j in range(slab.shape[1]):
            assert np.max(np.abs(out[:, j] - op(grid, 2, slab[:, j]))) <= 1e-15
    out = apply_oracle(grid, 2, (1, 3), slab)
    for j in range(slab.shape[1]):
        single = apply_oracle(grid, 2, (1, 3), slab[:, j])
        assert np.max(np.abs(out[:, j] - single)) <= 1e-15
    with pytest.raises(ValueError, match="shape"):
        apply_coin(grid, 2, slab[None])


def _dense_spectrum(grid, t):
    """Eigenvalues, kinds and projection sums from a dense Schur form of
    walk_matrix: the oracle for the block decomposition."""
    T, Z = scipy.linalg.schur(walk_matrix(grid, t), output="real")
    T, Z = scipy.linalg.rsf2csf(T, Z)
    values = np.diag(T)
    kinds = np.where(
        np.abs(values - 1.0) <= REAL_EIGENVALUE_TOL,
        "plus_one",
        np.where(np.abs(values + 1.0) <= REAL_EIGENVALUE_TOL, "minus_one", "complex"),
    )
    overlaps = np.conj(Z).reshape(grid.vertex_count, 4**t, -1).sum(axis=1) / 2**t
    return values, kinds, np.sum(np.abs(overlaps) ** 2, axis=0)


def _circle_multiset(values, cut):
    """Eigenphases measured from ``cut`` in (-pi, pi], sorted."""
    return np.sort(np.angle(values * np.exp(-1j * cut)))


def test_block_spectrum_matches_dense_schur():
    # Even sides carry the bipartite -1 mode; even t has doubled-back paths.
    for side in (3, 4, 5, 6):
        grid = TorusGrid(side)
        for t in (1, 2, 3):
            values, kinds, sums = _dense_spectrum(grid, t)
            spec = Gathered(walk_spectrum(grid, t))
            # Measure phases from the middle of the widest gap of the dense
            # spectrum, so no eigenvalue sits near the branch cut.
            phases = np.sort(np.angle(values))
            gaps = np.diff(np.append(phases, phases[0] + 2 * np.pi))
            cut = phases[np.argmax(gaps)] + gaps.max() / 2 + np.pi
            dev = np.abs(
                _circle_multiset(spec.eigenvalues, cut) - _circle_multiset(values, cut)
            )
            assert dev.max() <= 1e-12, (side, t)
            for kind, mask in spec.masks.items():
                assert np.count_nonzero(mask) == np.count_nonzero(
                    kinds == kind
                ), (side, t, kind)
                total = spec.projection_sums[mask].sum()
                assert total == pytest.approx(sums[kinds == kind].sum(), abs=1e-9)


# Largest dimension at which the eigenbasis is checked against the dense W_t.
DENSE_CHECK_DIM = 1600


def test_block_vectors_are_an_orthonormal_eigenbasis():
    # Every block's basis is checked on its own; where the dense W_t fits, the
    # full-space basis, plane waves included, is checked as well. At (9, 5)
    # the blocks are 1024 x 1024: the k = 0 block (u is a +1 eigenvector of
    # M_k), and two generic ones.
    cases = [(side, t) for side in range(2, 10) for t in (1, 2, 3)] + [(9, 5)]
    for side, t in cases:
        grid = TorusGrid(side)
        spec = walk_spectrum(grid, t)
        gathered = Gathered(spec)
        d_t = 4**t
        blocks = (0, 1, 40) if t == 5 else range(grid.vertex_count)
        for b in blocks:
            values, vecs = one_block(spec, b)
            assert np.array_equal(values, gathered.eigenvalues[b * d_t : (b + 1) * d_t])
            gram = vecs.conj().T @ vecs
            assert np.max(np.abs(gram - np.eye(d_t))) <= 1e-12, (side, t, b)
        if full_dim(grid, t) <= DENSE_CHECK_DIM:
            V = gathered.vectors()
            gram = V.conj().T @ V
            assert np.max(np.abs(gram - np.eye(V.shape[0]))) <= 1e-12, (side, t)
            residual = walk_matrix(grid, t) @ V - V * gathered.eigenvalues
            assert np.max(np.abs(residual)) <= 1e-12, (side, t)
    # Columns 16..31 are block 1 of TorusGrid(4), t=2: |k> (x) phi.
    spec = walk_spectrum(TorusGrid(4), 2)
    wave_times_block = np.kron(plane_wave(spec.grid, 1)[:, None], one_block(spec, 1)[1])
    assert np.array_equal(Gathered(spec).vectors()[:, 16:32], wave_times_block)


def test_block_phases_are_the_plane_wave_at_the_partners():
    # M_k's phase at label g is L <s(g)|k>, with s(g) the partner vertex.
    for side, t in ((4, 2), (5, 1), (5, 3)):
        spec = walk_spectrum(TorusGrid(side), t)
        vertex = spec.partner_offset[1] * side + spec.partner_offset[0]
        for b in range(side * side):
            wave = plane_wave(spec.grid, b)
            [phase] = spec.phases(np.array([b]))
            assert np.max(np.abs(phase - side * wave[vertex])) <= 1e-13


def test_walk_spectrum_refuses_a_shift_that_is_not_two_reflections(monkeypatch):
    build = fullwalk._shift_permutation

    def rotated_labels(grid, t):
        # Cycle three partners of vertex 0: r(r(g)) = g fails.
        perm = build(grid, t).copy()
        perm[[0, 1, 2]] = perm[[1, 2, 0]]
        return perm

    def moved_partner(grid, t):
        # Move the partner of label 0 one vertex along x: r stays an
        # involution, but s(r(g)) = -s(g) fails and with it M_k^2 = I.
        perm = build(grid, t).copy()
        vertex, label = divmod(int(perm[0]), 4**t)
        y, x = divmod(vertex, grid.side)
        perm[0] = (y * grid.side + (x + 1) % grid.side) * 4**t + label
        return perm

    for corrupted, match in ((rotated_labels, "involution"), (moved_partner, "square")):
        monkeypatch.setattr(fullwalk, "_shift_permutation", corrupted)
        for t in (1, 2, 3):
            with pytest.raises(RuntimeError, match=match):
                walk_spectrum(TorusGrid(5), t)


def test_walk_spectrum_refuses_a_fixed_label_that_moves(monkeypatch):
    # A label the shift fixes sent half way round an even side: r stays an
    # involution and s(r(g)) = -s(g) mod L still holds, but M_k's phase at
    # that label is -1 for odd k_x, where the split assumes 1.
    build = fullwalk._shift_permutation

    def half_turn(grid, t):
        perm = build(grid, t).copy()
        d = 4**t
        g = int(np.flatnonzero(perm[:d] == np.arange(d))[0])
        perm[g] = (grid.side // 2) * d + g
        return perm

    walk_spectrum(TorusGrid(4), 2)
    monkeypatch.setattr(fullwalk, "_shift_permutation", half_turn)
    with pytest.raises(RuntimeError, match="fixed label"):
        walk_spectrum(TorusGrid(4), 2)


def test_correspondence_report_beyond_dense_sizes():
    # dim 5184, 7744 and 14400: past the dense route, one 64x64 block per
    # momentum.
    for side in (9, 11, 15):
        rep = correspondence_report(TorusGrid(side), 3)
        assert rep.passed(), rep
        assert rep.invariant_dim == 2 * side * side - 1
        assert rep.eigenpair_residual <= 1e-12


def test_correspondence_report_even_sides():
    # The checkerboard mode has cos phi = -1: its vertex-uniform vector is a
    # -1 eigenvector for odd t and a +1 eigenvector for even t, so one
    # conjugate pair is lost from the invariant subspace either way.
    for side in (4, 6, 8):
        for t in (1, 2, 3):
            rep = correspondence_report(TorusGrid(side), t)
            assert rep.passed(), (side, t, rep)
            assert rep.invariant_dim == rep.expected_invariant_dim == 2 * side**2 - 3


def test_correspondence_report_catches_a_wrong_shift(monkeypatch):
    # Swap two entries of vertex 1's block: walk_spectrum reads only vertex
    # 0's block, so it still decomposes the true walk, and the eigenpair
    # residual against the corrupted matrix-free walk must show it.
    build = fullwalk._shift_permutation

    def corrupted(grid, t):
        perm = build(grid, t).copy()
        d_t = 4**t
        perm[[d_t, d_t + 1]] = perm[[d_t + 1, d_t]]
        return perm

    monkeypatch.setattr(fullwalk, "_shift_permutation", corrupted)
    for t in (1, 3):
        rep = correspondence_report(TorusGrid(5), t)
        assert not rep.passed()
        assert rep.eigenpair_residual > 1e-9, (t, rep)


def test_correspondence_report_catches_a_non_involutive_oracle(monkeypatch):
    # i O keeps every norm but squares to -I: only the unitarity probe reads
    # the oracle, and its involution defect must show it.
    oracle = fullwalk.apply_oracle
    monkeypatch.setattr(
        fullwalk, "apply_oracle", lambda grid, t, m, state: 1j * oracle(grid, t, m, state)
    )
    rep = correspondence_report(TorusGrid(5), 1)
    assert not rep.passed()
    assert rep.unitarity_dev > fullwalk.UNITARITY_TOL
    assert rep.eigenpair_residual <= 1e-12


def test_correspondence_report_catches_wrong_path_components(monkeypatch):
    # Vertex overlaps off by one part in 10^6 drive only the path-component
    # formulas: the eigenpairs stay exact and the component check must fail.
    component_dev = fullwalk._path_component_dev
    monkeypatch.setattr(
        fullwalk,
        "_path_component_dev",
        lambda t, phi_i, phi_j, a_u, a_v, ev: component_dev(
            t, phi_i, phi_j, a_u * (1 + 1e-6), a_v * (1 + 1e-6), ev
        ),
    )
    rep = correspondence_report(TorusGrid(5), 3)
    assert not rep.passed()
    assert rep.component_dev > 1e-9
    assert rep.eigenpair_residual <= 1e-12


def test_correspondence_report_catches_one_wrong_eigenvector_in_a_batch(monkeypatch):
    # One entry of one eigenvector, in the second block of the first stack
    # that holds several, moved by 1e-6: the rest of the stack stays exact,
    # and the eigenpair residual read over the whole batch must show it.
    split = fullwalk._reflection_split

    def perturbed(phase, partner):
        values, vecs = split(phase, partner)
        if len(phase) > 1 and not hit:
            vecs[1, 2, 0] += 1e-6
            hit.append(phase)
        return values, vecs

    monkeypatch.setattr(fullwalk, "_reflection_split", perturbed)
    for side, t in ((5, 1), (7, 3)):
        hit = []
        rep = correspondence_report(TorusGrid(side), t)
        assert len(hit) == 1 and len(hit[0]) > 2, (side, t)
        assert rep.eigenpair_residual > fullwalk.SPECTRUM_TOL, (side, t, rep)
        assert not rep.passed()


def test_correspondence_report_builds_each_block_once(monkeypatch):
    # One decomposition per momentum block: the reflection split runs on
    # stacks of consecutive blocks, each of at most BATCH_ENTRIES entries (or
    # one block), which together hold every block once, in order, on odd and
    # even sides and odd and even t.
    split = fullwalk._reflection_split
    stacks = []

    def counting(phase, partner):
        stacks.append(phase)
        return split(phase, partner)

    monkeypatch.setattr(fullwalk, "_reflection_split", counting)
    for side in (2, 3, 4, 5, 6, 7):
        for t in (1, 2, 3):
            stacks.clear()
            grid = TorusGrid(side)
            assert correspondence_report(grid, t).passed()
            batch = max(1, fullwalk.BATCH_ENTRIES // 16**t)
            sizes = [min(batch, side**2 - first) for first in range(0, side**2, batch)]
            assert [len(stack) for stack in stacks] == sizes, (side, t)
            every = walk_spectrum(grid, t).phases(np.arange(side**2))
            assert np.array_equal(np.concatenate(stacks), every), (side, t)
    # Every block of a 5 x 5 side at t = 1 in one stack; 64 x 64 blocks in
    # several; 1024 x 1024 blocks one at a time.
    assert fullwalk.BATCH_ENTRIES // 16 >= 25
    assert 1 < fullwalk.BATCH_ENTRIES // 64**2 < 49
    assert fullwalk.BATCH_ENTRIES // 1024**2 == 0


def test_reflection_split_diagonalises_each_dense_block():
    # B = M_k C from its definition: (M_k v)_g = phase_g v_r(g) and
    # C = 2|u><u| - I. Every block of each side and step count, with block 0
    # and, on even sides, block (L/2, L/2) among them: there cos phi_k = +-1,
    # u is an eigenvector of M_k, the plane pair is two +-1 eigenvectors and
    # the block has no non-real eigenvalue. All blocks of an instance are
    # split as one stack, in which those blocks sit beside generic ones.
    for side in (4, 5, 6, 8, 9):
        for t in (1, 2, 3):
            grid = TorusGrid(side)
            spec = walk_spectrum(grid, t)
            d = 4**t
            coin = np.full((d, d), 2.0 / d) - np.eye(d)
            collapsed = []
            phases = spec.phases(np.arange(side * side))
            stacked = fullwalk._reflection_split(phases, spec.partner_label)
            for b in range(side * side):
                phase = phases[b]
                values, vecs = stacked[0][b], stacked[1][b]
                M = np.zeros((d, d), dtype=complex)
                M[np.arange(d), spec.partner_label] = phase
                B = M @ coin
                assert values.shape == (d,) and vecs.shape == (d, d)
                gram = vecs.conj().T @ vecs
                assert np.max(np.abs(gram - np.eye(d))) <= 1e-13, (side, t, b)
                assert np.max(np.abs(B @ vecs - vecs * values)) <= 1e-13, (side, t, b)
                # The same arithmetic as on dense eigenspace bases, bit for bit.
                dense_values, dense_vecs = dense_reflection_split(phase, spec.partner_label)
                assert np.array_equal(values, dense_values), (side, t, b)
                assert np.array_equal(vecs, dense_vecs), (side, t, b)
                if np.all(np.abs(values.imag) <= REAL_EIGENVALUE_TOL):
                    collapsed.append(b)
            corner = (side // 2) * side + side // 2
            assert collapsed == ([0, corner] if side % 2 == 0 else [0]), (side, t)


def all_paths_component_dev(grid, t):
    """The path-component deviation read on every path of the full space,
    from each block's (dim, 2) slab of non-real eigenvectors: the oracle for
    the report, which reads the paths that start at vertex 0 only."""
    spec = Gathered(walk_spectrum(grid, t))
    d_t = 4**t
    perm = fullwalk.shift_permutation(grid, t)
    i = np.flatnonzero(np.arange(perm.size) < perm)  # one index per path pair
    j = perm[i]
    nonreal = spec.masks["complex"].reshape(grid.vertex_count, d_t)
    dev = 0.0
    for b, cols in enumerate(nonreal):
        if not cols.any():
            continue
        slab = spec.slab(b, cols)
        conj_ev = np.conj(spec.eigenvalues[b * d_t : (b + 1) * d_t][cols])
        a = vertex_overlaps(grid, t, slab)
        a_u, a_v = a[i // d_t], a[j // d_t]
        cvec = np.conj(slab)
        scale = (2.0 / d_t) ** 0.5
        plus = (cvec[i] + cvec[j]) * 2**-0.5 - scale * (a_u + a_v) / (1.0 + conj_ev)
        minus = (cvec[i] - cvec[j]) * 2**-0.5 - scale * (a_u - a_v) / (1.0 - conj_ev)
        dev = max(dev, np.abs(plus).max(), np.abs(minus).max())
    return dev


def test_component_check_reads_vertex_zero_paths_only(monkeypatch):
    # A path's deviation has the same modulus at every vertex, so the paths
    # from vertex 0 give the all-paths maximum. Exact eigenvectors leave both
    # at rounding level. Row g of every block's eigenvectors scaled by
    # 1 + eps w_g, with w_g a fixed random weight per path label, lifts both
    # to about 1e-7 at eps = 1e-6, differently on each path from one vertex,
    # so every one of them must be read for the maxima to agree.
    split = fullwalk._reflection_split
    cases = [(side, t, eps) for side in range(2, 8) for t in (1, 2, 3)
             for eps in (0.0, 1e-6)]
    for side, t, eps in cases + [(9, 5, 1e-6)]:

        def perturbed(phase, partner, eps=eps):
            values, vecs = split(phase, partner)
            d = phase.shape[-1]
            w = np.random.default_rng(d).uniform(size=d)
            return values, vecs * (1 + eps * w[:, None])

        monkeypatch.setattr(fullwalk, "_reflection_split", perturbed)
        grid = TorusGrid(side)
        rep = correspondence_report(grid, t)
        oracle = all_paths_component_dev(grid, t)
        assert abs(rep.component_dev - oracle) <= 1e-13, (side, t, eps)
        assert (oracle > 1e-9) == (eps > 0.0), (side, t, eps)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_walk_preserves_norm_random_states(seed):
    grid = TorusGrid(3)
    state = random_state(grid, 1, seed=seed)
    out = apply_walk(grid, 1, state)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
