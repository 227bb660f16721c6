import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerwalk.szegedy import (
    MarkovChain,
    build_isometries,
    complete_chain,
    cycle_chain,
    discriminant,
    lazy_chain,
    load_chain_csv,
    nontrivial_basis,
    nontrivial_eigenphases,
    query_cost,
    random_symmetric_chain,
    register_reversal,
    spectral_gap,
    walk_apply,
)

from oracles import (
    loop_nontrivial_basis,
    predicted_nontrivial_eigenphases,
    szegedy_walk_matrix,
)


def test_chain_validation():
    with pytest.raises(ValueError, match="symmetric"):
        MarkovChain(np.array([[0.5, 0.5], [0.9, 0.1]]))
    with pytest.raises(ValueError, match="sum"):
        MarkovChain(np.array([[0.5, 0.4], [0.4, 0.5]]))
    with pytest.raises(ValueError, match="negative"):
        MarkovChain(np.array([[1.5, -0.5], [-0.5, 1.5]]))
    with pytest.raises(ValueError, match="square"):
        MarkovChain(np.ones((2, 3)) / 3)


def test_identity_chain_isometry():
    walk = build_isometries(MarkovChain(np.eye(2)), 1)
    # |A_i> = |i>|i>
    for i in range(2):
        col = walk.A[:, i]
        assert np.flatnonzero(col).tolist() == [i * 2 + i]
        assert col[i * 2 + i] == 1.0
    assert np.allclose(discriminant(walk), np.eye(2))


def test_swap_chain_isometries():
    walk = build_isometries(MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]])), 1)
    # |A_0> = |0>|1>, |B_0> = |1>|0>
    assert np.flatnonzero(walk.A[:, 0]).tolist() == [1]
    assert np.flatnonzero(walk.B[:, 0]).tolist() == [2]


def test_identity_discriminant_any_k():
    for k in (1, 2, 3):
        walk = build_isometries(MarkovChain(np.eye(2)), k)
        assert np.allclose(discriminant(walk), np.eye(2), atol=1e-14)


def test_register_reversal_is_involution():
    perm = register_reversal(3, 2)
    assert np.array_equal(perm[perm], np.arange(27))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=1, max_value=3),
    seed=st.integers(0, 10_000),
)
def test_isometry_columns_unit_norm(n, k, seed):
    chain = random_symmetric_chain(n, np.random.default_rng(seed))
    walk = build_isometries(chain, k)
    norms = np.linalg.norm(walk.A, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert np.max(np.abs(walk.A.T @ walk.A - np.eye(n))) <= 1e-12
    assert np.max(np.abs(walk.B.T @ walk.B - np.eye(n))) <= 1e-12


class CountingMatrix(np.ndarray):
    """An ndarray that counts the matrix products it is the left operand of."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ other


class CountingRng:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def uniform(self, low, high, size):
        return self.rng.uniform(low, high, size).view(CountingMatrix)


def test_random_chain_sinkhorn_stops_once_settled():
    # d -> 1/(S d) settles into a 2-cycle {c d*, d*/c}, never onto d*, so a
    # test on |d_new - d| alone runs every one of the 500 iterations.
    rng = CountingRng(7)
    for n in range(2, 9):
        CountingMatrix.products = 0
        chain = random_symmetric_chain(n, rng)
        assert CountingMatrix.products < 100, n
        assert np.max(np.abs(chain.matrix.sum(axis=1) - 1.0)) <= 1e-14


def test_discriminant_is_chain_power():
    rng = np.random.default_rng(11)
    chain = random_symmetric_chain(4, rng)
    for k in (1, 2, 3):
        walk = build_isometries(chain, k)
        expected = np.linalg.matrix_power(chain.matrix, k)
        assert np.max(np.abs(discriminant(walk) - expected)) <= 1e-10


def test_walk_fixes_common_range_vector():
    rng = np.random.default_rng(3)
    chain = random_symmetric_chain(3, rng)
    walk = build_isometries(chain, 2)
    # uniform combination lies in range(A) and range(B) for doubly
    # stochastic symmetric chains
    common = walk.A @ np.full(3, 3**-0.5)
    assert np.max(np.abs(walk.B @ np.full(3, 3**-0.5) - common)) <= 1e-12
    assert np.max(np.abs(walk_apply(walk, common) - common)) <= 1e-12


def test_walk_unitary_on_random_states():
    rng = np.random.default_rng(5)
    chain = random_symmetric_chain(3, rng)
    walk = build_isometries(chain, 2)
    states = []
    for _ in range(20):
        state = rng.normal(size=walk.dim) + 1j * rng.normal(size=walk.dim)
        state /= np.linalg.norm(state)
        assert abs(np.linalg.norm(walk_apply(walk, state)) - 1.0) <= 1e-12
        states.append(state)
    # A (dim, m) slab is walked column by column.
    slab = np.column_stack(states)
    by_column = np.column_stack([walk_apply(walk, state) for state in states])
    assert np.max(np.abs(walk_apply(walk, slab) - by_column)) <= 1e-14
    W = szegedy_walk_matrix(walk)
    assert np.max(np.abs(W @ W.T - np.eye(walk.dim))) <= 1e-12


def test_multistep_matches_powered_chain_spectrum():
    rng = np.random.default_rng(13)
    chain = random_symmetric_chain(4, rng)
    for k in (2, 3):
        multi = nontrivial_eigenphases(build_isometries(chain, k))
        powered = MarkovChain(np.linalg.matrix_power(chain.matrix, k))
        single = nontrivial_eigenphases(build_isometries(powered, 1))
        assert multi.size == single.size
        assert np.max(np.abs(multi - single)) <= 1e-9


def test_nontrivial_basis_orthonormal():
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        for k in (1, 2, 3):
            walk = build_isometries(random_symmetric_chain(n, rng), k)
            basis = nontrivial_basis(walk)
            assert basis.shape == (n ** (k + 1), 2 * (n - 1)), (n, k)
            gram = basis.T @ basis
            assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-12, (n, k)
            # The loop over singular triples gives the same columns, and a
            # discriminant handed in is the one the basis would form itself.
            assert np.array_equal(loop_nontrivial_basis(walk), basis)
            disc = discriminant(walk)
            assert np.array_equal(nontrivial_basis(walk, disc=disc), basis)


def test_eigenphases_match_singular_values():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        chain = random_symmetric_chain(n, rng)
        walk = build_isometries(chain, 1)
        measured = nontrivial_eigenphases(walk)
        predicted = predicted_nontrivial_eigenphases(walk)
        assert measured.size == predicted.size
        if measured.size:
            assert np.max(np.abs(measured - predicted)) <= 1e-9
            # cos(|phase|/2) recovers the singular value
            s = np.linalg.svd(discriminant(walk), compute_uv=False)
            interior = np.sort(s[(s > 1e-9) & (s < 1 - 1e-9)])
            recovered = np.sort(
                np.unique(np.round(np.cos(np.abs(measured) / 2), 9))
            )
            assert np.allclose(np.sort(recovered), interior, atol=1e-9)


def test_trivial_subspace_action():
    # sigma = 1 directions are fixed exactly
    walk = build_isometries(MarkovChain(np.eye(2)), 1)
    assert nontrivial_basis(walk).shape[1] == 0
    for i in range(2):
        col = walk.A[:, i]
        assert np.allclose(walk_apply(walk, col), col)
    # sigma = 0 directions are negated: the uniform 2-state chain has
    # discriminant eigenvalues {1, 0}
    uniform = MarkovChain(np.full((2, 2), 0.5))
    walk = build_isometries(uniform, 1)
    assert nontrivial_basis(walk).shape[1] == 0
    fixed = walk.A @ np.array([1.0, 1.0]) / math.sqrt(2)
    flipped = walk.A @ np.array([1.0, -1.0]) / math.sqrt(2)
    assert np.allclose(walk_apply(walk, fixed), fixed)
    assert np.allclose(walk_apply(walk, flipped), -flipped)


def test_query_cost():
    rng = np.random.default_rng(19)
    chain = random_symmetric_chain(2, rng)
    assert query_cost(build_isometries(chain, 1)) == 4
    assert query_cost(build_isometries(chain, 3), per_step=2) == 24
    with pytest.raises(ValueError):
        build_isometries(chain, 0)
    with pytest.raises(ValueError):
        query_cost(build_isometries(chain, 1), per_step=0)


def test_budget_guard():
    rng = np.random.default_rng(23)
    chain = random_symmetric_chain(4, rng)
    with pytest.raises(ValueError, match="budget"):
        build_isometries(chain, 6)


def test_generators():
    cyc = cycle_chain(5)
    assert np.allclose(cyc.matrix.sum(axis=1), 1.0)
    comp = complete_chain(4)
    assert comp.matrix[0, 0] == 0.0
    lazy = lazy_chain(cyc, 0.5)
    assert lazy.matrix[0, 0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        cycle_chain(2)


def test_spectral_gap_closed_forms():
    for n in (2, 3, 4, 7):  # eigenvalues 1 and -1/(n-1), n-1 times
        assert spectral_gap(complete_chain(n).matrix) == pytest.approx(
            1 - 1 / (n - 1), abs=1e-14
        )
    assert spectral_gap(cycle_chain(5).matrix) == pytest.approx(
        1 - math.cos(math.pi / 5), abs=1e-14
    )
    assert spectral_gap(lazy_chain(cycle_chain(5)).matrix) == pytest.approx(
        (1 - math.cos(2 * math.pi / 5)) / 2, abs=1e-14
    )
    # Bipartite: the eigenvalue -1 leaves no gap. Disconnected: a second 1.
    assert spectral_gap(cycle_chain(6).matrix) == pytest.approx(0.0, abs=1e-14)
    assert spectral_gap(np.eye(3)) == 0.0
    assert spectral_gap(np.eye(1)) == 1.0  # one state: no second eigenvalue


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    chain = random_symmetric_chain(3, rng)
    path = tmp_path / "chain.csv"
    np.savetxt(path, chain.matrix, delimiter=",")
    loaded = load_chain_csv(path)
    assert np.max(np.abs(loaded.matrix - chain.matrix)) <= 1e-12
