import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerwalk.szegedy import (
    DISCRIMINANT_TOL,
    MarkovChain,
    _restricted_operators,
    build_isometries,
    check_stochastic,
    complete_chain,
    cycle_chain,
    discriminant,
    lazy_chain,
    load_chain_csv,
    nontrivial_eigenphases,
    query_cost,
    random_symmetric_chain,
    register_reversal,
    spectral_gap,
)

from oracles import (
    loop_nontrivial_basis,
    nontrivial_basis,
    predicted_nontrivial_eigenphases,
    szegedy_walk_matrix,
    walk_apply,
)


def random_chain(n, rng):
    """One random chain of size n from a numpy Generator's draws."""
    return MarkovChain(random_symmetric_chain(rng.random((1, n, n)))[0])


def test_chain_validation():
    with pytest.raises(ValueError, match="symmetric"):
        MarkovChain(np.array([[0.5, 0.5], [0.9, 0.1]]))
    with pytest.raises(ValueError, match="sum"):
        MarkovChain(np.array([[0.5, 0.4], [0.4, 0.5]]))
    with pytest.raises(ValueError, match="negative"):
        MarkovChain(np.array([[1.5, -0.5], [-0.5, 1.5]]))
    with pytest.raises(ValueError, match="square"):
        MarkovChain(np.ones((2, 3)) / 3)


def test_stochastic_check_reads_every_matrix_of_a_stack():
    # The check MarkovChain makes, on each matrix of a stack: one bad matrix
    # among good ones is refused, and the 1e-12 limits are the chain's.
    good = np.stack([complete_chain(3).matrix, cycle_chain(3).matrix])
    check_stochastic(good)
    skew = good.copy()
    skew[1, 0, 1] += 2e-12
    skew[1, 0, 2] -= 2e-12
    with pytest.raises(ValueError, match="symmetric"):
        check_stochastic(skew)
    heavy = good.copy()
    heavy[0] *= 1.0 + 2e-12
    with pytest.raises(ValueError, match="sum"):
        check_stochastic(heavy)
    negative = good.copy()
    negative[1, 0, 0] = -2e-12
    with pytest.raises(ValueError, match="negative"):
        check_stochastic(negative)
    for bad in (np.nan, np.inf):
        unfinite = good.copy()
        unfinite[1, 0, 1] = unfinite[1, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_stochastic(unfinite)
    with pytest.raises(ValueError, match="non-finite"):
        MarkovChain(np.full((2, 2), np.nan))
    slack = good.copy()
    slack[1, 0, 1] += 5e-13
    slack[1, 1, 0] += 5e-13
    check_stochastic(slack)


def test_identity_chain_isometry():
    walk = build_isometries(np.eye(2), 1)
    # |A_i> = |i>|i>
    for i in range(2):
        col = walk.A[:, i]
        assert np.flatnonzero(col).tolist() == [i * 2 + i]
        assert col[i * 2 + i] == 1.0
    assert np.allclose(discriminant(walk), np.eye(2))


def test_swap_chain_isometries():
    walk = build_isometries(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    # |A_0> = |0>|1>, |B_0> = |1>|0>
    assert np.flatnonzero(walk.A[:, 0]).tolist() == [1]
    assert np.flatnonzero(walk.B[:, 0]).tolist() == [2]


def test_identity_discriminant_any_k():
    for k in (1, 2, 3):
        walk = build_isometries(np.eye(2), k)
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
    chain = random_chain(n, np.random.default_rng(seed))
    walk = build_isometries(chain.matrix, k)
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


def test_random_chain_sinkhorn_stops_once_settled():
    # d -> 1/(S d) settles into a 2-cycle {c d*, d*/c}, never onto d*, so a
    # test on |d_new - d| alone runs every one of the 500 iterations. A stack
    # takes as many products as its slowest chain.
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        CountingMatrix.products = 0
        chains = random_symmetric_chain(rng.random((6, n, n)).view(CountingMatrix))
        assert 0 < CountingMatrix.products < 100, n
        assert np.max(np.abs(chains.sum(axis=-1) - 1.0)) <= 1e-14


def test_stacked_sinkhorn_scales_each_chain_as_alone():
    # A chain's d stops at its own iteration, so the chains stacked with it
    # change none of its bits.
    rng = np.random.default_rng(37)
    for n in range(2, 9):
        draws = rng.random((6, n, n))
        stack = random_symmetric_chain(draws)
        assert stack.shape == (6, n, n)
        for j in range(6):
            assert np.array_equal(stack[j], random_symmetric_chain(draws[j : j + 1])[0])
        check_stochastic(stack)
    with pytest.raises(ValueError, match="n >= 2"):
        random_symmetric_chain(rng.random((3, 1, 1)))


def test_discriminant_is_chain_power():
    rng = np.random.default_rng(11)
    chain = random_chain(4, rng)
    for k in (1, 2, 3):
        walk = build_isometries(chain.matrix, k)
        expected = np.linalg.matrix_power(chain.matrix, k)
        assert np.max(np.abs(discriminant(walk) - expected)) <= 1e-10


def test_walk_fixes_common_range_vector():
    rng = np.random.default_rng(3)
    chain = random_chain(3, rng)
    walk = build_isometries(chain.matrix, 2)
    # uniform combination lies in range(A) and range(B) for doubly
    # stochastic symmetric chains
    common = walk.A @ np.full(3, 3**-0.5)
    assert np.max(np.abs(walk.B @ np.full(3, 3**-0.5) - common)) <= 1e-12
    assert np.max(np.abs(walk_apply(walk, common) - common)) <= 1e-12


def test_walk_unitary_on_random_states():
    rng = np.random.default_rng(5)
    chain = random_chain(3, rng)
    walk = build_isometries(chain.matrix, 2)
    states = []
    for _ in range(20):
        state = rng.normal(size=len(walk.A)) + 1j * rng.normal(size=len(walk.A))
        state /= np.linalg.norm(state)
        assert abs(np.linalg.norm(walk_apply(walk, state)) - 1.0) <= 1e-12
        states.append(state)
    # A (dim, m) slab is walked column by column.
    slab = np.column_stack(states)
    by_column = np.column_stack([walk_apply(walk, state) for state in states])
    assert np.max(np.abs(walk_apply(walk, slab) - by_column)) <= 1e-14
    W = szegedy_walk_matrix(walk)
    assert np.max(np.abs(W @ W.T - np.eye(len(walk.A)))) <= 1e-12


def test_multistep_matches_powered_chain_spectrum():
    rng = np.random.default_rng(13)
    chain = random_chain(4, rng)
    for k in (2, 3):
        [multi] = nontrivial_eigenphases(build_isometries(chain.matrix[None], k))
        powered = MarkovChain(np.linalg.matrix_power(chain.matrix, k))
        [single] = nontrivial_eigenphases(build_isometries(powered.matrix[None], 1))
        assert multi.size == single.size
        assert np.max(np.abs(multi - single)) <= 1e-9


def test_nontrivial_basis_orthonormal():
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        for k in (1, 2, 3):
            matrix = random_chain(n, rng).matrix
            walk = build_isometries(matrix, k)
            basis = nontrivial_basis(walk)
            assert basis.shape == (n ** (k + 1), 2 * (n - 1)), (n, k)
            gram = basis.T @ basis
            assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-12, (n, k)
            # The loop over singular triples gives the same columns, and a
            # discriminant handed in is the one the measurement would form.
            assert np.array_equal(loop_nontrivial_basis(walk), basis)
            stacked = build_isometries(matrix[None], k)
            [phases] = nontrivial_eigenphases(stacked)
            [given] = nontrivial_eigenphases(stacked, disc=discriminant(stacked))
            assert np.array_equal(given, phases)


def test_gram_route_operator_is_the_restricted_walk():
    # X^T W X from the three Gram matrices, per chain of a stack, against the
    # explicit basis X under the matrix-free walk: stacks of random chains,
    # one stack that mixes interior counts, and a chain with none.
    rng = np.random.default_rng(31)
    stacks = [[random_chain(n, rng) for _ in range(3)] for n in range(2, 9)]
    lazy = lazy_chain(cycle_chain(4))
    stacks.append([random_chain(4, rng), complete_chain(4), lazy])
    stacks.append([complete_chain(2)])
    counts = []
    for chains in stacks:
        matrices = np.stack([chain.matrix for chain in chains])
        for k in (1, 2, 3):
            walk = build_isometries(matrices, k)
            operators = [None] * len(chains)
            for rows, restricted in _restricted_operators(walk):
                for row, operator in zip(rows, restricted):
                    operators[row] = operator
            widths = []
            for j, chain in enumerate(chains):
                single = build_isometries(chain.matrix, k)
                assert np.array_equal(walk.A[j], single.A)
                assert np.array_equal(walk.B[j], single.B)
                basis = nontrivial_basis(single)
                widths.append(basis.shape[1])
                if not widths[-1]:
                    assert operators[j] is None
                    continue
                expected = basis.T @ walk_apply(single, basis)
                assert np.max(np.abs(operators[j] - expected)) <= 1e-12, (chains, k, j)
            counts.append(widths)
    # The random stacks have n - 1 interior values per chain; the lazy
    # 4-cycle has eigenvalue 0, and the 2-state swap only |eigenvalue| 1.
    assert counts[-6] == [6, 6, 4] and counts[-1] == [0]


def test_eigenphases_match_singular_values():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        chain = random_chain(n, rng)
        walk = build_isometries(chain.matrix, 1)
        [measured] = nontrivial_eigenphases(build_isometries(chain.matrix[None], 1))
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
    walk = build_isometries(np.eye(2), 1)
    assert nontrivial_basis(walk).shape[1] == 0
    for i in range(2):
        col = walk.A[:, i]
        assert np.allclose(walk_apply(walk, col), col)
    # sigma = 0 directions are negated: the uniform 2-state chain has
    # discriminant eigenvalues {1, 0}
    uniform = MarkovChain(np.full((2, 2), 0.5))
    walk = build_isometries(uniform.matrix, 1)
    assert nontrivial_basis(walk).shape[1] == 0
    fixed = walk.A @ np.array([1.0, 1.0]) / math.sqrt(2)
    flipped = walk.A @ np.array([1.0, -1.0]) / math.sqrt(2)
    assert np.allclose(walk_apply(walk, fixed), fixed)
    assert np.allclose(walk_apply(walk, flipped), -flipped)


def test_query_cost():
    rng = np.random.default_rng(19)
    chain = random_chain(2, rng)
    assert query_cost(build_isometries(chain.matrix, 1)) == 4
    assert query_cost(build_isometries(chain.matrix, 3)) == 12
    with pytest.raises(ValueError):
        build_isometries(chain.matrix, 0)


def test_isometries_take_any_size():
    # dim 65^2 = 4225, over the CLI's default --budget: the library has no
    # size limit of its own.
    chain = cycle_chain(65)
    walk = build_isometries(chain.matrix, 1)
    assert walk.A.shape == (65**2, 65)
    assert np.max(np.abs(discriminant(walk) - chain.matrix)) <= DISCRIMINANT_TOL


def test_generators():
    cyc = cycle_chain(5)
    assert np.allclose(cyc.matrix.sum(axis=1), 1.0)
    comp = complete_chain(4)
    assert comp.matrix[0, 0] == 0.0
    lazy = lazy_chain(cyc)
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
    # A stack of chains has the gap of each, as taken one at a time.
    stack = np.stack([complete_chain(4).matrix, cycle_chain(4).matrix, np.eye(4)])
    assert np.array_equal(spectral_gap(stack), [spectral_gap(m) for m in stack])


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    chain = random_chain(3, rng)
    path = tmp_path / "chain.csv"
    np.savetxt(path, chain.matrix, delimiter=",")
    loaded = load_chain_csv(path)
    assert np.max(np.abs(loaded.matrix - chain.matrix)) <= 1e-12
