import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerwalk.torus import TorusGrid, mode_cosines, mode_orbits, uniform_draws

from oracles import (
    DOWN,
    LEFT,
    RIGHT,
    UP,
    DirectedPort,
    PathPort,
    adjacency_eigenphase,
    adjacency_matrix,
    adjacency_power_entry,
    powered_rotation_apply,
    rotation_map_apply,
    vertex_coords,
)


def test_shift_rules():
    grid = TorusGrid(4)
    assert rotation_map_apply(grid, DirectedPort((1, 2), RIGHT)) == DirectedPort(
        (2, 2), LEFT
    )
    assert rotation_map_apply(grid, DirectedPort((0, 0), LEFT)) == DirectedPort(
        (3, 0), RIGHT
    )
    assert rotation_map_apply(grid, DirectedPort((2, 3), UP)) == DirectedPort(
        (2, 0), DOWN
    )
    assert rotation_map_apply(grid, DirectedPort((2, 0), DOWN)) == DirectedPort(
        (2, 3), UP
    )


def test_rotation_rejects_outside_vertex():
    grid = TorusGrid(4)
    with pytest.raises(ValueError):
        rotation_map_apply(grid, DirectedPort((4, 0), RIGHT))
    with pytest.raises(ValueError):
        rotation_map_apply(grid, DirectedPort((0, 0), 7))


@given(
    side=st.integers(min_value=2, max_value=9),
    x=st.integers(min_value=0, max_value=8),
    y=st.integers(min_value=0, max_value=8),
    label=st.sampled_from([RIGHT, LEFT, UP, DOWN]),
)
def test_rotation_is_involution(side, x, y, label):
    grid = TorusGrid(side)
    port = DirectedPort((x % side, y % side), label)
    assert rotation_map_apply(grid, rotation_map_apply(grid, port)) == port


def test_powered_rotation_t1_matches_single_step():
    grid = TorusGrid(5)
    for x in range(5):
        for g in (RIGHT, LEFT, UP, DOWN):
            single = rotation_map_apply(grid, DirectedPort((x, 2), g))
            powered = powered_rotation_apply(grid, 1, PathPort((x, 2), (g,)))
            assert powered == PathPort(single.vertex, (single.label,))


def test_powered_rotation_example():
    grid = TorusGrid(4)
    out = powered_rotation_apply(grid, 3, PathPort((0, 0), (RIGHT, RIGHT, UP)))
    assert out == PathPort((2, 1), (DOWN, LEFT, LEFT))


@settings(max_examples=100)
@given(data=st.data())
def test_powered_rotation_is_involution(data):
    grid = TorusGrid(5)
    vertex = (
        data.draw(st.integers(0, 4), label="x"),
        data.draw(st.integers(0, 4), label="y"),
    )
    labels = tuple(
        data.draw(st.sampled_from([RIGHT, LEFT, UP, DOWN])) for _ in range(3)
    )
    port = PathPort(vertex, labels)
    out = powered_rotation_apply(grid, 3, port)
    assert powered_rotation_apply(grid, 3, out) == port


def test_powered_rotation_length_mismatch():
    grid = TorusGrid(4)
    with pytest.raises(ValueError):
        powered_rotation_apply(grid, 2, PathPort((0, 0), (RIGHT,)))


def test_eigenphase_values():
    assert adjacency_eigenphase(TorusGrid(5), (0, 0)) == 1.0
    assert adjacency_eigenphase(TorusGrid(4), (2, 2)) == pytest.approx(-1.0)
    assert adjacency_eigenphase(TorusGrid(4), (1, 0)) == pytest.approx(0.5)


def test_eigenphase_mode_symmetry():
    grid = TorusGrid(7)
    for kx in range(7):
        for ky in range(7):
            neg = ((-kx) % 7, (-ky) % 7)
            assert adjacency_eigenphase(grid, (kx, ky)) == pytest.approx(
                adjacency_eigenphase(grid, neg), abs=1e-14
            )


def test_spectrum_has_n_modes_and_matches_dense_adjacency():
    for side in (3, 4, 5, 8):
        grid = TorusGrid(side)
        cos = mode_cosines(grid)
        assert cos.shape == (grid.vertex_count,)
        assert cos[0] == 1.0
        dense = np.linalg.eigvalsh(adjacency_matrix(grid))
        assert np.allclose(np.sort(cos), dense, atol=1e-10)


def test_laplacian_row_sums_vanish():
    grid = TorusGrid(6)
    A = adjacency_matrix(grid)
    lap = A - np.eye(grid.vertex_count)
    assert np.max(np.abs(lap.sum(axis=1))) < 1e-12


def test_mode_orbits_cover_nonzero_modes():
    # Even sides hold the a = b = L/2 orbit, a single mode with cos = -1.
    # The table is in lattice order: representatives 0 <= a <= b <= L//2,
    # row-major, without (0, 0); the first orbit, (0, 1), has the largest cos.
    for side in range(2, 41):
        grid = TorusGrid(side)
        cos, count = mode_orbits(grid)
        h = side // 2 + 1
        a, b = np.array([(a, b) for a in range(h) for b in range(a, h)][1:]).T
        c = np.cos(2 * np.pi * np.arange(h) / side)
        assert np.array_equal(cos, 0.5 * (c[a] + c[b]))
        assert (cos < 1.0).all()  # (0, 0) is absent
        assert cos[0] == cos.max() and np.sum(cos == cos[0]) == 1
        assert count.sum() == grid.vertex_count - 1
        assert set(np.unique(count)) <= {1, 2, 4, 8}
        assert (cos.min() == -1.0) == (side % 2 == 0)
    # mode_cosines rounds cos(2 pi k / L) for k > L/2 on its own, up to
    # 1.1e-15 away from the table's k <= L/2 values (sides 13, 14, 26, 28, 34).
    for side in (2, 3, 4, 5, 6, 8, 9, 16, 17):
        grid = TorusGrid(side)
        cos, count = mode_orbits(grid)
        expanded = np.sort(np.repeat(cos, count.astype(int)))
        assert np.max(np.abs(expanded - np.sort(mode_cosines(grid)[1:]))) <= 1e-15


def test_adjacency_power_entry_basics():
    grid = TorusGrid(5)
    assert adjacency_power_entry(grid, 1, (0, 0), (1, 0)) == pytest.approx(0.25)
    assert adjacency_power_entry(grid, 1, (0, 0), (0, 0)) == 0.0
    assert adjacency_power_entry(grid, 1, (0, 0), (2, 2)) == 0.0


def test_adjacency_power_matches_matrix_cube():
    grid = TorusGrid(5)
    A = adjacency_matrix(grid)
    cube = np.linalg.matrix_power(A, 3)
    N = grid.vertex_count
    enumerated = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            enumerated[i, j] = adjacency_power_entry(
                grid, 3, vertex_coords(grid, i), vertex_coords(grid, j)
            )
    assert np.max(np.abs(enumerated - cube)) <= 1e-12
    # doubly stochastic rows
    assert np.max(np.abs(enumerated.sum(axis=1) - 1.0)) <= 1e-12


def test_adjacency_power_budget():
    grid = TorusGrid(5)
    with pytest.raises(ValueError, match="budget"):
        adjacency_power_entry(grid, 8, (0, 0), (0, 0))
    # explicit budget raise is honoured
    assert adjacency_power_entry(grid, 8, (0, 0), (0, 0), max_paths=4**8) >= 0.0


def test_mode_cosines_bounds():
    cos = mode_cosines(TorusGrid(9))
    assert cos.min() >= -1.0 and cos.max() <= 1.0
    assert cos[0] == 1.0


def test_grid_rejects_degenerate_side():
    with pytest.raises(ValueError):
        TorusGrid(1)


def test_uniform_draws_are_the_splitmix64_stream():
    # The reference outputs of SplitMix64 from seed 1234567, top 53 bits each.
    reference = [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    draws = uniform_draws(1234567, (5,))
    assert draws.dtype == np.float64
    assert (draws * 2**53).tolist() == [float(z >> 11) for z in reference]
    # Row-major order over the shape: a prefix of the same stream.
    assert np.array_equal(uniform_draws(1234567, (2, 2)).ravel(), draws[:4])
    for seed in (0, 2**64 - 1):
        draws = uniform_draws(seed, (3, 1000))
        assert draws.shape == (3, 1000)
        assert draws.min() >= 0.0 and draws.max() < 1.0
