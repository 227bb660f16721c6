"""Test oracles: the direct, slow or dense forms of what src/ computes fast.

Each is a transcription of its definition that the CLI never runs, so the
tests can hold the production code against it:
  - the torus: the scalar rotation map and its t-th power on (vertex, labels)
    ports, the Fourier eigenvalue of one mode, the dense adjacency matrix and
    exhaustive path enumeration of its powers;
  - the reduced search engine: the dense operator U_t over every walk mode,
    built from (grid, t, delta) with torus.mode_cosines, its eigenphase, the
    trajectory by stepping the orbit-reduced state, and the trajectory by the
    Volterra recurrence over the return moments, one dot product per step;
  - the controlled search: the full-space Tulsi circuit and the block
    operator diag(W_t, -I)(I - 2|psi_m, delta><psi_m, delta|);
  - the verification layer: the uniform start and the coin-uniform marked
    states, basis indexing, the dense shift, projection sums,
    the dense form of the block split, and of the Szegedy walk the dense
    matrix, its matrix-free action and its explicit nontrivial basis.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from powerwalk import fullwalk
from powerwalk.cli import DEFAULT_DENSE_BUDGET
from powerwalk.fullwalk import REAL_EIGENVALUE_TOL, full_dim, shift_permutation
from powerwalk.search import SpectralModel
from powerwalk.szegedy import SUBSPACE_TOL, SzegedyWalk, discriminant
from powerwalk.torus import DEGREE, REVERSE, STEP, TorusGrid, mode_cosines

# Torus edge labels, as torus.STEP and torus.REVERSE index them.
RIGHT, LEFT, UP, DOWN = 0, 1, 2, 3
LABELS = (RIGHT, LEFT, UP, DOWN)


class DirectedPort(NamedTuple):
    """A (vertex, edge-label) pair, the domain of the rotation map."""

    vertex: tuple[int, int]
    label: int


class PathPort(NamedTuple):
    """A (vertex, label sequence) pair, the domain of the powered rotation map.

    The label sequence g_1..g_t names a length-t path starting at ``vertex``.
    """

    vertex: tuple[int, int]
    labels: tuple[int, ...]


def vertex_coords(grid: TorusGrid, index: int) -> tuple[int, int]:
    """The vertex (x, y) at row-major index y*L + x."""
    y, x = divmod(index, grid.side)
    return (x, y)


def rotation_map_apply(grid: TorusGrid, port: DirectedPort) -> DirectedPort:
    """One application of the torus rotation map.

    Moves along the edge named by ``port.label`` and returns the neighbour
    together with the reversed label, so applying twice is the identity.
    """
    (x, y), g = port.vertex, port.label
    if not grid.contains((x, y)):
        raise ValueError(f"vertex {(x, y)} outside {grid.side}x{grid.side} grid")
    if g not in LABELS:
        raise ValueError(f"unknown edge label {g}")
    dx, dy = STEP[g]
    return DirectedPort(((x + dx) % grid.side, (y + dy) % grid.side), REVERSE[g])


def powered_rotation_apply(grid: TorusGrid, t: int, port: PathPort) -> PathPort:
    """Rotation map of the t-th graph power.

    Walks the length-t path named by ``port.labels``, reversing each edge label
    along the way, then reverses the order of the collected labels. The result
    names the same path as seen from its far endpoint, so the map is an
    involution.
    """
    if t < 1:
        raise ValueError(f"path length must be >= 1, got {t}")
    if len(port.labels) != t:
        raise ValueError(f"expected {t} labels, got {len(port.labels)}")
    vertex = port.vertex
    reversed_labels = []
    for g in port.labels:
        vertex, h = rotation_map_apply(grid, DirectedPort(vertex, g))
        reversed_labels.append(h)
    return PathPort(vertex, tuple(reversed(reversed_labels)))


def adjacency_eigenphase(grid: TorusGrid, k: tuple[int, int]) -> float:
    """cos(phi_k) = (cos(2 pi k_x / L) + cos(2 pi k_y / L)) / 2 for mode k."""
    kx, ky = k
    if not (0 <= kx < grid.side and 0 <= ky < grid.side):
        raise ValueError(f"mode {k} outside [0, {grid.side})^2")
    L = grid.side
    return 0.5 * (math.cos(2 * math.pi * kx / L) + math.cos(2 * math.pi * ky / L))


def adjacency_matrix(grid: TorusGrid) -> np.ndarray:
    """Dense normalized adjacency matrix (entries 1/d on edges)."""
    N = grid.vertex_count
    A = np.zeros((N, N))
    for i in range(N):
        u = vertex_coords(grid, i)
        for g in LABELS:
            v, _ = rotation_map_apply(grid, DirectedPort(u, g))
            A[i, grid.vertex_index(v)] += 1.0 / DEGREE
    return A


def adjacency_power_entry(
    grid: TorusGrid,
    t: int,
    u: tuple[int, int],
    v: tuple[int, int],
    max_paths: int = DEFAULT_DENSE_BUDGET,
) -> float:
    """(A^t)_{uv} by exhaustive enumeration of the d^t label sequences from u:
    counts length-t paths from u ending at v and divides by d^t."""
    if t < 1:
        raise ValueError(f"power must be >= 1, got {t}")
    total = DEGREE**t
    if total > max_paths:
        raise ValueError(
            f"enumeration of {total} paths exceeds budget {max_paths}; "
            "raise max_paths explicitly for larger instances"
        )
    for w in (u, v):
        if not grid.contains(w):
            raise ValueError(f"vertex {w} outside grid")
    hits = 0
    for labels in itertools.product(LABELS, repeat=t):
        end = u
        for g in labels:
            end, _ = rotation_map_apply(grid, DirectedPort(end, g))
        if end == v:
            hits += 1
    return hits / total


def reduced_modes(
    grid: TorusGrid, t: int, delta: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(phases, target) of U_t in the full walk eigenbasis, one entry per mode.

    phases: 0, then +phi^(t)_k and -phi^(t)_k for the N-1 nonzero modes in
    row-major order, phi^(t)_k = arccos(cos^t phi_k), then pi for the
    ancilla mode when delta > 0: 2N-1 modes, 2N with the ancilla. target: the
    real target coordinates a_0 cos(delta), a_k cos(delta) on both halves and
    sin(delta) on the ancilla mode, a_0 = 1/sqrt(N) and a_k = 1/sqrt(2N).
    """
    N = grid.vertex_count
    half = np.arccos(np.clip(mode_cosines(grid)[1:] ** t, -1.0, 1.0))
    phases = np.concatenate([[0.0], half, -half])
    c, a0, ak = math.cos(delta), N**-0.5, (2.0 * N) ** -0.5
    target = np.concatenate([[a0 * c], np.full(2 * (N - 1), ak * c)])
    if delta > 0.0:
        phases = np.append(phases, math.pi)
        target = np.append(target, math.sin(delta))
    return phases, target


def reduced_operator(model: SpectralModel) -> np.ndarray:
    """Dense matrix of U_t = D (I - 2 T T^T) in the full walk eigenbasis."""
    phases, T = reduced_modes(model.grid, model.t, model.delta)
    return np.exp(1j * phases)[:, None] * (np.eye(phases.size) - 2.0 * np.outer(T, T))


def dense_alpha(model: SpectralModel, budget: int = DEFAULT_DENSE_BUDGET) -> float:
    """Smallest nonzero eigenphase by dense eigendecomposition of U_t."""
    dim = 2 * model.grid.vertex_count - 1 + int(model.delta > 0.0)
    if dim > budget:
        raise ValueError(f"reduced dimension {dim} exceeds dense budget {budget}")
    angles = np.angle(np.linalg.eigvals(reduced_operator(model)))
    positive = angles[angles > 1e-12]
    return float(positive.min())


def coin_uniform_state(grid: TorusGrid, t: int, u: tuple[int, int]) -> np.ndarray:
    """|psi^t_u> = d^{-t/2} sum_g |u, g>: the state the oracle marks at u."""
    if not grid.contains(u):
        raise ValueError(f"vertex {u} outside grid")
    d_t = DEGREE**t
    state = np.zeros(full_dim(grid, t))
    i = grid.vertex_index(u) * d_t
    state[i : i + d_t] = d_t**-0.5
    return state


def uniform_superposition(grid: TorusGrid, t: int) -> np.ndarray:
    """The starting state: uniform over all basis states, eigenvalue 1 of W_t."""
    dim = full_dim(grid, t)
    return np.full(dim, dim**-0.5)


def phase_rotation(x: np.ndarray) -> np.ndarray:
    """e^{i arccos x}; the factored sine keeps small phases at full precision."""
    return x + 1j * np.sqrt((1.0 - x) * (1.0 + x))


def iterate_search(model: SpectralModel, Q: int) -> np.ndarray:
    """Apply Q steps of oracle-then-walk to the uniform start, O(orbits) per step.

    The state holds the 0 mode, the +phi half of every orbit and the pi mode.
    The target is real and each -phi amplitude is the conjugate of its +phi
    partner, so the target overlap is real and the oracle changes only real
    parts. Returns the trajectory, Q+1 entries: the success probability
    before any iteration and after each step.
    """
    if Q < 0:
        raise ValueError(f"iteration count must be >= 0, got {Q}")
    x, weights = model.distinct_phases
    c, s = math.cos(model.delta), math.sin(model.delta)
    target = np.concatenate([[model.a0 * c], np.sqrt(weights) * c, [s]])
    pair_target = target.copy()
    pair_target[1:-1] *= 2.0  # each +phi amplitude stands for its conjugate pair
    rotation = np.concatenate([[1.0], phase_rotation(x), [-1.0]])
    state = np.zeros(target.size, dtype=complex)
    state[0] = 1.0
    real = state.real
    reflected = np.empty(target.size)
    trajectory = np.empty(Q + 1)
    overlap = float(pair_target @ real)
    trajectory[0] = overlap**2
    for step in range(1, Q + 1):
        np.multiply(target, 2.0 * overlap, out=reflected)
        real -= reflected
        state *= rotation
        overlap = float(pair_target @ real)
        trajectory[step] = overlap**2
    return trajectory


def volterra_trajectory(model: SpectralModel, moments: np.ndarray) -> np.ndarray:
    """search.search_trajectory by forward substitution, O(Q^2).

    Unrolling psi_q = D R psi_{q-1}, R = I - 2|T><T| and psi_0 the uniform
    0 mode, gives the target overlaps as a Volterra recurrence,

        ov_q = a0 cos(delta) - 2 sum_{p<q} h(q - p) ov_p,

    one dot product per step, and p_s(q) = ov_q^2. On float64 moments the
    dot product is a BLAS ddot, whose summation order OpenBLAS may change with
    its thread count; long double moments run the recurrence in long double.
    """
    Q = moments.size - 1
    start = model.a0 * math.cos(model.delta)
    back = -2.0 * moments[:0:-1]  # -2 h(Q), ..., -2 h(1)
    overlap = np.empty(Q + 1, dtype=moments.dtype)
    overlap[0] = start
    for q in range(1, Q + 1):
        overlap[q] = start + back[Q - q :] @ overlap[:q]
    return overlap * overlap


# Full-space controlled-search circuit. A walk (x) ancilla state is a (dim, 2)
# slab whose column a holds the ancilla |a> amplitudes (flat index walk * 2 + a).


def x_delta_matrix(delta: float) -> np.ndarray:
    c, s = math.cos(delta), math.sin(delta)
    return np.array([[c, s], [-s, c]])


def delta_state(delta: float) -> np.ndarray:
    """|delta> = X_delta^dagger |0> = cos(delta)|0> + sin(delta)|1>."""
    return x_delta_matrix(delta).T @ np.array([1.0, 0.0])


def _walk_and_z(grid: TorusGrid, t: int, state: np.ndarray) -> np.ndarray:
    """diag(W_t, -I): the walk controlled on ancilla |0>, then Z."""
    return np.column_stack([fullwalk.apply_walk(grid, t, state[:, 0]), -state[:, 1]])


def circuit_step(
    grid: TorusGrid, t: int, m: tuple[int, int], delta: float, state: np.ndarray
) -> np.ndarray:
    """One iteration of the controlled-search circuit on a (dim, 2) slab.

    Gate order: X_delta on the ancilla, O controlled on ancilla |0>,
    X_delta^dagger, W controlled on ancilla |0>, Z.
    """
    X = x_delta_matrix(delta)
    state = state @ X.T
    state[:, 0] = fullwalk.apply_oracle(grid, t, m, state[:, 0])
    return _walk_and_z(grid, t, state @ X)


def block_step(
    grid: TorusGrid, t: int, m: tuple[int, int], delta: float, state: np.ndarray
) -> np.ndarray:
    """The block form on a (dim, 2) slab: diag(W_t, -I) times the
    rotated-target reflection I - 2|psi_m, delta><psi_m, delta|."""
    target = np.outer(coin_uniform_state(grid, t, m), delta_state(delta))
    return _walk_and_z(grid, t, state - 2.0 * np.vdot(target, state) * target)


def circuit_trajectory(
    grid: TorusGrid, t: int, m: tuple[int, int], delta: float, Q: int
) -> np.ndarray:
    """Success probabilities |<psi_m, delta|state>|^2 from explicit circuit
    simulation on the doubled full space, starting from |uniform>|0>."""
    uniform = uniform_superposition(grid, t)
    state = np.column_stack([uniform, np.zeros_like(uniform)])
    target = np.outer(coin_uniform_state(grid, t, m), delta_state(delta))
    trajectory = np.empty(Q + 1)
    trajectory[0] = abs(np.vdot(target, state)) ** 2
    for i in range(1, Q + 1):
        state = circuit_step(grid, t, m, delta, state)
        trajectory[i] = abs(np.vdot(target, state)) ** 2
    return trajectory


def basis_index(grid: TorusGrid, t: int, port: PathPort) -> int:
    """Index of the basis state |vertex, g_1..g_t|."""
    if len(port.labels) != t:
        raise ValueError(f"expected {t} labels, got {len(port.labels)}")
    rest = 0
    for g in port.labels:
        rest = rest * DEGREE + g
    return grid.vertex_index(port.vertex) * DEGREE**t + rest


def index_port(grid: TorusGrid, t: int, index: int) -> PathPort:
    v, rest = divmod(index, DEGREE**t)
    labels = []
    for _ in range(t):
        rest, g = divmod(rest, DEGREE)
        labels.append(g)
    return PathPort(vertex_coords(grid, v), tuple(reversed(labels)))


def shift_matrix(grid: TorusGrid, t: int) -> np.ndarray:
    perm = shift_permutation(grid, t)
    S = np.zeros((perm.size, perm.size))
    S[np.arange(perm.size), perm] = 1.0
    return S


def vertex_overlaps(grid: TorusGrid, t: int, state: np.ndarray) -> np.ndarray:
    """a_u = <state|psi^t_u> for every vertex u: length N, or (N, m) for a
    slab of m states."""
    state = np.asarray(state)
    assert state.shape[0] == full_dim(grid, t)
    blocks = np.conj(state).reshape((grid.vertex_count, DEGREE**t) + state.shape[1:])
    return blocks.sum(axis=1) * DEGREE ** (-t / 2)


def projection_sum(grid: TorusGrid, t: int, state: np.ndarray) -> float:
    """sum_u |<state|psi^t_u>|^2, the weight inside span{|psi^t_u>}.

    Equals 1/2 for every unit eigenvector of W_t with non-real eigenvalue,
    1 for the uniform state, and 0 for +-1 eigenvectors orthogonal to the
    uniform-coin states.
    """
    a = vertex_overlaps(grid, t, state)
    return float(np.sum(np.abs(a) ** 2))


def walk_apply(walk: SzegedyWalk, state: np.ndarray) -> np.ndarray:
    """Apply W_k = (2 B B^dagger - I)(2 A A^dagger - I) of one walk without
    forming it, to a state of shape (dim,) or to each column of a (dim, m)
    slab."""
    state, dim = np.asarray(state), len(walk.A)
    if state.ndim not in (1, 2) or state.shape[0] != dim:
        raise ValueError(
            f"state has shape {state.shape}, expected ({dim},) or ({dim}, m)"
        )
    after_a = 2.0 * (walk.A @ (walk.A.T @ state)) - state
    return 2.0 * (walk.B @ (walk.B.T @ after_a)) - after_a


def nontrivial_basis(walk: SzegedyWalk) -> np.ndarray:
    """Orthonormal basis (columns) of one walk's nontrivial subspace: for each
    interior discriminant singular triple (u, sigma, v), the columns A u and
    (B v - sigma A u)/sqrt(1 - sigma^2), in turn, from two matrix products.
    The basis X that szegedy._restricted_operators reaches through the Gram
    matrices."""
    u, s, vt = np.linalg.svd(discriminant(walk))
    interior = (s > SUBSPACE_TOL) & (s < 1.0 - SUBSPACE_TOL)
    sigma = s[interior]
    basis = np.empty((len(walk.A), 2 * sigma.size))
    a_vecs = np.matmul(walk.A, u[:, interior], out=basis[:, 0::2])
    b_vecs = np.matmul(walk.B, vt[interior].T, out=basis[:, 1::2])
    b_vecs -= sigma * a_vecs
    b_vecs /= np.sqrt(1.0 - sigma**2)
    return basis


def szegedy_walk_matrix(walk: SzegedyWalk) -> np.ndarray:
    """The dense Szegedy walk (2 B B^T - I)(2 A A^T - I)."""
    eye = np.eye(len(walk.A))
    r_a = 2.0 * (walk.A @ walk.A.T) - eye
    r_b = 2.0 * (walk.B @ walk.B.T) - eye
    return r_b @ r_a


def predicted_nontrivial_eigenphases(walk: SzegedyWalk) -> np.ndarray:
    """+-2 arccos(sigma) over interior discriminant singular values, sorted."""
    s = np.linalg.svd(discriminant(walk), compute_uv=False)
    interior = s[(s > SUBSPACE_TOL) & (s < 1.0 - SUBSPACE_TOL)]
    theta = 2.0 * np.arccos(np.clip(interior, 0.0, 1.0))
    return np.sort(np.concatenate([theta, -theta]))


def loop_nontrivial_basis(walk: SzegedyWalk) -> np.ndarray:
    """nontrivial_basis one singular triple at a time: the columns A u and
    (B v - sigma A u)/sqrt(1 - sigma^2) for each interior sigma, in turn."""
    u, s, vt = np.linalg.svd(discriminant(walk))
    basis = []
    for j, sigma in enumerate(s):
        if sigma <= SUBSPACE_TOL or sigma >= 1.0 - SUBSPACE_TOL:
            continue
        a_vec = walk.A @ u[:, j]
        b_vec = walk.B @ vt[j, :]
        basis.append(a_vec)
        basis.append((b_vec - sigma * a_vec) / np.sqrt(1.0 - sigma**2))
    if not basis:
        return np.zeros((len(walk.A), 0))
    return np.column_stack(basis)


def dense_reflection_split(
    phase: np.ndarray, partner: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """fullwalk._reflection_split with each eigenspace basis Q+- held as a
    dense (d, m) array: the same arithmetic on every nonzero, so the same
    eigenpairs."""
    d = phase.size
    labels = np.arange(d)
    lower = labels[labels < partner]
    fixed = labels[labels == partner]
    j = np.arange(lower.size)
    columns, values, plane, lengths = [], [], [], []
    for sign in (1.0, -1.0):
        ends = fixed[phase[fixed].real * sign > 0.0]
        Q = np.zeros((d, lower.size + ends.size), dtype=complex)
        Q[lower, j] = 2**-0.5
        Q[partner[lower], j] = sign * 2**-0.5 * np.conj(phase[lower])
        Q[ends, lower.size + np.arange(ends.size)] = 1.0
        a = np.conj(Q).sum(axis=0) * d**-0.5
        length = float(np.sqrt(np.sum(np.abs(a) ** 2)))
        lengths.append(length)
        if 2.0 * length > REAL_EIGENVALUE_TOL:
            a /= length
        else:  # u is an eigenvector of M: the first column of Q stands in
            a = np.eye(a.size, dtype=complex)[0]
        plane.append((Q * a).sum(axis=1))
        v = a.copy()
        v[:1] += a[:1] / np.abs(a[:1]) if a[0] != 0 else 1.0
        scale = 2.0 / float(np.sum(np.abs(v) ** 2))
        Q = Q[:, 1:] - scale * (Q * v).sum(axis=1)[:, None] * np.conj(v[1:])
        columns.append(Q)
        values.append(np.full(Q.shape[1], -sign, dtype=complex))
    p, q = np.array(lengths)[:, None]
    [turn] = (p + 1j * q) ** 2 / (p * p + q * q)
    n_plus, n_minus = plane
    columns.append(
        np.column_stack([n_plus + 1j * n_minus, n_plus - 1j * n_minus]) * 2**-0.5
    )
    values.append(np.array([turn, np.conj(turn)]))
    return np.concatenate(values), np.concatenate(columns, axis=1)
