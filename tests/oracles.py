"""Test oracles: dense and index-level forms of the verification layer that
the CLI never runs. Each is a direct transcription of its definition, so the
tests can hold the matrix-free and block-wise code in src/ against it."""

from __future__ import annotations

import numpy as np

from powerwalk.fullwalk import REAL_EIGENVALUE_TOL, full_dim, shift_permutation
from powerwalk.szegedy import SUBSPACE_TOL, SzegedyWalk, discriminant
from powerwalk.torus import DEGREE, PathPort, TorusGrid


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
    return PathPort(grid.vertex_coords(v), tuple(reversed(labels)))


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


def szegedy_walk_matrix(walk: SzegedyWalk) -> np.ndarray:
    """The dense Szegedy walk (2 B B^T - I)(2 A A^T - I)."""
    eye = np.eye(walk.dim)
    r_a = 2.0 * (walk.A @ walk.A.T) - eye
    r_b = 2.0 * (walk.B @ walk.B.T) - eye
    return r_b @ r_a


def predicted_nontrivial_eigenphases(
    walk: SzegedyWalk, tol: float = SUBSPACE_TOL
) -> np.ndarray:
    """+-2 arccos(sigma) over interior discriminant singular values, sorted."""
    s = np.linalg.svd(discriminant(walk), compute_uv=False)
    interior = s[(s > tol) & (s < 1.0 - tol)]
    theta = 2.0 * np.arccos(np.clip(interior, 0.0, 1.0))
    return np.sort(np.concatenate([theta, -theta]))


def loop_nontrivial_basis(walk: SzegedyWalk, tol: float = SUBSPACE_TOL) -> np.ndarray:
    """nontrivial_basis one singular triple at a time: the columns A u and
    (B v - sigma A u)/sqrt(1 - sigma^2) for each interior sigma, in turn."""
    u, s, vt = np.linalg.svd(discriminant(walk))
    basis = []
    for j, sigma in enumerate(s):
        if sigma <= tol or sigma >= 1.0 - tol:
            continue
        a_vec = walk.A @ u[:, j]
        b_vec = walk.B @ vt[j, :]
        basis.append(a_vec)
        basis.append((b_vec - sigma * a_vec) / np.sqrt(1.0 - sigma**2))
    if not basis:
        return np.zeros((walk.dim, 0))
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
            plane.append((Q * a).sum(axis=1))
            v = a.copy()
            v[0] += a[0] / abs(a[0]) if a[0] != 0 else 1.0
            scale = 2.0 / float(np.sum(np.abs(v) ** 2))
            Q = Q[:, 1:] - scale * (Q * v).sum(axis=1)[:, None] * np.conj(v[1:])
        columns.append(Q)
        values.append(np.full(Q.shape[1], -sign, dtype=complex))
    p, q = lengths
    turn = (p + 1j * q) ** 2 / (p * p + q * q)
    if len(plane) == 2:
        n_plus, n_minus = plane
        columns.append(
            np.column_stack([n_plus + 1j * n_minus, n_plus - 1j * n_minus]) * 2**-0.5
        )
        values.append(np.array([turn, np.conj(turn)]))
    else:
        columns.append(plane[0][:, None])
        values.append(np.array([turn]))
    return np.concatenate(values), np.concatenate(columns, axis=1)
