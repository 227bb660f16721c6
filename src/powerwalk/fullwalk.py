"""Exact full-space simulation of the multi-step flip-flop walk.

The walk on the t-th graph power lives in the N*d^t dimensional space spanned
by |vertex, g_1..g_t>. This module builds the shift S_t (the powered rotation
map, a table over the label sequences translated over the vertices), the coin
C_t (reflection about the per-vertex uniform label states), the walk
W_t = S_t C_t, and the marking oracle O_t = I - 2|psi_m><psi_m|, each
matrix-free (``apply_*``, on one state or on several as columns), and C_t and
W_t also as dense matrices for small instances. W_t commutes with torus
translations, so its eigendecomposition is taken in d^t x d^t momentum blocks
(``walk_spectrum``, a factory that builds a block, or a stack of them, when
asked). Each block is a product of two reflections, the coin and a phased
reversal of the path labels, and is diagonalised in closed form from that
split, with no dense eigensolver.
``correspondence_report`` builds every block once, in batches of at most
BATCH_ENTRIES entries, and runs all its checks on each batch: the brute-force
oracle that validates the spectral correspondence between W_t and the
adjacency matrix, on every side and step count, and the reduced-space search
engine built on it.

States are plain complex vectors indexed by vertex-major, then label sequence
with g_1 as the most significant base-d digit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .sums import orbit_measure
from .torus import (
    BATCH_ENTRIES,
    DEGREE,
    REVERSE,
    STEP,
    TorusGrid,
    mode_cosines,
    uniform_draws,
)

# Eigenvalues within this distance of +-1 are classified as the +-1 subspace.
REAL_EIGENVALUE_TOL = 1e-8
# Largest deviation that CorrespondenceReport.passed accepts in each spectral
# check: phase multiset, projection sums, overlap law, real weight, eigenpair
# residual and path components.
SPECTRUM_TOL = 1e-9
# Largest norm or involution defect of the operators on the probe that
# CorrespondenceReport.passed accepts.
UNITARITY_TOL = 1e-12
# Fixed pseudo-random unit columns of the probe that the translation and
# unitarity checks act on.
PROBE_COLUMNS = 8


def full_dim(grid: TorusGrid, t: int) -> int:
    return grid.vertex_count * DEGREE**t


def shift_permutation(grid: TorusGrid, t: int) -> np.ndarray:
    """Self-inverse permutation p with S_t|i> = |p(i)>: |v, g> -> |v + s(g), r(g)>.

    s(g) is the path's displacement (the sum of its label steps) and r(g) its
    labels reversed in order and each reversed. Neither depends on v, so both
    are tabulated over the d^t label sequences and translated over the vertices.
    """
    L, d_t = grid.side, DEGREE**t
    digits = np.arange(d_t)[:, None] // DEGREE ** np.arange(t - 1, -1, -1) % DEGREE
    step = np.array(STEP)[digits].sum(axis=1)  # s(g) as (dx, dy), one row per g
    label = np.array(REVERSE)[digits] @ DEGREE ** np.arange(t)  # r(g)
    # x', y' of the far end, indexed (x or y, g); one (L, L, d^t) sum at the end.
    x, y = (np.arange(L)[:, None] + step.T[:, None, :]) % L
    return (y[:, None, :] * (L * d_t) + (x * d_t + label)[None, :, :]).ravel()


@functools.lru_cache(maxsize=4)
def _shift_permutation(grid: TorusGrid, t: int) -> np.ndarray:
    """shift_permutation, built once per (grid, t) and read-only: callers share it."""
    perm = shift_permutation(grid, t)
    perm.flags.writeable = False
    return perm


def _check_state(grid: TorusGrid, t: int, state: np.ndarray) -> np.ndarray:
    """A state of shape (dim,), or a (dim, m) slab of m states as columns;
    every operator below acts on each column."""
    state = np.asarray(state)
    dim = full_dim(grid, t)
    if state.ndim not in (1, 2) or state.shape[0] != dim:
        raise ValueError(
            f"state has shape {state.shape}, expected ({dim},) or ({dim}, m)"
        )
    return state


def apply_shift(grid: TorusGrid, t: int, state: np.ndarray) -> np.ndarray:
    state = _check_state(grid, t, state)
    return state[_shift_permutation(grid, t)]


def apply_coin(grid: TorusGrid, t: int, state: np.ndarray) -> np.ndarray:
    """Reflect each vertex block about its uniform label vector: 2 mean - block."""
    state = _check_state(grid, t, state)
    blocks = state.reshape((grid.vertex_count, DEGREE**t) + state.shape[1:])
    return (2.0 * blocks.mean(axis=1, keepdims=True) - blocks).reshape(state.shape)


def apply_walk(grid: TorusGrid, t: int, state: np.ndarray) -> np.ndarray:
    return apply_shift(grid, t, apply_coin(grid, t, state))


def apply_oracle(
    grid: TorusGrid, t: int, m: tuple[int, int], state: np.ndarray
) -> np.ndarray:
    """O_t = I - 2|psi^t_m><psi^t_m|: negate the marked uniform-coin component."""
    if not grid.contains(m):
        raise ValueError(f"marked vertex {m} outside grid")
    state = _check_state(grid, t, state)
    d_t = DEGREE**t
    i = grid.vertex_index(m) * d_t
    overlap = state[i : i + d_t].sum(axis=0) * d_t**-0.5
    out = np.array(state, dtype=complex if np.iscomplexobj(state) else float)
    out[i : i + d_t] -= 2.0 * overlap * d_t**-0.5
    return out


def coin_matrix(grid: TorusGrid, t: int) -> np.ndarray:
    """Block diagonal: the d^t x d^t reflection 2J/d^t - I at every vertex."""
    N, d_t = grid.vertex_count, DEGREE**t
    C = np.zeros((N, d_t, N, d_t))
    C[np.arange(N), :, np.arange(N), :] = 2.0 / d_t - np.eye(d_t)
    return C.reshape(N * d_t, N * d_t)


def walk_matrix(grid: TorusGrid, t: int) -> np.ndarray:
    # S_t is a row permutation, so S_t @ C_t is a row reordering of C_t.
    perm = _shift_permutation(grid, t)
    return coin_matrix(grid, t)[perm, :]


def _reflection_split(
    phase: np.ndarray, partner: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (blocks, d) and orthonormal eigenvectors (blocks, d, d, as
    columns) of B = M C for each row of a (blocks, d) phase stack, where
    C = 2|u><u| - I is the coin (u uniform) and (M v)_g = phase_g v_r(g) is an
    involution: r = ``partner`` pairs the labels, phase_g phase_r(g) = 1, and
    phase_g = 1 where r(g) = g (``walk_spectrum`` checks both).

    M's +-1 eigenspaces E+- have the orthonormal bases Q+- of columns
    (e_g +- conj(phase_g) e_r(g))/sqrt(2), one per 2-cycle {g, r(g)}, and in
    Q+ also e_g for each fixed point g of r. On E+- minus u+- = P+- u, C is
    -I, so B = -M is -+1 there. On the plane of u+ and u-, with p = |u+| and
    q = |u-|, B rotates by twice the angle atan2(q, p): (n+ +- i n-)/sqrt(2)
    has eigenvalue (p +- iq)^2, n+- = u+- / |u+-|. Each label is the nonzero
    of one column of Q+-, so the coordinates a of P+- u in Q+- and n+- cost
    O(d). E+- minus n+- is spanned by the last columns of Q H, where the
    Householder reflection H takes a to a multiple of e_1. When u+- is too
    short for the pair to lie farther than REAL_EIGENVALUE_TOL from +-1, u is
    an eigenvector of M and a is taken as e_1: n+- is then Q+-'s first
    column, where B is -+1 as on the other plane vector to within that
    tolerance. All blocks thus share one layout, split in one pass.
    """
    count, d = phase.shape
    labels = np.arange(d)
    lower = labels[labels < partner]  # one label per 2-cycle
    fixed = labels[labels == partner]
    half = lower.size
    pairs = np.arange(half)
    values = np.empty((count, d), dtype=complex)
    vectors = np.empty((count, d, d), dtype=complex)
    start, plane, lengths = 0, [], []
    for sign, ends in ((1.0, fixed), (-1.0, fixed[:0])):
        rows = np.concatenate([lower, partner[lower], ends])
        cols = np.concatenate([pairs, pairs, np.arange(half, half + ends.size)])
        entries = np.empty((count, rows.size), dtype=complex)  # Q's nonzeros
        entries[:, :half] = 2**-0.5
        entries[:, half : 2 * half] = sign * 2**-0.5 * np.conj(phase[:, lower])
        entries[:, 2 * half :] = 1.0
        conj_entries = np.conj(entries)
        a = conj_entries[:, half:]  # P u in Q: the column sums of conj(Q)
        a[:, :half] += conj_entries[:, :half]
        a *= d**-0.5
        length = np.sqrt(np.add.reduce(np.abs(a) ** 2, axis=1))[:, None]
        lengths.append(length[:, 0])
        unit = np.zeros_like(a)
        unit[:, 0] = 1.0
        np.divide(a, length, out=unit, where=2.0 * length > REAL_EIGENVALUE_TOL)
        n_sign = np.zeros((count, d), dtype=complex)
        n_sign[:, rows] = entries * unit[:, cols]
        plane.append(n_sign)
        v = unit.copy()
        lead = unit[:, 0]
        v[:, 0] += np.divide(lead, abs(lead), out=np.ones_like(lead), where=lead != 0)
        scale = 2.0 / np.add.reduce(np.abs(v) ** 2, axis=1)
        qv = np.zeros((count, d), dtype=complex)  # Q v
        qv[:, rows] = entries * v[:, cols]
        # Q H = Q - scale (Q v) v^H, without its first column.
        width = unit.shape[1] - 1
        block = vectors[:, :, start : start + width]
        np.multiply((-scale[:, None] * qv)[..., None], v[:, None, 1:].conj(), out=block)
        keep = cols > 0
        block[:, rows[keep], cols[keep] - 1] += entries[:, keep]
        values[:, start : start + width] = -sign
        start += width
    p, q = lengths
    turn = (p + 1j * q) ** 2 / (p * p + q * q)
    n_plus, n_minus = plane
    np.add(n_plus, 1j * n_minus, out=vectors[:, :, start])
    np.subtract(n_plus, 1j * n_minus, out=vectors[:, :, start + 1])
    vectors[:, :, start:] *= 2**-0.5
    values[:, start], values[:, start + 1] = turn, np.conj(turn)
    return values, vectors


@dataclass
class WalkSpectrum:
    """Complete orthonormal eigendecomposition of W_t, in momentum blocks.

    W_t commutes with torus translations, so the plane waves
    |k> = N^{-1/2} sum_v e^{2 pi i k.v/L} |v> split it into N blocks of size
    d^t, one per momentum k = (k_x, k_y), numbered b = k_y L + k_x:
    W_t (|k> (x) phi) = |k> (x) B_k phi. Each block is the product of two
    reflections, B_k = M_k C (``walk_spectrum``), and ``block(blocks)`` builds
    the eigenvalues and orthonormal eigenvectors (columns) of each listed
    block from that split anew on each call; eigenvector b d^t + j of W_t is
    |k> (x) ``block([b])[1][0, :, j]``, with <v|k> = e^{2 pi i k.v/L} / L.
    ``phases(blocks)`` holds that plane wave at the partner vertices s(g),
    times L.
    """

    grid: TorusGrid
    t: int
    partner_label: np.ndarray  # r(g), vertex 0's block of the shift
    partner_offset: np.ndarray  # (2, d^t): s(g) = (x, y) of the partner vertex

    def phases(self, blocks: np.ndarray) -> np.ndarray:
        """e^{2 pi i k.s(g)/L} for every label g (columns), for the momentum of
        each block (rows): the phases of M_k, and L <s(g)|k>."""
        L, (x, y) = self.grid.side, self.partner_offset
        turns = np.multiply.outer(blocks % L, x) + np.multiply.outer(blocks // L, y)
        return np.exp(2j * np.pi * (turns % L) / L)

    def block(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors as columns) of each momentum block of
        ``blocks``, stacked."""
        return _reflection_split(self.phases(blocks), self.partner_label)


def walk_spectrum(grid: TorusGrid, t: int) -> WalkSpectrum:
    """The eigendecomposition of W_t as a factory of its N momentum blocks of
    size d^t (``WalkSpectrum.block``).

    The shift sends |v, g> to |v + s(g), r(g)>, where the partner offset s(g)
    and label r(g) do not depend on v. They are read off the first d^t entries
    of the shift permutation, not its path table, so the blocks are those of
    the shift ``apply_shift`` applies and the eigenpair residual tests it.
    Block k is B_k = M_k C: the coin C = 2|u><u| - I (u the uniform label
    vector) after the phased path reversal (M_k v)_g = e^{2 pi i k.s(g)/L}
    v_r(g). The shift is an involution, so r(r(g)) = g and s(r(g)) = -s(g)
    mod L, which makes M_k^2 = I for every k: both checks raise RuntimeError
    on failure, before any block is built. B_k is then diagonalised exactly
    from the two reflections (``_reflection_split``): a rotation by
    2 arccos|P+ u| on the plane of u and M_k u, and -+1 on the rest of M_k's
    +-1 eigenspaces.
    """
    L, d_t = grid.side, DEGREE**t
    partner_vertex, partner_label = np.divmod(_shift_permutation(grid, t)[:d_t], d_t)
    if not np.array_equal(partner_label[partner_label], np.arange(d_t)):
        raise RuntimeError("the shift's partner labels are not an involution")
    offset = np.stack([partner_vertex % L, partner_vertex // L])
    # M_k^2 = I needs phase_g phase_r(g) = 1: k.(s(g) + s(r(g))) = 0 mod L.
    # A label the shift fixes is a palindromic path, which returns: s(g) = 0.
    returns = offset[:, partner_label == np.arange(d_t)]
    if ((offset + offset[:, partner_label]) % L).any() or returns.any():
        raise RuntimeError(
            "the shift's partner offsets do not cancel or move a fixed label, so "
            "the momentum blocks do not square to the identity with phase 1 at "
            "each fixed label and are not products of reflections"
        )
    return WalkSpectrum(grid, t, partner_label, offset)


def expected_nonreal_phases(grid: TorusGrid, t: int) -> np.ndarray:
    """Predicted signed eigenphases +-arccos x over the engine's orbit measure
    (sums.orbit_measure), |x| < 1, repeated by mode count, sorted ascending."""
    x, count = orbit_measure(grid, t)
    interior = np.abs(x) < 1.0 - 1e-12
    phases = np.repeat(np.arccos(x[interior]), count[interior].astype(np.intp))
    return np.sort(np.concatenate([phases, -phases]))


def _path_component_dev(t: int, phi_i, phi_j, a_u, a_v, eigenvalues) -> float:
    """Largest deviation of the measured <Phi|p+->, over paths between basis
    states i and j = S_t i (one column each), from the closed forms driven by
    the vertex overlaps a_u and a_v of i's and j's vertices, for eigenvectors
    Phi (one row each) with non-real eigenvalue e^{i phi}; ``phi_i`` and
    ``phi_j`` hold the entries Phi_i and Phi_j:

        <Phi|p+> = sqrt(2/d^t) (a_u + a_v) / (1 + e^{-i phi})
        <Phi|p-> = sqrt(2/d^t) (a_u - a_v) / (1 - e^{-i phi})

    where |p+-> = (|i> +- |j>)/sqrt(2) are the +-1 eigenvectors of the shift.
    """
    scale = (2.0 / DEGREE**t) ** 0.5
    conj_ev = np.conj(eigenvalues)
    plus = np.conj(phi_i + phi_j) * 2**-0.5 - scale * (a_u + a_v) / (1.0 + conj_ev)
    minus = np.conj(phi_i - phi_j) * 2**-0.5 - scale * (a_u - a_v) / (1.0 - conj_ev)
    return float(max(np.abs(plus).max(), np.abs(minus).max()))


def _probe_devs(grid: TorusGrid, t: int) -> tuple[float, float]:
    """(translation dev, unitarity dev) of the matrix-free operators on one
    fixed (dim, PROBE_COLUMNS) slab X of unit complex columns, pseudo-random:
    real and imaginary parts 2u - 1 for the uniform_draws u of seed 0.

    The translation dev is the largest |W T X - T W X| over the two generator
    translations T of the torus: zero when W_t commutes with translations,
    and not zero when it does not, on any fixed probe with no translation
    structure of its own, whatever its distribution. The unitarity dev is the
    largest norm defect of W_t and O_t and involution defect of S_t, C_t and
    O_t. The oracle marks (1, 1), a vertex of every grid: the overlap law
    already shows that the vertex does not matter.
    """

    def column_norms(v: np.ndarray) -> np.ndarray:
        # Each column as one contiguous row, which numpy sums pairwise: the
        # error stays near 1e-16 where a sum down axis 0 grows with dim.
        return np.linalg.norm(v.T.copy(), axis=1)

    shape = (full_dim(grid, t), PROBE_COLUMNS)
    # Column-major, so the coin averages each vertex block of a column along
    # a contiguous axis, as it does for a single state.
    probe = np.empty(shape, dtype=complex, order="F")
    probe.real, probe.imag = 2.0 * uniform_draws(0, (2, *shape)) - 1.0
    probe /= column_norms(probe)
    walked = apply_walk(grid, t, probe)
    layout = (grid.side, grid.side, DEGREE**t, PROBE_COLUMNS)  # y, x, labels, columns
    translation = 0.0
    for axis in (0, 1):
        moved_probe = np.roll(probe.reshape(layout), 1, axis=axis).reshape(shape)
        moved_walk = np.roll(walked.reshape(layout), 1, axis=axis).reshape(shape)
        defect = apply_walk(grid, t, moved_probe) - moved_walk
        translation = max(translation, float(np.abs(defect).max()))

    marked = (1, 1)
    oracled = apply_oracle(grid, t, marked, probe)
    twice = (
        apply_shift(grid, t, apply_shift(grid, t, probe)),
        apply_coin(grid, t, apply_coin(grid, t, probe)),
        apply_oracle(grid, t, marked, oracled),
    )
    norm_devs = (np.abs(column_norms(v) - 1.0).max() for v in (walked, oracled))
    involution_devs = (np.abs(v - probe).max() for v in twice)
    return translation, float(max(*norm_devs, *involution_devs))


@dataclass
class CorrespondenceReport:
    """Numerical verdicts for the walk/adjacency spectral correspondence."""

    grid: TorusGrid
    t: int
    phase_multiset_dev: float
    nonreal_count: int
    expected_nonreal_count: int
    projection_sum_dev: float
    overlap_law_dev: float
    real_weight_dev: float
    eigenpair_residual: float
    component_dev: float
    unitarity_dev: float

    # The invariant subspace: the uniform state plus every non-real eigenvector.
    @property
    def invariant_dim(self) -> int:
        return 1 + self.nonreal_count

    @property
    def expected_invariant_dim(self) -> int:
        return 1 + self.expected_nonreal_count

    def passed(self) -> bool:
        return all(
            [
                self.phase_multiset_dev <= SPECTRUM_TOL,
                self.nonreal_count == self.expected_nonreal_count,
                self.projection_sum_dev <= SPECTRUM_TOL,
                self.overlap_law_dev <= SPECTRUM_TOL,
                self.real_weight_dev <= SPECTRUM_TOL,
                self.eigenpair_residual <= SPECTRUM_TOL,
                self.component_dev <= SPECTRUM_TOL,
                self.unitarity_dev <= UNITARITY_TOL,
            ]
        )


def correspondence_report(grid: TorusGrid, t: int) -> CorrespondenceReport:
    """Run every full-space spectral check on one (grid, t) instance.

    Verifies, against the block eigendecomposition of W_t:
      - every eigenpair is one of the actual operator (the eigenpair
        residual): the matrix-free W_t commutes with both generator
        translations on a fixed probe, so each full-space eigenvector Phi,
        a plane wave, has |W Phi - lambda Phi| equal at every vertex, and
        W Phi is compared with lambda Phi on vertex 0's rows; the residual is
        the larger of the commutation defect and that row deviation,
      - the non-real eigenphase multiset is expected_nonreal_phases, and the
        count of non-real eigenvectors its size 2 #{k : |cos phi_k| < 1}, so
        the invariant subspace (the uniform state plus every non-real
        eigenvector) has dimension 2N-1 on odd sides and 2N-3 on even sides,
      - every non-real unit eigenvector carries projection sum 1/2,
      - per eigenvalue cluster, the marked-state overlap law
        <psi_m|P|psi_m> = multiplicity/(2N) for every vertex m,
      - in every block k the vertex-uniform vector |k> (x) |uniform> is itself
        a +-1 eigenvector when cos^t phi_k = +-1 and otherwise splits between
        two non-real ones: its weight on the +1 and -1 eigenvectors is
        [cos^t phi_k = +1] and [cos^t phi_k = -1] (the real weight),
      - the path-basis component formulas, on the paths that start at vertex
        0: a path's deviation has the same modulus at every vertex, since
        translating it multiplies both ends of a plane wave by one phase,
      - on the same probe as the residual, W_t and O_t keep the norm
        and S_t, C_t and O_t are involutions (the unitarity deviation).

    These hold on every side and step count. Each d^t x d^t block is built
    once, in a batch of consecutive blocks of at most BATCH_ENTRIES entries
    (or one block): the residual and the component formulas read the batch's
    eigenvectors, and its eigenvalues, their +-1 masks and its projection sums
    fill its rows of the (N, d^t) arrays that every other check reads. No
    dim x dim, dim x N or N d^t x d^t array is formed.
    """
    spec = walk_spectrum(grid, t)
    N, d_t = grid.vertex_count, DEGREE**t
    eigenvalues = np.empty((N, d_t), dtype=complex)
    sums = np.empty((N, d_t))

    # Once the walk commutes with translations, it maps each plane wave
    # |k> (x) phi to one of the same k, so |W Phi - lambda Phi| is equal at
    # every vertex. Vertex 0's rows of W Phi are C Phi read at the shift
    # partners of its labels: the coin of phi at each source vertex. The same
    # partners end the paths from vertex 0; a path that ends where it starts
    # (even t) is its own partner and has no p- component, so it is skipped.
    residual, unitarity = _probe_devs(grid, t)
    partner = spec.partner_label
    moved = (partner != np.arange(d_t)) | spec.partner_offset.any(axis=0)
    paths = np.flatnonzero(moved)
    near = 1.0 / grid.side  # <0|k>
    batch = max(1, BATCH_ENTRIES // d_t**2)
    gap = np.empty((min(batch, N), d_t, d_t), dtype=complex)  # W Phi - lambda Phi
    component_dev = 0.0
    for first in range(0, N, batch):
        blocks = np.arange(first, min(first + batch, N))
        values, vecs = spec.block(blocks)
        eigenvalues[blocks] = values
        # <|k> (x) phi | psi_u> = conj(<k|u>) conj(sum(phi)) / 2^t, so the
        # projection sum over the N vertices is |sum(phi)|^2 / d^t. The
        # column sums also give the coin and the vertex overlaps below.
        column = vecs.sum(axis=1)
        sums[blocks] = np.abs(column) ** 2 / d_t
        wave = spec.phases(blocks) / grid.side  # <s(g)|k>, at each label's partner
        # The coin (2/d^t) sum(phi) - phi, at the partners, times <s(g)|k>.
        # Every partner is a label, so "clip" changes no index; it skips the
        # buffered copy that the default mode makes of an ``out`` gather.
        here = gap[: blocks.size]
        np.take(vecs, partner, axis=1, out=here, mode="clip")
        np.subtract(column[:, None, :] * (2.0 / d_t), here, out=here)
        here *= wave[:, :, None]
        here -= (near * values)[:, None, :] * vecs
        residual = max(residual, float(np.abs(here).max()))
        distance = np.minimum(np.abs(values - 1.0), np.abs(values + 1.0))
        rows, cols = np.nonzero(~(distance <= REAL_EIGENVALUE_TOL))  # the non-real
        if rows.size:
            # Phi = |k> (x) phi at |0, g> and at its partner |s(g), r(g)>, and
            # the vertex overlaps a_u = conj(<u|k>) conj(sum(phi)) / 2^t there.
            phi = vecs[rows, :, cols]
            far = wave[rows][:, paths]
            overlap = np.conj(column[rows, cols, None]) * d_t**-0.5
            dev = _path_component_dev(
                t, near * phi[:, paths], far * phi[:, partner[paths]],
                near * overlap, np.conj(far) * overlap, values[rows, cols, None],
            )
            component_dev = max(component_dev, dev)

    plus = np.abs(eigenvalues - 1.0) <= REAL_EIGENVALUE_TOL
    minus = np.abs(eigenvalues + 1.0) <= REAL_EIGENVALUE_TOL
    nonreal = ~(plus | minus)
    phases = np.angle(eigenvalues[nonreal])
    order = np.argsort(phases)
    measured = phases[order]
    expected = expected_nonreal_phases(grid, t)
    phase_dev = float("inf")
    if measured.size == expected.size:
        phase_dev = float(np.max(np.abs(measured - expected), initial=0.0))

    proj = sums[nonreal]
    proj_dev = float(np.max(np.abs(proj - 0.5))) if proj.size else 0.0

    # A block eigenvector's vertex overlaps are a plane wave times
    # conj(sum(phi))/2^t, so |<psi_m|Phi>|^2 = p/N at every vertex m, where p
    # is its projection sum. The overlap law per cluster of equal non-real
    # eigenvalues (basis-free) is then sum(p)/N = multiplicity/(2N).
    overlap_dev = 0.0
    if measured.size:
        starts = np.flatnonzero(np.diff(measured, prepend=-np.inf) > 1e-8)
        weight = np.add.reduceat(proj[order], starts) / N
        target = np.diff(starts, append=measured.size) / (2.0 * N)
        overlap_dev = float(np.max(np.abs(weight - target)))

    # The projection sum of a block eigenvector is its weight in the block's
    # vertex-uniform vector; block b has the cos phi_k of mode b. ``ends``
    # holds cos^t phi_k = +-1 where |cos phi_k| = 1, and 0 elsewhere.
    cos = mode_cosines(grid)
    ends = np.where(np.abs(cos) < 1.0 - 1e-12, 0.0, np.rint(cos) ** t)
    real_dev = 0.0
    for mask, end in ((plus, 1.0), (minus, -1.0)):
        weight = np.where(mask, sums, 0.0).sum(axis=1)
        real_dev = max(real_dev, float(np.max(np.abs(weight - (ends == end)))))

    return CorrespondenceReport(
        grid=grid,
        t=t,
        phase_multiset_dev=phase_dev,
        nonreal_count=measured.size,
        expected_nonreal_count=expected.size,
        projection_sum_dev=proj_dev,
        overlap_law_dev=overlap_dev,
        real_weight_dev=real_dev,
        eigenpair_residual=residual,
        component_dev=component_dev,
        unitarity_dev=unitarity,
    )
