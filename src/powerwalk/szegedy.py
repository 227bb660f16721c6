"""Szegedy quantization of symmetric Markov chains, including multi-step walks.

A symmetric row-stochastic chain M is quantized as the product of two
reflections about the ranges of the isometries A (amplitudes sqrt(M_ij) on
|i>|j>) and B (registers swapped). The k-step construction uses k+1 registers
with path-product amplitudes sqrt(M_{i j_1} ... M_{j_{k-1} j_k}); its
discriminant A_k^dagger B_k equals M^k, so the multi-step walk acts like the
walk of the powered chain on its nontrivial subspace while costing only 4kQ
state-preparation queries per step. Its spectral form is gap powering: the
gap of M^k is 1 - (1 - g)^k, with g the gap of M (``spectral_gap``).

Registers are serialized leftmost-most-significant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .torus import DEFAULT_DENSE_BUDGET

# Singular values within this margin of 0 or 1 mark simultaneous eigenvectors
# of the two range projectors (the trivially-acted-on subspace).
SUBSPACE_TOL = 1e-9
# Largest |A_k^dagger B_k - M^k| entry that the discriminant check accepts.
DISCRIMINANT_TOL = 1e-10
# Largest deviation that the eigenphase check (the walk's nontrivial
# eigenphases against the powered chain's walk) and the gap-powering check
# gap_k = 1-(1-gap)^k accept.
EIGENPHASE_TOL = 1e-9
# Most Sinkhorn iterations random_symmetric_chain runs; it stops earlier once
# the iterates settle into their 2-cycle.
SINKHORN_ITERATIONS = 500


@dataclass(frozen=True)
class MarkovChain:
    """Symmetric row-stochastic transition matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", M)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"transition matrix must be square, got {M.shape}")
        if np.min(M) < -1e-12:
            raise ValueError("transition matrix has negative entries")
        if np.max(np.abs(M - M.T)) > 1e-12:
            raise ValueError("transition matrix is not symmetric")
        if np.max(np.abs(M.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("rows do not sum to 1")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def cycle_chain(n: int) -> MarkovChain:
    """Symmetric random walk on the n-cycle (n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    M = np.zeros((n, n))
    for i in range(n):
        M[i, (i + 1) % n] += 0.5
        M[i, (i - 1) % n] += 0.5
    return MarkovChain(M)


def complete_chain(n: int) -> MarkovChain:
    """Walk on the complete graph: uniform over the other n-1 states."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    M = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(M, 0.0)
    return MarkovChain(M)


def lazy_chain(chain: MarkovChain, hold: float = 0.5) -> MarkovChain:
    """Lazy variant: stay put with probability ``hold``."""
    if not 0.0 <= hold < 1.0:
        raise ValueError(f"hold probability must lie in [0, 1), got {hold}")
    return MarkovChain(hold * np.eye(chain.size) + (1.0 - hold) * chain.matrix)


def random_symmetric_chain(n: int, rng: np.random.Generator) -> MarkovChain:
    """Random symmetric doubly stochastic chain by symmetric Sinkhorn scaling.

    Draws a strictly positive symmetric seed S and finds the diagonal d with
    diag(d) S diag(d) row-stochastic via the fixed point d = 1/(S d). The map
    is homogeneous of degree -1, so its iterates settle into a 2-cycle
    {c d*, d*/c} rather than onto d*. The iteration stops once the next
    iterate is a constant multiple of d (to 1e-15 relative); the constant
    drops out when the rows are normalized. At most SINKHORN_ITERATIONS run.
    """
    if n < 2:
        raise ValueError(f"chain needs n >= 2, got {n}")
    S = rng.uniform(0.1, 1.0, size=(n, n))
    S = 0.5 * (S + S.T)
    d = np.ones(n)
    for _ in range(SINKHORN_ITERATIONS):
        d_new = 1.0 / (S @ d)
        ratio = d / d_new
        d = d_new
        top = ratio.max()
        if top - ratio.min() <= 1e-15 * top:
            break
    M = d[:, None] * S * d[None, :]
    M = 0.5 * (M + M.T)
    M /= M.sum(axis=1, keepdims=True)
    M = 0.5 * (M + M.T)
    return MarkovChain(M)


def load_chain_csv(path) -> MarkovChain:
    """Read an N x N grid of comma-separated numbers as a transition matrix,
    skipping blank lines and '#' comments. A file with no numbers, an entry
    that is not a number, or a line with another entry count than the first
    is refused with the file and its line named."""
    rows = []
    with open(path) as fp:
        for line_no, line in enumerate(fp, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                row = [float(entry) for entry in text.split(",")]
            except ValueError:
                raise ValueError(
                    f"chain CSV {path} line {line_no}: {text!r} is not a row of numbers"
                ) from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"chain CSV {path} line {line_no}: {len(row)} entries, "
                    f"where the first row has {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"chain CSV {path} holds no numbers")
    return MarkovChain(np.array(rows))


def spectral_gap(matrix: np.ndarray) -> float:
    """1 - the second-largest |eigenvalue| of a symmetric matrix, counted with
    multiplicity: 0 for a bipartite or disconnected chain, 1 for one state."""
    moduli = np.sort(np.abs(np.linalg.eigvalsh(matrix)))
    return 1.0 - float(moduli[-2]) if moduli.size > 1 else 1.0


@functools.lru_cache(maxsize=64)
def register_reversal(n: int, k: int) -> np.ndarray:
    """Permutation p over [n^(k+1)] reversing the k+1 base-n registers, built
    once per (n, k) and read-only: callers share it."""
    idx = np.arange(n ** (k + 1))
    rest = idx
    out = np.zeros_like(idx)
    for _ in range(k + 1):
        rest, digit = np.divmod(rest, n)
        out = out * n + digit
    out.flags.writeable = False
    return out


@dataclass
class SzegedyWalk:
    """Multi-step quantized walk: isometries on k+1 registers, two reflections."""

    chain: MarkovChain
    k: int
    A: np.ndarray  # (n^{k+1}, n), column i = |A^k_i>
    B: np.ndarray

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def build_isometries(
    chain: MarkovChain, k: int, budget: int = DEFAULT_DENSE_BUDGET
) -> SzegedyWalk:
    """Construct the k-step isometries with path-product amplitudes.

    Column i of A carries sqrt(M_{i j_1} M_{j_1 j_2} ... M_{j_{k-1} j_k}) at
    register content (i, j_1, ..., j_k); B is A with the register order
    reversed.
    """
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    n = chain.size
    dim = n ** (k + 1)
    if dim > budget:
        raise ValueError(f"dimension {dim} = {n}^{k + 1} exceeds budget {budget}")
    root = np.sqrt(chain.matrix)
    # amps[i, j_1, ..., j_k]: extend one hop at a time by broadcasting.
    amps = root
    for _ in range(k - 1):
        amps = amps[..., :, None] * root
    # A[(i, j_1..j_k), i] = amps[i, j_1..j_k]: row i of amps fills column i.
    A = np.zeros((n, n**k, n))
    A[np.arange(n), :, np.arange(n)] = amps.reshape(n, n**k)
    A = A.reshape(dim, n)
    B = A[register_reversal(n, k), :]
    return SzegedyWalk(chain=chain, k=k, A=A, B=B)


def discriminant(walk: SzegedyWalk) -> np.ndarray:
    """A_k^dagger B_k, an N x N matrix equal to M^k."""
    return walk.A.T @ walk.B


def walk_apply(walk: SzegedyWalk, state: np.ndarray) -> np.ndarray:
    """Apply W_k = (2 B B^dagger - I)(2 A A^dagger - I) without forming it, to
    a state of shape (dim,) or to each column of a (dim, m) slab."""
    state = np.asarray(state)
    if state.ndim not in (1, 2) or state.shape[0] != walk.dim:
        raise ValueError(
            f"state has shape {state.shape}, expected ({walk.dim},) or ({walk.dim}, m)"
        )
    after_a = 2.0 * (walk.A @ (walk.A.T @ state)) - state
    return 2.0 * (walk.B @ (walk.B.T @ after_a)) - after_a


def query_cost(walk: SzegedyWalk, per_step: int = 1) -> int:
    """Queries per walk step: 4 k Q, with Q the cost of one V_1/V_2 call."""
    if per_step < 1:
        raise ValueError(f"per-step query cost must be >= 1, got {per_step}")
    return 4 * walk.k * per_step


def nontrivial_basis(walk: SzegedyWalk, disc: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the nontrivial subspace.

    Rank-revealing route: for each discriminant singular triple (u, sigma, v)
    with sigma inside (0, 1) by more than SUBSPACE_TOL, the plane
    span{A u, B v} is walk invariant and the two range projectors do not
    commute on it. The planes are mutually orthogonal with in-plane Gram
    [[1, sigma], [sigma, 1]]; each gives the columns A u and
    (B v - sigma A u)/sqrt(1 - sigma^2), in turn.
    ``disc`` is the walk's discriminant when the caller has already formed it.
    """
    u, s, vt = np.linalg.svd(discriminant(walk) if disc is None else disc)
    interior = (s > SUBSPACE_TOL) & (s < 1.0 - SUBSPACE_TOL)
    sigma = s[interior]
    basis = np.empty((walk.dim, 2 * sigma.size))
    a_vecs = np.matmul(walk.A, u[:, interior], out=basis[:, 0::2])
    b_vecs = np.matmul(walk.B, vt[interior].T, out=basis[:, 1::2])
    b_vecs -= sigma * a_vecs
    b_vecs /= np.sqrt(1.0 - sigma**2)
    return basis


def nontrivial_eigenphases(
    walk: SzegedyWalk, disc: np.ndarray | None = None
) -> np.ndarray:
    """Sorted eigenphases of the walk restricted to its nontrivial subspace.

    Applies the walk to the rank-revealed basis and diagonalizes the restricted
    operator, so this measures the walk itself rather than assuming the
    discriminant correspondence. ``disc`` is as for ``nontrivial_basis``.
    """
    basis = nontrivial_basis(walk, disc=disc)
    if basis.shape[1] == 0:
        return np.array([])
    restricted = basis.T @ walk_apply(walk, basis)
    return np.sort(np.angle(np.linalg.eigvals(restricted)))

