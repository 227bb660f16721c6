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
        check_stochastic(M)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def check_stochastic(M: np.ndarray) -> None:
    """Raise ValueError unless each matrix of M is a symmetric chain (1e-12).
    Non-finite entries are refused first: every comparison below is False on NaN."""
    if not np.isfinite(M).all():
        raise ValueError("transition matrix has non-finite entries")
    if np.min(M) < -1e-12:
        raise ValueError("transition matrix has negative entries")
    if np.max(np.abs(M - M.mT)) > 1e-12:
        raise ValueError("transition matrix is not symmetric")
    if np.max(np.abs(M.sum(axis=-1) - 1.0)) > 1e-12:
        raise ValueError("rows do not sum to 1")


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


def lazy_chain(chain: MarkovChain) -> MarkovChain:
    """Lazy variant: stay put with probability 1/2."""
    return MarkovChain(0.5 * np.eye(chain.size) + 0.5 * chain.matrix)


def random_symmetric_chain(draws: np.ndarray) -> np.ndarray:
    """Symmetric doubly stochastic chains, one per matrix of a (c, n, n) stack
    of uniform draws in [0, 1), by symmetric Sinkhorn scaling.

    The seed S = 0.1 + 0.9 draws (numpy's uniform(0.1, 1.0)), symmetrized, is
    positive, and diag(d) S diag(d) is row-stochastic at the fixed point
    d = 1/(S d). The map is homogeneous of degree -1, so its iterates settle
    into a 2-cycle {c d*, d*/c} rather than onto d*. A chain's d stops once
    its next iterate is a constant multiple of it (to 1e-15 relative; the
    constant drops out when the rows are normalized) or after
    SINKHORN_ITERATIONS, so the chains stacked with it change none of its bits.
    """
    if draws.shape[-1] < 2:
        raise ValueError(f"chain needs n >= 2, got {draws.shape[-1]}")
    S = 0.1 + 0.9 * draws
    S = 0.5 * (S + S.mT)
    d = np.ones(draws.shape[:-1] + (1,))
    active = np.ones(len(d), dtype=bool)
    for _ in range(SINKHORN_ITERATIONS):
        d_new = 1.0 / (S @ d)
        ratio = d / d_new
        d[active] = d_new[active]
        top = ratio.max(axis=(1, 2))
        active &= top - ratio.min(axis=(1, 2)) > 1e-15 * top
        if not active.any():
            break
    M = d * S * d.mT
    M = 0.5 * (M + M.mT)
    M /= M.sum(axis=-1, keepdims=True)
    return 0.5 * (M + M.mT)


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


def spectral_gap(matrix: np.ndarray) -> np.ndarray:
    """1 - the second-largest |eigenvalue| of a symmetric matrix, counted with
    multiplicity, per matrix of a (..., n, n) stack: 0 for a bipartite or
    disconnected chain, 1 for one state."""
    moduli = np.sort(np.abs(np.linalg.eigvalsh(matrix)), axis=-1)
    return 1.0 - moduli[..., -2] if moduli.shape[-1] > 1 else np.ones(moduli.shape[:-1])


@functools.lru_cache(maxsize=64)
def register_reversal(n: int, k: int) -> np.ndarray:
    """Permutation p over [n^(k+1)] reversing the k+1 base-n registers, built
    once per (n, k) and read-only: callers share it."""
    out = np.arange(n ** (k + 1)).reshape((n,) * (k + 1)).T.ravel()
    out.flags.writeable = False
    return out


@dataclass
class SzegedyWalk:
    """Multi-step quantized walk: isometries on k+1 registers, two reflections."""

    k: int
    A: np.ndarray  # (n^{k+1}, n), or (c, n^{k+1}, n) for c chains; column i = |A^k_i>
    B: np.ndarray


def build_isometries(M: np.ndarray, k: int) -> SzegedyWalk:
    """Construct the k-step isometries with path-product amplitudes.

    Column i of A carries sqrt(M_{i j_1} M_{j_1 j_2} ... M_{j_{k-1} j_k}) at
    register content (i, j_1, ..., j_k); B is A with the register order
    reversed. ``M`` is one chain matrix or a (c, n, n) stack of them.
    """
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    n, stack = M.shape[-1], M.shape[:-2]
    dim = n ** (k + 1)
    root = np.sqrt(M)
    # amps[..., (i, j_1..j_{r-1}), j_r]: extend one hop at a time by broadcasting.
    amps = root
    for _ in range(k - 1):
        amps = (amps[..., None] * root[..., None, :, :]).reshape(*stack, -1, n)
    # A[(i, j_1..j_k), l] = amps[i, j_1..j_k] if l = i: row i of amps fills column i.
    A = (amps.reshape(*stack, n, -1, 1) * np.eye(n)[:, None, :]).reshape(*stack, dim, n)
    return SzegedyWalk(k=k, A=A, B=A[..., register_reversal(n, k), :])


def discriminant(walk: SzegedyWalk) -> np.ndarray:
    """A_k^dagger B_k, an N x N matrix (per chain of a stack) equal to M^k."""
    return walk.A.mT @ walk.B


def query_cost(walk: SzegedyWalk) -> int:
    """Queries per walk step: 4 k, one per V_1/V_2 call."""
    return 4 * walk.k


def _restricted_operators(
    walk: SzegedyWalk, disc: np.ndarray | None = None
) -> list[tuple[list[int], np.ndarray]]:
    """X^T W X of nontrivial_eigenphases per interior count m > 0: the chains'
    rows in the stack and their (rows, 2m, 2m) operators."""
    D = discriminant(walk) if disc is None else disc
    gram_a, gram_b, n = walk.A.mT @ walk.A, walk.B.mT @ walk.B, D.shape[-1]
    u, s, vt = np.linalg.svd(D)
    interior = (s > SUBSPACE_TOL) & (s < 1.0 - SUBSPACE_TOL)
    counts = interior.sum(axis=1).tolist()  # not np.unique: it imports numpy.ma
    operators = []
    for m in set(counts) - {0}:
        rows = [row for row, count in enumerate(counts) if count == m]
        g, pick = len(rows), interior[rows]
        u_in = u[rows].mT[pick].reshape(g, m, n).mT
        v_in = vt[rows][pick].reshape(g, m, n).mT
        sigma = s[rows][pick].reshape(g, 1, m)
        rho = np.sqrt(1.0 - sigma**2)
        # Columns 2j and 2j + 1 of X come from triple j.
        c_a = np.stack([u_in, -sigma * u_in / rho], axis=3).reshape(g, n, 2 * m)
        c_b = np.stack([np.zeros_like(v_in), v_in / rho], axis=3).reshape(g, n, 2 * m)
        d = D[rows]
        a = gram_a[rows] @ c_a + d @ c_b
        b = d.mT @ c_a + gram_b[rows] @ c_b
        xx = c_a.mT @ a + c_b.mT @ b
        restricted = 2.0 * (b.mT @ (2.0 * (d.mT @ a) - b)) - (2.0 * (a.mT @ a) - xx)
        operators.append((rows, restricted))
    return operators


def nontrivial_eigenphases(
    walk: SzegedyWalk, disc: np.ndarray | None = None
) -> list[np.ndarray]:
    """Sorted eigenphases of each walk of a stack (A and B of shape
    (c, n^{k+1}, n)) restricted to its nontrivial subspace, one array per chain.

    For each discriminant singular triple (u, sigma, v) with sigma inside
    (0, 1) by more than SUBSPACE_TOL, span{A u, B v} is walk invariant and the
    range projectors do not commute on it. Its basis vectors A u and
    (B v - sigma A u)/sqrt(1 - sigma^2), over the m interior triples, make
    X = A C_a + B C_b with n x 2m coefficients C_a and C_b. With the Gram
    matrices G_A = A^T A, G_B = B^T B and D = A^T B (computed, not assumed),
    a = G_A C_a + D C_b and b = D^T C_a + G_B C_b, the walk
    W = (2 B B^T - I)(2 A A^T - I) restricted to X is

        X^T W X = 2 b^T (2 D^T a - b) - (2 a^T a - X^T X),  X^T X = C_a^T a + C_b^T b:

    three dim-length products, and no dim x 2m slab W X. This measures the
    walk rather than assuming the discriminant correspondence. One stacked
    eigvals per m diagonalises the group; ``disc`` is D when already formed.
    """
    phases = dict.fromkeys(range(len(walk.A)), np.array([]))
    for rows, op in _restricted_operators(walk, disc):
        phases.update(zip(rows, np.sort(np.angle(np.linalg.eigvals(op)), axis=-1)))
    return list(phases.values())
