"""2D torus as a 4-regular graph: the grid, its edge labels and its Fourier modes.

The torus is the sqrt(N) x sqrt(N) periodic lattice. Every vertex carries four
edge labels (right, left, up, down); the rotation map sends (vertex, label) to
(neighbour, label of the same edge at the neighbour) and is an involution.
``fullwalk.shift_permutation`` powers it from the step and reversal tables
below: a path's displacement is the sum of its label steps, and its label
sequence seen from the far end is its reversal with each label reversed. The
normalized adjacency matrix of the t-th graph power is the t-th power of the
original one, diagonal in the Fourier modes k with eigenvalue cos^t phi_k
(``mode_cosines``); ``mode_orbits`` groups the modes by the torus symmetries
for the search engine and the sums.

The scalar rotation map, the dense adjacency matrix and path enumeration,
which check these tables, are test oracles in tests/oracles.py.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Edge labels 0..3 are right, left, up, down: STEP is each label's (dx, dy) and
# REVERSE its label at the far end of the edge, pairing 0<->1 and 2<->3.
REVERSE = (1, 0, 3, 2)
STEP = ((1, 0), (-1, 0), (0, 1), (0, -1))

DEGREE = 4

# Most entries in one batch of stacked dense work, momentum-block eigenvectors
# (blocks x d^t x d^t) or Szegedy isometries (chains x n^{k+1} x n); one at least.
BATCH_ENTRIES = 2**16


@dataclass(frozen=True)
class TorusGrid:
    """Periodic square lattice with side L, N = L^2 vertices, degree 4."""

    side: int

    def __post_init__(self):
        if self.side < 2:
            raise ValueError(f"torus side must be >= 2, got {self.side}")

    @property
    def vertex_count(self) -> int:
        return self.side * self.side

    def vertex_index(self, vertex: tuple[int, int]) -> int:
        """Row-major serialization y*L + x."""
        x, y = vertex
        return y * self.side + x

    def contains(self, vertex: tuple[int, int]) -> bool:
        x, y = vertex
        return 0 <= x < self.side and 0 <= y < self.side


def mode_cosines(grid: TorusGrid) -> np.ndarray:
    """cos(phi_k) for every mode, in row-major mode order (length N)."""
    c = np.cos(2 * np.pi * np.arange(grid.side) / grid.side)
    return 0.5 * np.add.outer(c, c).ravel()


@functools.lru_cache(maxsize=8)
def mode_orbits(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """cos(phi_k) and mode count of each symmetry orbit of the nonzero modes.

    cos(phi_k) is invariant under k_x <-> k_y and k -> L - k. The orbits are
    represented by 0 <= a <= b <= L//2 and hold m(a) m(b) (1 if a == b else 2)
    modes, with m(h) = 1 for h = 0 or 2h = L and 2 otherwise, so every count
    is 1, 2, 4 or 8 (float64, exact) and the counts sum to N - 1. They come in
    lattice order, (a, b) row-major; the first is (0, 1), the nonzero mode
    with the largest cos. The table is cached per side and its arrays are
    read-only.
    """
    L = grid.side
    h = np.arange(L // 2 + 1)
    c = np.cos(2 * np.pi * h / L)
    m = np.where((h == 0) | (2 * h == L), 1.0, 2.0)
    a, b = np.triu_indices(h.size)
    a, b = a[1:], b[1:]  # drop the k=(0,0) mode
    table = 0.5 * (c[a] + c[b]), m[a] * m[b] * np.where(a == b, 1.0, 2.0)
    for array in table:
        array.flags.writeable = False
    return table


def uniform_draws(seed: int, shape) -> np.ndarray:
    """Uniform doubles in [0, 1) of the given shape, in C order: the top 53
    bits of the SplitMix64 stream (Steele, Lea & Flood 2014) of a seed in
    [0, 2**64). Integer arithmetic only, so the same bits on every machine."""
    z = np.arange(1, 1 + int(np.prod(shape)), dtype=np.uint64)
    z *= 0x9E3779B97F4A7C15  # the i-th state, seed + i * gamma mod 2**64
    z += seed
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return (z >> 11).reshape(shape) * 2.0**-53
