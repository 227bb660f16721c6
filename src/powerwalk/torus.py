"""2D torus as a 4-regular graph: rotation map, graph powering, Fourier spectrum.

The torus is the sqrt(N) x sqrt(N) periodic lattice. Every vertex carries four
edge labels (right, left, up, down); the rotation map sends (vertex, label) to
(neighbour, label of the same edge at the neighbour) and is an involution.
Powering the rotation map t times gives the edge structure of the t-th graph
power, whose normalized adjacency matrix is the t-th matrix power of the
original one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Edge label alphabet. Reversal pairs 0<->1 and 2<->3.
RIGHT, LEFT, UP, DOWN = 0, 1, 2, 3
LABELS = (RIGHT, LEFT, UP, DOWN)
REVERSE = (LEFT, RIGHT, DOWN, UP)
STEP = ((1, 0), (-1, 0), (0, 1), (0, -1))

DEGREE = 4

# Largest full-walk dimension N*4^t that walk_spectrum decomposes (block by
# block), largest dimension of the dense matrices the package builds (the
# reduced search operator and the Szegedy isometries), and largest number of
# length-t paths adjacency_power_entry enumerates.
DEFAULT_DENSE_BUDGET = 4096


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

    def vertex_coords(self, index: int) -> tuple[int, int]:
        y, x = divmod(index, self.side)
        return (x, y)

    def contains(self, vertex: tuple[int, int]) -> bool:
        x, y = vertex
        return 0 <= x < self.side and 0 <= y < self.side


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
    is 1, 2, 4 or 8 and the counts sum to N - 1. They come by descending cos,
    ties in (a, b) order (a stable sort, the same on every machine). The table
    is cached per side and its arrays are read-only.
    """
    L = grid.side
    h = np.arange(L // 2 + 1)
    c = np.cos(2 * np.pi * h / L)
    m = np.where((h == 0) | (2 * h == L), 1, 2)
    a, b = np.triu_indices(h.size)
    a, b = a[1:], b[1:]  # drop the k=(0,0) mode
    cos = 0.5 * (c[a] + c[b])
    order = np.argsort(-cos, kind="stable")
    table = cos[order], (m[a] * m[b] * np.where(a == b, 1, 2))[order]
    for array in table:
        array.flags.writeable = False
    return table


def adjacency_matrix(grid: TorusGrid) -> np.ndarray:
    """Dense normalized adjacency matrix (entries 1/d on edges)."""
    N = grid.vertex_count
    A = np.zeros((N, N))
    for i in range(N):
        u = grid.vertex_coords(i)
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
    """(A^t)_{uv} by exhaustive enumeration of the d^t label sequences from u.

    A slow, independent oracle for small instances: counts length-t paths from
    u ending at v and divides by d^t.
    """
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
