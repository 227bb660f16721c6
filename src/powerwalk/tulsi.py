"""Ancilla-controlled multi-step search (Tulsi's technique): tuning and circuit.

A control qubit rotated by a tunable angle delta is attached to the walk
space. The controlled walk block is diag(W_t, -I): one extra walk eigenstate
with eigenvalue -1 joins the invariant subspace, carrying target overlap
sin(delta), while every walk-mode overlap shrinks by cos(delta). Tuning
t * tan^2(delta) against log N trades oracle calls against rotation-map calls
without amplitude amplification.

The reduced dynamics is the delta > 0 case of the search engine's model
(``search.build_model(..., delta=delta)``); this module picks delta and holds
the full-space circuit that cross-checks it. The per-iteration circuit
(ancilla ops X_delta, X_delta^dagger, Z with O and W controlled on the ancilla
|0> state) equals the block operator
U~ = diag(W_t, -I) . (I - 2|psi_m, delta><psi_m, delta|) exactly; the block
form is authoritative and the circuit is the cross-check. Both are
matrix-free, but they act on the doubled full space of dimension 2 N 4^t, so
the cross-check stays below the sizes the reduced engine sweeps: the tests
run the circuit up to L = 65 (t = 1 and 3) and to t = 5 at L = 17.
"""

from __future__ import annotations

import math

import numpy as np

from . import fullwalk
from .search import SpectralModel
from .search import nearest_odd as _nearest_odd
from .torus import TorusGrid


# The tuning targets tune_delta accepts, spelled as the CLI's --delta-policy.
DELTA_POLICIES = ("optimal-qo", "balanced")


def tune_delta(model: SpectralModel, target: str) -> float:
    """Pick delta for a named point on the Q_O/Q_G trade-off curve.

    balanced: tan^2(delta) = ln N / t, maintaining t tan^2(delta) = ln N for
    t <= ln N; at t = 1 it is the original single-step controlled search,
    tan^2(delta) = ln N. optimal-qo: the t = Theta(ln N) end, tan^2(delta)
    clamped to 1 and 0 once t >= ln N. Logarithms are natural throughout.
    """
    ln_n = math.log(model.grid.vertex_count)
    if target == "balanced":
        # nearest-odd rounding may land just above ln N; that is still the
        # top of the schedule, so reject only beyond it.
        if model.t > max(ln_n, _nearest_odd(ln_n)):
            raise ValueError(
                f"balanced schedule requires t <= ln N ({ln_n:.2f}), got t={model.t}"
            )
        ratio = ln_n / model.t
    elif target == "optimal-qo":
        ratio = 0.0 if model.t >= ln_n else min(1.0, ln_n / model.t - 1.0)
    else:
        raise ValueError(f"unknown tuning target {target!r}")
    return math.atan(math.sqrt(ratio))


# Full-space circuit cross-check. A walk (x) ancilla state is a (dim, 2) slab
# whose column a holds the ancilla |a> amplitudes (flat index walk * 2 + a).


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
    """The authoritative block form on a (dim, 2) slab: diag(W_t, -I) times
    the rotated-target reflection I - 2|psi_m, delta><psi_m, delta|."""
    target = np.outer(fullwalk.coin_uniform_state(grid, t, m), delta_state(delta))
    return _walk_and_z(grid, t, state - 2.0 * np.vdot(target, state) * target)


def circuit_trajectory(
    grid: TorusGrid, t: int, m: tuple[int, int], delta: float, Q: int
) -> np.ndarray:
    """Success probabilities |<psi_m, delta|state>|^2 from explicit circuit
    simulation on the doubled full space, starting from |uniform>|0>."""
    uniform = fullwalk.uniform_superposition(grid, t)
    state = np.column_stack([uniform, np.zeros_like(uniform)])
    target = np.outer(fullwalk.coin_uniform_state(grid, t, m), delta_state(delta))
    trajectory = np.empty(Q + 1)
    trajectory[0] = abs(np.vdot(target, state)) ** 2
    for i in range(1, Q + 1):
        state = circuit_step(grid, t, m, delta, state)
        trajectory[i] = abs(np.vdot(target, state)) ** 2
    return trajectory
