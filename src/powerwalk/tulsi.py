"""Ancilla-controlled multi-step search (Tulsi's technique): tuning delta.

A control qubit rotated by a tunable angle delta is attached to the walk
space. The controlled walk block is diag(W_t, -I): one extra walk eigenstate
with eigenvalue -1 joins the invariant subspace, carrying target overlap
sin(delta), while every walk-mode overlap shrinks by cos(delta). Tuning
t * tan^2(delta) against log N trades oracle calls against rotation-map calls
without amplitude amplification.

The reduced dynamics is the delta > 0 case of the search engine's model
(``search.build_model(..., delta=delta)``); this module picks delta for the
``tulsi`` subcommand's policies. The full-space circuit (ancilla ops X_delta,
X_delta^dagger, Z with O and W controlled on the ancilla |0> state) and the
block operator U~ = diag(W_t, -I) . (I - 2|psi_m, delta><psi_m, delta|) it
equals are test oracles in tests/oracles.py, which hold the engine's
controlled trajectory against them.
"""

from __future__ import annotations

import math

from .search import SpectralModel
from .search import nearest_odd as _nearest_odd


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
