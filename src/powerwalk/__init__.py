"""Multi-step flip-flop quantum walks by graph powering.

Spatial search on the 2D torus in a reduced spectral representation, exact
full-space verification operators, the ancilla-controlled search variant, and
Szegedy quantization of symmetric Markov chains.
"""

import os
# Idle OpenBLAS threads sleep instead of spinning 2^28 cycles; read when numpy loads.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .torus import TorusGrid
from .fullwalk import (
    WalkSpectrum,
    apply_coin,
    apply_oracle,
    apply_shift,
    apply_walk,
    correspondence_report,
    walk_matrix,
    walk_spectrum,
)
from .search import (
    SearchResult,
    SpectralModel,
    build_model,
    compute_alpha,
    nearest_odd,
    overlap_ws,
    overlap_wt,
    return_moments,
    search_trajectory,
    success_probability,
)
from .sums import GridSums, grid_sums
from .tulsi import tune_delta
from .szegedy import (
    MarkovChain,
    SzegedyWalk,
    build_isometries,
    complete_chain,
    cycle_chain,
    discriminant,
    lazy_chain,
    nontrivial_eigenphases,
    query_cost,
    random_symmetric_chain,
    spectral_gap,
)

__version__ = "0.1.0"
