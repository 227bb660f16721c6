"""Flat result records, CSV/JSON emission, and scaling-law statistics.

CSV output is versioned with a `# powerwalk v1` header comment and a fixed
column order so runs diff cleanly; JSON output is an array of flat records
(search sums nested under "sums"). Floats are written with str (their repr),
which is shortest-round-trip and byte-deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

CSV_VERSION_HEADER = "# powerwalk v1"

# A size sweep fits a scaling slope only from this many sizes on.
MIN_SIZES_FOR_SLOPE = 4

# Each subcommand's record columns: name -> description, in output order.
# The shared pieces below are written once; --help lists each mapping.
GRID_COLUMNS = {
    "L": "grid side",
    "N": "vertex count L^2",
    "t": "walk steps per oracle call",
}

# The five sum columns; JSON output nests them under "sums".
SUM_FIELDS = {
    "S1": "sum 1/(1-cos^t phi_k) over nonzero modes",
    "S2": "sum 1/(1-cos^t phi_k)^2",
    "S3": "sum cot^2(phi^(t)_k/2)",
    "lower": "bracketing lower bound (1/t) sum 1/(1-cos phi_k)",
    "upper": "square-shell upper bound 8 sum_l l/(1-exp(-4l^2 t/N))",
}

SEARCH_COLUMNS = {
    **GRID_COLUMNS,
    "alpha_exact": "smallest nonzero search eigenphase (numerical)",
    "alpha_estimate": "closed-form eigenphase estimate a0/sqrt(S1/(2N)) (constant 1)",
    "Q": "iterations floor(pi/(2 alpha_exact))",
    "p_s": "success probability measured on the trajectory at Q; "
    "with --no-trajectory the estimate, equal to p_s_bound",
    "p_s_bound": "three-factor success probability, Theta(1)-constant estimate",
    "Q_O": "oracle queries incl. amplification rounds",
    "Q_G": "rotation-map queries, exactly t*Q_O",
    **SUM_FIELDS,
}

TULSI_COLUMNS = {
    **SEARCH_COLUMNS,  # tulsi has no --no-trajectory; p_s keeps its column
    "p_s": "success probability measured on the controlled trajectory at Q_delta",
    "delta": "ancilla rotation angle",
    "tan2_delta": "tan^2(delta)",
    "a_pi": "target overlap sin(delta) on the eigenphase-pi mode",
    "alpha_delta": "smallest nonzero controlled-search eigenphase",
    "Q_delta": "controlled iterations floor(pi/(2 alpha_delta))",
}

SUMS_COLUMNS = {**GRID_COLUMNS, **SUM_FIELDS}

SZEGEDY_COLUMNS = {
    "N": "Markov chain size (number of states)",
    "k": "Markov chain steps quantized per walk",
    "chain": "chain label (generator:index)",
    "discriminant_error": "max |A_k^T B_k - M^k|",
    "eigenphase_error": "max deviation between nontrivial eigenphase multisets",
    "query_cost": "state-preparation queries per walk step (4k per unit)",
    "gap": "spectral gap of M: 1 - second-largest |eigenvalue|",
    "gap_k": "spectral gap of M^k, measured on M^k",
}


def to_csv(columns: Sequence[str], records: Sequence[dict]) -> str:
    lines = [CSV_VERSION_HEADER, ",".join(columns)]
    for rec in records:
        lines.append(",".join(str(rec[c]) for c in columns))
    return "\n".join(lines) + "\n"


def to_json(columns: Sequence[str], records: Sequence[dict]) -> str:
    """JSON array of records; the five sum columns nest under "sums"."""
    out = []
    for rec in records:
        flat = {c: rec[c] for c in columns if c not in SUM_FIELDS}
        sums = {c: rec[c] for c in SUM_FIELDS if c in columns and c in rec}
        if sums:
            flat["sums"] = sums
        out.append(flat)
    return json.dumps(out, indent=2, sort_keys=False) + "\n"


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Ordinary least squares slope of ln(y) on ln(x) and its RMS residual."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points for a slope fit")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((a - mx) ** 2 for a in lx)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx
    rss = sum((b - (intercept + slope * a)) ** 2 for a, b in zip(lx, ly))
    return slope, math.sqrt(rss / n)


def band(values: Sequence[float]) -> dict[str, float]:
    """Min/max/ratio statistics of a normalized quantity across a sweep."""
    vmin = min(values)
    vmax = max(values)
    return {
        "min": vmin,
        "max": vmax,
        "ratio": vmax / vmin if vmin > 0 else math.inf,
    }


@dataclass
class ScalingReport:
    """Per-size records plus fitted slope and band statistics.

    A fitted slope carries its residual: reported, never silently asserted.
    """

    records: list[dict] = field(default_factory=list)
    slopes: dict[str, tuple[float, float]] = field(default_factory=dict)
    bands: dict[str, dict[str, float]] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)

    def fit_slope(self, name: str, xs: Sequence[float], ys: Sequence[float]) -> None:
        self.slopes[name] = fit_loglog_slope(xs, ys)

    def add_band(self, name: str, values: Sequence[float]) -> None:
        self.bands[name] = band(values)

    def all_passed(self) -> bool:
        return all(self.checks.values())

    def summary_lines(self) -> list[str]:
        lines = [
            f"warning: L={r['L']} t={r['t']}: {message}"
            for r in self.records
            for message in r.get("warnings", ())
        ]
        for name, (slope, resid) in self.slopes.items():
            lines.append(f"slope {name}: {slope:.4f} (rms residual {resid:.4f})")
        for name, stats in self.bands.items():
            lines.append(
                f"band {name}: min {stats['min']:.6g}, max {stats['max']:.6g}, "
                f"ratio {stats['ratio']:.4f}"
            )
        for name, ok in self.checks.items():
            lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
        return lines
