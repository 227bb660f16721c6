"""Output checks for the benchmark workloads, independent of the reduced engine.

Every check is one counted operation. The set of checks a round makes is fixed
by the workload's arguments, not by what the program printed, so a missing or
malformed record fails its checks instead of removing them.

Spectra, secular functions, sums and schedules are rebuilt here with numpy
from the torus formulas. The full-space cross-check of a reported ``p_s``
steps the walk in the N*4^t space with the program's matrix-free brute-force
operators (``fullwalk.apply_oracle``, ``apply_coin`` and the shift
permutation) for plain records; controlled records run an ancilla circuit
written here. No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

from powerwalk import fullwalk
from powerwalk.torus import TorusGrid

# Largest full-space dimension N*4^t whose reported p_s is re-simulated. It
# admits L=129 at t=3 (1,065,024), the one multi-step record of the sweeps
# that costs under about 2 s, and keeps every cross-check together below
# half of a workload's invocation time.
FULLSPACE_DIM_CAP = 1_100_000
FULLSPACE_TOL = 1e-9
# Relative offset at which the secular function must have opposite signs
# around a reported eigenphase. The program's root is accurate to about 1e-10
# (phases are grouped after rounding to 1e-12), so this leaves a 100x margin.
ROOT_EPS = 1e-8
REL_TOL = 1e-9
SPECTRUM_TOL = 1e-9
DISCRIMINANT_TOL = 1e-10
EIGENPHASE_TOL = 1e-9
# verify-spectrum instances whose dense eigenvalues are recomputed here.
EIGVALS_DIM_CAP = 1600
MARKED = (0, 0)


class Tally:
    """Counts checks attempted and failed, keeping a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, predicate) -> bool:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:  # a malformed or missing record fails the check
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)


INT_COLUMNS = {"L", "N", "t", "Q", "Q_O", "Q_G", "Q_delta", "k", "query_cost"}


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != "# powerwalk v1":
        raise ValueError("missing '# powerwalk v1' header")
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        values = line.split(",")
        row = {}
        for column, value in zip(columns, values, strict=True):
            if column in INT_COLUMNS:
                row[column] = int(value)
            elif column == "chain":
                row[column] = value
            else:
                row[column] = float(value)
        rows.append(row)
    return rows


def sweep_schedule(side: int) -> list[int]:
    """Odd t from 1 up to the odd integer nearest ln N (ties go down)."""
    x = math.log(side * side)
    below = max(1, 2 * math.floor((x - 1) / 2) + 1)
    top = below if x - below <= below + 2 - x else below + 2
    return list(range(1, top + 1, 2))


def mode_cosines(side: int) -> np.ndarray:
    """cos phi_k = (cos 2 pi k_x/L + cos 2 pi k_y/L)/2 over all k != (0, 0)."""
    c = np.cos(2.0 * np.pi * np.arange(side) / side)
    return ((c[:, None] + c[None, :]) / 2.0).ravel()[1:]


def secular(alpha: float, cos_t: np.ndarray, tan2_delta: float = 0.0) -> float:
    """N/cos^2(delta) times the secular function of the search operator.

    sum_j |T_j|^2 cot((alpha - theta_j)/2) with |T_0|^2 = cos^2(delta)/N,
    |T_{+-k}|^2 = cos^2(delta)/(2N) on the phases +-theta_k, and sin^2(delta)
    on the ancilla's phase-pi mode, whose term is -tan(alpha/2). Plain search
    is delta = 0.
    """
    n = cos_t.size + 1
    modes = float(np.sum(math.sin(alpha) / (cos_t - math.cos(alpha))))
    return 1.0 / math.tan(alpha / 2.0) + modes - n * tan2_delta * math.tan(alpha / 2.0)


def brackets_root(alpha: float, cos_t: np.ndarray, tan2_delta: float = 0.0) -> bool:
    lo = secular(alpha * (1.0 - ROOT_EPS), cos_t, tan2_delta)
    hi = secular(alpha * (1.0 + ROOT_EPS), cos_t, tan2_delta)
    return lo > 0.0 > hi


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * abs(b)


def fullspace_plain(side: int, t: int, q: int) -> float:
    """p_s after q oracle-then-walk steps in the full N*4^t space."""
    grid = TorusGrid(side)
    d_t = 4**t
    perm = fullwalk.shift_permutation(grid, t)
    dim = perm.size
    state = np.full(dim, dim**-0.5, dtype=complex)
    for _ in range(q):
        state = fullwalk.apply_oracle(grid, t, MARKED, state)
        state = fullwalk.apply_coin(grid, t, state)[perm]
    start = grid.vertex_index(MARKED) * d_t
    return abs(state[start : start + d_t].sum()) ** 2 / d_t


def fullspace_controlled(side: int, t: int, delta: float, q: int) -> float:
    """p_s of the ancilla-controlled search circuit after q iterations.

    One iteration: X_delta on the ancilla, the oracle controlled on ancilla
    |0>, X_delta^dagger, the walk controlled on ancilla |0>, then Z. Outside
    the marked vertex's block the controlled oracle is the identity, so the
    first three gates there compose to the identity and are applied to that
    block only. Success is the weight on |psi_m>|delta>.
    """
    grid = TorusGrid(side)
    d_t = 4**t
    perm = fullwalk.shift_permutation(grid, t)
    dim = perm.size
    c, s = math.cos(delta), math.sin(delta)
    a0 = np.full(dim, dim**-0.5, dtype=complex)  # ancilla |0> amplitudes
    a1 = np.zeros(dim, dtype=complex)  # ancilla |1> amplitudes
    block = slice(grid.vertex_index(MARKED) * d_t, (grid.vertex_index(MARKED) + 1) * d_t)
    for _ in range(q):
        b0, b1 = a0[block], a1[block]
        x0 = c * b0 + s * b1
        x1 = -s * b0 + c * b1
        x0 = x0 - 2.0 * x0.sum() / d_t
        a0[block] = c * x0 - s * x1
        a1[block] = s * x0 + c * x1
        a0 = fullwalk.apply_coin(grid, t, a0)[perm]
        a1 = -a1
    return abs((c * a0[block] + s * a1[block]).sum()) ** 2 / d_t


def _parsed(tally: Tally, label: str, result: dict) -> list[dict]:
    rows: list[dict] = []

    def parse() -> bool:
        rows.extend(parse_csv(result["stdout"]))
        return True

    tally.check(f"{label}: output parses", parse)
    return rows


def _rows_by_instance(rows: list[dict]) -> dict:
    return {(r["L"], r["t"]): r for r in rows}


def _base_record_checks(tally: Tally, label: str, rec, side: int, t: int, cos_t) -> None:
    """Checks on the plain-search columns every search and tulsi row carries."""
    n = side * side
    phi1 = math.acos(min(1.0, float(cos_t.max())))
    tally.check(f"{label}: N = L^2", lambda: rec["N"] == n)
    tally.check(
        f"{label}: alpha_exact is the secular root",
        lambda: brackets_root(rec["alpha_exact"], cos_t),
    )
    tally.check(f"{label}: alpha_exact < phi1/2", lambda: rec["alpha_exact"] < phi1 / 2.0)
    tally.check(
        f"{label}: Q = floor(pi/(2 alpha_exact))",
        lambda: rec["Q"] == math.floor(math.pi / (2.0 * rec["alpha_exact"])),
    )
    tally.check(
        f"{label}: S3 = 1 - N + 2 S1",
        lambda: close(rec["S3"], 1.0 - n + 2.0 * rec["S1"]),
    )
    tally.check(f"{label}: lower <= S1 <= upper", lambda: rec["lower"] <= rec["S1"] <= rec["upper"])
    own_s1 = float(np.sum(1.0 / (1.0 - cos_t)))
    tally.check(f"{label}: S1 matches the direct sum", lambda: close(rec["S1"], own_s1))
    tally.check(f"{label}: Q_G = t Q_O", lambda: rec["Q_G"] == t * rec["Q_O"])
    tally.check(f"{label}: 0 < p_s <= 1", lambda: 0.0 < rec["p_s"] <= 1.0)


def check_search(tally: Tally, result: dict, sizes, trajectory: bool) -> None:
    """Checks on the records of ``search --sizes ... --t-schedule sweep``."""
    expected = [(side, t) for side in sizes for t in sweep_schedule(side)]
    rows = _parsed(tally, "search", result)
    tally.check(
        "search: one record per scheduled (L, t), in order",
        lambda: [(r["L"], r["t"]) for r in rows] == expected,
    )
    by_instance = _rows_by_instance(rows)
    for side in sizes:
        cos = mode_cosines(side)
        for t in sweep_schedule(side):
            label = f"search L={side} t={t}"
            rec = by_instance.get((side, t))
            _base_record_checks(tally, label, rec, side, t, cos**t)
            if not trajectory:
                tally.check(
                    f"{label}: p_s reports the bound",
                    lambda: rec["p_s"] == rec["p_s_bound"],
                )
            elif side * side * 4**t <= FULLSPACE_DIM_CAP:
                tally.check(
                    f"{label}: p_s matches the full-space trajectory",
                    lambda: abs(fullspace_plain(side, t, rec["Q"]) - rec["p_s"])
                    <= FULLSPACE_TOL,
                )


def check_tulsi_balanced(tally: Tally, result: dict, side: int) -> None:
    """Checks on ``tulsi --sizes L --t-schedule sweep --delta-policy balanced``."""
    rows = _parsed(tally, "tulsi", result)
    tally.check(
        "tulsi: one record per scheduled t, in order",
        lambda: [(r["L"], r["t"]) for r in rows] == [(side, t) for t in sweep_schedule(side)],
    )
    by_instance = _rows_by_instance(rows)
    cos = mode_cosines(side)
    ln_n = math.log(side * side)
    for t in sweep_schedule(side):
        label = f"tulsi L={side} t={t}"
        rec = by_instance.get((side, t))
        cos_t = cos**t
        _base_record_checks(tally, label, rec, side, t, cos_t)
        tally.check(
            f"{label}: t tan^2(delta) = ln N",
            lambda: close(t * math.tan(rec["delta"]) ** 2, ln_n)
            and close(rec["tan2_delta"], math.tan(rec["delta"]) ** 2),
        )
        tally.check(
            f"{label}: alpha_delta is the controlled secular root",
            lambda: brackets_root(rec["alpha_delta"], cos_t, math.tan(rec["delta"]) ** 2),
        )
        tally.check(
            f"{label}: Q_delta = floor(pi/(2 alpha_delta))",
            lambda: rec["Q_delta"] == math.floor(math.pi / (2.0 * rec["alpha_delta"])),
        )
        if side * side * 4**t <= FULLSPACE_DIM_CAP:
            tally.check(
                f"{label}: p_s matches the full-space controlled circuit",
                lambda: abs(
                    fullspace_controlled(side, t, rec["delta"], rec["Q_delta"]) - rec["p_s"]
                )
                <= FULLSPACE_TOL,
            )


def expected_nonreal_phases(side: int, t: int) -> np.ndarray:
    cos = mode_cosines(side)
    cos = cos[np.abs(cos) < 1.0 - 1e-12]
    phases = np.arccos(cos**t)
    return np.sort(np.concatenate([phases, -phases]))


def walk_nonreal_phases(side: int, t: int) -> np.ndarray:
    """Non-real eigenphases of the program's dense walk matrix, by eigvals."""
    eig = np.linalg.eigvals(fullwalk.walk_matrix(TorusGrid(side), t))
    nonreal = eig[(np.abs(eig - 1.0) > 1e-8) & (np.abs(eig + 1.0) > 1e-8)]
    return np.sort(np.angle(nonreal))


def _phases_agree(side: int, t: int) -> bool:
    measured = walk_nonreal_phases(side, t)
    expected = expected_nonreal_phases(side, t)
    return measured.size == expected.size and np.max(np.abs(measured - expected)) <= SPECTRUM_TOL


def check_verify_spectrum(tally: Tally, result: dict, sizes, ts) -> None:
    """One 'pass' line per (L, t), and the eigenphases of the small instances."""
    lines = result["stderr"].splitlines()
    for side in sizes:
        for t in ts:
            prefix = f"L={side} t={t}: "
            tally.check(
                f"verify-spectrum L={side} t={t}: one pass line",
                lambda: [ln[len(prefix):].split(" ")[0] for ln in lines if ln.startswith(prefix)]
                == ["pass"],
            )
            if side * side * 4**t <= EIGVALS_DIM_CAP:
                tally.check(
                    f"verify-spectrum L={side} t={t}: eigvals match +-arccos(cos^t phi_k)",
                    lambda: _phases_agree(side, t),
                )


def check_szegedy(tally: Tally, result: dict, sizes, ks, chains: int) -> None:
    """Per chain and k: the query cost and both error columns within tolerance."""
    rows = _parsed(tally, "szegedy", result)
    expected = [(f"random:{i}", k) for i in range(chains) for k in ks]
    tally.check(
        "szegedy: one record per chain and k, in order",
        lambda: [(r["chain"], r["k"]) for r in rows] == expected,
    )
    by_key = {(r["chain"], r["k"]): r for r in rows}
    for i in range(chains):
        for k in ks:
            label = f"szegedy random:{i} k={k}"
            rec = by_key.get((f"random:{i}", k))
            tally.check(f"{label}: N", lambda: rec["N"] == sizes[i % len(sizes)])
            tally.check(f"{label}: query_cost = 4k", lambda: rec["query_cost"] == 4 * k)
            tally.check(
                f"{label}: discriminant error",
                lambda: rec["discriminant_error"] <= DISCRIMINANT_TOL,
            )
            tally.check(
                f"{label}: eigenphase error", lambda: rec["eigenphase_error"] <= EIGENPHASE_TOL
            )
