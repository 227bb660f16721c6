"""Batch experiment runner and verification driver.

Subcommands:
  verify-spectrum  full-space spectral checks (walk/adjacency correspondence)
  search           reduced-engine size sweeps with query accounting
  tulsi            controlled-search sweeps over the delta schedule
  sums             grid eigenphase sums and their bracketing bounds
  szegedy          Markov-chain quantization checks
  gap              spectral-gap powering table

Every subcommand is one entry of ``COMMANDS``: its record columns and a run
function that fills a ScalingReport; it accepts only the flags that run reads.
``main`` writes the records as CSV (versioned header, fixed column order) or
JSON, prints the slope/band/check summary to stderr, and exits 0 when every
check passed, 1 on a check failure, 2 on usage, config or budget errors and on
a run that checks nothing. verify-spectrum has no record columns: its verdicts
are per-instance stderr lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fullwalk, records, szegedy
from .records import ScalingReport
from .search import (
    SearchResult,
    SpectralModel,
    build_model,
    compute_alpha,
    iterate_search,
    nearest_odd,
    spectral_gap_power,
    success_probability,
)
from .sums import grid_sums
from .torus import DEFAULT_DENSE_BUDGET, TorusGrid
from .tulsi import DELTA_POLICIES, tune_delta

DEFAULT_TOLERANCES = {
    "spectrum": 1e-9,
    "identity": 1e-9,
    "discriminant": 1e-10,
    "eigenphase": 1e-9,
    "unitarity": 1e-12,
}


@dataclass
class ExperimentConfig:
    """Parsed invocation of one subcommand; round-trips to canonical JSON."""

    command: str
    sizes: tuple[int, ...] = ()
    t_schedule: str = "fixed"  # fixed | log-n | sweep
    t_values: tuple[int, ...] = (1,)
    log_c: float = 1.0
    delta_policy: str = "original-tulsi"  # fixed | optimal-qo | balanced | original-tulsi
    delta: float = 0.0
    marked: tuple[int, int] = (0, 0)
    out: str | None = None
    format: str = "csv"
    seed: int = 0
    budget: int = DEFAULT_DENSE_BUDGET
    chains: int = 20
    k_values: tuple[int, ...] = (1, 2, 3)
    generator: str = "random"
    chain_csv: str | None = None
    g_values: tuple[float, ...] = (0.5, 0.1, 0.01)
    trajectory: bool = True
    rounding: str = "floor"
    amplification_threshold: float = 0.25
    tolerances: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_TOLERANCES)
    )

    def canonical_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        for key in ("sizes", "t_values", "k_values", "g_values"):
            data[key] = tuple(data[key])
        data["marked"] = tuple(data["marked"])
        return cls(**data)

    def schedule_for(self, side: int) -> tuple[int, ...]:
        """Walk-step counts for one grid size under the configured schedule."""
        n = side * side
        if self.t_schedule == "fixed":
            return self.t_values
        if not self.log_c > 0.0:
            raise ValueError(f"--log-c must be > 0, got {self.log_c}")
        if self.t_schedule == "log-n":
            return (nearest_odd(self.log_c * math.log(n)),)
        if self.t_schedule == "sweep":
            top = nearest_odd(self.log_c * math.log(n))
            return tuple(range(1, top + 1, 2))
        raise ValueError(f"unknown t schedule {self.t_schedule!r}")

    def grid_instances(self) -> list[tuple[TorusGrid, int]]:
        """Every (grid, t) of the sweep, in order. The marked vertex and every
        step count are checked first, so a bad one is refused before any work."""
        grids = [TorusGrid(side) for side in self.sizes]
        for grid in grids:
            if not grid.contains(self.marked):
                raise ValueError(f"marked vertex {self.marked} outside grid")
        instances = [(grid, t) for grid in grids for t in self.schedule_for(grid.side)]
        if not instances:
            raise ValueError("--sizes and --t leave no (L, t) instance to run")
        for _, t in instances:
            if t < 1:
                raise ValueError(f"step count t must be >= 1, got {t}")
        return instances


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _vertex(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"marked vertex must be 'x,y', got {text!r}")
    return (int(parts[0]), int(parts[1]))


COLUMN_DOC = {
    "L": "grid side",
    "N": "vertex count L^2",
    "t": "walk steps per oracle call",
    "alpha_exact": "smallest nonzero search eigenphase (numerical)",
    "alpha_estimate": "closed-form eigenphase estimate a0/sqrt(S1/(2N)) (constant 1)",
    "Q": "iterations floor(pi/(2 alpha_exact))",
    "p_s": "success probability measured on the trajectory at Q",
    "p_s_bound": "three-factor analytic success probability",
    "Q_O": "oracle queries incl. amplification rounds",
    "Q_G": "rotation-map queries, exactly t*Q_O",
    "S1": "sum 1/(1-cos^t phi_k) over nonzero modes",
    "S2": "sum 1/(1-cos^t phi_k)^2",
    "S3": "sum cot^2(phi^(t)_k/2)",
    "lower": "bracketing lower bound (1/t) sum 1/(1-cos phi_k)",
    "upper": "square-shell upper bound 8 sum_l l/(1-exp(-4l^2 t/N))",
    "delta": "ancilla rotation angle",
    "tan2_delta": "tan^2(delta)",
    "a_pi": "target overlap sin(delta) on the eigenphase-pi mode",
    "alpha_delta": "smallest nonzero controlled-search eigenphase",
    "Q_delta": "controlled iterations floor(pi/(2 alpha_delta))",
    "k": "Markov chain steps quantized per walk",
    "chain": "chain label (generator:index)",
    "discriminant_error": "max |A_k^T B_k - M^k|",
    "eigenphase_error": "max deviation between nontrivial eigenphase multisets",
    "query_cost": "state-preparation queries per walk step (4k per unit)",
    "g": "spectral gap of the base graph",
    "g_t": "powered spectral gap 1-(1-g)^t",
}


def _columns_epilog(columns) -> str:
    lines = ["columns:"]
    for c in columns:
        lines.append(f"  {c:<20}{COLUMN_DOC[c]}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerwalk",
        description="Multi-step quantum-walk search on the torus: "
        "experiments and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every dest equals its ExperimentConfig field name (config_from_args).
    def output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def tolerance_flags(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(
                f"--tol-{name}",
                type=float,
                default=DEFAULT_TOLERANCES[name],
                help=f"tolerance for {name} checks (default %(default)g)",
            )

    def dense_flags(p: argparse.ArgumentParser, tolerances, budget_help: str) -> None:
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument(
            "--budget", type=int, default=DEFAULT_DENSE_BUDGET, help=budget_help
        )
        tolerance_flags(p, *tolerances)

    def walk_flags(p: argparse.ArgumentParser, marked: bool = True) -> None:
        p.add_argument(
            "--sizes", type=_int_list, help="comma-separated grid sides"
        )
        p.add_argument(
            "--t",
            dest="t_values",
            metavar="T",
            type=_int_list,
            default=(1,),
            help="comma-separated step counts",
        )
        p.add_argument(
            "--t-schedule",
            choices=("fixed", "log-n", "sweep"),
            default="fixed",
            help="fixed: use --t; log-n: nearest odd c*ln N; sweep: odd 1..ln N",
        )
        p.add_argument(
            "--log-c", type=float, default=1.0, help="c in t = nearest-odd(c ln N)"
        )
        if marked:
            p.add_argument("--marked", type=_vertex, default=(0, 0), help="'x,y'")

    def accounting_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rounding", choices=("floor", "nearest"), default="floor")
        p.add_argument(
            "--amplification-threshold",
            type=float,
            default=0.25,
            help="amplify when the analytic p_s falls below this",
        )

    p = sub.add_parser(
        "verify-spectrum",
        help="full-space spectral correspondence checks",
        description="Full-space checks of the multi-step walk against the "
        "adjacency spectrum, from its eigendecomposition one momentum block "
        "at a time: eigenpair residuals, eigenphase multisets, invariant "
        "subspace dimension, projection sums, overlap law, path components. "
        "Verdicts go to stderr, one line per instance; no records are written.",
    )
    dense_flags(
        p,
        ("spectrum", "unitarity"),
        "largest full-walk dimension N*4^t to check (it is decomposed in N "
        "blocks of size 4^t); a larger instance is refused with exit 2 "
        "before any check runs",
    )
    walk_flags(p)
    p.set_defaults(sizes=(5,), t_values=(1, 3))

    p = sub.add_parser(
        "search",
        help="reduced-engine search sweep",
        description="Sweeps grid sizes, computing the principal eigenphase, "
        "iteration count, success probability and query accounting.",
        epilog=_columns_epilog(records.SEARCH_COLUMNS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    output_flags(p)
    walk_flags(p)
    p.add_argument(
        "--no-trajectory",
        dest="trajectory",
        action="store_false",
        help="skip trajectory simulation (p_s column reports the bound)",
    )
    accounting_flags(p)
    p.set_defaults(sizes=(17, 33, 65, 129, 257))

    p = sub.add_parser(
        "tulsi",
        help="controlled-search sweep",
        description="Controlled-search sweep; base columns describe the "
        "uncontrolled run at the same (L, t), the delta columns and "
        "Q_delta/Q_O/Q_G/p_s the controlled one.",
        epilog=_columns_epilog(records.TULSI_COLUMNS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    output_flags(p)
    walk_flags(p)
    p.add_argument(
        "--delta", type=float, default=argparse.SUPPRESS, help="needs --delta-policy fixed"
    )
    p.add_argument(
        "--delta-policy",
        choices=("fixed",) + DELTA_POLICIES,
        default="original-tulsi",
    )
    accounting_flags(p)
    p.set_defaults(sizes=(17, 33, 65, 129, 257))

    p = sub.add_parser(
        "sums",
        help="grid eigenphase sums and bounds",
        description="Direct summation of S1/S2/S3 with the bracketing bounds "
        "and the S3 = 1 - N + 2 S1 identity.",
        epilog=_columns_epilog(records.SUMS_COLUMNS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    output_flags(p)
    tolerance_flags(p, "identity")
    walk_flags(p, marked=False)
    p.set_defaults(sizes=(8, 16, 32, 64, 128, 256, 512))

    p = sub.add_parser(
        "szegedy",
        help="Markov-chain quantization checks",
        description="Builds multi-step quantized walks for symmetric chains, "
        "checking the discriminant power law and the nontrivial-subspace "
        "eigenphase correspondence with the powered chain's walk.",
        epilog=_columns_epilog(records.SZEGEDY_COLUMNS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    output_flags(p)
    dense_flags(
        p,
        ("discriminant", "eigenphase"),
        "largest Szegedy walk dimension N^(k+1) to build densely; "
        "larger (chain, k) pairs are skipped",
    )
    p.add_argument(
        "--sizes", type=_int_list, default=(2, 3, 4), help="chain sizes N"
    )
    p.add_argument(
        "--k",
        dest="k_values",
        metavar="K",
        type=_int_list,
        default=(1, 2, 3),
        help="step counts",
    )
    p.add_argument(
        "--chains", type=int, default=20, help="number of random chains"
    )
    p.add_argument(
        "--generator",
        choices=("random", "cycle", "complete", "lazy-cycle", "lazy-complete"),
        default="random",
    )
    p.add_argument("--chain-csv", help="load one chain from an NxN CSV grid")

    p = sub.add_parser(
        "gap",
        help="spectral-gap powering table",
        description="g_t = 1 - (1-g)^t at t = ceil(1/g) (or --t).",
        epilog=_columns_epilog(records.GAP_COLUMNS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    output_flags(p)
    p.add_argument(
        "--g", dest="g_values", metavar="G", type=_float_list, default=(0.5, 0.1, 0.01)
    )
    p.add_argument(
        "--t",
        dest="t_values",
        metavar="T",
        type=_int_list,
        default=(),
        help="overrides t = ceil(1/g)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The parsed flags that name config fields, plus the --tol-* tolerances."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    values = {k: v for k, v in vars(args).items() if k in fields}
    if "delta" in values and values["delta_policy"] != "fixed":
        raise ValueError("--delta needs --delta-policy fixed")
    values["tolerances"] = {
        name: getattr(args, f"tol_{name}", tol) for name, tol in DEFAULT_TOLERANCES.items()
    }
    return ExperimentConfig(**values)


def _unitarity_deviation(
    grid: TorusGrid, t: int, marked: tuple[int, int], seed: int, trials: int = 8
) -> float:
    """Largest norm / involution defect of S_t, C_t, W_t, O_t on random states."""
    rng = np.random.default_rng(seed)
    dim = fullwalk.full_dim(grid, t)
    worst = 0.0
    for _ in range(trials):
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        walked = fullwalk.apply_walk(grid, t, state)
        oracled = fullwalk.apply_oracle(grid, t, marked, state)
        twice = (
            fullwalk.apply_shift(grid, t, fullwalk.apply_shift(grid, t, state)),
            fullwalk.apply_coin(grid, t, fullwalk.apply_coin(grid, t, state)),
            fullwalk.apply_oracle(grid, t, marked, oracled),
        )
        worst = max(
            worst,
            *(abs(np.linalg.norm(v) - 1.0) for v in (walked, oracled)),
            *(float(np.max(np.abs(v - state))) for v in twice),
        )
    return worst


def run_verify_spectrum(config: ExperimentConfig) -> ScalingReport:
    tol = config.tolerances["spectrum"]
    unitarity_tol = config.tolerances["unitarity"]
    instances = config.grid_instances()
    for grid, t in instances:
        dim = fullwalk.full_dim(grid, t)
        if dim > config.budget:
            raise ValueError(
                f"L={grid.side} t={t}: dimension {dim} exceeds budget "
                f"{config.budget}; refusing eigendecomposition"
            )
    all_ok = True
    for grid, t in instances:
        unitarity_dev = _unitarity_deviation(grid, t, config.marked, config.seed)
        report = fullwalk.correspondence_report(grid, t, budget=config.budget)
        ok = report.passed(tol) and unitarity_dev <= unitarity_tol
        all_ok = all_ok and ok
        status = "pass" if ok else "FAIL"
        print(
            f"L={grid.side} t={t}: {status} "
            f"(phase dev {report.phase_multiset_dev:.2e}, "
            f"invariant dim {report.invariant_dim}/{report.expected_invariant_dim}, "
            f"projection dev {report.projection_sum_dev:.2e}, "
            f"overlap dev {report.overlap_law_dev:.2e}, "
            f"component dev {report.component_dev:.2e}, "
            f"eigenpair residual {report.eigenpair_residual:.2e}, "
            f"unitarity dev {unitarity_dev:.2e})",
            file=sys.stderr,
        )
    verdict = ScalingReport()
    verdict.checks[
        f"spectrum dev <= {tol:g} and unitarity dev <= {unitarity_tol:g}"
    ] = all_ok
    return verdict


def _solve(
    config: ExperimentConfig, model: SpectralModel, trajectory: bool
) -> tuple[float, float, SearchResult, float]:
    """alpha_exact, alpha_estimate, the analytic accounting, and p_s: measured
    on the trajectory at Q, or the analytic bound."""
    alpha_exact, alpha_est = compute_alpha(model)
    result = success_probability(
        model,
        alpha_exact,
        rounding=config.rounding,
        amplification_threshold=config.amplification_threshold,
    )
    p_s = iterate_search(model, result.Q).p_s if trajectory else result.p_s
    return alpha_exact, alpha_est, result, p_s


def _sum_fields(gs) -> dict:
    return {name: getattr(gs, name) for name in records.SUM_FIELDS}


def _search_record(config: ExperimentConfig, model: SpectralModel, trajectory: bool) -> dict:
    alpha_exact, alpha_est, result, p_s = _solve(config, model, trajectory)
    return {
        "L": model.grid.side,
        "N": model.grid.vertex_count,
        "t": model.t,
        "alpha_exact": alpha_exact,
        "alpha_estimate": alpha_est,
        "Q": result.Q,
        "p_s": p_s,
        "p_s_bound": result.p_s,
        "Q_O": result.Q_O,
        "Q_G": result.Q_G,
        **_sum_fields(model.sums),
    }


def run_search(config: ExperimentConfig) -> ScalingReport:
    report = ScalingReport()
    # Models are lazy: building them all first refuses an even t before any
    # solve. Each is dropped once solved, which frees its cached phases.
    models = [build_model(grid, t, config.marked) for grid, t in config.grid_instances()]
    while models:
        report.records.append(_search_record(config, models.pop(0), config.trajectory))
    recs = report.records
    report.checks["Q_G = t*Q_O"] = all(r["Q_G"] == r["t"] * r["Q_O"] for r in recs)
    report.checks["lower <= S1 <= upper"] = all(
        r["lower"] <= r["S1"] <= r["upper"] for r in recs
    )
    one_t_per_size = len({r["L"] for r in recs}) == len(recs)
    if one_t_per_size and len(recs) >= report.min_sizes_for_slope:
        ns = [r["N"] for r in recs]
        report.fit_slope(
            "Q_O/lnN vs N", ns, [r["Q_O"] / math.log(r["N"]) for r in recs]
        )
        report.add_band("p_s", [r["p_s"] for r in recs])
        report.add_band(
            "Q_O/sqrt(N)", [r["Q_O"] / math.sqrt(r["N"]) for r in recs]
        )
    return report


def run_tulsi(config: ExperimentConfig) -> ScalingReport:
    report = ScalingReport()
    # Models are lazy, so building every pair first refuses an even t or a
    # delta that the policy cannot give at some (L, t) before any solve.
    models = []
    for grid, t in config.grid_instances():
        base = build_model(grid, t, config.marked)
        if config.delta_policy == "fixed":
            delta = config.delta
        else:
            delta = tune_delta(base, config.delta_policy)
        models.append((base, build_model(grid, t, config.marked, delta)))
    while models:  # dropping each solved pair frees its cached phases and sums
        base, controlled = models.pop(0)
        # Both depend on (L, t) only, so the pair shares one of each.
        controlled.distinct_phases = base.distinct_phases
        controlled.sums = base.sums
        delta = controlled.delta
        # The base columns describe plain search at the same (L, t); only
        # the controlled run's trajectory is measured.
        rec = _search_record(config, base, trajectory=False)
        alpha_delta, _, tres, p_s = _solve(config, controlled, config.trajectory)
        rec.update(
            {
                "p_s": p_s,
                "p_s_bound": tres.p_s,
                "Q_O": tres.Q_O,
                "Q_G": tres.Q_G,
                "delta": delta,
                "tan2_delta": math.tan(delta) ** 2,
                "a_pi": math.sin(delta),
                "alpha_delta": alpha_delta,
                "Q_delta": tres.Q,
            }
        )
        report.records.append(rec)
    recs = report.records
    report.checks["Q_G = t*Q_O"] = all(r["Q_G"] == r["t"] * r["Q_O"] for r in recs)
    one_t_per_size = len({r["L"] for r in recs}) == len(recs)
    if one_t_per_size and len(recs) >= 2:
        report.add_band(
            "Q_delta/sqrt(N lnN)",
            [r["Q_delta"] / math.sqrt(r["N"] * math.log(r["N"])) for r in recs],
        )
        report.add_band(
            "Q_O*Q_G/(N lnN)",
            [r["Q_O"] * r["Q_G"] / (r["N"] * math.log(r["N"])) for r in recs],
        )
    return report


def run_sums(config: ExperimentConfig) -> ScalingReport:
    report = ScalingReport()
    tol = config.tolerances["identity"]
    bracketed = True
    identity_ok = True
    for grid, t in config.grid_instances():
        gs = grid_sums(grid, t)
        bracketed = bracketed and gs.bracketed()
        identity_ok = identity_ok and gs.identity_residual() <= tol
        report.records.append(
            {"L": grid.side, "N": gs.vertex_count, "t": t, **_sum_fields(gs)}
        )
    report.checks["lower <= S1 <= upper"] = bracketed
    report.checks["S3 = 1 - N + 2*S1"] = identity_ok
    recs = report.records
    if len({r["L"] for r in recs}) == len(recs) and len(recs) >= 2:
        report.add_band(
            "S1*t/(N lnN)",
            [r["S1"] * r["t"] / (r["N"] * math.log(r["N"])) for r in recs],
        )
    return report


def _szegedy_chains(config: ExperimentConfig):
    if config.chain_csv:
        yield "csv:0", szegedy.load_chain_csv(config.chain_csv)
        return
    rng = np.random.default_rng(config.seed)
    if config.generator == "random":
        for i, n in zip(range(config.chains), itertools.cycle(config.sizes)):
            yield f"random:{i}", szegedy.random_symmetric_chain(n, rng)
        return
    for n in config.sizes:
        if config.generator == "cycle":
            if n < 3:
                continue
            yield f"cycle:{n}", szegedy.cycle_chain(n)
        elif config.generator == "complete":
            yield f"complete:{n}", szegedy.complete_chain(n)
        elif config.generator == "lazy-cycle":
            if n < 3:
                continue
            yield f"lazy-cycle:{n}", szegedy.lazy_chain(szegedy.cycle_chain(n))
        elif config.generator == "lazy-complete":
            yield f"lazy-complete:{n}", szegedy.lazy_chain(szegedy.complete_chain(n))


def run_szegedy(config: ExperimentConfig) -> ScalingReport:
    pairs = [(label, chain, k) for label, chain in _szegedy_chains(config)
             for k in config.k_values]
    if all(chain.size ** (k + 1) > config.budget for _, chain, k in pairs):
        raise ValueError(f"no (chain, k) pair to check within budget {config.budget}")
    report = ScalingReport()
    disc_tol = config.tolerances["discriminant"]
    eig_tol = config.tolerances["eigenphase"]
    disc_ok = True
    eig_ok = True
    for label, chain, k in pairs:
        dim = chain.size ** (k + 1)
        if dim > config.budget:
            print(
                f"chain {label} k={k}: dimension {dim} exceeds budget "
                f"{config.budget}; skipped",
                file=sys.stderr,
            )
            continue
        walk = szegedy.build_isometries(chain, k, budget=config.budget)
        powered = np.linalg.matrix_power(chain.matrix, k)
        disc_err = float(np.max(np.abs(szegedy.discriminant(walk) - powered)))
        multi = szegedy.nontrivial_eigenphases(walk)
        single = szegedy.nontrivial_eigenphases(
            szegedy.build_isometries(szegedy.MarkovChain(powered), 1)
        )
        if multi.size == single.size:
            eig_err = float(np.max(np.abs(multi - single))) if multi.size else 0.0
        else:
            eig_err = math.inf
        disc_ok = disc_ok and disc_err <= disc_tol
        eig_ok = eig_ok and eig_err <= eig_tol
        report.records.append(
            {
                "N": chain.size,
                "k": k,
                "chain": label,
                "discriminant_error": disc_err,
                "eigenphase_error": eig_err,
                "query_cost": szegedy.query_cost(walk),
            }
        )
    report.checks[f"discriminant error <= {disc_tol:g}"] = disc_ok
    report.checks[f"eigenphase error <= {eig_tol:g}"] = eig_ok
    report.checks["query_cost = 4k"] = all(
        r["query_cost"] == 4 * r["k"] for r in report.records
    )
    return report


def run_gap(config: ExperimentConfig) -> ScalingReport:
    report = ScalingReport()
    target = 1.0 - math.exp(-1.0) - 0.05
    if not config.g_values:
        raise ValueError("--g must name at least one spectral gap")
    for g in config.g_values:
        if not 0.0 < g <= 1.0:
            raise ValueError(f"spectral gap must lie in (0, 1], got {g}")
    check = "g_t >= 1 - 1/e - 0.05 at t = ceil(1/g)"
    for i, g in enumerate(config.g_values):
        t = config.t_values[i] if i < len(config.t_values) else math.ceil(1.0 / g)
        g_t = spectral_gap_power(g, t)
        if t == math.ceil(1.0 / g):  # rows that --t moved off ceil(1/g) are not checked
            report.checks[check] = report.checks.get(check, True) and g_t >= target
        report.records.append({"g": g, "t": t, "g_t": g_t})
    return report


# name -> (record columns, run). A run only fills records and checks; main
# writes the records, prints the summary and sets the exit code.
COMMANDS = {
    "verify-spectrum": ((), run_verify_spectrum),
    "search": (records.SEARCH_COLUMNS, run_search),
    "tulsi": (records.TULSI_COLUMNS, run_tulsi),
    "sums": (records.SUMS_COLUMNS, run_sums),
    "szegedy": (records.SZEGEDY_COLUMNS, run_szegedy),
    "gap": (records.GAP_COLUMNS, run_gap),
}


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
        columns, run = COMMANDS[config.command]
        report = run(config)
        if columns:
            to_text = records.to_csv if config.format == "csv" else records.to_json
            text = to_text(columns, report.records)
            if config.out:
                with open(config.out, "w") as fp:
                    fp.write(text)
            else:
                sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
