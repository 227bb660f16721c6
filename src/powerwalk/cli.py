"""Batch experiment runner and verification driver.

Subcommands:
  verify-spectrum  full-space spectral checks (walk/adjacency correspondence)
  search           reduced-engine size sweeps with query accounting
  tulsi            controlled-search sweeps over the delta schedule
  sums             grid eigenphase sums and their bracketing bounds
  szegedy          Markov-chain quantization and gap-powering checks

Every subcommand is one entry of ``COMMANDS``: its record columns and a run
function that fills a ScalingReport; it accepts only the flags that run reads.
``main`` writes the records as CSV (versioned header, fixed column order) or
JSON, prints the slope/band/check summary to stderr, and exits 0 when every
check passed, 1 on a check failure, 2 on usage, config or budget errors and on
a run that checks nothing. verify-spectrum has no record columns: its verdicts
are per-instance stderr lines. Budgets and warnings are decided here; the
numerical modules take no budget and raise no warning.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import fullwalk, records, szegedy
from .fullwalk import SPECTRUM_TOL, UNITARITY_TOL
from .records import ScalingReport
from .search import (
    MOMENT_TOL,
    SpectralModel,
    build_model,
    compute_alpha,
    nearest_odd,
    return_moments,
    search_trajectory,
    success_probability,
)
from .sums import IDENTITY_TOL, check_finite, grid_sums
from .szegedy import DISCRIMINANT_TOL, EIGENPHASE_TOL
from .torus import BATCH_ENTRIES, TorusGrid, uniform_draws
from .tulsi import DELTA_POLICIES, tune_delta

# The --budget default of verify-spectrum and szegedy: the largest full-walk
# dimension N*4^t decomposed (block by block), and the largest Szegedy walk
# dimension N^(k+1) built. Both runs refuse a larger instance before any work.
DEFAULT_DENSE_BUDGET = 4096


@dataclass
class ExperimentConfig:
    """Parsed invocation of one subcommand; round-trips to canonical JSON."""

    command: str
    sizes: tuple[int, ...] = ()
    t_schedule: str = "fixed"  # fixed | log-n | sweep
    t_values: tuple[int, ...] = (1,)
    delta_policy: str = "balanced"  # fixed | optimal-qo | balanced
    delta: float = 0.0
    out: str | None = None
    format: str = "csv"
    seed: int = 0
    budget: int = DEFAULT_DENSE_BUDGET
    chains: int = 20
    k_values: tuple[int, ...] = (1, 2, 3)
    generator: str = "random"
    chain_csv: str | None = None
    trajectory: bool = True

    def canonical_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def schedule_for(self, side: int) -> tuple[int, ...]:
        """Walk-step counts for one grid size under the configured schedule."""
        n = side * side
        if self.t_schedule == "fixed":
            return self.t_values
        top = nearest_odd(math.log(n))
        if self.t_schedule == "log-n":
            return (top,)
        if self.t_schedule == "sweep":
            return tuple(range(1, top + 1, 2))
        raise ValueError(f"unknown t schedule {self.t_schedule!r}")

    def grid_instances(self) -> list[tuple[TorusGrid, int]]:
        """Every (grid, t) of the sweep, in order. Every step count is checked
        first, so a bad one is refused before any work. Above 2**53 an odd t
        would lose its parity in the float power cos**t."""
        grids = [TorusGrid(side) for side in self.sizes]
        instances = [(grid, t) for grid in grids for t in self.schedule_for(grid.side)]
        if not instances:
            raise ValueError("--sizes and --t leave no (L, t) instance to run")
        for _, t in instances:
            if t < 1:
                raise ValueError(f"step count t must be >= 1, got {t}")
            if t > 2**53:
                raise ValueError(f"step count t must be <= 2**53, got {t}")
        return instances


# --generator name -> chain of size n, for the named (non-random) chains.
NAMED_CHAINS = {
    "cycle": szegedy.cycle_chain,
    "complete": szegedy.complete_chain,
    "lazy-cycle": lambda n: szegedy.lazy_chain(szegedy.cycle_chain(n)),
    "lazy-complete": lambda n: szegedy.lazy_chain(szegedy.complete_chain(n)),
}


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerwalk",
        description="Multi-step quantum-walk search on the torus: "
        "experiments and verification.",
    )
    # A flag left out stays out of the namespace, so config_from_args knows
    # which flags were given and takes every other field from ExperimentConfig.
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(
            argparse.ArgumentParser, argument_default=argparse.SUPPRESS
        ),
    )

    # Every dest equals its ExperimentConfig field name (config_from_args).
    def output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"))

    def walk_flags(p: argparse.ArgumentParser, schedule: bool = True) -> None:
        p.add_argument(
            "--sizes", type=_int_list, help="comma-separated grid sides"
        )
        p.add_argument(
            "--t",
            dest="t_values",
            metavar="T",
            type=_int_list,
            help="comma-separated step counts",
        )
        if schedule:
            p.add_argument(
                "--t-schedule",
                choices=("fixed", "log-n", "sweep"),
                help="fixed: use --t; log-n: nearest odd ln N; sweep: odd 1..ln N",
            )

    p = sub.add_parser(
        "verify-spectrum",
        help="full-space spectral correspondence checks",
        description="Full-space checks of the multi-step walk against the "
        "adjacency spectrum, from its eigendecomposition in batches of momentum "
        "blocks: eigenpair residuals, eigenphase multisets, invariant "
        "subspace dimension, projection sums, overlap law, path components. "
        "Verdicts go to stderr, one line per instance; no records are written.",
    )
    p.add_argument(
        "--budget",
        type=int,
        help="largest full-walk dimension N*4^t to check (it is decomposed in N "
        "blocks of size 4^t); a larger instance is refused with exit 2 "
        "before any check runs",
    )
    walk_flags(p, schedule=False)
    p.set_defaults(sizes=(5,), t_values=(1, 3))

    p = sub.add_parser(
        "search",
        help="reduced-engine search sweep",
        description="Sweeps grid sizes, computing the principal eigenphase, "
        "iteration count, success probability and query accounting.",
    )
    output_flags(p)
    walk_flags(p)
    p.add_argument(
        "--no-trajectory",
        dest="trajectory",
        action="store_false",
        help="skip trajectory simulation (p_s column reports the estimate)",
    )
    p.set_defaults(sizes=(17, 33, 65, 129, 257))

    p = sub.add_parser(
        "tulsi",
        help="controlled-search sweep",
        description="Controlled-search sweep; base columns describe the "
        "uncontrolled run at the same (L, t), the delta columns and "
        "Q_delta/Q_O/Q_G/p_s the controlled one.",
    )
    output_flags(p)
    walk_flags(p)
    p.add_argument("--delta", type=float, help="needs --delta-policy fixed")
    p.add_argument("--delta-policy", choices=("fixed",) + DELTA_POLICIES)
    p.set_defaults(sizes=(17, 33, 65, 129, 257))

    p = sub.add_parser(
        "sums",
        help="grid eigenphase sums and bounds",
        description="Direct summation of S1/S2/S3 with the bracketing bounds "
        "and the S3 = 1 - N + 2 S1 identity.",
    )
    output_flags(p)
    walk_flags(p)
    p.set_defaults(sizes=(8, 16, 32, 64, 128, 256, 512))

    p = sub.add_parser(
        "szegedy",
        help="Markov-chain quantization checks",
        description="Builds multi-step quantized walks for symmetric chains, "
        "checking the discriminant power law, the nontrivial-subspace "
        "eigenphase correspondence with the powered chain's walk, and gap "
        "powering: the gap of a symmetric matrix is 1 minus its second-largest "
        "|eigenvalue| (counted with multiplicity; 0 for a bipartite or "
        "disconnected chain), measured on M and on M^k.",
    )
    output_flags(p)
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument(
        "--budget",
        type=int,
        help="largest Szegedy walk dimension N^(k+1) to build densely; a "
        "larger (chain, k) pair is refused with exit 2 before any walk is built",
    )
    p.add_argument("--sizes", type=_int_list, help="chain sizes N")
    p.add_argument(
        "--k", dest="k_values", metavar="K", type=_int_list, help="step counts"
    )
    p.add_argument("--chains", type=int, help="number of random chains")
    p.add_argument("--generator", choices=("random", *NAMED_CHAINS))
    p.add_argument("--chain-csv", help="load one chain from an NxN CSV grid")

    # --help of each subcommand that writes records lists their columns.
    for name, (columns, _) in COMMANDS.items():
        if columns:
            p = sub.choices[name]
            p.epilog = "\n".join(
                ["columns:", *(f"  {c:<20}{doc}" for c, doc in columns.items())]
            )
            p.formatter_class = argparse.RawDescriptionHelpFormatter
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The parsed flags that name config fields. A flag given to a run that
    would ignore it is refused."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    values = {k: v for k, v in vars(args).items() if k in fields}
    if "delta" in values and values.get("delta_policy") != "fixed":
        raise ValueError("--delta needs --delta-policy fixed")
    if "t_values" in values and values.get("t_schedule", "fixed") != "fixed":
        raise ValueError("--t needs --t-schedule fixed")
    if "chain_csv" in values:
        ignored = [k for k in ("sizes", "generator", "chains", "seed") if k in values]
        if ignored:
            raise ValueError(f"--chain-csv replaces --{', --'.join(ignored)}")
    elif values.get("generator", "random") != "random":
        if "chains" in values or "seed" in values:
            raise ValueError("--chains and --seed are read only by --generator random")
    if values["command"] == "szegedy" and "chain_csv" not in values:
        values.setdefault("sizes", (2, 3, 4))  # the generated chains' sizes
    return ExperimentConfig(**values)


def run_verify_spectrum(config: ExperimentConfig) -> ScalingReport:
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
        report = fullwalk.correspondence_report(grid, t)
        ok = report.passed()
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
            f"unitarity dev {report.unitarity_dev:.2e})",
            file=sys.stderr,
        )
    verdict = ScalingReport()
    verdict.checks[
        f"spectrum dev <= {SPECTRUM_TOL:g} and unitarity dev <= {UNITARITY_TOL:g}"
    ] = all_ok
    return verdict


def _sum_fields(gs) -> dict:
    return {name: getattr(gs, name) for name in records.SUM_FIELDS}


def _search_record(model: SpectralModel, trajectory: bool) -> dict:
    """One search row: the secular root, the analytic accounting at its Q, the
    grid sums, and p_s, measured on the trajectory at Q or the analytic estimate.
    A trajectory row also carries h0_dev = |h(0) - 1| of its return moments
    and every row a warnings list, with one message when alpha is not below
    phi1/2, the precondition of overlap_ws; no column prints them."""
    alpha_exact, alpha_est = compute_alpha(model)
    result = success_probability(model, alpha_exact)
    rec = {
        "L": model.grid.side,
        "N": model.grid.vertex_count,
        "t": model.t,
        "alpha_exact": alpha_exact,
        "alpha_estimate": alpha_est,
        "Q": result.Q,
        "p_s": result.p_s,
        "p_s_bound": result.p_s,
        "Q_O": result.Q_O,
        "Q_G": result.Q_G,
        **_sum_fields(model.sums),
        "warnings": [],
    }
    if alpha_exact >= model.phi1 / 2.0:
        rec["warnings"].append(
            f"alpha={alpha_exact:.3e} is not below phi1/2={model.phi1 / 2:.3e}; "
            "the overlap expressions are outside their guarantee"
        )
    if trajectory:
        moments = return_moments(model, result.Q)
        rec["p_s"] = float(search_trajectory(model, moments)[-1])
        rec["h0_dev"] = abs(float(moments[0]) - 1.0)
    return rec


def _moment_check(report: ScalingReport) -> None:
    report.checks[f"trajectory moment h(0) = 1 within {MOMENT_TOL:g}"] = all(
        r["h0_dev"] <= MOMENT_TOL for r in report.records
    )


def run_search(config: ExperimentConfig) -> ScalingReport:
    report = ScalingReport()
    # Models are lazy: building them all first refuses an even t before any
    # solve. Each is dropped once solved, which frees its cached weights.
    models = [build_model(grid, t) for grid, t in config.grid_instances()]
    while models:
        report.records.append(_search_record(models.pop(0), config.trajectory))
    recs = report.records
    report.checks["Q_G = t*Q_O"] = all(r["Q_G"] == r["t"] * r["Q_O"] for r in recs)
    report.checks["lower <= S1 <= upper"] = all(
        r["lower"] <= r["S1"] <= r["upper"] for r in recs
    )
    if config.trajectory:
        _moment_check(report)
    one_t_per_size = len({r["L"] for r in recs}) == len(recs)
    if one_t_per_size and len(recs) >= records.MIN_SIZES_FOR_SLOPE:
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
        base = build_model(grid, t)
        if config.delta_policy == "fixed":
            delta = config.delta
        else:
            delta = tune_delta(base, config.delta_policy)
        models.append((base, build_model(grid, t, delta)))
    while models:  # dropping each solved pair frees its cached weights and sums
        base, controlled = models.pop(0)
        controlled.sums = base.sums  # (L, t) only, like the orbit measure both read
        delta = controlled.delta
        # The base columns describe plain search at the same (L, t); the
        # success and query columns come from the controlled run's own row,
        # and only its trajectory is measured.
        rec = _search_record(base, trajectory=False)
        ctl = _search_record(controlled, trajectory=True)
        rec.update(
            {name: ctl[name] for name in ("p_s", "p_s_bound", "Q_O", "Q_G", "h0_dev")},
            warnings=rec["warnings"] + ctl["warnings"],
            delta=delta,
            tan2_delta=math.tan(delta) ** 2,
            a_pi=math.sin(delta),
            alpha_delta=ctl["alpha_exact"],
            Q_delta=ctl["Q"],
        )
        report.records.append(rec)
    recs = report.records
    report.checks["Q_G = t*Q_O"] = all(r["Q_G"] == r["t"] * r["Q_O"] for r in recs)
    _moment_check(report)
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
    bracketed = True
    identity_ok = True
    instances = config.grid_instances()
    for grid, t in instances:  # refuse a divergent (L, t) before any work
        check_finite(grid, t)
    for grid, t in instances:
        gs = grid_sums(grid, t)
        bracketed = bracketed and gs.bracketed()
        identity_ok = identity_ok and gs.identity_residual() <= IDENTITY_TOL
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


def _szegedy_chains(config: ExperimentConfig) -> list[tuple[str, szegedy.MarkovChain]]:
    if config.chain_csv:
        return [("csv:0", szegedy.load_chain_csv(config.chain_csv))]
    if config.generator == "random":
        if config.chains < len(config.sizes):
            raise ValueError(
                f"--chains {config.chains} draws fewer chains than the "
                f"{len(config.sizes)} --sizes"
            )
        if not 0 <= config.seed < 2**64:
            raise ValueError(f"--seed {config.seed}: must lie in [0, 2**64)")
        sizes = [n for _, n in zip(range(config.chains), itertools.cycle(config.sizes))]
        if min(sizes, default=2) < 2:
            raise ValueError(f"chain needs n >= 2, got {min(sizes)}")
        # Chain i reads the next n_i^2 draws; chains of one size form one stack.
        ends = np.cumsum([0] + [n * n for n in sizes])
        draws = uniform_draws(config.seed, (ends[-1],))
        chains = [None] * len(sizes)
        for n in dict.fromkeys(sizes):
            of_n = [i for i, size in enumerate(sizes) if size == n]
            stack = np.reshape([draws[ends[i] : ends[i + 1]] for i in of_n], (-1, n, n))
            for i, matrix in zip(of_n, szegedy.random_symmetric_chain(stack)):
                chains[i] = (f"random:{i}", szegedy.MarkovChain(matrix))
        return chains
    make = NAMED_CHAINS[config.generator]
    return [(f"{config.generator}:{n}", make(n)) for n in config.sizes]


def run_szegedy(config: ExperimentConfig) -> ScalingReport:
    chains = _szegedy_chains(config)
    pairs = [(label, chain, k) for label, chain in chains for k in config.k_values]
    if not pairs:
        raise ValueError("no (chain, k) pair to check")
    for label, chain, k in pairs:  # refused before any walk is built
        if k < 1:
            raise ValueError(f"step count k must be >= 1, got {k}")
        dim = chain.size ** (k + 1)
        if dim > config.budget:
            raise ValueError(
                f"chain {label} k={k}: dimension {dim} exceeds budget "
                f"{config.budget}; refusing the walk"
            )
    # Chains of one size go in stacks of at most BATCH_ENTRIES isometry entries
    # (n^{k+1} x n per chain at the largest k). Per stack and k, one pass builds
    # the walks, forms each discriminant once for both checks, and takes powers,
    # gaps and eigenphases by stacked linalg; M^1 is M, whose gap and walk are at
    # hand, and each M^k > 1 is checked as MarkovChain checks M.
    top, rows = max(config.k_values), {}
    for n in dict.fromkeys(chain.size for _, chain in chains):
        members = [i for i, (_, chain) in enumerate(chains) if chain.size == n]
        per = max(1, BATCH_ENTRIES // n ** (top + 2))
        for part in (members[j : j + per] for j in range(0, len(members), per)):
            stack = np.stack([chains[i][1].matrix for i in part])
            gap = szegedy.spectral_gap(stack)
            for k in dict.fromkeys(config.k_values):
                walk = szegedy.build_isometries(stack, k)
                powered = np.linalg.matrix_power(stack, k)
                disc = szegedy.discriminant(walk)
                disc_err = np.max(np.abs(disc - powered), axis=(1, 2))
                multi = szegedy.nontrivial_eigenphases(walk, disc=disc)
                gap_k, single = gap, multi
                if k > 1:
                    szegedy.check_stochastic(powered)
                    gap_k = szegedy.spectral_gap(powered)
                    one_step = szegedy.build_isometries(powered, 1)
                    single = szegedy.nontrivial_eigenphases(one_step)
                for j, i in enumerate(part):
                    eig_err = math.inf
                    if multi[j].size == single[j].size:
                        eig_err = np.max(abs(multi[j] - single[j]), initial=0.0)
                    rows[i, k] = dict(
                        N=n, k=k, chain=chains[i][0],
                        discriminant_error=float(disc_err[j]),
                        eigenphase_error=float(eig_err),
                        query_cost=szegedy.query_cost(walk),
                        gap=float(gap[j]), gap_k=float(gap_k[j]),
                    )
    report = ScalingReport()
    report.records = [rows[i, k] for i in range(len(chains)) for k in config.k_values]
    checked = {"discriminant": DISCRIMINANT_TOL, "eigenphase": EIGENPHASE_TOL}
    for column, tol in checked.items():
        report.checks[f"{column} error <= {tol:g}"] = all(
            r[f"{column}_error"] <= tol for r in report.records
        )
    report.checks["query_cost = 4k"] = all(
        r["query_cost"] == 4 * r["k"] for r in report.records
    )
    report.checks[f"gap_k = 1-(1-gap)^k within {EIGENPHASE_TOL:g}"] = all(
        abs(r["gap_k"] - (1.0 - (1.0 - r["gap"]) ** r["k"])) <= EIGENPHASE_TOL
        for r in report.records
    )
    return report


# name -> (record columns with their descriptions, run). A run only fills
# records and checks; main writes the records, prints the summary and sets the
# exit code.
COMMANDS = {
    "verify-spectrum": ({}, run_verify_spectrum),
    "search": (records.SEARCH_COLUMNS, run_search),
    "tulsi": (records.TULSI_COLUMNS, run_tulsi),
    "sums": (records.SUMS_COLUMNS, run_sums),
    "szegedy": (records.SZEGEDY_COLUMNS, run_szegedy),
}


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
        columns, run = COMMANDS[config.command]
        if config.out:  # written after the run, so a path that cannot be is refused now
            folder = os.path.dirname(os.path.abspath(config.out))
            if os.path.isdir(config.out) or not os.access(folder, os.W_OK):
                raise ValueError(f"--out {config.out}: not a writable file path")
        report = run(config)
        if columns:
            to_text = records.to_csv if config.format == "csv" else records.to_json
            text = to_text(columns, report.records)
            if config.out:
                with open(config.out, "w") as fp:
                    fp.write(text)
            else:
                sys.stdout.write(text)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
