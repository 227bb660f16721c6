import argparse
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from powerwalk import cli, records, search, sums, szegedy, torus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def subprocess_env(**blas):
    """The test process's environment with the package's src on PYTHONPATH,
    for a child interpreter. Each keyword sets an OpenBLAS variable, or unsets
    it if None."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, value in blas.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _openblas_skip_reason():
    if sys.platform != "linux":
        return "reads /proc and Linux thread ids"
    if len(os.sched_getaffinity(0)) < 2:
        return "needs 2 CPUs for a 2-thread OpenBLAS pool"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        return f"numpy's BLAS is {blas}, not OpenBLAS"
    return None


# The tests of the OpenBLAS default and of thread-independent bytes.
OPENBLAS_SKIP = _openblas_skip_reason()
needs_openblas_pool = pytest.mark.skipif(
    OPENBLAS_SKIP is not None, reason=str(OPENBLAS_SKIP)
)


def test_config_round_trips_to_canonical_json():
    parser = cli.build_parser()
    args = parser.parse_args(["verify-spectrum", "--sizes", "5,9", "--t", "1,3"])
    config = cli.config_from_args(args)
    text = config.canonical_json()
    data = json.loads(text)
    assert (data["sizes"], data["t_values"]) == ([5, 9], [1, 3])
    # Every field is in the JSON: the config it builds writes the same JSON.
    assert cli.ExperimentConfig(**data).canonical_json() == text


def test_schedules():
    cfg = cli.ExperimentConfig(command="search", t_schedule="log-n")
    assert cfg.schedule_for(33) == (7,)
    cfg = cli.ExperimentConfig(command="search", t_schedule="sweep")
    assert cfg.schedule_for(17) == (1, 3, 5)
    cfg = cli.ExperimentConfig(command="search", t_values=(3,))
    assert cfg.schedule_for(17) == (3,)


def test_slope_fit_recovers_power_law():
    xs = [10, 100, 1000, 10000]
    ys = [2.0 * x**0.5 for x in xs]
    slope, resid = records.fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_slope_fit_needs_two_points():
    with pytest.raises(ValueError):
        records.fit_loglog_slope([1.0], [1.0])


def test_band_statistics():
    stats = records.band([2.0, 1.0, 3.0])
    assert stats == {"min": 1.0, "max": 3.0, "ratio": 3.0}


def test_search_slope_needs_four_sizes(capsys):
    # search fits its Q_O/lnN slope only from MIN_SIZES_FOR_SLOPE sizes on.
    assert records.MIN_SIZES_FOR_SLOPE == 4
    for sizes, fitted in (("9,13,17", False), ("9,13,17,21", True)):
        code, _, err = run_cli(
            ["search", "--sizes", sizes, "--t", "1", "--no-trajectory"], capsys
        )
        assert code == 0
        assert ("slope Q_O/lnN vs N: " in err) == fitted, sizes
    rep = records.ScalingReport()
    rep.fit_slope("x", [1, 2, 4, 8], [1, 2, 4, 8])
    assert rep.slopes["x"][0] == pytest.approx(1.0)


def test_csv_header_and_columns(capsys):
    code, out, err = run_cli(["sums", "--sizes", "8,16,32"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# powerwalk v1"
    assert lines[1] == "L,N,t,S1,S2,S3,lower,upper"
    assert len(lines) == 5


def test_csv_deterministic(capsys):
    argv = ["szegedy", "--sizes", "2,3", "--k", "1,2", "--chains", "4", "--seed", "42"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_output_nests_sums(capsys):
    code, out, err = run_cli(
        ["search", "--sizes", "5", "--t", "1", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert set(data[0]["sums"]) == {"S1", "S2", "S3", "lower", "upper"}
    assert data[0]["Q_G"] == data[0]["t"] * data[0]["Q_O"]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "sums.csv"
    code, out, _ = run_cli(["sums", "--sizes", "8", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("# powerwalk v1\n")


def test_verify_spectrum_small(capsys):
    code, _, err = run_cli(["verify-spectrum", "--sizes", "5", "--t", "1"], capsys)
    assert code == 0
    assert "pass" in err


def test_verify_spectrum_budget_refusal(capsys):
    code, _, err = run_cli(["verify-spectrum", "--sizes", "3", "--t", "5"], capsys)
    assert code == 2
    assert "budget" in err


def test_verify_spectrum_beyond_dense_sizes(capsys):
    # dim 5184 at L=9: one 64x64 block per momentum instead of a dense Schur
    # form. dim 69696 at L=33, a side of the scaling sweeps, takes about 1 s.
    for side, budget in (("9", "6000"), ("33", "70000")):
        code, out, err = run_cli(
            ["verify-spectrum", "--sizes", side, "--t", "3", "--budget", budget], capsys
        )
        assert (code, out) == (0, "")
        assert f"L={side} t=3: pass" in err and "eigenpair residual" in err


def test_tulsi_refuses_policy_mismatch_before_any_trajectory(capsys, monkeypatch):
    calls = []
    trajectory = cli.search_trajectory

    def counting(model, moments):
        calls.append((model.grid.side, model.t))
        return trajectory(model, moments)

    monkeypatch.setattr(cli, "search_trajectory", counting)
    # The default policy, balanced, holds t tan^2(delta) = ln N: t = 7 is
    # beyond ln 81 and its nearest odd 5.
    code, out, err = run_cli(["tulsi", "--sizes", "9", "--t", "1,7"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: balanced schedule requires t <= ln N (4.39), got t=7\n"
    assert calls == []
    assert run_cli(["tulsi", "--sizes", "9", "--t", "1"], capsys)[0] == 0
    assert calls == [(9, 1)]


def test_tulsi_sweeps_with_the_default_policy(capsys):
    # The default policy is balanced, which every odd t up to ln N accepts.
    argv = ["tulsi", "--sizes", "17", "--t-schedule", "sweep"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert [row.split(",")[2] for row in out.splitlines()[2:]] == ["1", "3", "5"]
    assert run_cli([*argv, "--delta-policy", "balanced"], capsys)[:2] == (0, out)


def readme_argvs():
    """The argv of every ``powerwalk ...`` line in README's code blocks."""
    blocks = README.read_text().split("```")[1::2]
    return [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("powerwalk ")
    ]


def test_readme_examples_run(capsys):
    argvs = readme_argvs()
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
    for argv in argvs:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


MOMENT_CHECK = "check trajectory moment h(0) = 1 within 1e-12: "


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--sizes", "9,13", "--t-schedule", "sweep"],
        ["tulsi", "--sizes", "9,13", "--t-schedule", "sweep",
         "--delta-policy", "balanced"],
        # Half the orbits share one grid cell here; summed one after another
        # they moved h(0) by 1.5e-12.
        ["search", "--sizes", "3001", "--t", "17"],
    ],
)
def test_trajectory_moment_check_can_fail(argv, capsys, monkeypatch):
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert MOMENT_CHECK + "pass" in err.splitlines()
    moments = cli.return_moments

    def off(model, Q):
        h = moments(model, Q)
        h[0] = 1.0 + 1e-9
        return h

    monkeypatch.setattr(cli, "return_moments", off)
    code, bad_out, err = run_cli(argv, capsys)
    assert code == 1
    assert MOMENT_CHECK + "FAIL" in err.splitlines()
    assert bad_out == out  # h(0) does not enter the recurrence
    # A run without a trajectory reads no moments and states no such check.
    code, _, err = run_cli(["search", "--sizes", "9", "--no-trajectory"], capsys)
    assert code == 0 and "trajectory moment" not in err


def test_verify_spectrum_every_side_and_step_count(capsys):
    code, out, err = run_cli(
        ["verify-spectrum", "--sizes", "2,3,4,5,6,7,8", "--t", "1,2,3"], capsys
    )
    assert (code, out) == (0, "")
    lines = err.splitlines()
    for side in range(2, 9):
        # Even sides lose the conjugate pair of the checkerboard mode.
        dim = 2 * side * side - (1 if side % 2 else 3)
        for t in (1, 2, 3):
            prefix = f"L={side} t={t}: "
            [line] = [ln for ln in lines if ln.startswith(prefix)]
            assert line.startswith(prefix + "pass ("), line
            assert f"invariant dim {dim}/{dim}," in line


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-spectrum", "--sizes", "3", "--t", "-1"],
        ["verify-spectrum", "--sizes", "3", "--t", "0"],
        ["search", "--sizes", "1001", "--t", "1,2"],
        # An odd t above 2**53 would turn even in the float power cos**t.
        ["search", "--sizes", "8", "--t", "9007199254740993", "--no-trajectory"],
        ["szegedy", "--sizes", ""],
        ["szegedy", "--chains", "-2"],
        # A seed outside SplitMix64's [0, 2**64), where it would alias.
        ["szegedy", "--seed", "-1"],
        ["szegedy", "--seed", str(2**64)],
        # Runs that would check nothing.
        ["search", "--sizes", ""],
        ["tulsi", "--sizes", ""],
        ["sums", "--sizes", ""],
        ["verify-spectrum", "--sizes", ""],
        ["szegedy", "--chains", "0"],
        ["szegedy", "--generator", "cycle", "--sizes", "2"],
        ["szegedy", "--sizes", "9", "--k", "4"],  # every pair over budget
        ["szegedy", "--sizes", "3,9", "--k", "1,4"],  # one pair over budget
        ["szegedy", "--generator", "cycle", "--sizes", "4", "--k", "1,2",
         "--budget", "32"],
        ["tulsi", "--sizes", "9", "--delta", "0.3"],  # --delta needs fixed
        ["szegedy", "--generator", "cycle", "--sizes", "2,5", "--k", "1"],
        ["szegedy", "--generator", "lazy-cycle", "--sizes", "2,5", "--k", "1"],
        # Only the random generator reads --chains and --seed.
        ["szegedy", "--generator", "cycle", "--sizes", "5", "--chains", "7",
         "--k", "1"],
        ["szegedy", "--generator", "complete", "--seed", "3"],
        # Fewer random chains than sizes would leave sizes unchecked.
        ["szegedy", "--sizes", "2,3,4", "--chains", "2", "--k", "1"],
        # Even t on an even side: the (L/2, L/2) orbit has cos^t phi = 1.
        ["sums", "--sizes", "8", "--t", "2"],
        ["sums", "--sizes", "2", "--t", "2"],
        ["sums", "--sizes", "8", "--t", "4"],
        # ... refused before the odd side ahead of it is summed.
        ["sums", "--sizes", "9,8", "--t", "2"],
        ["sums", "--sizes", "8", "--t", "9007199254740993"],
        ["tulsi", "--sizes", "8", "--t", "9007199254740993"],
        # A step count that the sweep schedule would ignore.
        ["search", "--sizes", "9", "--t", "3", "--t-schedule", "log-n"],
        ["sums", "--sizes", "9", "--t", "3", "--t-schedule", "sweep"],
        # A bad k is refused before the good one ahead of it is built.
        ["szegedy", "--sizes", "3", "--k", "2,0"],
    ],
)
def test_bad_step_count_refused_before_any_work(argv, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(
        cli, "search_trajectory", lambda model, moments: calls.append(model)
    )
    build = szegedy.build_isometries
    monkeypatch.setattr(
        szegedy,
        "build_isometries",
        lambda chain, k, **kw: calls.append((chain, k)) or build(chain, k, **kw),
    )
    grid_sums = cli.grid_sums
    monkeypatch.setattr(
        cli, "grid_sums", lambda grid, t: calls.append((grid, t)) or grid_sums(grid, t)
    )
    code, out, err = run_cli(argv, capsys)
    assert (code, out, calls) == (2, "", [])
    [line] = err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_refused_before_any_work(where, tmp_path, capsys, monkeypatch):
    # The records are written after the run, so an --out that cannot take
    # them is refused before the sweep (about 0.8 s of work) starts.
    path = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    calls = []
    monkeypatch.setattr(cli, "return_moments", lambda model, Q: calls.append(model))
    argv = ["search", "--out", str(path), "--sizes", "2001", "--t-schedule", "sweep"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, calls) == (2, "", [])
    [line] = err.splitlines()
    assert line.startswith("error: --out ")


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--sizes", "9,13", "--t-schedule", "sweep"],
        ["tulsi", "--sizes", "9,13", "--t-schedule", "sweep",
         "--delta-policy", "balanced"],
    ],
)
def test_grid_sums_once_per_instance(argv, capsys, monkeypatch):
    # The sum columns, the estimate and both overlap factors of a record (and,
    # on tulsi, of its controlled run) all read one GridSums, and the sums, the
    # secular root and the trajectory of both models read one cos**t table.
    sums.orbit_measure.cache_clear()
    calls = []
    grid_sums = search.grid_sums

    def counting(grid, t):
        calls.append((grid.side, t))
        return grid_sums(grid, t)

    monkeypatch.setattr(search, "grid_sums", counting)
    monkeypatch.setattr(cli, "grid_sums", counting)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert calls == [(int(row[0]), int(row[2])) for row in rows]
    assert len(calls) == len(set(calls)) == 6
    # One cos**t pass per row, which each model of the row then reads.
    models_per_row = 2 if argv[0] == "tulsi" else 1
    info = sums.orbit_measure.cache_info()
    assert (info.misses, info.hits) == (6, 6 * models_per_row)


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--no-trajectory", "--sizes", "9,16", "--t", "1,3"],
        ["sums", "--sizes", "8,9", "--t", "1,3"],
    ],
)
def test_analytic_path_runs_no_sort(argv, capsys, monkeypatch):
    # The orbit table comes in lattice order; only the trajectory's NUFFT
    # sorts the orbits by phase, so a record without it needs no sort.
    for module in (torus, sums, search):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("the analytic path sorted")

    monkeypatch.setattr(np, "argsort", refuse)
    monkeypatch.setattr(np, "sort", refuse)
    assert run_cli(argv, capsys)[0] == 0


def test_search_command_columns(capsys):
    code, out, err = run_cli(["search", "--sizes", "9,13", "--t", "1"], capsys)
    assert code == 0
    header = out.splitlines()[1].split(",")
    assert header == list(records.SEARCH_COLUMNS)


def test_help_lists_record_columns(capsys):
    for command, (columns, _) in cli.COMMANDS.items():
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        _, _, listed = capsys.readouterr().out.partition("\ncolumns:\n")
        rows = [line.strip().split(None, 1) for line in listed.splitlines()]
        assert rows == [[name, doc] for name, doc in columns.items()], command


def test_tulsi_delta_zero_matches_search(capsys):
    code, search_out, _ = run_cli(
        ["search", "--sizes", "9", "--t", "1"], capsys
    )
    assert code == 0
    code, tulsi_out, _ = run_cli(
        ["tulsi", "--sizes", "9", "--t", "1", "--delta-policy", "fixed", "--delta", "0"],
        capsys,
    )
    assert code == 0
    search_row = dict(
        zip(records.SEARCH_COLUMNS, search_out.splitlines()[2].split(","))
    )
    tulsi_row = dict(
        zip(records.TULSI_COLUMNS, tulsi_out.splitlines()[2].split(","))
    )
    assert tulsi_row["delta"] == "0.0"
    # both come from the same secular root of the same model
    assert float(tulsi_row["alpha_delta"]) == pytest.approx(
        float(search_row["alpha_exact"]), abs=1e-12
    )
    assert tulsi_row["Q_delta"] == search_row["Q"]
    assert float(tulsi_row["p_s"]) == pytest.approx(
        float(search_row["p_s"]), abs=1e-12
    )


def test_sums_command_exit_and_band(capsys):
    code, out, err = run_cli(
        ["sums", "--sizes", "8,16,32", "--t-schedule", "log-n"], capsys
    )
    assert code == 0
    assert "S1*t/(N lnN)" in err
    assert "check lower <= S1 <= upper: pass" in err


def test_szegedy_generator_cycle(capsys):
    code, out, err = run_cli(
        ["szegedy", "--generator", "cycle", "--sizes", "3,4", "--k", "1,2"], capsys
    )
    assert code == 0
    assert "check" in err
    assert len(out.splitlines()) == 2 + 4


def test_szegedy_budget_is_the_only_size_limit(capsys):
    # 65^3 = 274625 fits --budget 300000. The eigenphase check's one-step
    # walk of M^2 (65^2 = 4225) is over the default budget, but the pre-check
    # already covers it, so it is built.
    argv = ["szegedy", "--generator", "cycle", "--sizes", "65", "--k", "2"]
    code, out, err = run_cli(argv + ["--budget", "300000"], capsys)
    assert code == 0, err
    header, row = out.splitlines()[1:]
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["discriminant_error"]) <= szegedy.DISCRIMINANT_TOL
    assert float(values["eigenphase_error"]) <= szegedy.EIGENPHASE_TOL


def test_gap_powering_checked_on_every_generator(capsys):
    # The verify-dense argv of the benchmark, then each named generator.
    argvs = [["--sizes", "2,3,4,5,6,7,8", "--k", "1,2,3", "--chains", "40", "--seed", "1"]]
    argvs += [["--generator", name, "--sizes", "3,4,5"] for name in cli.NAMED_CHAINS]
    for argv in argvs:
        code, out, err = run_cli(["szegedy", *argv], capsys)
        assert code == 0, argv
        assert out.splitlines()[1].endswith(",query_cost,gap,gap_k")
        assert "check gap_k = 1-(1-gap)^k within 1e-09: pass\n" in err


def test_gap_powering_check_can_fail(capsys, monkeypatch):
    # The gap of M^2 shifted by 1e-6 breaks the k = 2 row; k = 1 reads M only.
    # The gaps are taken per stack of chains of one size, so the shift is
    # applied to each matrix of the stack that is not M.
    base = szegedy.cycle_chain(5).matrix
    gap = szegedy.spectral_gap
    monkeypatch.setattr(
        szegedy,
        "spectral_gap",
        lambda m: gap(m) + np.where((m == base).all(axis=(-2, -1)), 0.0, 1e-6),
    )
    code, out, err = run_cli(
        ["szegedy", "--generator", "cycle", "--sizes", "5", "--k", "1,2"], capsys
    )
    assert code == 1
    assert err.splitlines()[-1] == "check gap_k = 1-(1-gap)^k within 1e-09: FAIL"
    assert err.count(": pass\n") == 3
    (g1, g1_k), (g2, g2_k) = [
        [float(v) for v in row.split(",")[-2:]] for row in out.splitlines()[2:]
    ]
    assert g1 == g1_k == g2 == pytest.approx(1 - math.cos(math.pi / 5), abs=1e-15)
    assert g2_k - (1 - (1 - g2) ** 2) == pytest.approx(1e-6, abs=1e-12)


def test_szegedy_chain_csv(tmp_path, capsys):
    path = tmp_path / "m.csv"
    np.savetxt(path, np.array([[0.0, 1.0], [1.0, 0.0]]), delimiter=",")
    code, out, _ = run_cli(
        ["szegedy", "--chain-csv", str(path), "--k", "1,2"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 2 + 2
    # The CSV chain replaces the generated ones and every flag they read.
    for flags in (["--sizes", "7"], ["--generator", "cycle"], ["--chains", "3"],
                  ["--seed", "1"]):
        code, out, err = run_cli(["szegedy", "--chain-csv", str(path), *flags], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --chain-csv replaces {flags[0]}\n"


def test_bad_chain_csv_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    np.savetxt(path, np.array([[0.9, 0.0], [0.0, 0.9]]), delimiter=",")
    code, _, err = run_cli(["szegedy", "--chain-csv", str(path)], capsys)
    assert code == 2
    assert "error" in err
    # An empty file is refused by name in one line, with no numpy warning.
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["szegedy", "--chain-csv", str(empty)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: chain CSV {empty} holds no numbers\n"


def test_non_finite_chain_csv_is_refused(tmp_path, capsys):
    # NaN and inf parse as numbers; the chain check refuses them by name
    # before the SVD or the sign check sees them.
    message = "error: transition matrix has non-finite entries\n"
    grids = {"nan.csv": "0.5,nan\nnan,0.5\n", "inf.csv": "inf,-inf\n-inf,inf\n"}
    for name, text in grids.items():
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(["szegedy", "--chain-csv", str(path)], capsys)
        assert (code, out, err) == (2, "", message)


def test_malformed_chain_csv_names_file_and_line(tmp_path, capsys):
    # A header line and a ragged row are refused in the CLI's words, with the
    # file and the offending line named; blank lines and '#' comments count
    # as lines but hold no row.
    header = tmp_path / "header.csv"
    header.write_text("a,b\n0,1\n1,0\n")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("# swap chain\n0,1\n\n1\n")
    cases = [
        (header, f"error: chain CSV {header} line 1: 'a,b' is not a row of numbers\n"),
        (ragged, f"error: chain CSV {ragged} line 4: 1 entries, where the first row has 2\n"),
    ]
    for path, message in cases:
        code, out, err = run_cli(["szegedy", "--chain-csv", str(path)], capsys)
        assert (code, out, err) == (2, "", message)


def _count_szegedy_work(monkeypatch, argv, capsys):
    """Run szegedy with argv, recording the chains it drew, every walk it built
    and every matrix whose gap it took."""
    chains, walks, disc_calls, gap_args = [], [], [], []
    draw, build = cli._szegedy_chains, szegedy.build_isometries
    disc, gap = szegedy.discriminant, szegedy.spectral_gap

    def drawn(config):
        chains.extend(draw(config))
        return chains

    def built(*args, **kwargs):
        walks.append(build(*args, **kwargs))
        return walks[-1]

    def formed(walk):
        disc_calls.append(walk)
        return disc(walk)

    def gapped(matrix):
        gap_args.append(matrix)
        return gap(matrix)

    monkeypatch.setattr(cli, "_szegedy_chains", drawn)
    monkeypatch.setattr(szegedy, "build_isometries", built)
    monkeypatch.setattr(szegedy, "discriminant", formed)
    monkeypatch.setattr(szegedy, "spectral_gap", gapped)
    code, out, _ = run_cli(["szegedy", *argv], capsys)
    assert code == 0
    return chains, walks, disc_calls, gap_args


def test_szegedy_gap_once_per_chain_and_power(monkeypatch, capsys):
    # M^1 is M, so its gap is read, not taken again; each M^k with k > 1 is
    # a matrix of its own and has its gap taken once. The chains of one size
    # share each call: one stack per size and power.
    ks = (1, 2, 3)
    chains, _, _, gap_args = _count_szegedy_work(
        monkeypatch, ["--sizes", "2,3,4", "--k", "1,2,3", "--chains", "5"], capsys
    )
    assert len(chains) == 5
    assert len(gap_args) == 3 * len(ks)
    taken = [m for stack in gap_args for m in stack]
    assert len(taken) == len(chains) * len(ks)
    for _, chain in chains:
        assert sum(np.array_equal(m, chain.matrix) for m in taken) == 1
    bases = [c.matrix for _, c in chains]
    powers = [m for m in taken if not any(np.array_equal(m, b) for b in bases)]
    expected = [np.linalg.matrix_power(c.matrix, k) for _, c in chains for k in ks[1:]]
    assert len(powers) == len(expected)
    assert all(sum(np.array_equal(m, e) for m in powers) == 1 for e in expected)


def test_szegedy_discriminant_once_per_walk(monkeypatch, capsys):
    # Per (chain, k): the k-step walk of M, whose discriminant the
    # discriminant check and the eigenphase measurement share, and for k > 1
    # the one-step walk of M^k (for k = 1 that is the walk of M itself).
    chains, walks, disc_calls, _ = _count_szegedy_work(
        monkeypatch, ["--generator", "cycle", "--sizes", "3,4,5", "--k", "1,2"], capsys
    )
    assert len(walks) == len(chains) * (1 + 2)
    assert [id(w) for w in disc_calls] == [id(w) for w in walks]


def test_szegedy_stack_size_changes_no_byte(monkeypatch, capsys):
    # One chain per stack and every chain of a size in one stack print the
    # same records.
    argv = ["szegedy", "--sizes", "2,3,4", "--k", "1,2,3", "--chains", "11"]
    outputs, stacks = [], []
    build = szegedy.build_isometries

    def built(matrix, k):
        stacks.append(len(matrix))
        return build(matrix, k)

    monkeypatch.setattr(szegedy, "build_isometries", built)
    for entries in (1, 2**30):
        monkeypatch.setattr(cli, "BATCH_ENTRIES", entries)
        stacks.clear()
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        outputs.append(out)
        assert max(stacks) == (1 if entries == 1 else 4)
    assert outputs[0] == outputs[1]


def test_szegedy_memory_stays_bounded_as_chains_grow(capsys):
    # Chains of one size are stacked at most BATCH_ENTRIES isometry entries at
    # a time, so the peak does not grow with --chains: 48 chains of 8 states
    # at k = 3 (n^{k+1} x n = 32768 entries each, 12.6 MB of isometries in
    # all) peak below a few stacks' worth.
    import tracemalloc

    peaks = []
    for chains in (2, 48):
        tracemalloc.start()
        code, _, _ = run_cli(
            ["szegedy", "--sizes", "8", "--k", "3", "--chains", str(chains)], capsys
        )
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert code == 0
    assert peaks[1] < 1.5 * peaks[0] + 2**20
    assert peaks[1] < 8 * 2**20


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--format", "yaml"])
    assert exc.value.code == 2
    # Retired flags are unknown: Q is always floor(pi/(2 alpha)), the
    # amplification threshold is search.AMPLIFICATION_THRESHOLD, each check's
    # tolerance is a constant of fullwalk, sums or szegedy, the
    # verify-spectrum probe has a fixed seed, the schedules read
    # nearest-odd(ln N) and verify-spectrum runs the --t list only.
    retired = [
        (command, flag, value)
        for command in ("search", "tulsi")
        for flag, value in (
            ("--rounding", "floor"), ("--amplification-threshold", "0.25")
        )
    ] + [
        ("verify-spectrum", "--tol-spectrum", "10"),
        ("verify-spectrum", "--tol-unitarity", "1"),
        ("verify-spectrum", "--seed", "4"),
        ("sums", "--tol-identity", "inf"),
        ("szegedy", "--tol-discriminant", "1"),
        ("szegedy", "--tol-eigenphase", "1"),
        ("verify-spectrum", "--t-schedule", "sweep"),
        ("verify-spectrum", "--log-c", "2"),
        ("search", "--log-c", "2"),
        ("tulsi", "--log-c", "2"),
        ("sums", "--log-c", "2"),
        # balanced at t = 1 is the original Tulsi search.
        ("tulsi", "--delta-policy", "original-tulsi"),
    ]
    for command, flag, value in retired:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--sizes", "9", flag, value])
        assert exc.value.code == 2, (command, flag)


@pytest.mark.parametrize("command", ["sums", "search", "tulsi"])
def test_side_too_large_for_memory_is_refused(command, capsys):
    # At L = 2^53 + 1 the orbit table asks numpy for 32 PiB, which fails at once.
    code, out, err = run_cli([command, "--sizes", str(2**53 + 1), "--t", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["search", "--sizes", "2,3", "--t", "3"], ["tulsi", "--sizes", "2", "--t", "1"]]
)
def test_overlap_warning_is_one_summary_line(argv, capsys):
    # alpha = phi1/2 at L = 2: the accounting warns outside its guarantee. A
    # child process shows stderr as a user sees it, with no warning filter.
    proc = subprocess.run(
        [sys.executable, "-m", "powerwalk.cli", *argv],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == run_cli(argv, capsys)[:2]
    assert "UserWarning" not in proc.stderr and ".py" not in proc.stderr
    assert "overlap_ws(" not in proc.stderr
    [line] = [line for line in proc.stderr.splitlines() if line.startswith("warning:")]
    assert line.startswith(f"warning: L=2 t={argv[-1]}: alpha=")
    assert "is not below phi1/2=" in line


TRACED_TULSI = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
import powerwalk
from powerwalk import cli

trace = tracer.install(powerwalk)
code = cli.main(["tulsi", "--sizes", "9", "--t-schedule", "sweep", "--delta-policy", "balanced"])
print(json.dumps({"code": code, "functions": sorted(trace.aggregate()["functions"])}))
"""


def test_benchmark_tracer_wraps_engine():
    # perfbench/tracer.py wraps module attributes process-wide, so it runs in
    # its own interpreter. It re-binds SpectralModel.distinct_phases, and the
    # trajectory route's self time lands in the search module's default bucket.
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_TULSI, str(PERFBENCH)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert "search.search_trajectory" in result["functions"]
    assert "search.SpectralModel.distinct_phases" in result["functions"]
    assert "sums.grid_sums" in result["functions"]


# The canonical config JSON of each subcommand's default argv, as pinned below:
# only the command, sizes and t_values differ between subcommands.
DEFAULT_CONFIG_JSON = (
    '{"budget": 4096, "chain_csv": null, '
    '"chains": 20, "command": "COMMAND", "delta": 0.0, '
    '"delta_policy": "balanced", "format": "csv", '
    '"generator": "random", "k_values": [1, 2, 3], '
    '"out": null, "seed": 0, '
    '"sizes": SIZES, "t_schedule": "fixed", "t_values": T_VALUES, '
    '"trajectory": true}'
)

# name -> (small argv, config-error argv, default sizes, default t_values).
# The verify-spectrum error sits on the second instance, so it must be refused
# before the first one runs.
CONTRACT = {
    "verify-spectrum": (
        ["--sizes", "3", "--t", "1"],
        ["--sizes", "5,3", "--t", "1,5"],
        "[5]",
        "[1, 3]",
    ),
    "search": (
        ["--sizes", "9,13", "--t", "1"],
        ["--sizes", "9", "--t", "2"],
        "[17, 33, 65, 129, 257]",
        "[1]",
    ),
    "tulsi": (
        ["--sizes", "9", "--t-schedule", "sweep", "--delta-policy", "balanced"],
        ["--sizes", "9", "--t", "2"],
        "[17, 33, 65, 129, 257]",
        "[1]",
    ),
    "sums": (
        ["--sizes", "8,9", "--t-schedule", "log-n"],
        ["--sizes", "9", "--t", "1,0"],
        "[8, 16, 32, 64, 128, 256, 512]",
        "[1]",
    ),
    "szegedy": (
        ["--sizes", "2,3", "--k", "1,2", "--chains", "3", "--seed", "5"],
        ["--sizes", "1"],
        "[2, 3, 4]",
        "[1]",
    ),
}


# Each subcommand accepts exactly the flags its run reads.
WALK = "--sizes --t --t-schedule"
FLAGS = {
    "verify-spectrum": "--budget --sizes --t",
    "search": f"--out --format {WALK} --no-trajectory",
    "tulsi": f"--out --format {WALK} --delta --delta-policy",
    "sums": f"--out --format {WALK}",
    "szegedy": "--out --format --seed --budget "
    "--sizes --k --chains --generator --chain-csv",
}


def subcommand_flags(command):
    [subparsers] = [
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    parser = subparsers.choices[command]
    return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_contract(command, capsys):
    small, bad, sizes, t_values = CONTRACT[command]
    flags = set(FLAGS[command].split())
    assert subcommand_flags(command) == flags
    # A flag that only other subcommands read is a usage error here.
    for flag in sorted(set(" ".join(FLAGS.values()).split()) - flags):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, "1"])
        assert exc.value.code == 2, flag
    capsys.readouterr()

    first = run_cli([command, *small], capsys)
    assert first[0] == 0
    assert run_cli([command, *small], capsys) == first

    # A config error writes no records and one error line.
    code, out, err = run_cli([command, *bad], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1

    config = cli.config_from_args(cli.build_parser().parse_args([command]))
    expected = (
        DEFAULT_CONFIG_JSON.replace("COMMAND", command)
        .replace("SIZES", sizes)
        .replace("T_VALUES", t_values)
    )
    assert config.canonical_json() == expected


SCIPY_FREE = """
import contextlib, io, json, sys
from powerwalk import cli

loaded = sorted(
    m for m in sys.modules if m in ("scipy", "numpy.fft") or m.startswith("scipy.")
)
sys.modules["scipy"] = None  # from here on, any scipy import raises ImportError
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_cli_runs_without_scipy():
    # scipy is a test oracle only: importing the CLI loads none of it, and one
    # small run of every subcommand succeeds where importing it would fail.
    # numpy.fft, which only the trajectory's return moments read, is not
    # loaded by the import either.
    argvs = [[name, *CONTRACT[name][0]] for name in sorted(cli.COMMANDS)]
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"loaded": [], "codes": [0] * len(argvs)}


def test_seed_refusal_names_the_flag(capsys):
    for seed in (-1, 2**64):
        code, out, err = run_cli(["szegedy", "--seed", str(seed)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --seed {seed}: must lie in [0, 2**64)\n"
    code, _, _ = run_cli(["szegedy", "--sizes", "2", "--seed", str(2**64 - 1)], capsys)
    assert code == 0


RANDOM_FREE = """
import contextlib, io, json, sys
from powerwalk import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "numpy.random": "numpy.random" in sys.modules}))
"""


def test_probe_and_chains_do_not_import_numpy_random():
    # The probe and the random chains draw from torus.uniform_draws, so the
    # verification layer never pays numpy.random's import.
    argvs = [
        ["verify-spectrum", "--sizes", "5", "--t", "1"],
        ["szegedy", "--sizes", "2,3", "--chains", "4", "--seed", "1"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", RANDOM_FREE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0], "numpy.random": False}


@needs_openblas_pool
def test_search_bytes_do_not_depend_on_blas_threads():
    # The trajectory calls no BLAS, so a 2-thread OpenBLAS pool prints the
    # same p_s as one thread at Q = 13178, where a threaded ddot would not.
    argv = ["search", "--sizes", "5001", "--t", "1"]
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "powerwalk.cli", *argv],
            capture_output=True,
            text=True,
            env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[2].startswith("5001,25010001,1,")


BLAS_SPIN = """
import json, os, time
from pathlib import Path
import powerwalk
time.sleep(0.3)
spin = sum(
    int((task / "schedstat").read_text().split()[0])  # ns on the CPU
    for task in Path("/proc/self/task").iterdir()
    if int(task.name) != os.getpid()
)
timeout = os.environ.get("OPENBLAS_THREAD_TIMEOUT")
print(json.dumps({"spin_ns": spin, "timeout": timeout}))
"""


@needs_openblas_pool
@pytest.mark.parametrize("timeout", [None, "28"])
def test_blas_pool_sleeps_after_import(timeout):
    # Importing powerwalk loads OpenBLAS, whose idle worker threads spin for
    # 2^28 cycles (about 0.13 s) by default. The package sets a 2^4-cycle
    # timeout unless one is given, which still wins.
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_SPIN],
        capture_output=True,
        text=True,
        env=subprocess_env(OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=timeout),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if timeout is None:
        assert result["spin_ns"] < 10_000_000
    assert result["timeout"] == (timeout or "4")
