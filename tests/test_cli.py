import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from powerwalk import cli, records, search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_config_round_trips_to_canonical_json():
    parser = cli.build_parser()
    args = parser.parse_args(
        ["search", "--sizes", "5,9", "--t", "1,3", "--marked", "1,2"]
    )
    config = cli.config_from_args(args)
    text = config.canonical_json()
    again = cli.ExperimentConfig.from_json(text)
    assert again == config
    assert again.canonical_json() == text


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


def test_scaling_report_slope_gate():
    rep = records.ScalingReport()
    rep.fit_slope("x", [1, 2, 3], [1, 2, 3])
    assert "x" not in rep.slopes  # fewer than 4 sizes
    rep.fit_slope("x", [1, 2, 4, 8], [1, 2, 4, 8])
    assert rep.slopes["x"][0] == pytest.approx(1.0)


def test_csv_header_and_columns(capsys):
    code, out, err = run_cli(["gap"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# powerwalk v1"
    assert lines[1] == "g,t,g_t"
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
    path = tmp_path / "gap.csv"
    code, out, _ = run_cli(["gap", "--out", str(path)], capsys)
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
    # dim 5184: one 64x64 block per momentum instead of a dense Schur form.
    code, out, err = run_cli(
        ["verify-spectrum", "--sizes", "9", "--t", "3", "--budget", "6000"], capsys
    )
    assert (code, out) == (0, "")
    assert "L=9 t=3: pass" in err and "eigenpair residual" in err


def test_tulsi_refuses_policy_mismatch_before_any_trajectory(capsys, monkeypatch):
    calls = []
    iterate = cli.iterate_search

    def counting(model, Q):
        calls.append((model.grid.side, model.t))
        return iterate(model, Q)

    monkeypatch.setattr(cli, "iterate_search", counting)
    code, out, err = run_cli(["tulsi", "--sizes", "9", "--t", "1,3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: original-tulsi requires t=1, got t=3\n"
    assert calls == []
    assert run_cli(["tulsi", "--sizes", "9", "--t", "1"], capsys)[0] == 0
    assert calls == [(9, 1)]


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
        ["search", "--sizes", "9", "--t-schedule", "sweep", "--log-c", "-3"],
        ["szegedy", "--sizes", ""],
        ["szegedy", "--chains", "-2"],
        # Runs that would check nothing.
        ["search", "--sizes", ""],
        ["tulsi", "--sizes", ""],
        ["sums", "--sizes", ""],
        ["verify-spectrum", "--sizes", ""],
        ["gap", "--g", ""],
        ["szegedy", "--chains", "0"],
        ["szegedy", "--generator", "cycle", "--sizes", "2"],
        ["szegedy", "--sizes", "9", "--k", "4"],  # every pair over budget
        ["tulsi", "--sizes", "9", "--delta", "0.3"],  # --delta needs fixed
    ],
)
def test_bad_step_count_refused_before_any_work(argv, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "iterate_search", lambda model, Q: calls.append(model))
    code, out, err = run_cli(argv, capsys)
    assert (code, out, calls) == (2, "", [])
    [line] = err.splitlines()
    assert line.startswith("error: ")


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
    # on tulsi, of its controlled run) all read one GridSums.
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


def test_search_command_columns(capsys):
    code, out, err = run_cli(["search", "--sizes", "9,13", "--t", "1"], capsys)
    assert code == 0
    header = out.splitlines()[1].split(",")
    assert header == list(records.SEARCH_COLUMNS)


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


def test_gap_with_explicit_t(capsys):
    code, out, err = run_cli(["gap", "--g", "0.5", "--t", "3"], capsys)
    assert code == 0
    row = out.splitlines()[2].split(",")
    assert float(row[2]) == pytest.approx(1 - 0.5**3)
    assert err == ""  # no row sits at t = ceil(1/g), so nothing is checked
    # g_t = 0.5 at t = 1 is below the target, but t = 1 is not ceil(1/0.5).
    code, out, err = run_cli(["gap", "--g", "0.5,0.1", "--t", "1"], capsys)
    assert code == 0
    assert out.splitlines()[2:] == ["0.5,1,0.5", "0.1,10,0.6513215599"]
    assert err == "check g_t >= 1 - 1/e - 0.05 at t = ceil(1/g): pass\n"


def test_szegedy_generator_cycle(capsys):
    code, out, err = run_cli(
        ["szegedy", "--generator", "cycle", "--sizes", "3,4", "--k", "1,2"], capsys
    )
    assert code == 0
    assert "check" in err
    assert len(out.splitlines()) == 2 + 4


def test_szegedy_chain_csv(tmp_path, capsys):
    path = tmp_path / "m.csv"
    np.savetxt(path, np.array([[0.0, 1.0], [1.0, 0.0]]), delimiter=",")
    code, out, _ = run_cli(
        ["szegedy", "--chain-csv", str(path), "--k", "1,2"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 2 + 2


def test_bad_chain_csv_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    np.savetxt(path, np.array([[0.9, 0.0], [0.0, 0.9]]), delimiter=",")
    code, _, err = run_cli(["szegedy", "--chain-csv", str(path)], capsys)
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--format", "yaml"])
    assert exc.value.code == 2


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
    # its own interpreter. It re-binds SpectralModel.distinct_phases and reads
    # Q and model.grid.vertex_count from the arguments of iterate_search.
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_TULSI, str(PERFBENCH)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert "search.iterate_search" in result["functions"]
    assert "search.SpectralModel.distinct_phases" in result["functions"]
    assert "sums.grid_sums" in result["functions"]


# The canonical config JSON of each subcommand's default argv, as pinned below:
# only the command, sizes and t_values differ between subcommands.
DEFAULT_CONFIG_JSON = (
    '{"amplification_threshold": 0.25, "budget": 4096, "chain_csv": null, '
    '"chains": 20, "command": "COMMAND", "delta": 0.0, '
    '"delta_policy": "original-tulsi", "format": "csv", '
    '"g_values": [0.5, 0.1, 0.01], "generator": "random", "k_values": [1, 2, 3], '
    '"log_c": 1.0, "marked": [0, 0], "out": null, "rounding": "floor", "seed": 0, '
    '"sizes": SIZES, "t_schedule": "fixed", "t_values": T_VALUES, '
    '"tolerances": {"discriminant": 1e-10, "eigenphase": 1e-09, '
    '"identity": 1e-09, "spectrum": 1e-09, "unitarity": 1e-12}, '
    '"trajectory": true}'
)

# name -> (small argv, config-error argv, default sizes, default t_values).
# The verify-spectrum error sits on the second instance, so it must be refused
# before the first one runs.
CONTRACT = {
    "verify-spectrum": (
        ["--sizes", "3", "--t", "1", "--marked", "1,2"],
        ["--sizes", "5,3", "--t", "1,5"],
        "[5]",
        "[1, 3]",
    ),
    "search": (
        ["--sizes", "9,13", "--t", "1"],
        ["--sizes", "9", "--marked", "99,99"],
        "[17, 33, 65, 129, 257]",
        "[1]",
    ),
    "tulsi": (
        ["--sizes", "9", "--t-schedule", "sweep", "--delta-policy", "balanced"],
        ["--sizes", "9", "--t", "1,3"],
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
    "gap": (["--g", "0.5,0.1"], ["--g", "0.5,0"], "[]", "[]"),
}


# Each subcommand accepts exactly the flags its run reads.
WALK = "--sizes --t --t-schedule --log-c"
FLAGS = {
    "verify-spectrum": f"--seed --budget --tol-spectrum --tol-unitarity {WALK} "
    "--marked",
    "search": f"--out --format {WALK} --marked --no-trajectory --rounding "
    "--amplification-threshold",
    "tulsi": f"--out --format {WALK} --marked --delta --delta-policy --rounding "
    "--amplification-threshold",
    "sums": f"--out --format --tol-identity {WALK}",
    "szegedy": "--out --format --seed --budget --tol-discriminant --tol-eigenphase "
    "--sizes --k --chains --generator --chain-csv",
    "gap": "--out --format --g --t",
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
