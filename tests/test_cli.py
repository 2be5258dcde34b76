"""Command-line contract: output schemas, exit codes, digests, config layering."""

import json

import numpy as np
import pytest

from herdlearn.cli import (
    EXIT_OK,
    EXIT_UNDETERMINED,
    EXIT_USAGE,
    config_from_manifest,
    main,
)
from herdlearn.montecarlo import ExperimentConfig, GaussianSpec

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestClassify:
    def test_fatter(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--sigma", "1", "--tau", "2")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "Fatter"

    def test_thinner(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--sigma", "1", "--tau", "0.5")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "Thinner"

    def test_neither(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--sigma", "1", "--tau", "1")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "Neither"

    def test_mixture_fatter(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--mixture", "0.5", "--sigma", "1")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "Fatter"

    def test_empirical_boundary_is_undetermined(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--sigma", "1", "--tau", "1", "--empirical"
        )
        assert code == EXIT_UNDETERMINED
        assert out.splitlines()[0] == "Undetermined"

    def test_evidence_csv_schema(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "--sigma", "1", "--tau", "2")
        header, rows = parse_csv(out.split("\n", 1)[1])
        assert header == ["x", "log_L_b", "log_R_g", "log_L_g", "log_R_b"]
        assert len(rows) == 64


class TestPath:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "path", "--sigma", "1", "--horizon", "3")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["t", "r"]
        values = [float(r[1]) for r in rows]
        assert values[0] == 0.0
        assert values[1] == pytest.approx(oracles.JUMP_G_AT_0_SIGMA1, abs=1e-12)
        assert values[2] == pytest.approx(oracles.PATH3_SIGMA1, abs=1e-12)


class TestAgreeProb:
    def test_wrong_state_diverges(self, capsys):
        code, out, _ = run_cli(
            capsys, "agree-prob", "--regime", "f_b", "--sigma", "1", "--horizon", "50"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "diverged: true"

    def test_noise_regime_requires_noise_law(self, capsys):
        code, _, err = run_cli(capsys, "agree-prob", "--regime", "0", "--sigma", "1")
        assert code == EXIT_USAGE

    def test_bad_regime(self, capsys):
        code, _, _ = run_cli(capsys, "agree-prob", "--regime", "zz", "--sigma", "1")
        assert code == EXIT_USAGE


class TestObserverReplay:
    def test_two_g_example(self, capsys, tmp_path):
        actions = tmp_path / "actions.txt"
        actions.write_text("G\nG\n")
        code, out, _ = run_cli(
            capsys,
            "observer-replay",
            "--sigma", "1", "--tau", "2",
            "--actions-file", str(actions),
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["t", "q", "log_odds"]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        assert float(rows[-1][1]) == pytest.approx(
            oracles.Q3_AFTER_GG_SIGMA1_TAU2, abs=1e-12
        )

    def test_rejects_garbage(self, capsys, tmp_path):
        actions = tmp_path / "actions.txt"
        actions.write_text("G\nZ\n")
        code, _, err = run_cli(
            capsys,
            "observer-replay",
            "--sigma", "1", "--tau", "2",
            "--actions-file", str(actions),
        )
        assert code == EXIT_USAGE
        assert "Z" in err


class TestSimulate:
    def test_outputs_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--sigma", "1", "--tau", "2",
            "--omega", "1", "--theta", "g",
            "--horizon", "60", "--trajectories", "40",
            "--seed", "3", "--out", str(out_dir),
        )
        assert code == EXIT_OK
        aggregates = json.loads(out)
        assert "herd_correctness_rate" in aggregates
        manifest = read_manifest(out_dir)
        names = {entry["path"] for entry in manifest["outputs"]}
        assert names == {"rows.csv", "aggregates.json"}
        for entry in manifest["outputs"]:
            data = (out_dir / entry["path"]).read_bytes()
            import hashlib

            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_config_roundtrip(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run_cli(
            capsys,
            "simulate",
            "--sigma", "1", "--tau", "0.5", "--m0", "0.25",
            "--omega", "0",
            "--horizon", "30", "--trajectories", "10",
            "--seed", "9", "--out", str(out_dir),
        )
        manifest = read_manifest(out_dir)
        rebuilt = config_from_manifest(manifest)
        assert rebuilt == ExperimentConfig(
            model=GaussianSpec(sigma=1.0, tau=0.5, m0=0.25),
            gamma=0.5,
            horizon=30,
            num_trajectories=10,
            omega=0,
            theta=None,
            initial_r=0.0,
            master_seed=9,
            record_traces=False,
        )

    def test_stress_preset_yields_to_explicit_sizes(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--sigma", "1", "--tau", "2", "--stress",
            "--horizon", "25", "--trajectories", "8",
            "--seed", "2", "--out", str(out_dir),
        )
        assert code == EXIT_OK
        manifest = read_manifest(out_dir)
        assert manifest["config"]["horizon"] == 25
        assert manifest["config"]["trajectories"] == 8

    def test_stress_preset_defaults(self, capsys):
        from herdlearn.cli import _experiment_config, build_parser

        args = build_parser().parse_args(
            ["simulate", "--sigma", "1", "--tau", "2", "--stress"]
        )
        args._file_values = {}
        config = _experiment_config(args, GaussianSpec(1.0, 2.0))
        assert config.horizon == 100_000
        assert config.num_trajectories == 10_000

    def test_traces_written(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run_cli(
            capsys,
            "simulate",
            "--sigma", "1", "--tau", "2",
            "--horizon", "10", "--trajectories", "3",
            "--traces", "--seed", "1", "--out", str(out_dir),
        )
        trace = (out_dir / "traces" / "traj_000000.csv").read_text()
        header, rows = parse_csv(trace)
        assert header == ["t", "action", "llr", "r_before", "q"]
        assert len(rows) == 10
        assert rows[0][1] in ("g", "b")


class TestReproducibility:
    CASES = [
        ("classify", "--sigma", "1", "--tau", "2"),
        ("path", "--sigma", "1", "--horizon", "25"),
        ("agree-prob", "--regime", "b", "--sigma", "1", "--horizon", "25"),
        (
            "simulate", "--sigma", "1", "--tau", "2", "--horizon", "40",
            "--trajectories", "25", "--seed", "17",
        ),
        (
            "same-variance", "--sigma", "1", "--m0-grid", "0,0.5",
            "--horizon", "40", "--trajectories", "25", "--seed", "17",
        ),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_identical_digests(self, capsys, tmp_path, argv):
        digests = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            code = main([*argv, "--out", str(out_dir)])
            capsys.readouterr()
            assert code == EXIT_OK
            manifest = read_manifest(out_dir)
            digests.append(
                sorted((e["path"], e["sha256"]) for e in manifest["outputs"])
            )
        assert digests[0] == digests[1]
        assert digests[0], "expected at least one output file"

    def test_observer_replay_digests(self, capsys, tmp_path):
        actions = tmp_path / "actions.txt"
        actions.write_text("G\nB\nG\n")
        digests = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            code = main(
                [
                    "observer-replay", "--sigma", "1", "--tau", "2",
                    "--actions-file", str(actions), "--out", str(out_dir),
                ]
            )
            capsys.readouterr()
            assert code == EXIT_OK
            digests.append(read_manifest(out_dir)["outputs"])
        assert digests[0] == digests[1]


class TestConfigLayering:
    def test_file_values_then_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[model]\nsigma = 1.0\ntau = 2.0\n\n[run]\nhorizon = 3\n"
        )
        code, out, _ = run_cli(capsys, "path", "--config", str(config))
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 3
        code, out, _ = run_cli(
            capsys, "path", "--config", str(config), "--horizon", "5"
        )
        _, rows = parse_csv(out)
        assert len(rows) == 5

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "path", "--config", "/nonexistent.ini")
        assert code == EXIT_USAGE

    def test_env_var_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HERDLEARN_OUT_DIR", str(tmp_path / "envout"))
        code, _, _ = run_cli(capsys, "path", "--sigma", "1", "--horizon", "4")
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "path.csv").exists()


class TestUsageErrors:
    def test_missing_model(self, capsys):
        code, _, err = run_cli(capsys, "classify")
        assert code == EXIT_USAGE
        assert "sigma" in err

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--nonsense", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_invalid_parameter_value(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--sigma", "-1", "--tau", "2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["simulate", "--sigma", "1", "--tau", "inf"], "tau"),
            (["simulate", "--sigma", "inf", "--tau", "2"], "sigma"),
            (["simulate", "--sigma", "nan", "--tau", "2"], "sigma"),
            (["simulate", "--sigma", "1", "--tau", "2", "--m0", "inf"], "m0"),
            (["simulate", "--sigma", "1", "--tau", "2", "--initial-r", "nan"],
             "initial_r"),
            (["simulate", "--sigma", "1", "--tau", "2", "--initial-r", "inf"],
             "initial_r"),
            (["simulate", "--sigma", "inf", "--mixture", "0.3"], "sigma"),
            (["same-variance", "--sigma", "1", "--m0-grid", "0,inf"], "m0"),
            (["path", "--sigma", "inf"], "sigma"),
            (["classify", "--sigma", "1", "--tau", "2", "--x-max", "inf"], "x_max"),
            (["observer-replay", "--sigma", "1", "--tau", "inf"], "tau"),
            (["observer-replay", "--sigma", "1", "--tau", "2", "--m0", "nan"], "m0"),
        ],
    )
    def test_non_finite_values_are_usage_errors(self, capsys, tmp_path, argv, name):
        if argv[0] == "observer-replay":
            actions = tmp_path / "actions.txt"
            actions.write_text("G\nB\n")
            argv = [*argv, "--actions-file", str(actions)]
        if argv[0] in ("simulate", "same-variance"):
            argv = [*argv, "--horizon", "5", "--trajectories", "3"]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("herdlearn: error: ")
        assert name in err and "finite" in err
        assert "Traceback" not in err
        assert out == ""
