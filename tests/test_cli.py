"""Command-line contract: output schemas, exit codes, digests, config layering."""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
import warnings
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import herdlearn

from herdlearn import GaussianSpec, InvalidParameterError, cli, tails
from herdlearn.beliefs import MAX_FLOATS
from herdlearn.cli import (
    EXIT_OK,
    EXIT_UNDETERMINED,
    EXIT_USAGE,
    main,
)

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

    @pytest.mark.parametrize(
        "m0, verdict",
        [("1.5", "Thinner"), ("2", "Thinner"), ("-2", "Thinner"), ("5", "Thinner"),
         ("0", "Neither"), ("0.5", "Neither"), ("-0.9", "Neither")],
    )
    def test_equal_variance_with_a_shifted_noise_mean(self, capsys, m0, verdict):
        # Noise whose mean lies beyond an informative one, |m0| > 1, is
        # Thinner: a log tail ratio falls linearly.
        code, out, _ = run_cli(
            capsys, "classify", "--sigma", "1", "--tau", "1", f"--m0={m0}"
        )
        assert code == EXIT_OK
        assert out.splitlines()[:2] == [
            verdict,
            f"# verdict: {verdict} (closed form, authoritative)",
        ]

    def test_equal_variance_is_relative_to_sigma(self, capsys):
        # tau = 2 sigma is Fatter at any scale.  The default grid ends far
        # short of the LLR laws' tails at this scale, so the advisory grid
        # does not decide.
        code, out, _ = run_cli(capsys, "classify", "--sigma", "1e-13", "--tau", "2e-13")
        assert code == EXIT_OK
        assert out.splitlines()[:3] == [
            "Fatter",
            "# verdict: Fatter (closed form, authoritative)",
            "# empirical verdict: Undetermined (finite grid, advisory)",
        ]

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

    @pytest.mark.parametrize(
        "model", [("--tau", "2"), ("--mixture", "0.3"), ("--tau", "2", "--empirical")],
        ids=["gaussian", "mixture", "empirical"],
    )
    def test_evaluates_the_evidence_grid_once(self, capsys, monkeypatch, model):
        # The closed-form rules read only the spec; evidence.csv is the
        # advisory grid.
        calls = []
        grid = tails._evidence_grid

        def counted(*args):
            calls.append(args)
            return grid(*args)

        monkeypatch.setattr(tails, "_evidence_grid", counted)
        code, _, _ = run_cli(capsys, "classify", "--sigma", "1", *model)
        assert code == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x_max", ["1e150", "1e154"])
    def test_empirical_slopes_near_the_largest_grid(self, capsys, x_max):
        # The centred grid's squares overflow double precision here; the
        # slopes behind the verdict must not.
        code, out, _ = run_cli(
            capsys, "classify", "--sigma", "1", "--tau", "2", "--x-max", x_max,
            "--empirical",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "Fatter"


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


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["path", "--sigma", "1", "--initial-r=-1e160", "--horizon", "3"],
            ["agree-prob", "--sigma", "1", "--regime", "b", "--initial-r=-1e300",
             "--horizon", "3"],
        ],
    )
    def test_start_where_g_is_impossible_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("herdlearn: error: no all-G path from initial_r=")
        assert "probability 0 under both informative laws" in err


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

    @pytest.mark.parametrize("case", [str.lower, str.upper], ids=["lower", "upper"])
    @pytest.mark.parametrize(
        "spelling", ["g", "b", "0", "fg", "fb", "f0", "f_g", "f_b", "f_0"]
    )
    def test_regime_spellings(self, capsys, spelling, case):
        argv = ("agree-prob", "--sigma", "1", "--tau", "0.5", "--horizon", "5", "--regime")
        code, out, _ = run_cli(capsys, *argv, case(spelling))
        assert code == EXIT_OK
        assert out == run_cli(capsys, *argv, spelling[-1])[1]

    @pytest.mark.parametrize("spelling", ["f", "f_", "_g", "ff_g", "f__g", "gg"])
    def test_rejected_regime_spellings(self, capsys, spelling):
        code, out, err = run_cli(capsys, "agree-prob", "--regime", spelling, "--sigma", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "herdlearn: error: --regime must be one of g/b/0 (or f_g/f_b/f_0), "
            f"got {spelling!r}\n"
        )

    def test_a_negligible_first_cell_converges(self, capsys):
        # At --initial-r 41 the remainder integrand is negligible from its
        # first cell on; the bound then takes the first two cells' decay.
        code, out, _ = run_cli(
            capsys, "agree-prob", "--sigma", "1", "--tau", "0.5", "--regime", "0",
            "--initial-r", "41", "--horizon", "5",
        )
        assert code == EXIT_OK
        comments = dict(
            line[2:].split(": ", 1) for line in out.splitlines() if line.startswith("# ")
        )
        assert comments["verdict"] == "Converges"
        assert comments["lower"] == comments["upper"]

    def test_builds_the_consensus_path_once(self, capsys, monkeypatch):
        calls = []
        original = herdlearn.consensus.consensus_path

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(herdlearn.consensus, "consensus_path", counted)
        monkeypatch.setattr(cli, "consensus_path", counted)
        code, _, _ = run_cli(
            capsys, "agree-prob", "--regime", "0", "--sigma", "1", "--tau", "0.5",
            "--horizon", "300",
        )
        assert code == EXIT_OK
        assert len(calls) == 1


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

    def test_replays_a_traced_runs_q_cells(self, capsys, tmp_path):
        """``observer-replay`` of one trace's actions, with the run's model,
        gamma and initial r, writes the trace's q cells from row 2 on: the
        engine and replay form q the same way.  2500 steps cross a piece
        of the engine's draws and two blocks of the replay."""
        argv = ["--sigma", "1", "--tau", "2", "--gamma", "0.3", "--initial-r", "0.7"]
        code, _, _ = run_cli(
            capsys, "simulate", *argv, "--horizon", "2500", "--trajectories", "3",
            "--seed", "5", "--traces", "--out", str(tmp_path / "sim"),
        )
        assert code == EXIT_OK
        header, rows = parse_csv((tmp_path / "sim" / "traces" / "traj_000001.csv").read_text())
        action, q = header.index("action"), header.index("q")
        actions = tmp_path / "actions.txt"
        actions.write_text("".join(row[action] + "\n" for row in rows))
        code, _, _ = run_cli(
            capsys, "observer-replay", *argv, "--actions-file", str(actions),
            "--out", str(tmp_path / "replay"),
        )
        assert code == EXIT_OK
        header, replayed = parse_csv((tmp_path / "replay" / "observer.csv").read_text())
        assert len(replayed) == len(rows) + 1
        assert [row[header.index("q")] for row in replayed[1:]] == [row[q] for row in rows]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, history, action, why",
        [
            # Every law gives a B action probability 0 at r = 1e300.
            (["--tau", "2", "--initial-r", "1e300"], "B\nG\nB\n", 1, "every hypothesis"),
            # The very wide noise law keeps B possible; the informative
            # laws do not, so the next public LLR is undefined.
            (["--tau", "1e100", "--initial-r", "1e160"], "B\nG\n", 1,
             "both informative ones"),
        ],
    )
    def test_impossible_history_is_a_usage_error(
        self, capsys, tmp_path, argv, history, action, why
    ):
        actions = tmp_path / "actions.txt"
        actions.write_text(history)
        code, out, err = run_cli(
            capsys, "observer-replay", "--sigma", "1", *argv,
            "--actions-file", str(actions),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert f"action {action} ('b') is impossible" in err
        assert why in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_certain_action_clips_an_extreme_start(self, capsys, tmp_path):
        # A G at r = 1e300 is certain; r is clipped to R_CAP, where B is
        # possible again.
        actions = tmp_path / "actions.txt"
        actions.write_text("G\nB\nB\n")
        code, out, _ = run_cli(
            capsys, "observer-replay", "--sigma", "1", "--tau", "2",
            "--initial-r", "1e300", "--actions-file", str(actions),
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 4
        assert all(np.isfinite(float(cell)) for row in rows for cell in row)

    @pytest.mark.parametrize(
        "text",
        [
            "", "G\nb\n", "g\r\nB\r\n\r\n", "\n\nG\rB", "  G \n\tb\n\n",
            "g\x0bB\x0c", "G\nGB\n", "G\n\nG B\n", "G\r\nZ", "\u00e9\n", "B\ng\x85x",
        ],
    )
    def test_parse_matches_the_line_loop(self, text):
        def line_loop(text):
            took = []
            for line_no, line in enumerate(text.splitlines(), start=1):
                token = line.strip()
                if not token:
                    continue
                if token.upper() not in ("G", "B"):
                    return f"line {line_no}: expected G or B, got {token!r}"
                took.append(token.upper() == "G")
            return took

        try:
            got = cli._parse_actions(text)
            assert got.dtype == bool
            got = got.tolist()
        except InvalidParameterError as exc:
            got = str(exc)
        assert got == line_loop(text)

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

    def test_distinct_variances_are_accepted_at_a_small_scale(self, capsys):
        # m0 = 1 is an informative mean, but tau = 5 sigma is not sigma.
        code, out, err = run_cli(
            capsys, "simulate", "--sigma", "1e-13", "--tau", "5e-13", "--m0", "1",
            "--horizon", "5", "--trajectories", "3",
        )
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["n"] == 3

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

    def test_pooled_run_writes_the_serial_files(self, capsys, tmp_path):
        # 1100 trajectories make two batches of 1024, so --workers 2 runs
        # them in a real process pool.
        argv = [
            "simulate", "--sigma", "1", "--tau", "2", "--horizon", "20",
            "--trajectories", "1100",
        ]
        digests = []
        for workers in ("2", "1"):
            out_dir = tmp_path / workers
            assert main([*argv, "--workers", workers, "--out", str(out_dir)]) == EXIT_OK
            capsys.readouterr()
            digests.append({e["path"]: e["sha256"] for e in read_manifest(out_dir)["outputs"]})
        assert sorted(digests[1]) == ["aggregates.json", "rows.csv"]
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "argv",
        [
            (
                "simulate", "--sigma", "1", "--tau", "0.5", "--m0", "0.25",
                "--omega", "0", "--horizon", "30", "--trajectories", "10",
                "--seed", "9",
            ),
            (
                "same-variance", "--sigma", "1", "--m0-grid", "0,0.5",
                "--horizon", "50", "--trajectories", "30", "--seed", "4",
            ),
            ("observer-replay", "--mixture", "0.3", "--sigma", "1.5", "--gamma", "0.4"),
            # Runs that lean on defaults: the echo must carry them too.
            pytest.param(
                ("classify", "--sigma", "1", "--tau", "2", "--empirical"),
                id="classify-empirical",
            ),
            pytest.param(("path", "--sigma", "1"), id="path-default-horizon"),
            pytest.param(
                ("agree-prob", "--regime", "0", "--sigma", "1", "--tau", "0.5"),
                id="agree-prob-regime-0",
            ),
            pytest.param(
                ("same-variance", "--sigma", "1", "--m0-grid", "0,0.5",
                 "--horizon", "30", "--trajectories", "20"),
                id="same-variance-default-seed",
            ),
        ],
        ids=lambda argv: argv[0],
    )
    def test_manifest_config_reproduces_the_run(self, capsys, tmp_path, argv):
        """A config file holding only the manifest's config echo (and its
        seed) reruns the command to the same digests."""
        if argv[0] == "observer-replay":
            actions = tmp_path / "actions.txt"
            actions.write_text("G\nG\nB\nG\n")
            argv = [*argv, "--actions-file", str(actions)]
        assert main([*argv, "--out", str(tmp_path / "a")]) == EXIT_OK
        manifest = read_manifest(tmp_path / "a")
        echo = dict(manifest["config"])
        assert manifest["master_seed"] is not None
        if argv[0] == "same-variance":
            assert echo["trajectories"] == int(argv[argv.index("--trajectories") + 1])
            if "--seed" not in argv:
                assert manifest["master_seed"] == 0
        if argv[0] == "observer-replay":
            assert echo["actions_file"] == str(actions)
        if argv[0] == "classify":
            assert echo["empirical"] is True
        if argv[0] == "path":
            assert echo["horizon"] == 1000
        model = echo.pop("model")
        values = {"mixture" if k == "alpha" else k: v for k, v in model.items()}
        values.update(echo, seed=manifest["master_seed"])
        lines = ["[run]"]
        for key, value in values.items():
            if value is not None and key != "kind":
                lines.append(f"{key} = {value}")
        config = tmp_path / "rerun.ini"
        config.write_text("\n".join(lines) + "\n")
        rerun = [argv[0], "--config", str(config), "--out", str(tmp_path / "b")]
        assert main(rerun) == EXIT_OK
        capsys.readouterr()
        assert read_manifest(tmp_path / "b")["outputs"] == manifest["outputs"]

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


_SPECIAL_FLOATS = [
    np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-5, 1e16, -1e16,
    1e-4, 0.1, 1.0 / 3.0, 2.0**53, 1.7976931348623157e308,
]
_B = cli.CSV_BLOCK_ROWS


def _mixed_columns(n: int) -> dict:
    """n rows of every column kind the commands write, specials first."""
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    k = min(n, len(_SPECIAL_FLOATS))
    floats[:k] = _SPECIAL_FLOATS[:k]
    return {
        "index": np.arange(n, dtype=np.int64) + 2**62,
        "omega": rng.integers(-128, 128, n).astype(np.int8),
        "theta": np.where(rng.random(n) < 0.5, "g", "b"),
        "x": floats,
        "q": np.where(rng.random(n) < 0.2, np.nan, rng.random(n)),
        "absorbed": rng.random(n) < 0.5,
        "r": rng.standard_normal(n).astype(np.float32),
    }


class TestCsvWriter:
    """The column-wise writer against the row-wise reference in oracles.py."""

    @pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 1])
    def test_matches_row_writer(self, n):
        columns = _mixed_columns(n)
        comments = ["verdict: Fatter", "lower: 0.5"]
        got = cli._csv_lines(list(columns), list(columns.values()), comments)
        want = oracles.csv_lines(
            list(columns), zip(*columns.values()), comments=comments
        )
        assert got == want
        assert got.count("\n") == n + 3

    def test_cells(self):
        got = cli._csv_lines(
            ("x", "flag", "action"),
            (_SPECIAL_FLOATS[:4], [True, False, True, False], np.array(list("gbgb"))),
        )
        assert got == "x,flag,action\n,True,g\n0.0,False,b\n-0.0,True,g\ninf,False,b\n"

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(), min_size=1, max_size=40),
        n=st.integers(1, 2 * _B + 2),
    )
    def test_random_float_columns(self, values, n):
        x = np.resize(np.array(values), n)
        columns = (np.arange(1, n + 1), x, x[::-1].copy())
        got = cli._csv_lines(("t", "x", "y"), columns)
        assert got == oracles.csv_lines(("t", "x", "y"), zip(*columns))


# Float64 bit patterns: any pattern (NaN payloads of either sign included)
# or a special value: signed zeros, NaN, infinities, subnormals and the
# smallest normal.
_FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(
        np.array(
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
             1e-310, -1e-310, 2.2250738585072014e-308, 1.0, 1.0 + 2**-52]
        ).view(np.uint64).tolist()
    ),
)


class TestCsvRuns:
    """``_cells`` formats a run of bit-equal floats once; the text must
    equal a ``repr`` per value (an empty cell for NaN), whatever the runs."""

    @settings(max_examples=80, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(_FLOAT_BITS, st.integers(1, 3 * _B // 2)), min_size=1, max_size=10
        ),
        n=st.integers(1, 3 * _B),
    )
    @example(runs=[(0, _B - 1), (2**63, 2), (0, 1)], n=_B + 2)  # 0.0, -0.0, 0.0
    @example(
        runs=[(np.float64(np.nan).view(np.uint64).item(), 2 * _B + 5)], n=2 * _B + 5
    )
    def test_runs_of_float64_bit_patterns(self, runs, n):
        bits = np.repeat(
            np.array([b for b, _ in runs], dtype=np.uint64), [k for _, k in runs]
        )
        x = np.resize(bits, n).view(np.float64)
        columns = (np.arange(1, n + 1), x, x[::-1].copy())
        got = cli._csv_lines(("t", "x", "y"), columns)
        assert got == oracles.csv_lines(("t", "x", "y"), zip(*columns))


_INT_DTYPES = [np.int8, np.int64, np.uint8, np.uint64, np.bool_]


def _value_column(dtype, n, span, halves, seed):
    """n values of ``dtype`` spanning ``span + 1`` integers (fewer where the
    dtype has fewer or n < 2), from a least value ``halves`` halves of the
    way up the dtype's range."""
    info = np.iinfo(dtype) if dtype is not np.bool_ else np.iinfo(np.uint8)
    top = 1 if dtype is np.bool_ else int(info.max)
    span = min(span, top - int(info.min))
    lo = int(info.min) + (top - int(info.min) - span) * halves // 2
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, span, n, endpoint=True, dtype=np.uint64)
    if n >= 2:
        offsets[:2] = [0, span]
    return np.array([lo + k for k in offsets.tolist()], dtype=dtype)


class TestValueTables:
    """``_cells`` formats bools, and integers spanning at most half as many
    values as the column has rows, through a table of cells; every cell
    must be the ``str`` of its value, whatever the span and the dtype."""

    @settings(max_examples=120, deadline=None)
    @given(
        dtype=st.sampled_from(_INT_DTYPES),
        n=st.integers(0, 1500),
        # The table size against half the rows: below, at or above.
        side=st.sampled_from([-1, 0, 1]),
        halves=st.sampled_from([0, 1, 2]),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dtype=np.int8, n=512, side=0, halves=0, strided=False, seed=0)  # -128..127
    @example(dtype=np.int64, n=40, side=-1, halves=0, strided=True, seed=1)
    @example(dtype=np.uint64, n=40, side=-1, halves=2, strided=False, seed=2)
    def test_cells_are_the_str_of_each_value(self, dtype, n, side, halves, strided, seed):
        span = max(n // 2 + side - 1, 0)  # side 0: the table holds n // 2 cells
        column = _value_column(dtype, 2 * n if strided else n, span, halves, seed)
        if strided:
            column = column[::2]
        assert cli._cells(column) == list(map(str, column.tolist()))


class TestIntegerRuns:
    """``_cells`` formats a run of consecutive nonnegative integers, such as
    a ``t`` or ``index`` column, from a table of ten last digits; every cell
    must be the ``str`` of its value."""

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1024, 1025, 25001])
    def test_t_columns(self, n):
        t = cli._steps(n)
        want = list(map(str, t.tolist()))
        assert cli._cells(t) == want
        # Through the writer, whose blocks start above 0 after the first.
        assert cli._csv_lines(("t",), (t,)) == "t\n" + "".join(c + "\n" for c in want)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
    @pytest.mark.parametrize(
        "lo, n",
        [(0, 1), (0, 10), (1, 9), (7, 5), (10, 30), (95, 10), (99, 2), (1023, 1025),
         (25000, 1), (10**9 - 3, 2000), (2**31 - 1025, 1024)],
    )
    def test_index_ranges(self, dtype, lo, n):
        index = np.arange(lo, lo + n, dtype=dtype)
        assert cli._cells(index) == list(map(str, index.tolist()))
        strided = np.repeat(index, 2)[::2]
        assert cli._cells(strided) == list(map(str, index.tolist()))

    @pytest.mark.parametrize(
        "values",
        [[5, 6, 8, 8, 9], [3, 5, 4, 6], [-2, -1, 0, 1], [9, 8, 7], [0, 2, 2, 2, 4]],
    )
    def test_near_runs_are_the_str_of_each_value(self, values):
        # The same first and last value as a run, but not one.
        column = np.array(values)
        assert cli._cells(column) == list(map(str, values))


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

    def test_boolean_values(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        argv = ["simulate", "--sigma", "1", "--tau", "2", "--horizon", "5",
                "--trajectories", "2", "--config", str(config)]
        config.write_text("[run]\ntraces = maybe\n")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "a")])
        assert exc.value.code == EXIT_USAGE
        assert "bad config value for traces" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        config.write_text("[run]\ntraces = false\n")
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "b"))
        assert code == EXIT_OK
        assert (tmp_path / "b" / "rows.csv").exists()
        assert not (tmp_path / "b" / "traces").exists()
        config.write_text("[run]\nempirical = true\n")
        code, out, _ = run_cli(
            capsys, "classify", "--sigma", "1", "--tau", "2", "--config", str(config)
        )
        assert code == EXIT_OK
        assert "# verdict: Fatter (finite grid, advisory)" in out.splitlines()

    def test_a_later_section_overrides_an_earlier_one(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[model]\nsigma = 1\nhorizon = 3\n\n[run]\nhorizon = 4\n"
        )
        code, out, _ = run_cli(capsys, "path", "--config", str(config))
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 4
        # Only the value that wins is read as a flag's value.
        config.write_text("[model]\nempirical = maybe\n\n[run]\nempirical = true\n")
        code, out, _ = run_cli(
            capsys, "classify", "--sigma", "1", "--tau", "2", "--config", str(config)
        )
        assert code == EXIT_OK
        assert "# verdict: Fatter (finite grid, advisory)" in out.splitlines()

    def test_reserved_keys_are_not_applied(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nfunc = x\ncommand = y\nsigma = 1\nhorizon = 3\n")
        code, out, _ = run_cli(capsys, "path", "--config", str(config))
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 3

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "path", "--config", "/nonexistent.ini")
        assert code == EXIT_USAGE

    def test_env_var_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HERDLEARN_OUT_DIR", str(tmp_path / "envout"))
        code, _, _ = run_cli(capsys, "path", "--sigma", "1", "--horizon", "4")
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "path.csv").exists()


class TestOutputPath:
    """``main`` prints each command's stdout and, given an output directory,
    writes its files in order with a manifest."""

    # (argv, the files in manifest order, the stdout lines before the file)
    CASES = [
        (["classify", "--sigma", "1", "--tau", "2"], ["evidence.csv"], 1),
        (["path", "--sigma", "1", "--horizon", "5"], ["path.csv"], 0),
        (["agree-prob", "--regime", "b", "--sigma", "1", "--horizon", "5"],
         ["partial_sums.csv"], 1),
        (["simulate", "--sigma", "1", "--tau", "2", "--horizon", "5",
          "--trajectories", "3", "--traces"],
         ["rows.csv", "aggregates.json", "traces/traj_000000.csv",
          "traces/traj_000001.csv", "traces/traj_000002.csv"], 0),
        (["same-variance", "--sigma", "1", "--m0-grid", "0,0.5", "--horizon", "5",
          "--trajectories", "3"], ["same_variance.csv"], 0),
        (["observer-replay", "--sigma", "1", "--tau", "2", "--actions-file"],
         ["observer.csv"], 0),
    ]

    @staticmethod
    def _argv(argv, tmp_path):
        if argv[0] == "observer-replay":
            actions = tmp_path / "actions.txt"
            actions.write_text("G\nB\nG\n")
            argv = [*argv, str(actions)]
        return argv

    @pytest.mark.parametrize("argv,files,preamble", CASES, ids=[c[0][0] for c in CASES])
    def test_written_file_is_the_printed_text(
        self, capsys, tmp_path, argv, files, preamble
    ):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, *self._argv(argv, tmp_path), "--out", str(out_dir)
        )
        assert code == EXIT_OK
        manifest = read_manifest(out_dir)
        assert [entry["path"] for entry in manifest["outputs"]] == files
        printed = files[1] if argv[0] == "simulate" else files[0]
        assert (out_dir / printed).read_text() == "".join(
            out.splitlines(keepends=True)[preamble:]
        )

    @pytest.mark.parametrize("argv,files,preamble", CASES, ids=[c[0][0] for c in CASES])
    def test_nothing_written_without_an_output_directory(
        self, capsys, tmp_path, monkeypatch, argv, files, preamble
    ):
        argv = self._argv(argv, tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.delenv("HERDLEARN_OUT_DIR", raising=False)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK and out
        assert list(work.iterdir()) == []

    def test_manifest_times_span_the_command(self, capsys, tmp_path, monkeypatch):
        path = cli.consensus_path

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return path(*args, **kwargs)

        monkeypatch.setattr(cli, "consensus_path", slow)
        code, _, _ = run_cli(
            capsys, "path", "--sigma", "1", "--horizon", "5", "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        manifest = read_manifest(tmp_path)
        started, finished = (
            datetime.fromisoformat(manifest[k]) for k in ("started_utc", "finished_utc")
        )
        assert finished - started >= timedelta(seconds=0.2)

    def test_each_directory_is_made_once(self, capsys, tmp_path, monkeypatch):
        made = []
        mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        out_dir = tmp_path / "out"
        argv, _, _ = self.CASES[3]  # simulate --traces
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_dir))
        assert code == EXIT_OK
        assert made == [out_dir, out_dir / "traces"]

    @pytest.mark.parametrize("via_env", [False, True], ids=["--out", "env"])
    def test_usage_error_leaves_no_directory_it_made(
        self, capsys, tmp_path, monkeypatch, via_env
    ):
        # simulate without --tau fails after main has made the directory.
        argv = ["simulate", "--sigma", "1"]
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in (tmp_path / "a" / "b" / "c", kept):
            if via_env:
                monkeypatch.setenv("HERDLEARN_OUT_DIR", str(out))
                code, stdout, err = run_cli(capsys, *argv)
            else:
                code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
            assert code == EXIT_USAGE and stdout == ""
            assert err == "herdlearn: error: a Gaussian model needs --tau (or use --mixture)\n"
            assert list(tmp_path.iterdir()) == [kept]
            assert list(kept.iterdir()) == []

    def test_removing_made_directories_stops_at_one_not_empty(self, tmp_path):
        # Deepest first: c goes, b holds a file, so b and a stay.
        a = tmp_path / "a"
        b = a / "b"
        c = b / "c"
        c.mkdir(parents=True)
        (b / "file").write_text("kept")
        cli._remove_empty([c, b, a])
        assert not c.exists()
        assert (b / "file").read_text() == "kept"
        assert list(tmp_path.iterdir()) == [a] and list(a.iterdir()) == [b]

    def test_usage_error_keeps_a_directory_holding_files(self, capsys, tmp_path):
        # An output that cannot be written fails the run after other files
        # went in; those stay.
        out_dir = tmp_path / "out"
        (out_dir / "traces").mkdir(parents=True)
        (out_dir / "traces" / "traj_000000.csv").mkdir()
        argv, _, _ = self.CASES[3]  # simulate --traces
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out_dir))
        assert code == EXIT_USAGE
        assert err.startswith("herdlearn: error: cannot write outputs: ")
        assert (out_dir / "rows.csv").exists()


class TestParser:
    def test_help_is_argparse_default(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        parser = cli.build_parser()
        for p in (parser, *parser.commands.values()):
            fixed = p.format_help()
            p.formatter_class = argparse.HelpFormatter
            assert p.format_help() == fixed

    def test_terminal_width_is_looked_up_once_per_build(self, monkeypatch):
        calls = []
        original = shutil.get_terminal_size

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        cli.build_parser()
        assert len(calls) == 1

    def test_columns_still_set_the_wrapping(self, monkeypatch):
        texts = []
        for columns in ("50", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            texts.append(cli.build_parser().commands["simulate"].format_help())
        assert len(texts[0].splitlines()) > len(texts[1].splitlines())


# A sample argv for each command, flags of every kind included.
_SAMPLE_ARGV = {
    "classify": ["--sigma", "1", "--tau", "2", "--x-max", "50", "--empirical"],
    "path": ["--sigma", "0.5", "--horizon", "7", "--initial-r", "-1", "--out", "o"],
    "agree-prob": ["--sigma", "1", "--regime", "0", "--tau", "0.5", "--seed", "3"],
    "simulate": ["--sigma", "1", "--mixture", "0.3", "--omega", "1", "--theta", "b",
                 "--traces", "--stress"],
    "same-variance": ["--sigma", "1", "--m0-grid", "0,1", "--trajectories", "9"],
    "observer-replay": ["--sigma", "1", "--tau", "2", "--actions-file", "a.txt",
                        "--config", "c.ini"],
}


_MODEL_DEFAULTS = [("--sigma", None), ("--tau", None), ("--m0", 0.0), ("--mixture", None)]
_RUN_DEFAULTS = [("--config", None), ("--seed", 0), ("--out", None)]
# Each command's flags, in the order its help lists them, with the values it
# parses when none is given.
_FLAGS_AND_DEFAULTS = {
    "classify": [*_MODEL_DEFAULTS, *_RUN_DEFAULTS, ("--x-max", 200.0), ("--grid", 64),
                 ("--empirical", False)],
    "path": [*_MODEL_DEFAULTS, *_RUN_DEFAULTS, ("--horizon", 1000), ("--initial-r", 0.0)],
    "agree-prob": [*_MODEL_DEFAULTS, *_RUN_DEFAULTS, ("--regime", None),
                   ("--horizon", 1000), ("--initial-r", 0.0)],
    "simulate": [*_MODEL_DEFAULTS, *_RUN_DEFAULTS, ("--gamma", 0.5), ("--horizon", None),
                 ("--trajectories", None), ("--omega", None), ("--theta", None),
                 ("--initial-r", 0.0), ("--traces", False), ("--workers", 1),
                 ("--stress", False)],
    "same-variance": [*_RUN_DEFAULTS, ("--sigma", None), ("--m0-grid", "0,0.25,0.5"),
                      ("--gamma", 0.5), ("--horizon", 2000), ("--trajectories", 2000),
                      ("--workers", 1)],
    "observer-replay": [*_MODEL_DEFAULTS, *_RUN_DEFAULTS, ("--gamma", 0.5),
                        ("--initial-r", 0.0), ("--actions-file", None)],
}


class TestSubcommandParser:
    """``main`` builds only the parser of the command it runs; that parser
    must be the full build's, and every other argv must get the full build."""

    @pytest.mark.parametrize("name", sorted(_SAMPLE_ARGV))
    def test_alone_equals_the_full_build(self, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "90")
        alone, full = cli.build_parser(name), cli.build_parser()
        assert list(alone.commands) == [name]
        assert alone.commands[name].format_help() == full.commands[name].format_help()
        argv = [name, *_SAMPLE_ARGV[name]]
        assert alone.parse_args(argv) == full.parse_args(argv)
        assert alone.format_usage() == full.format_usage()

    @pytest.mark.parametrize("name", sorted(_FLAGS_AND_DEFAULTS))
    def test_flag_order_and_defaults(self, name):
        parser = cli.build_parser(name)
        args = parser.parse_args([name])
        flags = [
            (a.option_strings[-1], getattr(args, a.dest))
            for a in parser.commands[name]._actions[1:]  # after -h
        ]
        assert flags == _FLAGS_AND_DEFAULTS[name]

    def test_main_builds_only_the_invoked_parser(self, capsys, monkeypatch):
        built = []
        original = cli.build_parser

        def recorded(only=None):
            parser = original(only)
            built.append(list(parser.commands))
            return parser

        monkeypatch.setattr(cli, "build_parser", recorded)
        assert main(["path", "--sigma", "1", "--horizon", "3"]) == EXIT_OK
        for argv in (["-h"], ["--version"], ["pathx"], []):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        assert built[0] == ["path"]
        assert all(names == list(_SAMPLE_ARGV) for names in built[1:])
        assert len(built) == 5

    @pytest.mark.parametrize(
        "argv, code",
        [(["-h", "path"], EXIT_OK), (["pathx", "--sigma", "1"], EXIT_USAGE),
         ([], EXIT_USAGE)],
    )
    def test_other_argv_lists_every_command(self, capsys, monkeypatch, argv, code):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        out = capsys.readouterr()
        assert "{" + ",".join(_SAMPLE_ARGV) + "}" in out.out + out.err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out == herdlearn.__version__ + "\n"

    @pytest.mark.parametrize("argv", [["path", "--sigma", "1", "--horizon", "3"], ["-h"]])
    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch, argv):
        def run(*args):
            try:
                return main(*args), capsys.readouterr()
            except SystemExit as exc:
                return exc.code, capsys.readouterr()

        want = run(argv)
        monkeypatch.setattr(sys, "argv", ["herdlearn", *argv])
        assert run() == want
        assert want[1].out


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
            # Finite flags whose induced LLR laws are not finite.
            (["simulate", "--sigma", "1e-200", "--tau", "1"], "sigma"),
            (["simulate", "--sigma", "1e-160", "--tau", "1"], "sigma"),
            (["simulate", "--sigma", "1e200", "--tau", "1e200"], "tau"),
            (["path", "--sigma", "1e-300"], "sigma"),
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

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["same-variance", "--sigma", "1", "--m0-grid", ","], "m0 grid"),
            (["classify", "--sigma", "1", "--tau", "2", "--x-max", "0.5"], "x_max"),
            (["classify", "--sigma", "1", "--tau", "2", "--x-max", "1"], "x_max"),
            (["simulate", "--sigma", "1", "--tau", "2", "--seed", "-1"], "master_seed"),
            (["simulate", "--sigma", "1", "--tau", "2", "--seed", str(2**64)],
             "master_seed"),
            (["classify", "--sigma", "1", "--tau", "2", "--x-max", "1e200"], "x_max"),
            (["classify", "--sigma", "1", "--tau", "2", "--x-max", "1e308"], "x_max"),
            # gamma in (0, 1) whose half underflows to 0.
            (["simulate", "--sigma", "1", "--tau", "2", "--gamma", "5e-324"], "gamma"),
            (["same-variance", "--sigma", "1", "--gamma", "5e-324"], "gamma"),
            (["observer-replay", "--sigma", "1", "--tau", "2", "--gamma", "5e-324",
              "--actions-file", "{actions}"], "gamma"),
            # Arrays beyond the largest float64 array numpy can index.
            (["path", "--sigma", "1", "--horizon", str(10**20)], "horizon"),
            (["path", "--sigma", "1", "--horizon", str(2**63 - 1)], "horizon"),
            (["agree-prob", "--sigma", "1", "--regime", "b", "--horizon", str(10**20)],
             "horizon"),
            (["agree-prob", "--sigma", "1", "--regime", "b",
              "--horizon", str(2**63 - 1)], "horizon"),
            (["classify", "--sigma", "1", "--tau", "2", "--grid", str(10**20)], "n_grid"),
            (["classify", "--sigma", "1", "--tau", "2", "--grid", str(2**63 - 1)],
             "n_grid"),
            (["simulate", "--sigma", "1", "--tau", "2", "--traces", "--trajectories", "1",
              "--horizon", str(10**19)], "traced batch"),
            # Inputs a command needs, or cannot read.
            (["same-variance", "--m0-grid", "0,1"], "same-variance needs --sigma"),
            (["same-variance", "--sigma", "1", "--m0-grid", "0,x"], "bad --m0-grid"),
            (["observer-replay", "--sigma", "1", "--tau", "2"],
             "observer-replay needs --actions-file"),
            # A traced batch keeps 3 floats a step in one array: batch x horizon
            # floats would fit, their three planes do not.  At the largest
            # traced batch numpy accepts the shape, and allocating it fails.
            (["simulate", "--sigma", "1", "--tau", "2", "--traces", "--trajectories",
              "1024", "--horizon", str(MAX_FLOATS // 1024)], "traced batch"),
            (["simulate", "--sigma", "1", "--tau", "2", "--traces", "--trajectories",
              "1024", "--horizon", str(MAX_FLOATS // 3 // 1024)],
             "out of memory during simulation"),
        ],
    )
    def test_runs_that_cannot_do_work_are_usage_errors(
        self, capsys, tmp_path, argv, fragment
    ):
        if argv[0] in ("simulate", "same-variance") and "--horizon" not in argv:
            argv = [*argv, "--horizon", "5", "--trajectories", "3"]
        actions = tmp_path / "actions.txt"
        actions.write_text("G\nB\n")
        argv = [a.format(actions=actions) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("herdlearn: error: ") and fragment in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["path", "--sigma", "1", "--m0", "inf", "--horizon", "2"], "m0"),
            (["agree-prob", "--regime", "b", "--sigma", "1", "--m0", "nan",
              "--horizon", "3"], "m0"),
            (["classify", "--sigma", "1", "--mixture", "0.3", "--m0", "nan"],
             "--mixture"),
            (["classify", "--sigma", "1", "--mixture", "0.3", "--tau", "inf"],
             "--mixture"),
        ],
    )
    def test_model_flags_the_model_does_not_read_are_usage_errors(
        self, capsys, argv, fragment
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("herdlearn: error: ") and fragment in err
        assert "Traceback" not in err
        assert out == ""


class TestBadInputFiles:
    def _run(self, capsys, tmp_path, argv, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == EXIT_USAGE
        assert err.startswith("herdlearn: error: ")
        assert "Traceback" not in err
        assert out == ""
        return err

    def test_config_without_section_header(self, capsys, tmp_path):
        err = self._run(
            capsys, tmp_path, ["path", "--config"], "run.ini", b"[model\nsigma = 1\n"
        )
        assert "bad config file" in err

    def test_config_that_is_not_utf8(self, capsys, tmp_path):
        err = self._run(
            capsys, tmp_path, ["path", "--config"], "run.ini",
            b"[model]\nsigma = 1\xff\n",
        )
        assert "bad config file" in err

    def test_actions_file_that_is_not_utf8(self, capsys, tmp_path):
        err = self._run(
            capsys, tmp_path,
            ["observer-replay", "--sigma", "1", "--tau", "2", "--actions-file"],
            "actions.txt", b"G\n\xfe\xffB\n",
        )
        assert "cannot read actions file" in err


# Values for the fuzz.  Every flag draws from a usable strategy (odds 3 in 4)
# or a hostile one (non-finite, extreme or garbage), so that both runs that
# get past validation and runs that do not are common.
_HOSTILE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["0", "-0", "1e-200", "1e-160", "1e-150", "1e150", "1e200", "1e308",
         "-1e308", "5e-324", "nan", "inf", "-inf", "1e999"]
    ),
    st.text(max_size=6),
)
_REAL = st.floats(-10.0, 10.0).map(repr)
_SCALE = st.floats(0.05, 5.0).map(repr)
_PROB = st.floats(0.01, 0.99).map(repr)
# Sizes stay small so that every run that is accepted finishes at once.
_SIZE = (st.integers(1, 30).map(str),
         st.sampled_from(["-3", "0", "", "x", "1.5", "1e3", "0x10"]))
_SEED = (st.integers(0, 2**64 - 1).map(str),
         st.one_of(st.integers(-(2**70), 2**70).map(str), st.text(max_size=4)))
_COMMAND_FLAGS = {
    "classify": {"--x-max": st.floats(1.5, 500.0).map(repr), "--grid": _SIZE,
                 "--m0": _REAL},
    "path": {"--horizon": _SIZE, "--initial-r": _REAL},
    "agree-prob": {"--horizon": _SIZE, "--initial-r": _REAL, "--m0": _REAL},
    "simulate": {"--gamma": _PROB, "--initial-r": _REAL, "--m0": _REAL,
                 "--omega": (st.sampled_from(["0", "1"]), st.just("2")),
                 "--theta": (st.sampled_from(["g", "b"]), st.just("x")),
                 "--workers": (st.just("1"), st.sampled_from(["-1", "0"]))},
    "same-variance": {"--m0-grid": st.lists(_REAL, max_size=3).map(",".join),
                      "--gamma": _PROB},
    "observer-replay": {"--gamma": _PROB, "--initial-r": _REAL, "--m0": _REAL},
}
# Config keys a file may set; sizes are left to the small flags.
_CONFIG_KEYS = ["sigma", "tau", "m0", "mixture", "gamma", "initial_r", "seed",
                "x_max", "regime", "omega", "theta", "traces", "empirical"]


@st.composite
def _invocations(draw):
    def value(strategies):
        usable, hostile = strategies if isinstance(strategies, tuple) else (
            strategies, _HOSTILE)
        return draw(usable if draw(st.integers(0, 3)) else hostile)

    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    needed = {"--sigma": _SCALE}
    if command == "agree-prob":
        needed["--regime"] = (st.sampled_from(["g", "b", "0", "f_0"]), st.just("zz"))
    if command != "same-variance":
        # Both at once is a usage error.
        noise = [["--tau"], ["--mixture"], ["--tau", "--mixture"]]
        for flag in draw(st.sampled_from(noise)):
            needed[flag] = _SCALE if draw(st.booleans()) else _PROB
    if command in ("simulate", "same-variance"):
        needed.update({"--horizon": _SIZE, "--trajectories": _SIZE})
    optional = {**_COMMAND_FLAGS[command], "--seed": _SEED}
    chosen = draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=3))
    # FLAG=VALUE keeps argparse from reading a value such as "-1e5" as a flag.
    argv = [command] + [f"{flag}={value(needed[flag])}" for flag in needed]
    argv += [f"{flag}={value(optional[flag])}" for flag in chosen if flag not in needed]
    files = {}
    if draw(st.integers(0, 2)) == 0:
        lines = draw(st.lists(
            st.tuples(st.sampled_from(_CONFIG_KEYS), _HOSTILE), max_size=3
        ))
        text = "[model]\n" + "".join(f"{k} = {v}\n" for k, v in lines)
        files["--config"] = draw(st.one_of(st.binary(max_size=80), st.just(text.encode())))
    if command == "observer-replay":
        files["--actions-file"] = draw(st.one_of(
            st.binary(max_size=40),
            st.text(alphabet="GBgb \n", max_size=40).map(str.encode),
        ))
    return argv, files


class TestFuzz:
    """Whatever the flags and files, the CLI exits 0, 2 or 64 without a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(invocation=_invocations())
    def test_exit_codes_and_no_traceback(self, invocation):
        argv, files = invocation
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for flag, data in files.items():
                path = Path(tmp) / flag.strip("-")
                path.write_bytes(data)
                argv = [*argv, flag, str(path)]
            old_cwd = os.getcwd()
            os.chdir(tmp)
            try:
                with mock.patch.dict(os.environ), \
                        contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    os.environ.pop("HERDLEARN_OUT_DIR", None)
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
            finally:
                os.chdir(old_cwd)
        assert code in (EXIT_OK, EXIT_UNDETERMINED, EXIT_USAGE), (argv, code)
        assert "Traceback" not in stderr.getvalue()
        leaked = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not leaked, (argv, leaked)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, want",
        [
            (("classify", "--sigma", "1", "--tau", "1e-150", "--x-max", "1e300"), EXIT_USAGE),
            (("classify", "--sigma", "1", "--tau", "1e-150", "--x-max", "1e300",
              "--empirical"), EXIT_USAGE),
            (("agree-prob", "--sigma", "1e150", "--tau", "0.5", "--regime", "0",
              "--horizon", "1"), EXIT_OK),
            (("agree-prob", "--sigma", "0.0625", "--tau", "2", "--regime", "0",
              "--horizon", "11"), EXIT_OK),
            (("simulate", "--sigma", "1", "--tau", "5e-324", "--horizon", "30",
              "--trajectories", "3"), EXIT_OK),
            (("agree-prob", "--sigma", "1", "--tau", "5e-324", "--regime", "0",
              "--horizon", "30"), EXIT_OK),
            (("observer-replay", "--sigma", "1", "--tau", "5e-324",
              "--actions-file", "{actions}"), EXIT_OK),
        ],
        ids=["classify", "classify-empirical", "agree-prob-nan", "agree-prob-overflow",
             "simulate-point-noise", "agree-prob-point-noise", "replay-point-noise"],
    )
    def test_no_runtime_warning_escapes(self, capsys, tmp_path, argv, want):
        # Each command meets non-finite values that it already handles: the
        # grid's ratios overflow past x=57797 and are rejected; the remainder
        # bound's terms are NaN, or sum to inf, and the bound is inf.  A noise
        # sd of 1e-323 overflows the standardized tail arguments, whose tails
        # are then exactly 0 or -inf.
        actions = tmp_path / "actions.txt"
        actions.write_text("G\nG\nB\nG\nB\nB\nG\n")
        code, _, err = run_cli(capsys, *(a.format(actions=actions) for a in argv))
        assert code == want
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "argv",
        [
            ("path", "--sigma", "1", "--horizon", "100000000000000"),
            ("agree-prob", "--sigma", "1", "--regime", "b",
             "--horizon", "100000000000000"),
            ("classify", "--sigma", "1", "--tau", "2", "--grid", "100000000000000"),
            # The largest sizes a float64 array numpy can index allows: the
            # path holds horizon + 1 floats, the evidence grid 5 per point.
            ("path", "--sigma", "1", "--horizon", str(MAX_FLOATS - 1)),
            ("classify", "--sigma", "1", "--tau", "2", "--grid", str(MAX_FLOATS // 5)),
        ],
        ids=["path", "agree-prob", "classify", "path-limit", "classify-limit"],
    )
    def test_too_large_for_memory_is_a_usage_error(self, capsys, argv):
        # Each command's first array would take from 728 TiB to 8 EiB, beyond
        # any address space, so its allocation fails at once.
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("herdlearn: error: Unable to allocate ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("via_env", [False, True], ids=["--out", "env"])
    @pytest.mark.parametrize("target", ["F", "F/sub"])
    def test_unusable_output_directory_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path, via_env, target
    ):
        # F is a file: mkdir F raises FileExistsError, mkdir F/sub
        # NotADirectoryError.  The directory is made before the command
        # runs, so nothing is printed and no simulation starts.
        (tmp_path / "F").write_text("")
        out = str(tmp_path / target)

        def no_simulation(config):
            raise AssertionError("simulated before checking the output directory")

        monkeypatch.setattr(cli, "run_experiment", no_simulation)
        for argv in (
            ["path", "--sigma", "1", "--horizon", "3"],
            ["simulate", "--sigma", "1", "--tau", "2"],
        ):
            if via_env:
                monkeypatch.setenv("HERDLEARN_OUT_DIR", out)
            else:
                argv += ["--out", out]
            code, stdout, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE
            assert stdout == ""
            assert err.startswith("herdlearn: error: cannot write outputs: ")
            assert "Traceback" not in err

    def test_simulation_out_of_memory_is_a_usage_error(self, capsys):
        # --traces keeps the whole trace in memory, so the first allocation
        # fails at once; without it the run is memory-bounded and would run
        # for days.
        code, out, err = run_cli(
            capsys, "simulate", "--sigma", "1", "--tau", "2",
            "--horizon", "100000000000000", "--trajectories", "1", "--traces",
        )
        assert code == EXIT_USAGE
        assert err.startswith("herdlearn: error: ") and "out of memory" in err
        assert "Traceback" not in err

    def test_memory_error_without_text_says_out_of_memory(self, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "consensus_path", no_memory)
        code, out, err = run_cli(capsys, "path", "--sigma", "1", "--horizon", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "herdlearn: error: out of memory\n"


def _python(code: str, *args: str):
    """Run ``code`` in a fresh interpreter that imports this herdlearn; the
    JSON value it prints."""
    src = str(Path(herdlearn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_cli_import_loads_neither_the_optimizer_nor_mpmath():
    # Nor scipy.special's package init, wherever log_ndtr's extension module
    # exists to be loaded alone, and that module is not left in sys.modules;
    # the package, imported later, has the same ufunc.
    # Nor the process pool or configparser: pooled and --config runs load
    # them when they start.
    loaded, deferred, alone, same = _python("""
        import importlib.util, json, sys, herdlearn.cli
        heavy = ("scipy.optimize", "mpmath", "scipy.special", "scipy.special._special_ufuncs")
        loaded = [m for m in heavy if m in sys.modules]
        deferred = [m for m in ("concurrent.futures", "multiprocessing", "configparser")
                    if m in sys.modules]
        import scipy.special
        alone = importlib.util.find_spec("scipy.special._special_ufuncs") is not None
        same = scipy.special.log_ndtr is herdlearn.beliefs.log_ndtr
        print(json.dumps([loaded, deferred, alone, same]))
    """)
    assert loaded == ([] if alone else ["scipy.special"])
    assert deferred == []
    assert same


@pytest.mark.parametrize("failure", ["loader", "file"])
def test_log_ndtr_falls_back_to_the_package_import(failure):
    # The extension module's loader raises, or its file is not found; the
    # package import then gives log_ndtr, with the same bits.
    out = _python("""
        import json, os.path, sys
        from importlib.machinery import ExtensionFileLoader
        import numpy as np

        NAME = "scipy.special._special_ufuncs"
        if sys.argv[1] == "loader":
            create = ExtensionFileLoader.create_module
            failed = []

            def create_module(self, spec):  # fails the first load only
                if spec.name == NAME and not failed:
                    failed.append(spec.name)
                    raise ImportError("made to fail")
                return create(self, spec)

            ExtensionFileLoader.create_module = create_module
        else:
            isfile = os.path.isfile
            os.path.isfile = lambda p: "_special_ufuncs" not in p and isfile(p)
        from herdlearn import beliefs
        fell_back = "scipy.special" in sys.modules
        from scipy.special import log_ndtr
        xs = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300],
                             np.linspace(-1500.0, 40.0, 10_000)])
        same = np.array_equal(beliefs.log_ndtr(xs).view(np.uint64), log_ndtr(xs).view(np.uint64))
        print(json.dumps([fell_back, same]))
    """, failure)
    assert out == [True, True]


def test_no_command_imports_a_module_while_it_runs(tmp_path):
    # Every module a command uses is imported with herdlearn.cli, so no
    # command pays for an import inside its own run.  scipy.special's init
    # used to import numpy.random and numpy.ma, which the first simulate
    # would otherwise import while it runs.
    commands = [
        TestOutputPath._argv(argv, tmp_path)
        + (["--workers", "1"] if argv[0] in ("simulate", "same-variance") else [])
        for argv, _, _ in TestOutputPath.CASES
    ]
    imported = _python("""
        import contextlib, io, json, sys
        import herdlearn.cli

        imported = {}
        for i, argv in enumerate(json.loads(sys.argv[1])):
            before = set(sys.modules)
            with contextlib.redirect_stdout(io.StringIO()):
                code = herdlearn.cli.main([*argv, "--out", f"{sys.argv[2]}/{i}"])
            imported[argv[0]] = [code, sorted(set(sys.modules) - before)]
        print(json.dumps(imported))
    """, json.dumps(commands), str(tmp_path))
    assert imported == {argv[0]: [EXIT_OK, []] for argv in commands}
