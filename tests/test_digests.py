"""Pinned SHA-256 digests of simulation and replay outputs.

Speed-ups of the engine must leave every output byte-identical; these
digests were computed before any such change and must never be re-pinned
by a change that claims to keep the random stream.  A change whose stated
purpose is to alter the stream updates them and says so.

Simulations are pinned through the CLI (the files it writes) with the
observer on, and through ``run_experiment`` with the observer off, since
the CLI has no switch for that.  The replay pins only the ``t`` and
``log_odds`` columns: ``q`` is derived from the same weights and may move
in the last bit when its formula is made safer.
"""

import hashlib
import io
import json

import numpy as np
import pytest

from herdlearn.cli import _rows_csv, _trace_csv, main
from herdlearn.montecarlo import (
    ExperimentConfig,
    GaussianSpec,
    MixtureSpec,
    run_experiment,
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _traces_digest(named: dict) -> str:
    """One digest over (name, file digest) pairs, in name order."""
    lines = [f"{name} {_sha(data)}" for name, data in sorted(named.items())]
    return _sha("\n".join(lines).encode())


def _cli_digests(capsys, out_dir, argv) -> dict:
    assert main(["simulate", *argv, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    traces = {
        p.name: p.read_bytes() for p in (out_dir / "traces").glob("*.csv")
    } if (out_dir / "traces").exists() else {}
    return {
        "rows.csv": _sha((out_dir / "rows.csv").read_bytes()),
        "aggregates.json": _sha((out_dir / "aggregates.json").read_bytes()),
        "traces": _traces_digest(traces) if traces else None,
        "n_traces": len(traces),
    }


CLI_CASES = {
    "gauss_fat_traced": (
        ["--sigma", "1", "--tau", "2", "--horizon", "300", "--trajectories", "40",
         "--seed", "7", "--traces"],
        {
            "rows.csv": (
                "fce8e4685bd6330c57a0ca6edb800468"
                "875a159eb8e0b359fbe46cbad358b6e8"
            ),
            "aggregates.json": (
                "90e8085cf77fbefae2b4e0d0bcf293bc"
                "08053397c441d09263706184b59f294c"
            ),
            "traces": (
                "bf6d174fb52b9f0b269ea53d03c05299"
                "a7947066eb9b6d33ab2b2de22bf72864"
            ),
            "n_traces": 40,
        },
    ),
    "gauss_shifted_noise": (
        ["--sigma", "1", "--tau", "1", "--m0", "0.4", "--omega", "0",
         "--horizon", "400", "--trajectories", "300", "--seed", "3"],
        {
            "rows.csv": (
                "e95e9b9e98a63cd3c64cd6297d121664"
                "dd8b0db1d750a34e908e8f0814f8813f"
            ),
            "aggregates.json": (
                "a9abc54e7957fd9b01f4c029feb93cff"
                "8896174778b72123910d338fce795531"
            ),
            "traces": None,
            "n_traces": 0,
        },
    ),
    "gauss_thin_initial_r": (
        ["--sigma", "0.8", "--tau", "0.5", "--gamma", "0.3", "--initial-r", "-1.5",
         "--horizon", "250", "--trajectories", "1100", "--seed", "12"],
        {
            "rows.csv": (
                "c1baf2696b96de7d662440ae910f1c56"
                "4843983a4c0afe5e230a6174641ebee9"
            ),
            "aggregates.json": (
                "1b998caf29ce0fc07007294a27a10313"
                "83eac3327b27a9f214759cba7c41231a"
            ),
            "traces": None,
            "n_traces": 0,
        },
    ),
    "mixture_traced": (
        ["--sigma", "1", "--mixture", "0.3", "--horizon", "300", "--trajectories",
         "30", "--seed", "5", "--traces"],
        {
            "rows.csv": (
                "971174af7c0fc883ded7a456e558670e"
                "d333c9a033be6725b8e52270b8615a6f"
            ),
            "aggregates.json": (
                "6124455f05bcf7305c73a6761eabe10a"
                "c2560cab2bba3b16dc88fda0979cec47"
            ),
            "traces": (
                "4ca8d2c0fdc5788d6ee01ba3cc1cdd93"
                "035b9cd3581f0ccb61f003a19f529127"
            ),
            "n_traces": 30,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_simulate_files(capsys, tmp_path, case):
    argv, expected = CLI_CASES[case]
    assert _cli_digests(capsys, tmp_path / case, argv) == expected


def _engine_digests(config: ExperimentConfig) -> dict:
    result = run_experiment(config)
    agg_text = json.dumps(result.aggregates, indent=2, sort_keys=True) + "\n"
    traces = {
        f"traj_{tr.index:06d}.csv": _trace_csv(tr).encode()
        for tr in (result.traces or [])
    }
    return {
        "rows.csv": _sha(_rows_csv(result.rows).encode()),
        "aggregates.json": _sha(agg_text.encode()),
        "traces": _traces_digest(traces) if traces else None,
    }


ENGINE_CASES = {
    "gauss_fat_no_q": (
        dict(model=GaussianSpec(sigma=1.0, tau=2.0), horizon=300,
             num_trajectories=48, master_seed=7, record_q=False,
             record_traces=True, batch_size=20),
        {
            "rows.csv": (
                "7058ca02dd259e96d47886ca571c6133"
                "49ad058568ada9b3287eca85d670916d"
            ),
            "aggregates.json": (
                "31df349b05185801e55f3260f2ba4f4d"
                "167905c0bc8a63f52dce75583e984c92"
            ),
            "traces": (
                "048ba7b332fb52f16b4fefed4c7b8e18"
                "259d58210aca0a88863a588d9aa0b0e7"
            ),
        },
    ),
    "gauss_shifted_noise_no_q": (
        dict(model=GaussianSpec(sigma=1.0, tau=1.0, m0=0.4), omega=0,
             horizon=400, num_trajectories=300, master_seed=3, record_q=False),
        {
            "rows.csv": (
                "ab1ccdce07ea1604c3e5b64c1eb38208"
                "ca2fe03e483c78ffc844516531e76176"
            ),
            "aggregates.json": (
                "10fd73d9b8b634d09ef51feaa823f4b8"
                "c95e00408bf53a7a63787fb3fb2313c9"
            ),
            "traces": None,
        },
    ),
    "mixture_no_q": (
        dict(model=MixtureSpec(sigma=1.0, alpha=0.3), horizon=300,
             num_trajectories=24, master_seed=5, record_q=False,
             record_traces=True),
        {
            "rows.csv": (
                "2c9801ca70e0ceba0cf0ff7c8c0d873c"
                "4f0919c8be08de5a4d9ae78a05b97192"
            ),
            "aggregates.json": (
                "9586e382bc0e42b659206ce82c089472"
                "85e5e7536881b1251f5059254ded9834"
            ),
            "traces": (
                "557f1875a758943d79e7d2ca09a82a8d"
                "fc501d1a340210645194c537541e4a3a"
            ),
        },
    ),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_without_observer(case):
    kwargs, expected = ENGINE_CASES[case]
    assert _engine_digests(ExperimentConfig(**kwargs)) == expected


def _replay_actions() -> str:
    """Long herds broken by short runs of the other action, from a fixed stream."""
    key = np.array([2024, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    buf = io.StringIO()
    action = "G"
    while buf.tell() < 2 * 3000:
        buf.write(f"{action}\n" * int(rng.geometric(1 / 60)))
        action = "B" if action == "G" else "G"
        buf.write(f"{action}\n" * int(rng.geometric(1 / 2)))
        action = "B" if action == "G" else "G"
    return buf.getvalue()


REPLAY_CASES = {
    "gauss_fat": (
        ["--sigma", "1", "--tau", "2"],
        "47e6c98b3cf6434992ad4cc7f70fbc8c"
        "34f7799f0512b31fe92e2a519a0ed45d",
    ),
    "gauss_shifted_noise": (
        ["--sigma", "1", "--tau", "1", "--m0", "0.4", "--gamma", "0.3",
         "--initial-r", "0.7"],
        "6106858c8a36a458f6370f6fa7426491"
        "7bf8657e9bbd79379145e2c236e1fa4c",
    ),
    "mixture": (
        ["--sigma", "1", "--mixture", "0.3"],
        "1b9b7eb0c1d76dc30a84b0476071df70"
        "6bb9f2ecee79703c840ded8855e9a64f",
    ),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_replay_log_odds(capsys, tmp_path, case):
    argv, expected = REPLAY_CASES[case]
    actions = tmp_path / "actions.txt"
    actions.write_text(_replay_actions())
    code = main(["observer-replay", *argv, "--actions-file", str(actions)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,q,log_odds"
    kept = "".join(
        f"{t},{log_odds}\n" for t, _, log_odds in (ln.split(",") for ln in lines[1:])
    )
    assert _sha(kept.encode()) == expected
