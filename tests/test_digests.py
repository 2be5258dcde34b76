"""Pinned SHA-256 digests of simulation and replay outputs.

Speed-ups of the engine must leave every output byte-identical; these
digests were computed before any such change and must never be re-pinned
by a change that claims to keep the random stream.  A change whose stated
purpose is to alter the stream updates them and says so.

Simulations are pinned through the CLI (the files it writes), and through
``run_experiment`` with the observer's q columns (``q_final``,
``q_log_odds`` and the traced ``q``) set to NaN before hashing, the
outputs of a former run with the observer off: the observer reads the
actions and must leave them alone.  The ``_long`` cases run 4500 steps, so
they cross at least two boundaries of the engine's time chunks; their
untraced engine runs keep switching past step 4096, so their rows depend
on the last chunk's draws.  ``test_replay_log_odds`` pins only the
``t`` and ``log_odds`` columns of a replay, and ``test_replay_observer_csv``
the whole ``observer.csv``, ``q`` included.  Replay keeps the engine's
running sums and forms q with its one formula, ``posterior_columns``, so a
replayed trace's q equals the trace's bit for bit, q floors at
1/(1 + e^709) and the log-odds stay exact.  The six replay digests were
re-pinned once when replay stopped re-centering and took that formula,
which moved their ``q`` and ``log_odds`` cells by rounding alone (|dq| at
most 4e-15); no simulation digest moved.  The CSV files of ``path``,
``agree-prob``, ``classify`` and ``same-variance`` are pinned as written.
"""

import hashlib
import io
import json

import numpy as np
import pytest

from herdlearn.cli import _rows_csv, _trace_csv, main
from herdlearn import ExperimentConfig, GaussianSpec, MixtureSpec, run_experiment
from herdlearn.montecarlo import compute_aggregates


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
    "gauss_fat_traced_long": (
        ["--sigma", "1", "--tau", "2", "--horizon", "4500", "--trajectories", "5",
         "--seed", "21", "--traces"],
        {
            "rows.csv": (
                "53da4d6f0b5d750726aad0f9222dea38"
                "106ca7991e6846b7bc05be5c7423d67f"
            ),
            "aggregates.json": (
                "bd23d18f4f912a6272594a078a7adbf3"
                "a27b1abdc93de3b02aed0723559d64fa"
            ),
            "traces": (
                "0b8c2adc46611138ea3971358be429e5"
                "ed3e6fe29a294206b2d39ba1ceac29d9"
            ),
            "n_traces": 5,
        },
    ),
    "mixture_noise_traced_long": (
        ["--sigma", "1", "--mixture", "0.3", "--omega", "0", "--horizon", "4500",
         "--trajectories", "5", "--seed", "22", "--traces"],
        {
            "rows.csv": (
                "182c6e6f9f091a6019c2ee55e40bbf80"
                "3fd21b7d1e70525a4e7f7a4a59b01fbf"
            ),
            "aggregates.json": (
                "9bffa4af814f94697d9a804a2c3cf66e"
                "079a91fc6e73db6b7a5be9d93df67bdb"
            ),
            "traces": (
                "a40447dad2d755b52b81c160a9b152f0"
                "f16b6147d2fc75f627bdc0585ac17c81"
            ),
            "n_traces": 5,
        },
    ),
}


# Runs that start on the cap: every trajectory is absorbed, which no case
# above shows.  The mixture runs cross one chunk boundary.
CAPPED_CASES = {
    "gauss_capped_above_traced": (
        ["--sigma", "1", "--tau", "2", "--initial-r", "1000000", "--horizon", "300",
         "--trajectories", "40", "--seed", "8", "--traces"],
        {
            "rows.csv": (
                "0b7b28f6eb1c49aae7833d4a23584a28"
                "6d493e8152fcbb244b98e05819894de2"
            ),
            "aggregates.json": (
                "ed026ed01d8205f0bc02af7092e92a83"
                "99bafc2e72f27b6666f6115a78935a3c"
            ),
            "traces": (
                "e6f54b4e6f6f54aef27f378cab753e94"
                "a36ed22bd7ccfac0d7a2ea41e40e985d"
            ),
            "n_traces": 40,
        },
    ),
    "gauss_capped_below_traced": (
        ["--sigma", "1", "--tau", "2", "--initial-r=-1000000", "--horizon", "300",
         "--trajectories", "40", "--seed", "8", "--traces"],
        {
            "rows.csv": (
                "8e1e08fb61635a09f803488e847878a2"
                "ef8e09ae06049866f08e6794eda95f3a"
            ),
            "aggregates.json": (
                "238f44c15f7818a3fcca9bfb20a46b9f"
                "3d578cdeb7b93096e16a7a8fcc95b3f9"
            ),
            "traces": (
                "f08ee4347bb35a7e7cd1e43e8e359728"
                "1401afaf78330b72daf18da799579ca0"
            ),
            "n_traces": 40,
        },
    ),
    "mixture_capped_above_traced_long": (
        ["--sigma", "1", "--mixture", "0.3", "--initial-r", "1000000", "--horizon",
         "2100", "--trajectories", "6", "--seed", "9", "--traces"],
        {
            "rows.csv": (
                "a3f932a76f8868bfb9a1ef17be96dde0"
                "bc045b2cf8d99c12f8c6e24169b2a4e9"
            ),
            "aggregates.json": (
                "a8c8afa5478ee8db02265eabee318460"
                "1e7cb92f2f2234185460d90941ebb5b9"
            ),
            "traces": (
                "9c0a02aea53f4768f5446fc47bf6628b"
                "69cd6b5b5aa6ed567bebf1063e349360"
            ),
            "n_traces": 6,
        },
    ),
    "mixture_capped_below_traced_long": (
        ["--sigma", "1", "--mixture", "0.3", "--initial-r=-1000000", "--horizon",
         "2100", "--trajectories", "6", "--seed", "9", "--traces"],
        {
            "rows.csv": (
                "ec1b762ffc7849a0f77ac5c8b2896d90"
                "9849a4e09c5c5f277a19c6d450dadc65"
            ),
            "aggregates.json": (
                "a8c8afa5478ee8db02265eabee318460"
                "1e7cb92f2f2234185460d90941ebb5b9"
            ),
            "traces": (
                "6b7a007ef7c2ff0b2a7bf6fca4054186"
                "ea966cfe6220d87eb2bd51dcc971c975"
            ),
            "n_traces": 6,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_simulate_files(capsys, tmp_path, case):
    argv, expected = CLI_CASES[case]
    assert _cli_digests(capsys, tmp_path / case, argv) == expected


@pytest.mark.parametrize("case", sorted(CAPPED_CASES))
def test_simulate_files_capped(capsys, tmp_path, case):
    argv, expected = CAPPED_CASES[case]
    assert _cli_digests(capsys, tmp_path / case, argv) == expected
    rows = (tmp_path / case / "rows.csv").read_text().splitlines()
    assert all(line.endswith(",True") for line in rows[1:])


def _engine_digests(config: ExperimentConfig) -> dict:
    """The digests of a run's rows, aggregates and traces with its q
    columns masked as NaN and the aggregates rebuilt from the masked rows,
    without their two q keys."""
    result = run_experiment(config)
    rows = result.rows
    rows["q_final"] = rows["q_log_odds"] = np.nan
    for tr in result.traces or []:
        tr.q[:] = np.nan
    aggregates = compute_aggregates(rows, config.horizon)
    del aggregates["median_q_final"], aggregates["q_by_regime"]
    agg_text = json.dumps(aggregates, indent=2, sort_keys=True) + "\n"
    traces = {
        f"traj_{tr.index:06d}.csv": _trace_csv(tr, np.arange(1, config.horizon + 1)).encode()
        for tr in (result.traces or [])
    }
    return {
        "rows.csv": _sha(_rows_csv(rows).encode()),
        "aggregates.json": _sha(agg_text.encode()),
        "traces": _traces_digest(traces) if traces else None,
    }


ENGINE_CASES = {
    "gauss_fat_no_q": (
        dict(model=GaussianSpec(sigma=1.0, tau=2.0), horizon=300,
             num_trajectories=48, master_seed=7,
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
             horizon=400, num_trajectories=300, master_seed=3,),
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
             num_trajectories=24, master_seed=5,
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
    "gauss_fat_no_q_long": (
        dict(model=GaussianSpec(sigma=1.0, tau=2.0), horizon=4500,
             num_trajectories=7, master_seed=23, batch_size=3),
        {
            "rows.csv": (
                "92e43540131eb9574835a73742e5d254"
                "f226d49df2e127863bfe345169c9095b"
            ),
            "aggregates.json": (
                "11c69d406c8287fbada400f2378d3fd6"
                "fc499e79692b57e5ab7c3a26b38d4b5a"
            ),
            "traces": None,
        },
    ),
    "mixture_noise_no_q_long": (
        dict(model=MixtureSpec(sigma=0.5, alpha=0.5), omega=0, horizon=4500,
             num_trajectories=16, master_seed=24, batch_size=5),
        {
            "rows.csv": (
                "93e7d1f88ae09b358f5e1d8c830771c0"
                "a69f5cdc4b6a7a37ec5074f6a6dd64a3"
            ),
            "aggregates.json": (
                "51886b0aa90a83b1241482f141b4d89d"
                "d58ba929858cd958fb2e4e57f9202ba6"
            ),
            "traces": None,
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
        "c29e998a8f1be88a29a2e6c17173949b"
        "6318ce342f0da6b4e316dbc26d62f637",
    ),
    "gauss_shifted_noise": (
        ["--sigma", "1", "--tau", "1", "--m0", "0.4", "--gamma", "0.3",
         "--initial-r", "0.7"],
        "d2353028ab33cdec77220dbf0b7c0bc9"
        "1ae23a27bd60c86a9fd287e002d9dda2",
    ),
    "mixture": (
        ["--sigma", "1", "--mixture", "0.3"],
        "9e9391c12d82411687f719f5ee615424"
        "698d291abb53be0492eed80e4c7090d0",
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


FILE_CASES = {
    "path_plain": (
        ["path", "--sigma", "1", "--horizon", "2000"],
        "path.csv", 0,
        "f79409dee28ad455fad17bb9a1b16870"
        "f5855619a5697b440edc4cda68e0245b",
    ),
    "path_absorbed": (
        ["path", "--sigma", "1", "--tau", "2", "--horizon", "500",
         "--initial-r", "2000000"],
        "path.csv", 0,
        "eb3f47fffe19730e521ca9062fac356b"
        "7744adb476c694f2e8d2e97b531ba44f",
    ),
    "agree_prob_0_gauss": (
        ["agree-prob", "--sigma", "1", "--tau", "0.5", "--regime", "0",
         "--horizon", "1500"],
        "partial_sums.csv", 0,
        "fca9e7ab013a455db2e679c0b06b3bb1"
        "1e809878b402990bd265827ec2c7d0eb",
    ),
    "agree_prob_0_mixture": (
        ["agree-prob", "--sigma", "1", "--mixture", "0.3", "--regime", "0",
         "--horizon", "1500"],
        "partial_sums.csv", 0,
        "992eb89e749d79eb92e50c998bc29396"
        "4f65854c77023a1274585ab91eb3a50c",
    ),
    "agree_prob_b": (
        ["agree-prob", "--sigma", "1", "--regime", "b", "--horizon", "1500"],
        "partial_sums.csv", 0,
        "4b8209cc1cba69e40b3da308bef17564"
        "0715128590242f1b10c4c36a59135474",
    ),
    "classify_closed_form": (
        ["classify", "--sigma", "1", "--tau", "2"],
        "evidence.csv", 0,
        "e9a2696186801befbdcdbf1e41da3280"
        "304d3c7374790b004d393755084f5baf",
    ),
    "classify_empirical": (
        ["classify", "--sigma", "1", "--tau", "1", "--m0", "0.3", "--empirical"],
        "evidence.csv", 2,
        "b86dd70e2fd8d339bf71da8e77cd0529"
        "76947dd9a65d3009a7cd8883927246db",
    ),
    "same_variance": (
        ["same-variance", "--sigma", "1", "--m0-grid", "0,0.25,0.5",
         "--horizon", "300", "--trajectories", "200", "--seed", "4"],
        "same_variance.csv", 0,
        "69bc3806012be9458723918d63334cdb"
        "19a66a2c0585c302298e4fe3f0aca6ba",
    ),
}


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_command_files(capsys, tmp_path, case):
    argv, name, exit_code, expected = FILE_CASES[case]
    assert main([*argv, "--out", str(tmp_path)]) == exit_code
    out = capsys.readouterr().out
    data = (tmp_path / name).read_bytes()
    assert data.decode() in out
    assert _sha(data) == expected


OBSERVER_CSV = {
    "gauss_fat": (
        "7de01485257e0fdb57545b4e011578fb"
        "f32f1029ff4a014bbee78db4b8c116b4"
    ),
    "gauss_shifted_noise": (
        "b3c2ed43d5fecbd31aab0b2410d6b3d1"
        "269db48dcd8f14af22806485aee3c190"
    ),
    "mixture": (
        "7a1db651c5acc978b3e0dbc3dd30fb48"
        "a563959a2ad3abb464979320f5aa90ed"
    ),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_replay_observer_csv(capsys, tmp_path, case):
    """The whole observer.csv, q column included."""
    argv, _ = REPLAY_CASES[case]
    actions = tmp_path / "actions.txt"
    actions.write_text(_replay_actions())
    code = main(["observer-replay", *argv, "--actions-file", str(actions),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    data = (tmp_path / "out" / "observer.csv").read_bytes()
    assert data.decode() == out
    assert _sha(data) == OBSERVER_CSV[case]
