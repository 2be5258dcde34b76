"""Tests of the benchmark's own checks, inputs and tracer.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

WORKLOAD = "analysis"


@pytest.fixture(scope="module")
def work():
    path = ROOT / ".perfbench_work" / f"tests-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def probe_run(work):
    """The probe commands of one workload, run once at the pinned seed."""
    commands = [
        c for c in run.workload_commands(WORKLOAD, run.PINNED_SEED, work)
        if c["id"].startswith("probe") and c["id"] == c["key"]
    ]
    _, result, stderr = run.run_child(SRC, commands, work / "rep", trace=None)
    assert result is not None, stderr
    return commands, work / "rep", result


@pytest.fixture
def rep_copy(probe_run, work):
    """A private copy of the probe outputs that a test may corrupt."""
    commands, rep_dir, result = probe_run
    copy = work / f"copy-{len(list(work.iterdir()))}"
    shutil.copytree(rep_dir, copy)
    return commands, copy, result


def rewrite(out_dir: Path, rel: str, edit, stdout: bool = False) -> None:
    """Edit one output file and re-record its digest in the manifest, so that
    only the content checks can notice the change.  With ``stdout``, make the
    same edit to the captured stdout, which repeats the file."""
    paths = [out_dir / rel] + ([out_dir.parent / f"{out_dir.name}.stdout"] if stdout else [])
    for path in paths:
        path.write_text(edit(path.read_text()))
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for output in manifest["outputs"]:
        if output["path"] == rel:
            output["sha256"] = checks.file_digests(out_dir)[rel]
    manifest_path.write_text(json.dumps(manifest))


def raise_last_r(text: str) -> str:
    """Raise the last value of path.csv by 1e-6 relative: the path still
    never decreases, but the value no longer matches the pinned one."""
    head, last = text.rstrip("\n").rsplit("\n", 1)
    t, r = last.split(",")
    return f"{head}\n{t},{float(r) * (1 + 1e-6)!r}\n"


def failed_ids(failures) -> set:
    return {cid for cid, _ in failures}


def test_clean_outputs_pass(probe_run):
    commands, rep_dir, result = probe_run
    assert run.check_rep(commands, rep_dir, result, run.check_state(WORKLOAD, 0)) == []


def test_pinned_values_catch_a_changed_number(rep_copy):
    commands, rep_dir, result = rep_copy
    rewrite(rep_dir / "probe-path", "path.csv", raise_last_r, stdout=True)
    failures = run.check_rep(commands, rep_dir, result, run.check_state(WORKLOAD, 0))
    assert failed_ids(failures) == {"probe-path"}
    assert any("pinned" in error for _, error in failures)


def test_manifest_catches_a_changed_byte(rep_copy):
    commands, rep_dir, result = rep_copy
    rows = rep_dir / "probe-simulate" / "rows.csv"
    rows.write_text(rows.read_text().replace("False", "True", 1))
    failures = run.check_rep(commands, rep_dir, result, run.check_state(WORKLOAD, 0))
    assert failed_ids(failures) == {"probe-simulate"}
    assert any("manifest" in error for _, error in failures)


def test_decision_rule_checked_at_any_seed(rep_copy):
    commands, rep_dir, result = rep_copy
    flip = {"g": "b", "b": "g"}

    def flip_first_action(text: str) -> str:
        lines = text.split("\n")
        t, action, rest = lines[1].split(",", 2)
        lines[1] = ",".join((t, flip[action], rest))
        return "\n".join(lines)

    rewrite(rep_dir / "probe-simulate", "traces/traj_000000.csv", flip_first_action)
    failures = run.check_rep(commands, rep_dir, result, run.check_state(WORKLOAD, 12345))
    assert failed_ids(failures) == {"probe-simulate"}
    assert any("decision rule" in error for _, error in failures)


def test_later_runs_must_reproduce_the_first(rep_copy):
    commands, rep_dir, result = rep_copy
    state = run.check_state(WORKLOAD, 0)
    assert run.check_rep(commands, rep_dir, result, state) == []
    rewrite(rep_dir / "probe-replay", "observer.csv", lambda t: t + "\n")
    failures = run.check_rep(commands, rep_dir, result, state)
    assert failed_ids(failures) == {"probe-replay"}
    assert any("first run" in error for _, error in failures)


def test_unexpected_exit_code_fails(probe_run):
    commands, rep_dir, result = probe_run
    outcomes = [dict(o) for o in result["commands"]]
    outcomes[0]["exit"] = 64
    failures = run.check_rep(commands, rep_dir, {**result, "commands": outcomes},
                             run.check_state(WORKLOAD, 0))
    assert failed_ids(failures) == {commands[0]["id"]}


def test_corrupted_command_counts_as_failed(monkeypatch, capsys):
    """End to end: one corrupted output makes exactly one command fail.

    Only the probe runs, so the seed is not the pinned one: without the focus
    commands the probe gets other inputs than expected.json assumes.
    """
    real_run_child = run.run_child

    def corrupting_run_child(src, commands, rep_dir, trace):
        outcome = real_run_child(src, commands, rep_dir, trace)
        if commands:
            rewrite(rep_dir / "probe-path", "path.csv", raise_last_r)
        return outcome

    monkeypatch.setattr(run, "FOCUS", {WORKLOAD: ()})
    monkeypatch.setattr(run, "SETUP_EXTRA", 0)
    monkeypatch.setattr(run, "run_child", corrupting_run_child)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", WORKLOAD, "--seed", "5", "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["attempted"] == len(run.PROBE) * run.PROBE_REPEATS
    assert last["failed"] == 1


def test_refuses_to_run_without_sources(work):
    bare = work / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_depend_only_on_the_seed(work):
    def inputs(seed: int, name: str):
        folder = work / name
        folder.mkdir()
        commands = run.workload_commands(WORKLOAD, seed, folder)
        files = sorted(p.read_bytes() for p in folder.iterdir())
        argv = [[a for a in c["argv"] if not a.startswith(str(folder))] for c in commands]
        return argv, files

    assert inputs(7, "a") == inputs(7, "b")
    assert inputs(7, "a2")[1] != inputs(8, "c")[1]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS


def test_times_scale_with_the_surrounding_reference_loads():
    ref = reference.REFERENCE_S
    result = {"reference_s": [2 * ref, 2 * ref, ref],
              "commands": [{"seconds": 1.0}, {"seconds": 1.5}]}
    assert run.paced_seconds(result) == pytest.approx([0.5, 1.0])


def test_import_tree_attributes_nested_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        50 |         50 |       scipy.special",
        "import time:        20 |         70 |     scipy.optimize",
        "import time:        30 |        200 | herdlearn",
    ])
    tree = run._import_tree(stderr)
    assert tree["scipy.special"][2] == "scipy.optimize"
    assert run._within(tree, "scipy.special", "herdlearn")
    assert not run._within(tree, "numpy", "scipy.optimize")


def test_tracer_self_time_and_outermost_counts():
    spans = tracer.Tracer()

    def inner(n):
        return sum(range(n))

    traced_inner = spans.wrap(inner, "inner")
    traced_outer = spans.wrap(lambda n: traced_inner(n) + traced_inner(n), "outer")
    nested_same = spans.wrap(lambda n: traced_outer(n), "outer")
    nested_same(10_000)
    outer, inner_stat = spans.stats["outer"], spans.stats["inner"]
    assert outer["calls"] == 1 and inner_stat["calls"] == 2
    assert outer["self_ns"] == outer["total_ns"] - inner_stat["total_ns"]
    assert outer["self_ns"] >= 0
