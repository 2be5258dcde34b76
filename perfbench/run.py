"""End-to-end benchmark of the herdlearn CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim_long --seed 0 --seconds 30 --trace 0

Each repetition is one fresh child process (perfbench/child.py) that imports
``herdlearn.cli`` from ./src and calls ``herdlearn.cli.main`` in-process for
each of the workload's commands, with ``--out`` in a scratch directory under
./.perfbench_work and ``--workers 1`` (a worker pool on a 2-CPU machine
would measure the scheduler, not the program).  Repetitions run until
``--seconds`` have passed.  Each command's time is scaled by the reference
load timed just before and after it (``paced_seconds``); ``wall_s`` and the
throughputs come from each command's median scaled time.  ``setup_s``, scaled
the same way, and ``peak_rss_mb`` are medians over repetitions.

Workloads (why each exists is in BENCHMARK.json):

- sim_long: long Gaussian and mixture ``simulate`` runs; step kernel and
  ``beliefs`` log tails, with a large LLR block.
- sim_short_io: short, wide ``simulate`` writing many rows, and a traced
  ``simulate``; stream set-up and CSV writing.
- analysis: ``observer-replay`` of a generated action file, ``path``,
  ``agree-prob`` and ``classify``; observer, dynamics, consensus, tails.

Every workload also runs the same small probe of each command kind (PROBE),
PROBE_REPEATS times per repetition between its focus commands, so that every
metric is defined, and never zero, on every workload.

``--seed`` fixes every input: the ``--seed`` passed to each ``simulate`` and
the generated action files.  Outputs are checked after each repetition,
outside the timed interval (see checks.py); at ``--seed 0`` they are also
compared with expected.json.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced, ``layer``-traced and ``full``-traced repetitions
(tracer.py) take turns and the last line reports the per-layer metrics,
including the tracing overhead (full-traced minus untraced ``wall_s``) and
the import times from ``python -X importtime``.  The line before the
last carries sample counts, quartiles, time shares per span and the
environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("sim_long", "sim_short_io", "analysis")
PINNED_SEED = 0
CHILD_TIMEOUT_S = 60
IMPORTTIME_RUNS = 3
# Import-only children per run, on top of one per repetition, for setup_s.
SETUP_EXTRA = 2
# The probe is short, so it runs this many times per repetition, spread
# evenly between the focus commands.
PROBE_REPEATS = 2
HERD_MEAN = 200
BREAK_MEAN = 2

MODEL = ["--sigma", "1", "--tau", "2"]
# Shared by every workload: one small command of each kind (about 0.25 s).
PROBE = (
    ("probe-simulate", ["simulate", *MODEL, "--horizon", "250", "--trajectories", "16",
                        "--traces"]),
    ("probe-replay", ["observer-replay", *MODEL], 1500),
    ("probe-path", ["path", "--sigma", "1", "--horizon", "1500"]),
    ("probe-agree", ["agree-prob", "--sigma", "1", "--tau", "0.5", "--regime", "0",
                     "--horizon", "1500"]),
    ("probe-classify", ["classify", "--sigma", "1", "--tau", "0.5"]),
)
FOCUS = {
    "sim_long": (
        ("simulate-gauss", ["simulate", *MODEL, "--horizon", "10000",
                            "--trajectories", "512"]),
        ("simulate-mixture", ["simulate", "--sigma", "1", "--mixture", "0.3",
                              "--horizon", "5000", "--trajectories", "512"]),
    ),
    "sim_short_io": (
        ("simulate-wide", ["simulate", "--sigma", "1", "--tau", "0.5", "--horizon", "20",
                           "--trajectories", "25000"]),
        ("simulate-traces", ["simulate", *MODEL, "--horizon", "2000",
                             "--trajectories", "50", "--traces"]),
    ),
    "analysis": (
        ("replay", ["observer-replay", *MODEL], 25_000),
        ("path", ["path", "--sigma", "1", "--horizon", "15000"]),
        ("agree-0", ["agree-prob", "--sigma", "1", "--tau", "0.5", "--regime", "0",
                     "--horizon", "15000"]),
        ("agree-b", ["agree-prob", "--sigma", "1", "--regime", "b", "--horizon", "15000"]),
        ("classify", ["classify", *MODEL]),
        ("classify-empirical", ["classify", *MODEL, "--empirical"]),
    ),
}

# Command -> the end-to-end throughput its work counts towards.
FAMILIES = {
    "simulate": "traj_steps_per_s",
    "observer-replay": "replay_actions_per_s",
    "path": "certify_steps_per_s",
    "agree-prob": "certify_steps_per_s",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "traj_steps_per_s": "1/s",
    "replay_actions_per_s": "1/s",
    "certify_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _geometric(rng: random.Random, mean: float) -> int:
    """Length >= 1 with P(L = k) = p (1-p)^(k-1), p = 1/mean."""
    return 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - 1.0 / mean))


def write_actions(rng: random.Random, n: int, path: Path) -> None:
    """Herds of geometric length (mean 200), each followed by a short break
    (geometric, mean 2) of the other action."""
    actions: list = []
    while len(actions) < n:
        herd = rng.choice("GB")
        actions += [herd] * _geometric(rng, HERD_MEAN)
        actions += ["B" if herd == "G" else "G"] * _geometric(rng, BREAK_MEAN)
    path.write_text("\n".join(actions[:n]) + "\n")


def workload_commands(workload: str, seed: int, inputs: Path) -> list:
    """[{"id", "key", "argv"}] for one workload, probe repeats included.

    ``key`` names the command without its repeat number; inputs are
    generated from ``seed``.
    """
    rng = random.Random(seed)
    commands = []
    for entry in FOCUS[workload] + PROBE:
        name, argv = entry[0], list(entry[1])
        if argv[0] == "simulate":
            argv += ["--seed", str(rng.getrandbits(31)), "--workers", "1"]
        if argv[0] == "observer-replay":
            path = inputs / f"{name}.actions"
            write_actions(rng, entry[2], path)
            argv += ["--actions-file", str(path)]
        commands.append({"id": name, "key": name, "argv": argv})
    focus, probe = commands[:len(FOCUS[workload])], commands[len(FOCUS[workload]):]
    copies = [probe] + [[dict(c, id=f"{c['key']}-{k}") for c in probe]
                        for k in range(2, PROBE_REPEATS + 1)]
    ordered = []
    for k, copy in enumerate(copies):
        ordered += focus[k * len(focus) // PROBE_REPEATS:(k + 1) * len(focus) // PROBE_REPEATS]
        ordered += copy
    return ordered


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_child(src: Path, commands: list, rep_dir: Path, trace):
    """Run one repetition, untraced or traced (``trace`` is None, "layer" or
    "full"); returns (set-up seconds, child result or None, stderr).

    Set-up is scaled like a command (``paced_seconds``), by the reference
    load the child times next after its import.
    """
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    rep_dir.mkdir(parents=True)
    spec = {
        "src": str(src),
        "trace": trace,
        "result": str(rep_dir / "result.json"),
        "commands": [
            {"argv": c["argv"] + ["--out", str(rep_dir / c["id"])],
             "stdout": str(rep_dir / f"{c['id']}.stdout")}
            for c in commands
        ],
    }
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    spawned_ns = _now_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
        return None, None, f"child timed out after {CHILD_TIMEOUT_S} s\n{stderr}"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    result_path = rep_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return None, None, stderr
    result = json.loads(result_path.read_text())
    setup_s = (result["imported_ns"] - spawned_ns) / 1e9
    return setup_s * reference.REFERENCE_S / result["reference_s"][0], result, stderr


def check_state(workload: str, seed: int) -> dict:
    """What ``check_rep`` needs and keeps across the repetitions of one run."""
    expected = json.loads((HERE / "expected.json").read_text())
    return {
        "expected": expected["workloads"][workload],
        "at_pinned_seed": seed == expected["seed"],
        "fingerprints": {},
    }


def check_rep(commands: list, rep_dir: Path, result: dict, state: dict) -> list:
    """(id, error) for each failed command of one repetition.

    The first clean run of a command gets the full check; later runs must
    reproduce its outputs byte for byte (same inputs, same seed).
    """
    failures = []
    for command, outcome in zip(commands, result["commands"]):
        cid, key, argv = command["id"], command["key"], command["argv"]
        if outcome["exit"] != 0 or outcome["traceback"] or "Traceback" in outcome["stderr"]:
            detail = outcome["traceback"] or outcome["stderr"]
            failures.append((cid, f"exit {outcome['exit']}: {detail.strip()[-300:]}"))
            continue
        out_dir = rep_dir / cid
        stdout = (rep_dir / f"{cid}.stdout").read_text()
        digests = checks.file_digests(out_dir)
        fp = checks.fingerprint(digests, stdout)
        if key in state["fingerprints"]:
            errors = checks.manifest_errors(argv, out_dir, digests)
            if fp != state["fingerprints"][key]:
                errors.append("outputs differ from the first run at the same inputs")
        else:
            pinned = state["expected"].get(key)
            if pinned is None:
                errors = ["no pinned values in expected.json"]
            else:
                errors = checks.check(argv, out_dir, stdout, digests, pinned,
                                      state["at_pinned_seed"])
            if not errors:
                state["fingerprints"][key] = fp
        failures += [(cid, e) for e in errors]
    return failures


def work_units(argv) -> int:
    """Trajectory-steps, replayed actions or horizon steps of one command."""
    if argv[0] == "simulate":
        return checks.flag(argv, "--horizon", int) * checks.flag(argv, "--trajectories", int)
    if argv[0] == "observer-replay":
        return len(Path(checks.flag(argv, "--actions-file")).read_text().split())
    return checks.flag(argv, "--horizon", int)


def paced_seconds(result: dict) -> list:
    """Each command's time at the reference speed.

    The host's speed drifts by up to 1.8x, in phases that can outlast a
    whole run, and every command slows with it.  A command's seconds are
    multiplied by ``REFERENCE_S`` over the mean of the reference loads
    timed right before and right after it, in the same process.
    """
    loads = result["reference_s"]
    return [outcome["seconds"] * 2 * reference.REFERENCE_S / (loads[i] + loads[i + 1])
            for i, outcome in enumerate(result["commands"])]


def paced_metrics(commands: list, durations: dict) -> dict:
    """``wall_s`` and the throughputs, from each command's median scaled time.

    ``wall_s`` sums these medians over the commands of one repetition; a
    throughput is the family's work in one repetition over the sum of its
    commands' medians.  The probe copies of a repetition pool their runs.
    """
    work = {name: [0, 0.0] for name in set(FAMILIES.values())}
    wall = 0.0
    for command in commands:
        seconds = statistics.median(durations[command["key"]])
        wall += seconds
        family = FAMILIES.get(command["argv"][0])
        if family:
            work[family][0] += work_units(command["argv"])
            work[family][1] += seconds
    times = {name: units / seconds for name, (units, seconds) in work.items()}
    return {"wall_s": wall, **times}


def _import_tree(stderr: str) -> dict:
    """module -> (self us, cumulative us, parent module) from -X importtime."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((name.strip(), int(self_us), int(cumulative_us), depth))
    tree = {}
    for i, (name, self_us, cumulative_us, depth) in enumerate(entries):
        parent = next((e[0] for e in entries[i + 1:] if e[3] < depth), None)
        tree[name] = (self_us, cumulative_us, parent)
    return tree


def _within(tree: dict, name: str, ancestor: str) -> bool:
    while name is not None:
        name = tree[name][2]
        if name == ancestor:
            return True
    return False


def import_times(src: Path) -> dict:
    """Seconds per import stage of ``import herdlearn.cli``.

    scipy.optimize excludes scipy.special when it pulls that in, so the two
    add up; herdlearn counts only the package's own module bodies.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import herdlearn.cli"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    tree = _import_tree(proc.stderr)

    def cumulative(name: str) -> float:
        return tree[name][1] / 1e6 if name in tree else 0.0

    optimize = cumulative("scipy.optimize")
    if "scipy.special" in tree and _within(tree, "scipy.special", "scipy.optimize"):
        optimize -= cumulative("scipy.special")
    return {
        "setup.import.numpy_s": cumulative("numpy"),
        "setup.import.scipy_special_s": cumulative("scipy.special"),
        "setup.import.scipy_optimize_s": optimize,
        "setup.import.herdlearn_self_s": sum(
            v[0] for k, v in tree.items() if k.split(".")[0] == "herdlearn") / 1e6,
    }


def _summary(samples: list) -> dict:
    """Median and quartiles per metric over repetitions."""
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "n": len(values)}
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "herdlearn" / "cli.py").is_file():
        print("perfbench: ./src/herdlearn not found; run from the root of a "
              "herdlearn checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the child is stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = root / ".perfbench_work" / str(os.getpid())
    try:
        return _run(args, root, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, src: Path, work: Path) -> int:
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    commands = workload_commands(args.workload, args.seed, inputs)
    state = check_state(args.workload, args.seed)

    # Warm the file cache and the bytecode cache of ./src; not measured.
    run_child(src, [], work / "warmup", trace=None)

    started = time.monotonic()
    setups = [run_child(src, [], work / "setup", trace=None)[0] for _ in range(SETUP_EXTRA)]
    imports = [import_times(src) for _ in range(IMPORTTIME_RUNS)] if args.trace else []
    kinds = (None, "layer", "full") if args.trace else (None,)
    reps = {kind: [] for kind in kinds}  # (wall and memory, tracer stats) per kind
    durations = {c["key"]: [] for c in commands}  # scaled seconds per untraced run
    failures = []
    attempted = failed = 0
    for n in itertools.count():
        kind = kinds[n % len(kinds)]
        rep_dir = work / "rep"
        setup_s, result, stderr = run_child(src, commands, rep_dir, trace=kind)
        attempted += len(commands)
        if result is None:
            print(f"perfbench: child failed:\n{stderr}", file=sys.stderr)
            failures += [(c["id"], "child process failed") for c in commands]
            failed += len(commands)
            break
        rep_failures = check_rep(commands, rep_dir, result, state)
        failures += rep_failures
        failed += len({cid for cid, _ in rep_failures})
        paced = paced_seconds(result)
        sample = {"wall_s": sum(paced), "peak_rss_mb": result["maxrss_kib"] * 1024 / 1e6}
        reps[kind].append((sample, result["stats"]))
        if kind is None:
            setups.append(setup_s)
            for command, seconds in zip(commands, paced):
                durations[command["key"]].append(seconds)
        if time.monotonic() - started >= args.seconds and all(reps.values()):
            break

    for cid, error in failures:
        print(f"perfbench: FAILED {cid}: {error}", file=sys.stderr)
    if not all(reps.values()):
        return 1

    walls = {kind: _summary([sample for sample, _ in reps[kind]]) for kind in kinds}
    end_to_end = {"peak_rss_mb": walls[None]["peak_rss_mb"],
                  **_summary([{"setup_s": s} for s in setups])}
    for name, value in paced_metrics(commands, durations).items():
        end_to_end[name] = {"median": value, "n": len(reps[None])}
    details = {"workload": args.workload, "seed": args.seed, "repetitions": len(reps[None]),
               "end_to_end": end_to_end, "environment": environment(),
               "failures": len(failures), "durations": durations, "setups": setups}
    if args.trace:
        overhead = walls["full"]["wall_s"]["median"] - walls[None]["wall_s"]["median"]
        layer = {kind: _summary([tracer.layer_metrics(s) for _, s in reps[kind]])
                 for kind in kinds[1:]}
        summary = {name: layer["full" if tracer.is_fine(name) else "layer"][name]
                   for name in layer["full"]}
        summary.update(_summary(imports))
        summary.update(_summary([{"trace.overhead_s": overhead}]))
        details.update(per_layer=summary,
                       traced_end_to_end={k: walls[k] for k in kinds[1:]},
                       time_shares={k: tracer.time_shares(reps[k][-1][1]) for k in kinds[1:]})
        units = tracer.LAYER_UNITS
    else:
        units, summary = END_TO_END_UNITS, end_to_end
    metrics = {name: {"value": summary[name]["median"], "unit": unit}
               for name, unit in units.items()}

    print(json.dumps(details))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
