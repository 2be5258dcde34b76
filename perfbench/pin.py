"""Regenerate perfbench/expected.json.

Usage, from the root of a checkout:  python3 perfbench/pin.py

Runs every workload once at the pinned seed and records what
``checks.observe`` reads from each command's outputs.  Re-pin only after a
deliberate change to the program's outputs, and say which in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import checks
import run


def main() -> int:
    src = Path.cwd() / "src"
    work = Path.cwd() / ".perfbench_work" / f"pin-{os.getpid()}"
    pinned = {"seed": run.PINNED_SEED, "workloads": {}}
    try:
        for workload in run.WORKLOADS:
            inputs = work / workload
            inputs.mkdir(parents=True)
            commands = run.workload_commands(workload, run.PINNED_SEED, inputs)
            rep_dir = work / "rep"
            _, result, stderr = run.run_child(src, commands, rep_dir, trace=None)
            if result is None:
                print(stderr, file=sys.stderr)
                return 1
            observed = {}
            for command, outcome in zip(commands, result["commands"]):
                if outcome["exit"] != 0:
                    print(f"{workload}/{command['id']} exited {outcome['exit']}", file=sys.stderr)
                    return 1
                stdout = (rep_dir / f"{command['id']}.stdout").read_text()
                observed[command["id"]] = checks.observe(
                    command["argv"], rep_dir / command["id"], stdout
                )
            pinned["workloads"][workload] = observed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "expected.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
