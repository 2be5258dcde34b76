"""One workload repetition in a fresh process.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the source directory, the herdlearn command lines, where to put
each command's captured stdout, where to write the result, and the kind of
traced run (null, "layer" or "full"; see tracer.py).  The process imports
``herdlearn.cli`` once and then calls ``herdlearn.cli.main`` in-process for
each command, with stdout and stderr captured.  It times the reference load
(reference.py) right before each command and once after the last.  Times
come from CLOCK_MONOTONIC, which all processes share, so the parent can
measure set-up from the moment it started this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import herdlearn.cli as cli

    imported_ns = _now_ns()
    import reference

    def time_reference() -> float:
        r0 = _now_ns()
        reference.load()
        return (_now_ns() - r0) / 1e9

    reference.load()  # the first call pays for lazy set-up in numpy
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, fine=spec["trace"] == "full")

    outcomes = []
    captured = []
    reference_s = []
    for command in spec["commands"]:
        reference_s.append(time_reference())
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = _now_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(command["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc()
        t1 = _now_ns()
        captured.append(out.getvalue())
        outcomes.append(
            {"seconds": (t1 - t0) / 1e9, "exit": code, "traceback": error, "stderr": err.getvalue()}
        )
    reference_s.append(time_reference())

    for command, text in zip(spec["commands"], captured):
        Path(command["stdout"]).write_text(text)
    result = {
        "imported_ns": imported_ns,
        "reference_s": reference_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "commands": outcomes,
        "stats": tracer.stats if tracer else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
