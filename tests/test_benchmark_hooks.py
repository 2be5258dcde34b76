"""The traced benchmark run wraps herdlearn functions by name.

``perfbench/tracer.py`` lists them in ``ENTRY_POINTS``; a renamed or merged
function would make the traced run fail with AttributeError, so every name
it lists must still resolve.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import herdlearn

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.ENTRY_POINTS]


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench is not in this checkout")
def test_traced_entry_points_resolve():
    unresolved = []
    for module, attr in _entry_points():
        owner = importlib.import_module(f"herdlearn.{module}")
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            unresolved.append(f"herdlearn.{module}.{attr}")
            continue
        assert callable(owner), f"herdlearn.{module}.{attr} is not callable"
    assert unresolved == []


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench is not in this checkout")
def test_traced_simulate_counts_each_layer(tmp_path):
    """A traced simulate reaches every engine span the benchmark reads.

    The tracer rebinds ``montecarlo._trajectory_rng`` and
    ``montecarlo._simulate_batch`` in the module and wraps
    ``LlrModel.sample`` on its class, so the engine must look each up when
    it runs, and ``_count_batch`` unpacks ``config, lo, hi`` from the
    positional arguments.  1030 trajectories are two batches, and 2100
    steps are two pieces of draws.
    """
    code = textwrap.dedent(
        """
        import contextlib, io, json, sys
        sys.path.insert(0, sys.argv[1])
        import herdlearn.cli as cli
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, fine=False)
        argv = ["simulate", "--sigma", "1", "--mixture", "0.3", "--horizon", "2100",
                "--trajectories", "1030", "--out", sys.argv[2]]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        print(json.dumps({"exit": code, "stats": tracer.stats}))
        """
    )
    src = str(Path(herdlearn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(TRACER.parent), str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    stats = result["stats"]
    assert result["exit"] == 0
    assert stats["montecarlo.stream_setup"]["calls"] == 1030
    assert stats["beliefs.sample"]["draws"] == 1030 * 2100
    assert stats["beliefs.sample"]["calls"] == 2 * 2
    assert stats["montecarlo.batch"]["calls"] == 2
