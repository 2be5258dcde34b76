"""The traced benchmark run wraps herdlearn functions by name.

``perfbench/tracer.py`` lists them in ``ENTRY_POINTS``; a renamed or merged
function would make the traced run fail with AttributeError, so every name
it lists must still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
