"""The public API: the names ``herdlearn`` exports.

The package exports what the acceptance suite imports from it, plus the
error every exported function raises, and nothing else.  Its export list
is the one declaration of the API: no module assigns ``__all__``.  Helpers
that only tests use live in ``tests/oracles.py``.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import herdlearn
from herdlearn.beliefs import LlrModel, NormalCdf

ACCEPTANCE = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())

# The names the acceptance suite imports from the package, and the error
# every exported function raises.
EXPORTS = {
    alias.name
    for node in ast.walk(ACCEPTANCE)
    if isinstance(node, ast.ImportFrom) and node.module == "herdlearn"
    for alias in node.names
} | {"InvalidParameterError"}

SOURCES = sorted(Path(herdlearn.__file__).parent.glob("*.py"))

# Names that no module defines any more, as "module.attribute" or
# "module.Class.attribute".
REMOVED = [
    "beliefs.WorldState",
    "beliefs.sample_world",
    "beliefs.GaussianFamilyParams",
    "beliefs.make_gaussian_model",
    "beliefs.make_mixture_model",
    "beliefs.NormalCdf.cdf",
    "beliefs.NormalCdf.log_pdf",
    "beliefs.MixtureCdf.cdf",
    "beliefs.MixtureCdf.log_pdf",
    "beliefs.LlrModel._law",
    "beliefs.LlrModel.jump_decreasing",
    "beliefs.LlrModel.noise_mixes_pair",
    "beliefs.NormalCdf.sample",
    "beliefs.NormalCdf.sample_chunks",
    "beliefs.MixtureCdf.sample",
    "beliefs.MixtureCdf.sample_chunks",
    "beliefs.MixtureCdf._normals",
    "beliefs.LlrModel.sample_chunks",
    "beliefs.NormalCdf.draw_piece",
    "beliefs.MixtureCdf.draw_piece",
    "beliefs.NormalCdf.log_side",
    "beliefs.MixtureCdf.log_side",
    "beliefs.LlrModel.log_tail",
    "beliefs._skip_raw",
    "beliefs.DistinctnessError",
    "consensus.ConsensusPath.mirrored",
    "consensus.phi",
    "montecarlo.spec_from_dict",
    "observer.ObserverState.initial_r",
    "observer.ObserverState.posterior",
    "observer.HYPOTHESES",
    "observer.q_arrays",
    "montecarlo.LOG_2",
    "montecarlo.ExperimentConfig.record_q",
    "montecarlo.ExperimentConfig.batch_size",
    "tails.TailClassification.authoritative",
    "cli.config_from_manifest",
    "cli._float_cells",
    "cli.CSV_BLOCK_ROWS",
    "_shortest.CHUNK",
]


def test_package_exports_exactly_the_public_api():
    public = {
        name
        for name, value in vars(herdlearn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_module_assigns_all(path):
    tree = ast.parse(path.read_text())
    assert not any(
        isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("path", REMOVED)
def test_removed_names_stay_removed(path):
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"herdlearn.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    assert not hasattr(owner, attrs[-1])


def test_a_model_comes_only_from_a_spec():
    """An ``LlrModel`` holds a spec and derives its laws from it; it cannot
    be built from three laws."""
    laws = NormalCdf(2.0, 2.0), NormalCdf(-2.0, 2.0), NormalCdf(0.0, 4.0)
    with pytest.raises(TypeError):
        LlrModel(*laws)
