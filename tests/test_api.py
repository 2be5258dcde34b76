"""The public API: the names ``herdlearn`` exports, and every ``__all__``.

The package exports what the CLI and the acceptance criteria import, and
nothing else; helpers that only tests use live in ``tests/oracles.py``.
"""

import importlib
import pkgutil
import types

import pytest

import herdlearn
from herdlearn.beliefs import LlrModel, NormalCdf

EXPORTS = {
    "ExperimentConfig",
    "GaussianSpec",
    "InvalidParameterError",
    "MixtureSpec",
    "SumVerdict",
    "TailClassification",
    "Verdict",
    "agent_action",
    "build_model",
    "classify_empirical",
    "classify_gaussian",
    "classify_mixture",
    "consensus_path",
    "divergence_test",
    "immediate_agreement_prob",
    "observer_init",
    "observer_update",
    "posterior_columns",
    "run_experiment",
    "same_variance_experiment",
    "update_public",
}

MODULES = sorted(m.name for m in pkgutil.iter_modules(herdlearn.__path__))

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
]


def test_package_exports_exactly_the_public_api():
    public = {
        name
        for name, value in vars(herdlearn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"herdlearn.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("path", REMOVED)
def test_removed_names_stay_removed(path):
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"herdlearn.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    assert not hasattr(owner, attrs[-1])
    for name in MODULES:
        mod = importlib.import_module(f"herdlearn.{name}")
        assert attrs[-1] not in getattr(mod, "__all__", ())


def test_a_model_comes_only_from_a_spec():
    """An ``LlrModel`` holds a spec and derives its laws from it; it cannot
    be built from three laws."""
    laws = NormalCdf(2.0, 2.0), NormalCdf(-2.0, 2.0), NormalCdf(0.0, 4.0)
    with pytest.raises(TypeError):
        LlrModel(*laws)
