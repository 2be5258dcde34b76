"""Sequential social learning with a signal source of unknown informativeness.

Agents act in order on a private log-likelihood ratio plus the public belief
implied by earlier actions; an outside observer watches only the actions and
filters for whether the source is informative at all.  The package simulates
the action dynamics, runs the observer's exact filter, classifies the
relative tail thickness that governs whether the observer can ever learn,
and certifies the deterministic consensus-path sums behind that dichotomy.
"""

__version__ = "0.1.0"

from .beliefs import (
    GaussianSpec,
    InvalidParameterError,
    MixtureSpec,
    build_model,
)
from .consensus import (
    SumVerdict,
    consensus_path,
    divergence_test,
    immediate_agreement_prob,
)
from .dynamics import (
    agent_action,
    update_public,
)
from .montecarlo import (
    ExperimentConfig,
    run_experiment,
    same_variance_experiment,
)
from .observer import (
    observer_init,
    observer_update,
)
