"""The outside observer's exact Bayesian filter over the four latent states.

The observer sees only the action history.  Each action multiplies the
likelihood of every hypothesis (informative/good, informative/bad, and the
two uninformative ones) by the probability that an agent holding the current
public LLR would take that action under the hypothesis.  The public LLR
itself is a deterministic function of the history, so the filter tracks it
internally and needs nothing but the action stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .beliefs import BAD, GOOD, InvalidParameterError, LlrModel
from .dynamics import is_g, step

__all__ = [
    "HYPOTHESES",
    "ObserverState",
    "observer_init",
    "observer_update",
    "posterior_columns",
    "replay",
]

# Hypothesis order used for all length-4 arrays.
HYPOTHESES = ((1, GOOD), (1, BAD), (0, GOOD), (0, BAD))


def _log_priors(gamma: float) -> np.ndarray:
    lg = math.log(gamma / 2.0)
    l0 = math.log((1.0 - gamma) / 2.0)
    return np.array([lg, lg, l0, l0])


@dataclass(frozen=True)
class ObserverState:
    """Filter state after some number of observed actions.

    log_lik holds the log-likelihood of the observed history under each
    hypothesis in ``HYPOTHESES`` order, re-centered so the maximum is zero
    (a common shift never changes the posterior).  The two uninformative
    entries are always equal: given pure noise, actions carry no
    information about the payoff state.
    """

    log_lik: np.ndarray
    gamma: float
    r_track: float
    t: int

    @property
    def posterior(self) -> np.ndarray:
        """Posterior over the four hypotheses."""
        w = self.log_lik + _log_priors(self.gamma)
        w = np.exp(w - w.max())
        return w / w.sum()

    @property
    def q(self) -> float:
        """Posterior probability that the source is informative."""
        return float(posterior_columns(self.log_lik, self.gamma)[0])

    @property
    def log_odds(self) -> float:
        """log(q / (1-q)), stable even when q saturates in double precision."""
        return float(posterior_columns(self.log_lik, self.gamma)[1])


def posterior_columns(log_lik: np.ndarray, gamma: float) -> tuple:
    """``(q, log_odds)`` of one row of log-likelihoods or of each row of a
    stack (in ``HYPOTHESES`` order).

    q, the posterior probability that the source is informative, is formed
    as w_info / (w_info + w_noise) so that rounding can never push it above
    1, as adding two normalized weights can.  log_odds = log(q / (1-q)) is
    computed from the log-likelihoods directly, so it stays exact when q
    saturates; it is the primary convergence diagnostic, since q approaches
    0 or 1 exponentially fast when learning occurs.
    """
    w = log_lik + _log_priors(gamma)
    w = np.exp(w - w.max(axis=-1, keepdims=True))
    w_info = w[..., 0] + w[..., 1]
    q = w_info / (w_info + (w[..., 2] + w[..., 3]))
    info = np.logaddexp(log_lik[..., 0], log_lik[..., 1])
    noise = np.logaddexp(log_lik[..., 2], log_lik[..., 3])
    return q, info - noise + math.log(gamma) - math.log1p(-gamma)


def observer_init(gamma: float, initial_r: float = 0.0) -> ObserverState:
    """Fresh filter: no evidence, so q equals the prior gamma."""
    if not 0.0 < gamma < 1.0:
        raise InvalidParameterError(f"gamma must lie in (0, 1), got {gamma}")
    if not math.isfinite(initial_r):
        raise InvalidParameterError("initial_r must be finite")
    return ObserverState(
        log_lik=np.zeros(4),
        gamma=gamma,
        r_track=initial_r,
        t=1,
    )


def observer_update(state: ObserverState, model: LlrModel, action: str) -> ObserverState:
    """Fold one observed action into the filter.

    Likelihoods are accumulated in the log domain and re-centered every
    step, so the filter stays well-conditioned over arbitrarily long
    histories.  The action's log-probabilities under the three laws and
    the next public LLR come from the one transition kernel, ``step``.

    An action that has probability 0 under every hypothesis (or under both
    informative ones, which leaves the public LLR undefined) makes the
    history impossible and raises ``InvalidParameterError``.
    """
    r_next, lt_g, lt_b, lt_0 = step(model, state.r_track, is_g(action), True)
    log_lik = state.log_lik + np.array([lt_g, lt_b, lt_0, lt_0])
    top = log_lik.max()
    if not (math.isfinite(top) and math.isfinite(r_next)):
        raise InvalidParameterError(
            f"action {state.t} ({action!r}) is impossible at public LLR "
            f"{state.r_track!r}: it has probability 0 under "
            + ("every hypothesis" if top == -math.inf else "both informative ones")
        )
    log_lik -= top
    return ObserverState(
        log_lik=log_lik,
        gamma=state.gamma,
        r_track=float(r_next),
        t=state.t + 1,
    )


def replay(
    model: LlrModel, gamma: float, initial_r: float, actions: Iterable[str]
) -> Iterator[ObserverState]:
    """Yield the filter state before any action and after each one."""
    state = observer_init(gamma, initial_r)
    yield state
    for a in actions:
        state = observer_update(state, model, a)
        yield state
