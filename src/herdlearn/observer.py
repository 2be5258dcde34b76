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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .beliefs import BAD, GOOD, InvalidParameterError, LlrModel
from .dynamics import R_CAP, update_public

__all__ = [
    "HYPOTHESES",
    "ObserverState",
    "observer_init",
    "observer_update",
    "batch_posterior",
    "history_log_prob",
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
    initial_r: float = 0.0

    @property
    def posterior(self) -> np.ndarray:
        """Posterior over the four hypotheses."""
        w = self.log_lik + _log_priors(self.gamma)
        w = np.exp(w - w.max())
        return w / w.sum()

    @property
    def q(self) -> float:
        """Posterior probability that the source is informative.

        Formed as w_info / (w_info + w_noise) so that rounding can never
        push it above 1, as adding two normalized weights can.
        """
        w = self.log_lik + _log_priors(self.gamma)
        w = np.exp(w - w.max())
        w_info = w[0] + w[1]
        return float(w_info / (w_info + (w[2] + w[3])))

    @property
    def log_odds(self) -> float:
        """log(q / (1-q)), stable even when q saturates in double precision.

        This is the primary convergence diagnostic: q approaches 0 or 1
        exponentially fast when learning occurs.
        """
        ll = self.log_lik
        info = np.logaddexp(ll[0], ll[1])
        noise = np.logaddexp(ll[2], ll[3])
        return float(info - noise + math.log(self.gamma) - math.log1p(-self.gamma))


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
        initial_r=initial_r,
    )


def _action_log_liks(model: LlrModel, r: float, action: str) -> np.ndarray:
    """log P[action | hypothesis, public LLR r] for the four hypotheses."""
    if action == GOOD:
        lg = model.log_tail("g", "right", -r)
        lb = model.log_tail("b", "right", -r)
        l0 = model.log_tail("0", "right", -r)
    elif action == BAD:
        lg = model.log_tail("g", "left", r)
        lb = model.log_tail("b", "left", r)
        l0 = model.log_tail("0", "left", r)
    else:
        raise InvalidParameterError(f"action must be 'g' or 'b', got {action!r}")
    return np.array([lg, lb, l0, l0], dtype=float)


def observer_update(state: ObserverState, model: LlrModel, action: str) -> ObserverState:
    """Fold one observed action into the filter.

    Likelihoods are accumulated in the log domain and re-centered every
    step, so the filter stays well-conditioned over arbitrarily long
    histories.  The public LLR moves by the difference of the two
    informative terms, which is exactly the jump ``update_public`` takes.
    """
    terms = _action_log_liks(model, state.r_track, action)
    log_lik = state.log_lik + terms
    log_lik = log_lik - log_lik.max()
    r_track = min(max(state.r_track + (terms[0] - terms[1]), -R_CAP), R_CAP)
    return ObserverState(
        log_lik=log_lik,
        gamma=state.gamma,
        r_track=float(r_track),
        t=state.t + 1,
        initial_r=state.initial_r,
    )


def _history_log_liks(
    model: LlrModel, initial_r: float, actions: Sequence[str]
) -> np.ndarray:
    """Product-form log-likelihood of a whole history, one pass per hypothesis.

    The public-LLR path is reconstructed first, then all per-step terms are
    evaluated vectorized.  This is the batch twin of the incremental filter
    and is used as its cross-check.
    """
    n = len(actions)
    if n == 0:
        return np.zeros(4)
    rs = np.empty(n, dtype=float)
    r = initial_r
    for t, a in enumerate(actions):
        rs[t] = r
        r = update_public(model, r, a)
    took_g = np.array([a == GOOD for a in actions])
    out = np.zeros(4)
    for k, regime in enumerate(("g", "b", "0")):
        total = float(np.sum(model.cdf_for(regime).log_side(-rs, took_g)))
        if regime == "0":
            out[2] = out[3] = total
        else:
            out[k] = total
    return out


def batch_posterior(
    model: LlrModel, gamma: float, initial_r: float, actions: Sequence[str]
) -> float:
    """q after a whole history, computed in one pass.

    Agrees with folding ``observer_update`` to ~1e-15; an empty history
    returns the prior.
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidParameterError(f"gamma must lie in (0, 1), got {gamma}")
    w = _history_log_liks(model, initial_r, actions) + _log_priors(gamma)
    w = np.exp(w - w.max())
    return float((w[0] + w[1]) / w.sum())


def history_log_prob(
    model: LlrModel, gamma: float, initial_r: float, actions: Sequence[str]
) -> float:
    """Unconditional log-probability of observing the given action sequence."""
    if not 0.0 < gamma < 1.0:
        raise InvalidParameterError(f"gamma must lie in (0, 1), got {gamma}")
    w = _history_log_liks(model, initial_r, actions) + _log_priors(gamma)
    m = float(w.max())
    return m + math.log(float(np.exp(w - m).sum()))


def replay(
    model: LlrModel, gamma: float, initial_r: float, actions: Iterable[str]
) -> Iterator[ObserverState]:
    """Yield the filter state before any action and after each one."""
    state = observer_init(gamma, initial_r)
    yield state
    for a in actions:
        state = observer_update(state, model, a)
        yield state
