"""The outside observer's exact Bayesian filter over the four latent states.

The observer sees only the action history.  Each action multiplies the
likelihood of every hypothesis (informative/good, informative/bad, and the
two uninformative ones) by the probability that an agent holding the current
public LLR would take that action under the hypothesis.  The public LLR
itself is a deterministic function of the history, so the filter tracks it
internally and needs nothing but the action stream.

``history_log_liks`` filters a whole history: ``dynamics.walk``, the scalar
fold of the transition kernel, gives the public LLR before each action, and
one call of the kernel ``step`` per block of actions gives their
log-probabilities.  ``observer_update`` and ``replay`` are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .beliefs import BAD, GOOD, InvalidParameterError, LlrModel
from .dynamics import WALK_BLOCK, is_g, step, walk

__all__ = [
    "HYPOTHESES",
    "ObserverState",
    "observer_init",
    "history_log_liks",
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


def history_log_liks(
    model: LlrModel, state: ObserverState, actions: Sequence[str]
) -> tuple:
    """Fold a whole action history into the filter.

    Returns ``(log_liks, rs)``: row 0 of ``log_liks`` is ``state.log_lik``
    and row t the re-centered log-likelihoods after t more actions, and
    ``rs`` holds the public LLR before each action and after the last.
    Only r is sequential, so the history goes in blocks of ``WALK_BLOCK``
    actions: ``walk`` folds r through the block, one ``step`` call on the
    walked values gives each action's log-probability under the three
    laws, and the likelihoods are accumulated and re-centered in Python
    floats, so the filter stays well-conditioned over arbitrarily long
    histories.  The two uninformative entries are the same sum.

    An action that has probability 0 under every hypothesis (or under both
    informative ones, which leaves the public LLR undefined) makes the
    history impossible and raises ``InvalidParameterError``.
    """
    n = len(actions)
    log_liks = np.empty((n + 1, 4))
    rs = np.empty(n + 1)
    flat = log_liks.reshape(-1)  # a view: rows go in as flat lists of floats
    log_liks[0] = state.log_lik
    rs[0] = r = state.r_track
    a, b, c, _ = state.log_lik.tolist()
    isfinite = math.isfinite
    for lo in range(0, n, WALK_BLOCK):
        block = actions[lo : lo + WALK_BLOCK]
        hi = lo + len(block)
        took = [is_g(action) for action in block]
        walked = walk(model, r, took)
        # An impossible action makes the kernel's jump NaN; it is rejected
        # below, so the NaN is expected, not worth a warning.
        with np.errstate(invalid="ignore"):
            _, lt_g, lt_b, lt_0 = step(model, walked[:-1], np.array(took), True)
        after = walked.tolist()
        cells = []  # the block's log_liks rows, flattened
        for k, (vg, vb, v0) in enumerate(zip(lt_g.tolist(), lt_b.tolist(), lt_0.tolist())):
            a += vg
            b += vb
            c += v0
            # max(a, b, c) in two comparisons, which cost half the builtin;
            # no entry is NaN, because the tails at a finite r never are.
            top = a if a > b else b
            if c > top:
                top = c
            if not (isfinite(top) and isfinite(after[k + 1])):
                raise InvalidParameterError(
                    f"action {state.t + lo + k} ({block[k]!r}) is impossible at "
                    f"public LLR {after[k]!r}: it has probability 0 under "
                    + ("every hypothesis" if top == -math.inf else "both informative ones")
                )
            a -= top
            b -= top
            c -= top
            cells += (a, b, c, c)
        flat[4 * (lo + 1) : 4 * (hi + 1)] = cells
        rs[lo + 1 : hi + 1] = walked[1:]
        r = after[-1]
    return log_liks, rs


def observer_update(state: ObserverState, model: LlrModel, action: str) -> ObserverState:
    """Fold one observed action into the filter: a one-action
    ``history_log_liks``."""
    log_liks, rs = history_log_liks(model, state, (action,))
    return ObserverState(
        log_lik=log_liks[1], gamma=state.gamma, r_track=float(rs[1]), t=state.t + 1
    )


def replay(
    model: LlrModel, gamma: float, initial_r: float, actions: Iterable[str]
) -> Iterator[ObserverState]:
    """Yield the filter state before any action and after each one.

    The whole history is filtered before the first state is yielded, so an
    impossible action raises before any state is.
    """
    log_liks, rs = history_log_liks(
        model, observer_init(gamma, initial_r), list(actions)
    )
    for t, (log_lik, r) in enumerate(zip(log_liks, rs.tolist()), 1):
        yield ObserverState(log_lik=log_lik, gamma=gamma, r_track=r, t=t)
