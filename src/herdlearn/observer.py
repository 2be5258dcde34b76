"""The outside observer's exact Bayesian filter over the four latent states.

The observer sees only the action history.  Each action multiplies the
likelihood of every hypothesis (informative/good, informative/bad, and the
two uninformative ones) by the probability that an agent holding the current
public LLR would take that action under the hypothesis.  Pure noise leaves
the payoff state no trace in the actions, so both uninformative hypotheses
have F_0's likelihood, and the filter keeps one column per law (F_g, F_b,
F_0).  The public LLR itself is a deterministic function of the history, so
the filter tracks it internally and needs nothing but the action stream.

``history_log_liks`` filters a whole history: ``dynamics.walk``, the scalar
fold of the transition kernel, gives the public LLR before each action, and
one call of the kernel ``step`` per block of actions gives their
log-probabilities.  ``observer_update`` and ``replay`` are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .beliefs import BAD, GOOD, InvalidParameterError, LlrModel
from .dynamics import WALK_BLOCK, Workspace, is_g, step, walk

__all__ = [
    "ObserverState",
    "observer_init",
    "history_log_liks",
    "observer_update",
    "posterior_columns",
    "replay",
]

# Both uninformative states have F_0's likelihood, so the log of their sum
# is it plus LOG_2 (numpy's logaddexp(x, x) is exactly x + log 2).
LOG_2 = math.log(2.0)


def _log_priors(gamma: float) -> tuple:
    """(log(gamma/2), log((1-gamma)/2)), each informative and each noise
    state's log prior: the one check of gamma, whose half must not be 0."""
    if not (0.0 < gamma < 1.0 and gamma / 2.0 > 0.0):
        raise InvalidParameterError(
            f"gamma must lie in (0, 1) with gamma/2 > 0, got {gamma}"
        )
    return math.log(gamma / 2.0), math.log((1.0 - gamma) / 2.0)


@dataclass(frozen=True)
class ObserverState:
    """Filter state after some number of observed actions.

    log_lik holds the log-likelihood of the observed history under F_g,
    F_b and F_0, re-centered so the maximum is zero (a common shift never
    changes the posterior).
    """

    log_lik: np.ndarray
    gamma: float
    r_track: float
    t: int

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
    stack (under F_g, F_b and F_0).

    q, the posterior probability that the source is informative, is formed
    as w_info / (w_info + w_noise) so that rounding can never push it above
    1, as adding two normalized weights can.  log_odds = log(q / (1-q)) is
    computed from the log-likelihoods directly, so it stays exact when q
    saturates; it is the primary convergence diagnostic, since q approaches
    0 or 1 exponentially fast when learning occurs.
    """
    lg, l0 = _log_priors(gamma)
    w = log_lik + (lg, lg, l0)
    w = np.exp(w - w.max(axis=-1, keepdims=True))
    w_info = w[..., 0] + w[..., 1]
    q = w_info / (w_info + (w[..., 2] + w[..., 2]))
    info = np.logaddexp(log_lik[..., 0], log_lik[..., 1])
    noise = log_lik[..., 2] + LOG_2
    return q, info - noise + math.log(gamma) - math.log1p(-gamma)


def q_arrays(ll_g, ll_b, ll_0, gamma: float) -> tuple:
    """(q, log-odds) of log-likelihoods under F_g, F_b and F_0, elementwise,
    as the experiment engine forms them from its running sums."""
    log_prior_info, log_prior_noise = _log_priors(gamma)
    info = np.logaddexp(ll_g, ll_b) + log_prior_info
    noise = ll_0 + LOG_2 + log_prior_noise
    log_odds = info - noise
    return 1.0 / (1.0 + np.exp(-np.clip(log_odds, -709.0, 709.0))), log_odds


def observer_init(gamma: float, initial_r: float = 0.0) -> ObserverState:
    """Fresh filter: no evidence, so q equals the prior gamma."""
    _log_priors(gamma)
    if not math.isfinite(initial_r):
        raise InvalidParameterError("initial_r must be finite")
    return ObserverState(log_lik=np.zeros(3), gamma=gamma, r_track=initial_r, t=1)


def history_log_liks(
    model: LlrModel, state: ObserverState, actions: Union[Sequence[str], np.ndarray]
) -> tuple:
    """Fold a whole action history into the filter.

    ``actions`` holds "g" and "b" strings, or is a boolean array, True for
    G (as ``observer-replay`` parses its file).

    Returns ``(log_liks, rs)``: row 0 of ``log_liks`` is ``state.log_lik``
    and row t the re-centered log-likelihoods after t more actions, and
    ``rs`` holds the public LLR before each action and after the last.
    Only r is sequential, so the history goes in blocks of ``WALK_BLOCK``
    actions: ``walk`` folds r through the block, one ``step`` call on the
    walked values, with a ``Workspace`` of the block's length, gives each
    action's log-probability under the three laws, and the likelihoods are
    accumulated and re-centered in Python floats, so the filter stays
    well-conditioned over arbitrarily long histories.

    An action that has probability 0 under every hypothesis (or under both
    informative ones, which leaves the public LLR undefined) makes the
    history impossible and raises ``InvalidParameterError``.
    """
    n = len(actions)
    log_liks = np.empty((n + 1, 3))
    rs = np.empty(n + 1)
    flat = log_liks.reshape(-1)  # a view: rows go in as flat lists of floats
    log_liks[0] = state.log_lik
    rs[0] = r = state.r_track
    a, b, c = state.log_lik.tolist()
    isfinite = math.isfinite
    if not isinstance(actions, np.ndarray):
        actions = np.array([is_g(action) for action in actions], dtype=bool)
    for lo in range(0, n, WALK_BLOCK):
        block = actions[lo : lo + WALK_BLOCK]
        hi = lo + len(block)
        took = block.tolist()
        walked = walk(model, r, took)
        after = walked.tolist()
        rs[lo + 1 : hi + 1] = walked[1:]
        # ``step`` moves walked[:-1] in place, so it runs after the reads.
        # An impossible action makes the kernel's jump NaN; it is rejected
        # below, so the NaN is expected, not worth a warning.
        with np.errstate(invalid="ignore"):
            _, lt_g, lt_b, lt_0 = step(model, walked[:-1], block, Workspace(model, hi - lo))
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
                action = GOOD if took[k] else BAD
                raise InvalidParameterError(
                    f"action {state.t + lo + k} ({action!r}) is impossible at "
                    f"public LLR {after[k]!r}: it has probability 0 under "
                    + ("every hypothesis" if top == -math.inf else "both informative ones")
                )
            a -= top
            b -= top
            c -= top
            cells += (a, b, c)
        flat[3 * (lo + 1) : 3 * (hi + 1)] = cells
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
