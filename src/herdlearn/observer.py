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
fold of the transition kernel, gives the public LLR before each action, one
call of the kernel ``step`` per block of actions gives their
log-probabilities, and their running sums are the log-likelihoods.
``observer_update`` and ``replay`` are views of it.  ``posterior_columns``
is the one posterior formula: the experiment engine forms q from the same
running sums with it, so a replayed trace gives the trace's q bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .beliefs import BAD, GOOD, InvalidParameterError, LlrModel, _require
from .dynamics import WALK_BLOCK, Workspace, is_g, step, walk

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
    F_b and F_0: the running sums of each action's log-probability, added
    in order, as the experiment engine keeps them.
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
    stack (under F_g, F_b and F_0): the one posterior formula, which the
    experiment engine applies to its running sums and replay to its own.

    log_odds = log(q / (1-q)) is the informative hypotheses' log weight
    ``logaddexp(ll_g, ll_b) + log(gamma/2)`` less the noise hypotheses'
    ``ll_0 + log 2 + log((1-gamma)/2)``, exact however far q saturates; it
    is the primary convergence diagnostic, since q approaches 0 or 1
    exponentially fast when learning occurs.  q is ``1 / (1 + exp(-x))``
    of the log-odds clipped to [-709, 709], so it never leaves [0, 1] and
    floors at 1/(1 + e^709), about 1.2e-308.
    """
    log_prior_info, log_prior_noise = _log_priors(gamma)
    info = np.logaddexp(log_lik[..., 0], log_lik[..., 1]) + log_prior_info
    noise = log_lik[..., 2] + LOG_2 + log_prior_noise
    log_odds = info - noise
    return 1.0 / (1.0 + np.exp(-np.clip(log_odds, -709.0, 709.0))), log_odds


def observer_init(gamma: float, initial_r: float = 0.0) -> ObserverState:
    """Fresh filter: no evidence, so q equals the prior gamma."""
    _log_priors(gamma)
    _require({"initial_r": initial_r}, finite=("initial_r",))
    return ObserverState(log_lik=np.zeros(3), gamma=gamma, r_track=initial_r, t=1)


def history_log_liks(
    model: LlrModel, state: ObserverState, actions: Union[Sequence[str], np.ndarray]
) -> tuple:
    """Fold a whole action history into the filter.

    ``actions`` is a boolean array, True for G (as ``observer-replay``
    parses its file), or any other sequence of "g" and "b".

    Returns ``(log_liks, rs)``: row 0 of ``log_liks`` is ``state.log_lik``
    and row t the log-likelihoods after t more actions, and ``rs`` holds
    the public LLR before each action and after the last.  Only r is
    sequential, so the history goes in blocks of ``WALK_BLOCK`` actions:
    ``walk`` folds r through the block, one ``step`` call on the walked
    values, with one ``Workspace`` for every full block, gives each
    action's log-probability under the three laws, and one ``np.cumsum``
    over the carried row and the block's tails adds them up in order.  So
    the rows are running sums, bit for bit those of the experiment engine,
    which adds each step's tails to its own.

    An action that has probability 0 under every hypothesis (or under both
    informative ones, which leaves the public LLR undefined) makes the
    history impossible and raises ``InvalidParameterError``; such actions
    are looked for once per block, after its fold.
    """
    n = len(actions)
    log_liks = np.empty((n + 1, 3))
    rs = np.empty(n + 1)
    log_liks[0] = state.log_lik
    rs[0] = r = state.r_track
    if not (isinstance(actions, np.ndarray) and actions.dtype == bool):
        actions = np.array([is_g(action) for action in actions], dtype=bool)
    work = Workspace(model, min(n, WALK_BLOCK))
    for lo in range(0, n, WALK_BLOCK):
        block = actions[lo : lo + WALK_BLOCK]
        hi = lo + len(block)
        walked = walk(model, r, block.tolist())
        rs[lo + 1 : hi + 1] = walked[1:]
        r = rs[hi]
        if hi - lo != len(work.scratch):  # the last block is shorter
            work = Workspace(model, hi - lo)
        # ``step`` moves walked[:-1] in place, so it runs after the reads.
        # An impossible action makes the kernel's jump NaN; it is rejected
        # below, so the NaN is expected, not worth a warning.  Overflow is
        # ignored as in ``NormalCdf``'s tails.
        with np.errstate(invalid="ignore", over="ignore"):
            step(model, walked[:-1], block, work)
        rows = log_liks[lo : hi + 1]  # the carried row, then the block's
        rows[1:] = work.tails.T
        np.cumsum(rows, axis=0, out=rows)
        # An impossible action leaves its row all -inf (and every later one
        # -inf or NaN), or its walked r non-finite; the first such is named.
        possible = (rows[1:].max(axis=1) > -math.inf) & np.isfinite(rs[lo + 1 : hi + 1])
        if not possible.all():
            k = int(possible.argmin())
            raise InvalidParameterError(
                f"action {state.t + lo + k} ({GOOD if block[k] else BAD!r}) is impossible "
                f"at public LLR {float(rs[lo + k])!r}: it has probability 0 under "
                + ("every hypothesis" if rows[k + 1].max() == -math.inf
                   else "both informative ones")
            )
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
