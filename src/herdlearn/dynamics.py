"""Equilibrium decision rule and public-belief dynamics.

Each agent observes the action history (summarized by the public LLR r) and
a private LLR, and takes the action favoured by their sum.  Observing an
action then moves the public LLR by a jump that depends only on which action
was taken and on r.  This module holds the decision rule, the one
transition kernel, ``step``, and its scalar fold, ``walk``, which moves r
through a whole action history one action at a time in Python floats.  The
experiment engine and the observer's likelihood columns call ``step`` on
arrays, each with a ``Workspace`` that holds its buffers; the observer's
public LLR and the consensus path use ``walk``, which tests pin bit for bit
to folding ``step``.  The jump functions make ``step``'s operations on a
float or an array, and the one-step update is a one-action ``walk``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .beliefs import (
    ACTIONS,
    BAD,
    GOOD,
    ArrayLike,
    InvalidParameterError,
    LlrModel,
    log_ndtr,
)

__all__ = [
    "R_CAP",
    "agent_action",
    "step",
    "walk",
    "jump_g",
    "jump_b",
    "update_public",
]

# Saturation cap on |r|: beyond this the jumps underflow to zero in double
# precision, so further updates would only accumulate float drift.
R_CAP = 1.0e6

# Actions per ``walk`` call when a long history is processed in pieces:
# temporaries for a whole 25000-action history at once raise peak memory by
# several MB, and a consensus path stops walking at the block that caps.
WALK_BLOCK = 1024


def agent_action(r: float, llr: float) -> str:
    """The equilibrium action at public LLR ``r`` with private LLR ``llr``.

    Returns "g" iff llr >= -r; exact indifference (a probability-zero event
    under continuous signal laws) resolves to "g".
    """
    return GOOD if llr >= -r else BAD


def step(model: LlrModel, r: np.ndarray, took_g, work: Workspace) -> tuple:
    """One observed action at each public LLR of ``r``: the transition kernel.

    ``r`` is a 1-d array, ``took_g`` a boolean array of r's length marking
    G actions and ``work`` a ``Workspace`` for this model and r's length.
    An agent plays G iff llr >= -r, so the action's log-probability under a
    law F is the right tail of F at -r after G and the left tail after B;
    each law's tail is evaluated once, on that side.  The noise law of a
    ``MixtureSpec`` model mixes the informative pair, so its tail is
    ``MixtureCdf.log_mix`` of the two tails just evaluated: the operations
    of ``MixtureCdf.log_cdf`` or ``log_sf``, without evaluating them again.
    Returns ``(r, lt_g, lt_b, lt_0)``: ``r`` moved in place by the jump
    ``lt_g - lt_b`` and clipped to [-R_CAP, R_CAP], and the
    log-probabilities under F_g, F_b and F_0, the rows of ``work.tails``,
    valid until its next use.  The call allocates almost nothing and
    negates nothing: a Normal law's tail at -r is ``log_ndtr`` of ``(r + m)
    / s`` after a G and of its negation after a B, the bits of
    ``NormalCdf``'s tails at -r (see ``walk``).
    """
    sign = np.where(took_g, 1.0, -1.0)  # +1 selects the right tail, -1 the left
    stack, scratch = work.stack, work.scratch
    lt_g, lt_b, lt_0 = work.rows
    # The tails of every stacked law at once.
    np.add(r, work.means, out=stack)
    np.divide(stack, work.sds, out=stack)
    np.multiply(stack, sign, out=stack)
    log_ndtr(stack, out=stack)
    if len(stack) == 2:  # F_0 mixes the pair
        model.cdf_0.log_mix(lt_g, lt_b, lt_0, scratch)
    np.subtract(lt_g, lt_b, out=scratch)
    np.add(r, scratch, out=r)
    np.maximum(r, -R_CAP, out=r)
    np.minimum(r, R_CAP, out=r)
    return r, lt_g, lt_b, lt_0


class Workspace:
    """The buffers of ``step`` on arrays of length ``n``.

    ``tails`` holds one row per law, F_g, F_b and F_0, and ``rows`` those
    rows.  The rows of the Normal laws among them form ``stack``, whose
    tails ``step`` evaluates as one call per operation on every row at
    once.  ``means`` and ``sds`` hold each of those laws' mean and sd as a
    full row of length ``n``, the shape of ``stack``: dividing by full rows
    took about half the time of dividing by a column broadcast down them.
    """

    def __init__(self, model: LlrModel, n: int):
        self.means, self.sds = (np.repeat(col, n, axis=1) for col in model.normal_stack)
        self.tails = np.empty((3, n))
        self.rows = tuple(self.tails)
        self.stack = self.tails[: len(self.means)]
        self.scratch = np.empty(n)


def walk(model: LlrModel, r: float, took_g: Sequence[bool]) -> np.ndarray:
    """The public LLR before each action of ``took_g`` (True for G) and
    after the last, starting from ``r``: ``step`` folded over the history.

    r is the one truly sequential quantity of a history, so it is folded in
    Python floats, where an operation costs a fraction of a numpy scalar's.
    Each step makes the same IEEE operations as ``step``: the two informative
    tails at -r on the action's side, their difference added to r, and the
    clip, written as two comparisons that leave NaN alone, as numpy's
    minimum and maximum do (and cost a third of builtin min/max).  An action
    impossible under both informative laws makes the jump NaN, and every
    later value NaN.

    The tails call ``log_ndtr`` directly, not ``NormalCdf.log_sf`` or
    ``log_cdf``, with each law's mean m and sd s in locals, on ``(r + m) /
    s`` after a G and its negation after a B, as ``step`` does.  That is
    ``NormalCdf``'s argument at -r, ``(-r - m) / s``, negated after a G, bit
    for bit, because negation is exact under round-to-nearest.  Only the
    sign of a zero argument can differ (at r = -m), and ``log_ndtr(+0.0) ==
    log_ndtr(-0.0)``.
    """
    m_g, s_g = model.cdf_g.mean, model.cdf_g.sd
    m_b, s_b = model.cdf_b.mean, model.cdf_b.sd
    r = float(r)
    out = [r]
    append = out.append
    for g in took_g:
        if g:
            r += float(log_ndtr((r + m_g) / s_g)) - float(log_ndtr((r + m_b) / s_b))
        else:
            r += float(log_ndtr(-((r + m_g) / s_g))) - float(log_ndtr(-((r + m_b) / s_b)))
        if r > R_CAP:
            r = R_CAP
        elif r < -R_CAP:
            r = -R_CAP
        append(r)
    return np.array(out)


def jump_g(model: LlrModel, r: ArrayLike) -> ArrayLike:
    """Public-LLR jump caused by observing a G action at public LLR r.

    Computed entirely from log tails so that |r| up to ~1e3 stays accurate;
    the bits of ``step``'s ``lt_g - lt_b`` after a G.  Always
    nonnegative: a G action can only push the public belief toward G.
    """
    return model.cdf_g.log_sf(-r) - model.cdf_b.log_sf(-r)


def jump_b(model: LlrModel, r: ArrayLike) -> ArrayLike:
    """Public-LLR jump caused by observing a B action; always nonpositive."""
    return model.cdf_g.log_cdf(-r) - model.cdf_b.log_cdf(-r)


def is_g(action: str) -> bool:
    """True for a G action, False for B; anything else is an error."""
    if action not in ACTIONS:
        raise InvalidParameterError(f"action must be one of {ACTIONS}, got {action!r}")
    return action == GOOD


def update_public(model: LlrModel, r: float, action: str) -> float:
    """One observed action moves the public LLR by the matching jump.

    The result is clipped to [-R_CAP, R_CAP]; the experiment engine marks a
    run absorbed once a step puts |r| at the cap, even if later steps move
    it off.  A one-action ``walk``.
    """
    return float(walk(model, r, (is_g(action),))[1])
