"""Equilibrium decision rule and public-belief dynamics.

Each agent observes the action history (summarized by the public LLR r) and
a private LLR, and takes the action favoured by their sum.  Observing an
action then moves the public LLR by a jump that depends only on which action
was taken and on r.  This module holds the decision rule, the one
transition kernel, ``step``, and its scalar fold, ``walk``, which moves r
through a whole action history one action at a time in Python floats.  The
experiment engine (through a ``Workspace``, which lets a step reuse its
buffers) and the observer's likelihood columns use ``step`` on arrays; the
observer's public LLR and the consensus path use ``walk``, which
tests pin bit for bit to folding ``step``.  The jump functions and the
one-step update are views of these two.
"""

from __future__ import annotations

from typing import Optional, Sequence

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


def step(
    model: LlrModel,
    r: ArrayLike,
    took_g,
    with_noise: bool,
    work: Optional["Workspace"] = None,
) -> tuple:
    """One observed action at public LLR ``r``: the transition kernel.

    ``r`` is a float or a 1-d array, ``took_g`` a bool or a boolean array
    of r's length marking G actions.  An agent plays G iff llr >= -r, so the action's
    log-probability under a law F is the right tail of F at -r after G and
    the left tail after B; each law's tail is evaluated once, on that side.
    The noise law of a ``MixtureSpec`` model mixes the informative pair, so
    its tail is ``MixtureCdf.log_mix`` of the two tails just evaluated: the
    operations ``MixtureCdf.log_side`` makes, without evaluating them again.
    Returns ``(r_next, lt_g, lt_b, lt_0)``: the public LLR moved by the
    jump ``lt_g - lt_b`` and clipped to [-R_CAP, R_CAP], and the log-
    probabilities under F_g, F_b and (only ``with_noise``, else None) F_0,
    as numpy floats for a float ``r`` and a bool ``took_g``.

    ``work``, a ``Workspace`` for this model, r's length and
    ``with_noise``, makes the call allocate almost nothing: ``r`` (an
    array) is then moved in place and returned as ``r_next``, and the
    tails are the rows of ``work.tails``, valid until its next use.
    Without it the call runs on a temporary workspace over a copy of ``r``,
    which it leaves as it was.
    """
    if work is None:  # a temporary workspace, over a copy of r
        copy = np.array(r, dtype=float)
        work = Workspace(model, copy.size, with_noise)
        out = step(model, copy.reshape(-1), took_g, with_noise, work)
        return out if copy.ndim else tuple(x if x is None else x[0] for x in out)
    sign = np.where(took_g, -1.0, 1.0)  # -1 selects the right tail, +1 the left
    neg_r, stack, scratch = work.neg_r, work.stack, work.scratch
    lt_g, lt_b, lt_0 = work.rows
    np.negative(r, out=neg_r)
    # NormalCdf.log_side's operations, once for every stacked law.
    np.subtract(neg_r, work.means, out=stack)
    np.divide(stack, work.sds, out=stack)
    np.multiply(stack, sign, out=stack)
    log_ndtr(stack, out=stack)
    if lt_0 is not None and len(stack) == 2:  # F_0 mixes the pair
        model.cdf_0.log_mix(lt_g, lt_b, lt_0, scratch)
    np.subtract(lt_g, lt_b, out=scratch)
    np.add(r, scratch, out=r)
    np.maximum(r, -R_CAP, out=r)
    np.minimum(r, R_CAP, out=r)
    return r, lt_g, lt_b, lt_0


class Workspace:
    """The buffers of ``step(model, r, took_g, with_noise, work)`` on arrays
    of length ``n``.

    ``tails`` holds one row per law: F_g, F_b and (only ``with_noise``)
    F_0.  The rows of the Normal laws among them form ``stack``, whose
    ``NormalCdf.log_side`` runs as one call per operation on every row at
    once.  ``means`` and ``sds`` hold each of those laws' mean and sd as a
    full row of length ``n``, the shape of ``stack``: dividing by full rows
    took about half the time of dividing by a column broadcast down them.
    """

    def __init__(self, model: LlrModel, n: int, with_noise: bool):
        laws = 3 if with_noise else 2
        self.means, self.sds = (np.repeat(col[:laws], n, axis=1) for col in model.normal_stack)
        self.tails = np.empty((laws, n))
        self.rows = tuple(self.tails) if with_noise else (*self.tails, None)
        self.stack = self.tails[: len(self.means)]
        self.neg_r = np.empty(n)
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

    The tails call ``log_ndtr`` directly, not ``NormalCdf.log_side``, with
    each law's mean m and sd s in locals.  ``log_side``'s argument
    ``(-r - m) / s * sign`` is ``(r + m) / s`` after a G (sign -1) and its
    negation after a B, bit for bit, because negation is exact under
    round-to-nearest.  Only the sign of a zero argument can differ (at
    r = -m), and ``log_ndtr(+0.0) == log_ndtr(-0.0)``.
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

    Computed entirely from log tails so that |r| up to ~1e3 stays accurate.
    Always nonnegative: a G action can only push the public belief toward G.
    """
    _, lt_g, lt_b, _ = step(model, r, True, False)
    return lt_g - lt_b


def jump_b(model: LlrModel, r: ArrayLike) -> ArrayLike:
    """Public-LLR jump caused by observing a B action; always nonpositive."""
    _, lt_g, lt_b, _ = step(model, r, False, False)
    return lt_g - lt_b


def is_g(action: str) -> bool:
    """True for a G action, False for B; anything else is an error."""
    if action not in ACTIONS:
        raise InvalidParameterError(f"action must be one of {ACTIONS}, got {action!r}")
    return action == GOOD


def update_public(model: LlrModel, r: float, action: str) -> float:
    """One observed action moves the public LLR by the matching jump.

    The result is clipped to [-R_CAP, R_CAP]; the experiment engine marks
    runs that touch the cap as absorbed.  A one-action ``walk``.
    """
    return float(walk(model, r, (is_g(action),))[1])
