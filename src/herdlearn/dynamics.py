"""Equilibrium decision rule and public-belief dynamics.

Each agent observes the action history (summarized by the public LLR r) and
a private LLR, and takes the action favoured by their sum.  Observing an
action then moves the public LLR by a jump that depends only on which action
was taken and on r.  This module holds the decision rule and the one
transition kernel, ``step``, that the experiment engine, the observer and
the consensus path all use; the jump functions and the one-step update are
views of it.
"""

from __future__ import annotations

import numpy as np

from .beliefs import ACTIONS, BAD, GOOD, ArrayLike, InvalidParameterError, LlrModel

__all__ = [
    "R_CAP",
    "agent_action",
    "step",
    "jump_g",
    "jump_b",
    "update_public",
]

# Saturation cap on |r|: beyond this the jumps underflow to zero in double
# precision, so further updates would only accumulate float drift.
R_CAP = 1.0e6


def agent_action(r: float, llr: float) -> str:
    """The equilibrium action at public LLR ``r`` with private LLR ``llr``.

    Returns "g" iff llr >= -r; exact indifference (a probability-zero event
    under continuous signal laws) resolves to "g".
    """
    return GOOD if llr >= -r else BAD


def step(model: LlrModel, r: ArrayLike, took_g, with_noise: bool) -> tuple:
    """One observed action at public LLR ``r``: the transition kernel.

    ``r`` is a float or an array, ``took_g`` a bool or a boolean array
    marking G actions.  An agent plays G iff llr >= -r, so the action's
    log-probability under a law F is the right tail of F at -r after G and
    the left tail after B; each law's tail is evaluated once, on that side.
    Returns ``(r_next, lt_g, lt_b, lt_0)``: the public LLR moved by the
    jump ``lt_g - lt_b`` and clipped to [-R_CAP, R_CAP], and the log-
    probabilities under F_g, F_b and (only ``with_noise``, else None) F_0.
    """
    sign = 1.0 - 2.0 * took_g  # -1 selects the right tail, +1 the left
    neg_r = -r
    lt_g = model.cdf_g.log_side(neg_r, sign)
    lt_b = model.cdf_b.log_side(neg_r, sign)
    lt_0 = model.cdf_0.log_side(neg_r, sign) if with_noise else None
    r_next = np.minimum(np.maximum(r + (lt_g - lt_b), -R_CAP), R_CAP)
    return r_next, lt_g, lt_b, lt_0


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
    runs that touch the cap as absorbed.
    """
    return float(step(model, r, is_g(action), False)[0])
