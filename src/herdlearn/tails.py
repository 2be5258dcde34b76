"""Relative tail thickness of the uninformative signal law.

Whether an outside observer can ever learn that the source is uninformative
comes down to how the tails of the noise law compare with the tails of the
informative laws.  This module evaluates the four log tail-ratios, applies
the closed-form variance rule for the Gaussian family, and offers a
finite-grid heuristic classifier for arbitrary models.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beliefs import (
    MAX_FLOATS,
    ArrayLike,
    GaussianSpec,
    InvalidParameterError,
    LlrModel,
    MixtureSpec,
    _equal_variance,
)

__all__ = [
    "Verdict",
    "TailClassification",
    "tail_ratios",
    "classify_gaussian",
    "classify_mixture",
    "classify_empirical",
]

# Trend threshold for the heuristic classifier: least-squares slope of a
# log-ratio (per unit x) smaller than this in magnitude counts as flat.
TREND_SLOPE_TOL = 1e-3


class Verdict(str, enum.Enum):
    FATTER = "Fatter"
    THINNER = "Thinner"
    NEITHER = "Neither"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class TailClassification:
    """Outcome of a tail comparison.

    evidence, the finite grid behind a heuristic verdict, is a (n, 5)
    array with columns x, log L_b, log R_g, log L_g, log R_b; a closed-form
    rule reads only the spec and has none.  epsilon_estimate, when
    present, is a lower bound on the constant in the fatter-tails
    definition (Fatter) or on the constant whose reciprocal bounds the
    ratio (Thinner).
    """

    verdict: Verdict
    evidence: Optional[np.ndarray] = None
    epsilon_estimate: Optional[float] = None

    EVIDENCE_COLUMNS = ("x", "log_L_b", "log_R_g", "log_L_g", "log_R_b")


def tail_ratios(model: LlrModel, x: ArrayLike) -> tuple:
    """(log L_g, log L_b, log R_g, log R_b) at x >= 0, as arrays of x's
    shape.

    L_t(x) = F_0(-x) / F_t(-x) and R_t(x) = (1-F_0(x)) / (1-F_t(x)); each
    is a difference of stable log tails, finite for all finite x because
    the three laws are mutually absolutely continuous.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise InvalidParameterError("tail ratios are defined for x >= 0")
    left_0 = np.asarray(model.cdf_0.log_cdf(-x))
    right_0 = np.asarray(model.cdf_0.log_sf(x))
    log_l_g = left_0 - np.asarray(model.cdf_g.log_cdf(-x))
    log_l_b = left_0 - np.asarray(model.cdf_b.log_cdf(-x))
    log_r_g = right_0 - np.asarray(model.cdf_g.log_sf(x))
    log_r_b = right_0 - np.asarray(model.cdf_b.log_sf(x))
    return (log_l_g, log_l_b, log_r_g, log_r_b)


def _evidence_grid(model: LlrModel, x_max: float, n_grid: int) -> np.ndarray:
    """Tail ratios on a geometric grid from 1 up to ``x_max``."""
    if not 16 <= n_grid <= MAX_FLOATS // 5:  # the evidence holds 5 floats a point
        bound = ">= 16" if n_grid < 16 else f"<= {MAX_FLOATS // 5}"
        raise InvalidParameterError(f"n_grid must be {bound}, got {n_grid}")
    if not (math.isfinite(x_max) and x_max > 1.0):
        raise InvalidParameterError(f"x_max must be finite and > 1, got {x_max}")
    xs = np.geomspace(1.0, x_max, n_grid)
    # Far enough out both log tails of a ratio underflow to -inf, and their
    # difference is NaN: such a grid holds no evidence.
    with np.errstate(invalid="ignore"):
        log_l_g, log_l_b, log_r_g, log_r_b = tail_ratios(model, xs)
    evidence = np.column_stack([xs, log_l_b, log_r_g, log_l_g, log_r_b])
    finite = np.isfinite(evidence).all(axis=1)
    if not finite.all():
        raise InvalidParameterError(
            f"x_max={x_max!r} is too large: the log tail ratios are not finite "
            f"from x={float(xs[~finite][0])!r} on"
        )
    return evidence


def classify_gaussian(spec: GaussianSpec) -> TailClassification:
    """Closed-form rule for the Gaussian family.

    The noise law has fatter tails iff tau > sigma and thinner iff
    tau < sigma.  With equal variances (tau within 1e-12 of sigma, at any
    scale) the three LLR laws share one sd, so each log tail ratio is
    asymptotically linear in x, with the sign of a difference of means:
    log L_g falls iff m0 > 1, log R_b falls iff m0 < -1, and log L_b or
    log R_g falls at every m0.  By the definitions this module uses
    (Fatter needs L_b and R_g bounded below, Thinner needs L_g or R_b to
    tend to 0), equal variances give thinner iff |m0| > 1 and neither iff
    |m0| < 1; ``GaussianSpec`` rejects |m0| = 1.  This verdict is exact.
    """
    if _equal_variance(spec.sigma, spec.tau):
        verdict = Verdict.THINNER if abs(spec.m0) > 1.0 else Verdict.NEITHER
    elif spec.tau > spec.sigma:
        verdict = Verdict.FATTER
    else:
        verdict = Verdict.THINNER
    return TailClassification(verdict)


def classify_mixture(spec: MixtureSpec) -> TailClassification:
    """Closed-form rule for mixture noise: always fatter.

    With F_0 = alpha*F_g + (1-alpha)*F_b, dropping one term gives
    L_b >= 1-alpha and R_g >= alpha pointwise, so the fatter-tails
    condition holds with epsilon = min(alpha, 1-alpha) exactly.
    """
    return TailClassification(
        Verdict.FATTER, epsilon_estimate=min(spec.alpha, 1.0 - spec.alpha)
    )


def _slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares slope of ys against xs.

    The centred values are scaled by powers of two into [-1, 1] before the
    dot products, which then cannot overflow, and the scale is undone on
    the ratio; power-of-two scaling is exact, so the slope is the unscaled
    formula's wherever that one does not overflow.
    """
    x_c = xs - xs.mean()
    y_c = ys - ys.mean()
    ex = int(np.frexp(np.abs(x_c).max())[1])
    ey = int(np.frexp(np.abs(y_c).max())[1])
    x_s = np.ldexp(x_c, -ex)
    return float(np.ldexp(np.dot(x_s, np.ldexp(y_c, -ey)) / np.dot(x_s, x_s), ey - ex))


def classify_empirical(
    model: LlrModel, x_max: float, n_grid: int = 64
) -> TailClassification:
    """Finite-grid heuristic: trend of the log tail-ratios on the top half.

    Fatter needs both log L_b and log R_g non-decreasing (slope above
    -TREND_SLOPE_TOL) on the top half of a geometric grid; thinner needs
    log L_g or log R_b decisively decreasing.  This reports finite-grid
    evidence only -- it cannot certify an asymptotic statement, so anything
    ambiguous comes back Undetermined with the grid attached.  So does a
    grid whose top half starts short of the informative mean plus one sd
    (it sees the laws' bodies, not their tails), and one where rounding of
    the log tails could move a slope across -TREND_SLOPE_TOL (the tails are
    so large that their differences are lost, as at sigma = 1e150).
    """
    evidence = _evidence_grid(model, x_max, n_grid)
    top = evidence[n_grid // 2 :]
    xs = top[:, 0]
    slopes = [_slope(xs, top[:, j]) for j in range(1, 5)]
    slope_l_b, slope_r_g, slope_l_g, slope_r_b = slopes
    # Each ratio is a difference of two log tails, and its rounding is taken
    # as 8 ulps of the largest tail on the top half, at the grid's end (2.2
    # at most measured, for sigma = tau from 1e3 to 1e7).  Ratios off by that
    # much move a least-squares slope by at most ``tilt``: the slope of
    # errors of that size signed as x's deviation from its mean.
    end = float(xs[-1])
    size = max(
        -float(tail) for law in (model.cdf_0, model.cdf_g, model.cdf_b)
        for tail in (law.log_cdf(-end), law.log_sf(end))
    )
    tilt = 8.0 * np.finfo(float).eps * size * _slope(xs, np.sign(xs - xs.mean()))
    if xs[0] < model.cdf_g.mean + model.cdf_g.sd or any(
        abs(s + TREND_SLOPE_TOL) <= tilt for s in slopes
    ):
        return TailClassification(Verdict.UNDETERMINED, evidence)

    fatter = slope_l_b >= -TREND_SLOPE_TOL and slope_r_g >= -TREND_SLOPE_TOL
    thinner = slope_l_g <= -TREND_SLOPE_TOL or slope_r_b <= -TREND_SLOPE_TOL
    if fatter and not thinner:
        try:
            eps = math.exp(float(np.minimum(top[:, 1], top[:, 2]).min()))
        except OverflowError:  # both ratios beyond exp's range on the top half
            eps = math.inf
        return TailClassification(Verdict.FATTER, evidence, epsilon_estimate=eps)
    if thinner and not fatter:
        bounded = []
        if slope_l_g <= -TREND_SLOPE_TOL:
            bounded.append(float(top[:, 3].max()))
        if slope_r_b <= -TREND_SLOPE_TOL:
            bounded.append(float(top[:, 4].max()))
        # Largest witness on the grid; saturates to inf when the bounded
        # ratio has already vanished there.
        with np.errstate(over="ignore"):
            eps = float(np.exp(-max(bounded)))
        return TailClassification(Verdict.THINNER, evidence, epsilon_estimate=eps)
    return TailClassification(Verdict.UNDETERMINED, evidence)
