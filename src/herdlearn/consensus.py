"""Deterministic analysis of unbroken-agreement paths.

When every agent takes action G, the public LLR follows the deterministic
iteration r -> r + jump_g(r), computed as ``dynamics.walk`` (the scalar
fold of the transition kernel ``step``) over G actions.  Whether a law F
can sustain such a run forever is governed by the left sum of F(-r_t)
along that path: the run has positive probability iff the sum converges.
(A right-tail sum needs no code of its own: every informative pair is
N(m, s)/N(-m, s), so 1 - F_g(r) and F_b(-r) are the same bits.)
This module computes the path, certifies divergence or convergence of the
left sum at finite horizon, and turns certified sums into two-sided bounds
on the probability of immediate agreement.

Verdicts are numerical certificates, not proofs of asymptotics: Diverges
means the partial sum crossed a threshold that drives the companion
product below every tolerance used in this package, or that the tail
values dominate the path increments (whose sum telescopes to the
unbounded path limit); Converges means the remainder beyond the horizon
is certifiably below tolerance.  Anything else is reported Inconclusive
with the partial sums and the certified remainder bound attached.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beliefs import MAX_FLOATS, InvalidParameterError, LlrModel, _require
from .dynamics import R_CAP, WALK_BLOCK, walk

DIVERGENCE_THRESHOLD = 20.0  # implied product < e^-20, below every tolerance used here
CONVERGENCE_INCREMENT_CUTOFF = 1e-15
CONVERGENCE_TAIL_TOL = 1e-9
# Cell width and extent of the integral behind ``tail_sum_upper_bound``.
TAIL_BOUND_CELL = 0.01
TAIL_BOUND_WIDTH = 2000.0


@dataclass(frozen=True)
class ConsensusPath:
    """The deterministic public-LLR sequence under all-G actions.

    values[0] is the initial LLR and values[t] is the all-G step of
    values[t-1]: the public LLR after one more G action, clipped to
    [-R_CAP, R_CAP].  ``next_r`` is the all-G step of the last value, the
    path's continuation, which the certificates beyond the horizon start
    from.  When the saturation cap is reached the remaining entries, and
    ``next_r``, repeat the capped value and ``absorbed`` is set.
    """

    values: np.ndarray
    next_r: float
    absorbed: bool = False


def consensus_path(
    model: LlrModel, initial_r: float = 0.0, horizon: int = 1000
) -> ConsensusPath:
    """``walk`` over ``horizon`` G actions, one block at a time, so that a
    path stops walking once it reaches the cap.

    Raises ``InvalidParameterError`` when ``initial_r`` is so extreme that a
    G action has probability 0 under both informative laws, which leaves the
    path undefined.
    """
    if not 1 <= horizon < MAX_FLOATS:  # the path holds horizon + 1 values
        raise InvalidParameterError(f"horizon must lie in [1, {MAX_FLOATS}), got {horizon}")
    _require({"initial_r": initial_r}, finite=("initial_r",))
    walked = np.empty(horizon + 1)  # the values, then next_r
    walked[0] = r = float(initial_r)
    absorbed = False
    for lo in range(0, horizon, WALK_BLOCK):
        hi = min(lo + WALK_BLOCK, horizon)
        walked[lo : hi + 1] = walk(model, r, [True] * (hi - lo))
        r = float(walked[hi])
        # A G action never lowers r, so only the first can be impossible; the
        # NaN it leaves stays NaN to the block's end.
        if math.isnan(r):
            raise InvalidParameterError(
                f"no all-G path from initial_r={initial_r!r}: a G action there has "
                "probability 0 under both informative laws"
            )
        capped = np.flatnonzero(np.abs(walked[lo + 1 : hi + 1]) >= R_CAP)
        if capped.size:
            r = walked[lo + 1 + capped[0]]
            walked[lo + 1 + capped[0] :] = r
            absorbed = True
            break
    return ConsensusPath(values=walked[:-1], next_r=float(r), absorbed=absorbed)


class SumVerdict(str, enum.Enum):
    DIVERGES = "Diverges"
    CONVERGES = "Converges"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DivergenceResult:
    """Finite-horizon certificate for one left sum along a consensus path.

    partial_sums[t] is the sum of the first t+1 tail values.  tail_bound
    is a certified upper bound on the remainder beyond the path horizon
    (inf when the sum diverges, the path is absorbed, or no certificate is
    available); sum_lower_bound is a certified lower bound on the full
    infinite sum (inf when the tail values provably dominate the unbounded
    path increments).
    """

    partial_sums: np.ndarray
    verdict: SumVerdict
    tail_bound: float
    sum_lower_bound: float


def _log_jump_lower_bound(model: LlrModel, rs: np.ndarray) -> np.ndarray:
    """log of F_b(-r) - F_g(-r), an algebraic lower bound on jump_g(r).

    From jump_g = log(1-u) - log(1-v) with u = F_g(-r) <= v = F_b(-r):
    log((1-u)/(1-v)) = log(1 + (v-u)/(1-v)) >= (v-u)/(1-u) >= v-u.
    Where the two tails are numerically indistinguishable the bound is
    reported as -inf, which disables the certificate rather than faking it.
    """
    lv = model.cdf_b.log_cdf(-rs)
    lu = model.cdf_g.log_cdf(-rs)
    diff = lu - lv
    with np.errstate(invalid="ignore", divide="ignore"):
        out = lv + np.log1p(-np.exp(diff))
    return np.where(diff >= -1e-15, -np.inf, out)


@np.errstate(invalid="ignore", over="ignore")  # NaN or inf terms return inf
def tail_sum_upper_bound(model: LlrModel, regime: str, rho: float) -> float:
    """Certified upper bound on sum_{t>=1} h(s_t) for the path s_1 = rho,
    s_{t+1} = the all-G step of s_t, where h(r) = F(-r) for the regime's
    law F.

    Comparison with the integral of h/jump: on [s_t, s_{t+1}] the jump is
    at most jump(s_t), since every model's informative pair is Gaussian and
    the inverse Mills ratio is strictly decreasing, and h is at least
    h(s_{t+1}); so each integral cell is at least the next summand, and the
    sum is at most h(rho) + integral_rho^inf h(r)/jump(r) dr.
    The integral, cut at ``rho + TAIL_BOUND_WIDTH``, is over-estimated cell
    by cell: on [r_k, r_k + TAIL_BOUND_CELL] the numerator is at most h(r_k)
    (tails shrink along the path) and the denominator is at least
    jump_lb(r_k + TAIL_BOUND_CELL) (the difference of the two
    informative left tails is decreasing wherever the left density ratio
    is below one).  A geometric end slack is added from the last observed
    decay ratio (the first two cells' when the first is already negligible)
    once the integrand is negligible against the accumulated bound (below
    1e-20 of it), so even a large error in that premise cannot move the
    reported bound.  Returns inf when no certificate is available.
    """
    if not math.isfinite(rho):
        return math.inf
    cdf = model.cdf_for(regime)
    h_rho = math.exp(float(cdf.log_cdf(np.array([-rho]))[0]))

    cell = TAIL_BOUND_CELL
    chunk = 4096
    total = 0.0
    offset = 0
    max_steps = int(TAIL_BOUND_WIDTH / cell)
    f_last: Optional[float] = None
    slack = math.inf
    while offset < max_steps:
        ks = np.arange(offset, min(offset + chunk, max_steps))
        rs = rho + cell * ks
        log_f = cdf.log_cdf(-rs) - _log_jump_lower_bound(model, rs + cell)
        f = np.exp(log_f)
        if np.any(np.isnan(f)) or np.any(np.isinf(f)):
            return math.inf
        # Stop once contributions are negligible against what is accumulated.
        floor = max(total, h_rho, 1e-250) * 1e-20
        below = np.nonzero(f <= floor)[0]
        if below.size:
            cut = int(below[0])
            total += cell * float(f[: cut + 1].sum())
            last = float(f[cut])
            prev = float(f[cut - 1]) if cut >= 1 else f_last
            # With no earlier cell, the decay of the first two, from their
            # logs: both may be subnormal and round to one value.
            ratio = last / prev if prev else math.exp(log_f[1] - log_f[0])
            if last <= 0.0:
                slack = 1e-300  # underflowed: remainder below double-precision floor
            elif ratio < 1.0:
                slack = cell * last / (1.0 - ratio)
            break
        total += cell * float(f.sum())
        if not math.isfinite(total):
            return math.inf
        f_last = float(f[-1])
        offset += chunk
    else:
        return math.inf

    # Below the floor of an underflowed remainder, the bound is that floor.
    return max(h_rho + total + slack, 1e-300)


def divergence_test(
    model: LlrModel, path: ConsensusPath, regime: str
) -> DivergenceResult:
    """Certify the behaviour of the left sum of F(-r_t) for one regime.

    Diverges: the partial sum crosses DIVERGENCE_THRESHOLD, or (for regime
    "b", whose values dominate the path increments) the telescoping
    argument certifies an infinite sum.  Otherwise, unless the path is
    absorbed, the remainder beyond the horizon gets its certified bound
    ``tail_sum_upper_bound(model, regime, path.next_r)``.  Converges:
    increments fell below CONVERGENCE_INCREMENT_CUTOFF and that bound is
    below CONVERGENCE_TAIL_TOL.  Otherwise Inconclusive.
    """
    rs = path.values
    if rs.size == 0:
        raise InvalidParameterError("path must be non-empty")
    hs = np.exp(model.cdf_for(regime).log_cdf(-rs))
    partial = np.cumsum(hs)

    # Any crossing, not only partial[-1]'s: a NaN term makes every later sum NaN.
    crossed = np.any(partial >= DIVERGENCE_THRESHOLD)

    # Structural domination: the tail values F_b(-r_t) bound the path
    # increments from below (up to the bounded factor 1 - F_b(-r_1)), and
    # the increments sum to the path's unbounded limit.
    structural = False
    if regime == "b":
        increments = np.diff(rs)
        # 1 - F_b(-r_1) must be certifiably positive; evaluate it as a
        # survival value so it cannot round to zero.
        log_factor = float(model.cdf_b.log_sf(-float(rs[0])))
        increments_ok = path.absorbed or (
            increments.size > 0 and float(increments.min()) > 0.0
        )
        structural = increments_ok and math.isfinite(log_factor)

    tail_bound = math.inf
    if crossed or structural:
        verdict = SumVerdict.DIVERGES
    else:
        if not path.absorbed:
            tail_bound = tail_sum_upper_bound(model, regime, path.next_r)
        converged = (
            hs[-1] < CONVERGENCE_INCREMENT_CUTOFF and tail_bound < CONVERGENCE_TAIL_TOL
        )
        verdict = SumVerdict.CONVERGES if converged else SumVerdict.INCONCLUSIVE
    sum_lower_bound = math.inf if structural else float(partial[-1])
    return DivergenceResult(partial, verdict, tail_bound, sum_lower_bound)


@dataclass(frozen=True)
class AgreementEstimate:
    """Two-sided bracket on the probability that every agent plays G.

    truncated_product is the product of the first ``horizon`` factors; it
    is an upper bound on the infinite product because every remaining
    factor is at most one.  ``lower`` corrects it downward by the
    certified remainder bound ``divergence.tail_bound``.  ``diverged`` is
    set when the companion sum certifies the infinite product is zero to
    tolerance; ``divergence`` is that sum's certificate along the
    consensus path.
    """

    lower: float
    upper: float
    diverged: bool
    truncated_product: float
    divergence: DivergenceResult

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise InvalidParameterError(
                f"invalid bracket [{self.lower}, {self.upper}]"
            )


def immediate_agreement_prob(
    model: LlrModel,
    regime: str,
    initial_r: float = 0.0,
    horizon: int = 1000,
) -> AgreementEstimate:
    """Bracket the probability of an unbroken all-G run under one regime.

    The event requires every private LLR to clear the moving threshold
    -r_t along the deterministic path, so its probability is the product
    of survival values 1 - F_regime(-r_t).
    """
    cdf = model.cdf_for(regime)
    path = consensus_path(model, initial_r, horizon)
    log_trunc = float(cdf.log_sf(-path.values).sum())
    trunc = math.exp(log_trunc)

    div = divergence_test(model, path, regime)
    diverged = div.verdict is SumVerdict.DIVERGES
    lower, upper = 0.0, trunc
    if diverged:
        # A structural divergence certifies the product is exactly zero.
        if math.isinf(div.sum_lower_bound):
            upper = 0.0
    elif math.isfinite(div.tail_bound):
        # -log(1-x) <= x / (1-x), and F(-r) only shrinks along the path.
        sf_rho = math.exp(float(cdf.log_sf(-path.next_r)))
        correction = div.tail_bound / sf_rho if sf_rho > 0 else math.inf
        if math.isfinite(correction):
            lower = math.exp(log_trunc - correction)
    return AgreementEstimate(
        lower=lower,
        upper=upper,
        diverged=diverged,
        truncated_product=trunc,
        divergence=div,
    )
