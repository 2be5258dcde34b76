"""Deterministic analysis of unbroken-agreement paths.

When every agent takes action G, the public LLR follows the deterministic
iteration r -> r + jump_g(r).  Whether pure noise can sustain such a run
forever is governed by sums of tail probabilities evaluated along that
path: the run has positive probability iff the matching sum converges.
This module computes the path, certifies divergence or convergence of the
sums at finite horizon, and turns certified sums into two-sided bounds on
the probability of immediate agreement.

Verdicts are numerical certificates, not proofs of asymptotics: Diverges
means the partial sum crossed a threshold that drives the companion
product below every tolerance used in this package, or that the tail
values dominate the path increments (whose sum telescopes to the
unbounded path limit); Converges means the remainder beyond the horizon
is certifiably below tolerance.  Anything else is reported Inconclusive
with the partial sums attached.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beliefs import InvalidParameterError, LlrModel
from .dynamics import R_CAP, step

__all__ = [
    "ConsensusPath",
    "SumVerdict",
    "DivergenceResult",
    "AgreementEstimate",
    "phi",
    "consensus_path",
    "divergence_test",
    "tail_sum_upper_bound",
    "immediate_agreement_prob",
]

DIVERGENCE_THRESHOLD = 20.0  # implied product < e^-20, below every tolerance used here
CONVERGENCE_INCREMENT_CUTOFF = 1e-15
CONVERGENCE_TAIL_TOL = 1e-9


def phi(model: LlrModel, r: float) -> float:
    """One step of the public LLR under an unbroken run of G actions,
    clipped to [-R_CAP, R_CAP] like every path value."""
    return float(step(model, r, True, False)[0])


@dataclass(frozen=True)
class ConsensusPath:
    """The deterministic public-LLR sequence under all-G actions.

    values[0] is the initial LLR and values[t] = phi(values[t-1]).  When
    the saturation cap is reached the remaining entries repeat the capped
    value and ``absorbed`` is set.
    """

    initial_r: float
    values: np.ndarray
    absorbed: bool = False

    def mirrored(self) -> "ConsensusPath":
        """The all-B path; for a zero initial LLR it is the exact negation."""
        return ConsensusPath(
            initial_r=-self.initial_r, values=-self.values, absorbed=self.absorbed
        )


def consensus_path(
    model: LlrModel, initial_r: float = 0.0, horizon: int = 1000
) -> ConsensusPath:
    if horizon < 1:
        raise InvalidParameterError(f"horizon must be >= 1, got {horizon}")
    if not math.isfinite(initial_r):
        raise InvalidParameterError("initial_r must be finite")
    values = np.empty(horizon, dtype=float)
    r = float(initial_r)
    absorbed = False
    for t in range(horizon):
        values[t] = r
        r = step(model, r, True, False)[0]
        if abs(r) >= R_CAP:
            values[t + 1 :] = r
            absorbed = True
            break
    return ConsensusPath(initial_r=initial_r, values=values, absorbed=absorbed)


class SumVerdict(str, enum.Enum):
    DIVERGES = "Diverges"
    CONVERGES = "Converges"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DivergenceResult:
    """Finite-horizon certificate for one tail sum along a consensus path.

    partial_sums[t] is the sum of the first t+1 tail values.  tail_bound
    is a certified upper bound on the remainder beyond the path horizon
    (inf when no certificate is available); sum_lower_bound is a certified
    lower bound on the full infinite sum (inf when the tail values
    provably dominate the unbounded path increments).
    """

    regime: str
    side: str
    partial_sums: np.ndarray
    verdict: SumVerdict
    tail_bound: float
    sum_lower_bound: float
    reason: str


def _log_tail_values(
    model: LlrModel, regime: str, side: str, rs: np.ndarray
) -> np.ndarray:
    """log h(r) along the path: h = F(-r) on the left, 1 - F(r) on the right."""
    return np.asarray(model.log_tail(regime, side, rs), dtype=float)


def _log_jump_lower_bound(model: LlrModel, rs: np.ndarray) -> np.ndarray:
    """log of F_b(-r) - F_g(-r), an algebraic lower bound on jump_g(r).

    From jump_g = log(1-u) - log(1-v) with u = F_g(-r) <= v = F_b(-r):
    log((1-u)/(1-v)) = log(1 + (v-u)/(1-v)) >= (v-u)/(1-u) >= v-u.
    Where the two tails are numerically indistinguishable the bound is
    reported as -inf, which disables the certificate rather than faking it.
    """
    lv = np.asarray(model.log_tail("b", "left", rs), dtype=float)
    lu = np.asarray(model.log_tail("g", "left", rs), dtype=float)
    diff = lu - lv
    with np.errstate(invalid="ignore", divide="ignore"):
        out = lv + np.log1p(-np.exp(diff))
    return np.where(diff >= -1e-15, -np.inf, out)


def tail_sum_upper_bound(
    model: LlrModel,
    regime: str,
    side: str,
    rho: float,
    step: float = 0.01,
    max_width: float = 2000.0,
) -> float:
    """Certified upper bound on sum_{t>=1} h(s_t) for the path s_1 = rho,
    s_{t+1} = phi(s_t).

    Comparison with the integral of h/jump: on [s_t, s_{t+1}] the jump is
    at most jump(s_t) (requires ``model.jump_decreasing``) and h is at
    least h(s_{t+1}), so each integral cell is at least the next summand;
    hence the sum is at most h(rho) + integral_rho^inf h(r)/jump(r) dr.
    The integral is over-estimated cell by cell: on [r_k, r_k + step] the
    numerator is at most h(r_k) (tails shrink along the path) and the
    denominator is at least jump_lb(r_k + step) (the difference of the two
    informative left tails is decreasing wherever the left density ratio
    is below one).  A geometric end slack is added from the last observed
    decay ratio once the integrand is negligible against the accumulated
    bound (below 1e-20 of it), so even a large error in that premise
    cannot move the reported bound.  Returns inf when no certificate is
    available.
    """
    if not model.jump_decreasing:
        return math.inf
    if not math.isfinite(rho):
        return math.inf
    h_rho = math.exp(float(_log_tail_values(model, regime, side, np.array([rho]))[0]))

    chunk = 4096
    total = 0.0
    offset = 0
    max_steps = int(max_width / step)
    f_last: Optional[float] = None
    slack = math.inf
    while offset < max_steps:
        ks = np.arange(offset, min(offset + chunk, max_steps))
        rs = rho + step * ks
        logf = _log_tail_values(model, regime, side, rs) - _log_jump_lower_bound(
            model, rs + step
        )
        with np.errstate(over="ignore"):
            f = np.exp(logf)
        if np.any(np.isnan(f)) or (f.size and np.isinf(f[0]) and offset == 0):
            return math.inf
        if np.any(np.isinf(f)):
            return math.inf
        # Stop once contributions are negligible against what is accumulated.
        floor = max(total, h_rho, 1e-250) * 1e-20
        below = np.nonzero(f <= floor)[0]
        if below.size:
            cut = int(below[0])
            total += step * float(f[: cut + 1].sum())
            last = float(f[cut])
            prev = float(f[cut - 1]) if cut >= 1 else (f_last if f_last else last)
            if last <= 0.0:
                slack = 1e-300  # underflowed: remainder below double-precision floor
            elif last < prev:
                ratio = last / prev
                slack = step * last / (1.0 - ratio)
            break
        total += step * float(f.sum())
        if not math.isfinite(total):
            return math.inf
        f_last = float(f[-1]) if f.size else f_last
        offset += chunk
    else:
        return math.inf

    return h_rho + total + slack


def divergence_test(
    model: LlrModel,
    path: ConsensusPath,
    regime: str,
    side: str,
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
    increment_cutoff: float = CONVERGENCE_INCREMENT_CUTOFF,
    tail_tol: float = CONVERGENCE_TAIL_TOL,
) -> DivergenceResult:
    """Certify the behaviour of the tail sum for one regime/side pair.

    Diverges: the partial sum crosses ``divergence_threshold`` while its
    increments are still above ``increment_cutoff``, or (for the
    informative-pair sums whose values dominate the path increments) the
    telescoping argument certifies an infinite sum.  Converges: increments
    fell below ``increment_cutoff`` and the remainder is certified below
    ``tail_tol``.  Otherwise Inconclusive.
    """
    rs = path.values
    if rs.size == 0:
        raise InvalidParameterError("path must be non-empty")
    log_h = _log_tail_values(model, regime, side, rs)
    hs = np.exp(log_h)
    partial = np.cumsum(hs)

    # Threshold crossing with non-vanishing increments.
    crossing = np.nonzero(partial >= divergence_threshold)[0]
    crossed = crossing.size > 0 and hs[crossing[0]] > increment_cutoff

    # Structural domination: the tail values of the informative pair bound
    # the path increments from below (up to the bounded factor 1 - F_b(-r_1)),
    # and the increments sum to the path's unbounded limit.
    structural = False
    if (regime, side) in (("b", "left"), ("g", "right")):
        increments = np.diff(rs)
        # 1 - F_b(-r_1) must be certifiably positive; evaluate it as a
        # survival value so it cannot round to zero.
        log_factor = float(model.log_tail("b", "right", -float(rs[0])))
        log_v = np.asarray(model.log_tail("b", "left", rs), dtype=float)
        # The right-tail variant relies on the symmetric informative pair;
        # accept only if the values match the left-tail ones numerically.
        symmetric_ok = bool(np.all(np.abs(log_h - log_v) < 1e-6))
        increments_ok = path.absorbed or (
            increments.size > 0 and float(increments.min()) > 0.0
        )
        structural = symmetric_ok and increments_ok and math.isfinite(log_factor)

    if crossed or structural:
        reason = []
        if crossed:
            reason.append(
                f"partial sum reached {partial[crossing[0]]:.3f} at t={crossing[0] + 1}"
            )
        if structural:
            reason.append(
                "tail values dominate the path increments, whose sum telescopes "
                "to the unbounded path limit"
            )
        return DivergenceResult(
            regime=regime,
            side=side,
            partial_sums=partial,
            verdict=SumVerdict.DIVERGES,
            tail_bound=math.inf,
            sum_lower_bound=math.inf if structural else float(partial[-1]),
            reason="; ".join(reason),
        )

    if hs[-1] < increment_cutoff and not path.absorbed:
        rho = phi(model, float(rs[-1]))
        bound = tail_sum_upper_bound(model, regime, side, rho)
        if bound < tail_tol:
            return DivergenceResult(
                regime=regime,
                side=side,
                partial_sums=partial,
                verdict=SumVerdict.CONVERGES,
                tail_bound=bound,
                sum_lower_bound=float(partial[-1]),
                reason=f"remainder beyond horizon certified <= {bound:.3e}",
            )
        return DivergenceResult(
            regime=regime,
            side=side,
            partial_sums=partial,
            verdict=SumVerdict.INCONCLUSIVE,
            tail_bound=bound,
            sum_lower_bound=float(partial[-1]),
            reason="increments vanished but no tail certificate below tolerance",
        )

    return DivergenceResult(
        regime=regime,
        side=side,
        partial_sums=partial,
        verdict=SumVerdict.INCONCLUSIVE,
        tail_bound=math.inf,
        sum_lower_bound=float(partial[-1]),
        reason="partial sum below threshold with non-vanishing increments",
    )


@dataclass(frozen=True)
class AgreementEstimate:
    """Two-sided bracket on the probability that every agent plays G.

    truncated_product is the product of the first ``horizon`` factors; it
    is an upper bound on the infinite product because every remaining
    factor is at most one.  ``lower`` corrects it downward by a certified
    bound on the neglected factors.  ``diverged`` is set when the
    companion sum certifies the infinite product is zero to tolerance.
    """

    lower: float
    upper: float
    horizon: int
    diverged: bool
    truncated_product: float
    tail_sum_bound: float

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
    path = consensus_path(model, initial_r, horizon)
    rs = path.values
    log_factors = np.asarray(model.log_tail(regime, "right", -rs), dtype=float)
    log_trunc = float(log_factors.sum())
    trunc = math.exp(log_trunc)

    div = divergence_test(model, path, regime, "left")
    if div.verdict is SumVerdict.DIVERGES:
        structural = math.isinf(div.sum_lower_bound)
        return AgreementEstimate(
            lower=0.0,
            upper=0.0 if structural else trunc,
            horizon=horizon,
            diverged=True,
            truncated_product=trunc,
            tail_sum_bound=math.inf,
        )

    bound = div.tail_bound
    if not math.isfinite(bound) and not path.absorbed:
        rho = phi(model, float(rs[-1]))
        bound = tail_sum_upper_bound(model, regime, "left", rho)
    if math.isfinite(bound) and not path.absorbed:
        rho = phi(model, float(rs[-1]))
        # -log(1-x) <= x / (1-x), and F(-r) only shrinks along the path.
        sf_rho = math.exp(float(model.log_tail(regime, "right", -rho)))
        correction = bound / sf_rho if sf_rho > 0 else math.inf
        lower = math.exp(log_trunc - correction) if math.isfinite(correction) else 0.0
    else:
        lower = 0.0
    return AgreementEstimate(
        lower=lower,
        upper=trunc,
        horizon=horizon,
        diverged=False,
        truncated_product=trunc,
        tail_sum_bound=bound,
    )
