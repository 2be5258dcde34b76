"""Independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
library: extended-precision mpmath for normal tails, the full
four-hypothesis posterior for the decision rule, and a scalar trajectory
simulator and one-pass history likelihood that take every tail from
``log_cdf``/``log_sf`` directly, never through the transition kernel, and a
CSV writer that formats one cell at a time.  The simulator draws its own
stream, ``llr_stream``, by raw numpy calls on the spec's laws, never through
``LlrModel.sample``.  The exceptions are ``sample_one``, which drives
``LlrModel.sample`` one trajectory at a time for the tests of ``sample``
itself, ``step_at``, the kernel at one public LLR, and
``reference_update``, the observer's former per-action update, which folds
``step_at`` one action at a time: the block filter must equal it bit for
bit.  The observer's former posterior over four hypotheses,
``four_hypothesis_columns``, is an independent reference that
``posterior_columns`` must match to rounding.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from herdlearn import InvalidParameterError, beliefs
from herdlearn.beliefs import LlrModel
from herdlearn.dynamics import R_CAP, Workspace, is_g, step
from herdlearn.observer import ObserverState

mp.mp.dps = 50


def normal_log_cdf(x: float, mean: float = 0.0, sd: float = 1.0) -> float:
    z = (mp.mpf(x) - mp.mpf(mean)) / mp.mpf(sd)
    return float(mp.log(mp.ncdf(z)))


def normal_log_sf(x: float, mean: float = 0.0, sd: float = 1.0) -> float:
    z = (mp.mpf(x) - mp.mpf(mean)) / mp.mpf(sd)
    return float(mp.log(mp.ncdf(-z)))


def normal_cdf(x: float, mean: float = 0.0, sd: float = 1.0) -> float:
    return float(mp.ncdf((mp.mpf(x) - mp.mpf(mean)) / mp.mpf(sd)))


def mills_log_cdf_3term(x: float) -> float:
    """Asymptotic log Phi(-x) for large x via the three-term Mills series."""
    return float(
        -(x * x) / 2.0
        - math.log(x * math.sqrt(2.0 * math.pi))
        + math.log(1.0 - x**-2 + 3.0 * x**-4)
    )


def four_state_actions(
    r: np.ndarray,
    llr: np.ndarray,
    q: np.ndarray,
    info_mean: float,
    info_sd: float,
    noise_mean: np.ndarray,
    noise_sd: np.ndarray,
) -> np.ndarray:
    """Actions from the full posterior over (informativeness, payoff state).

    The history enters through the public LLR r (the log ratio of the two
    informative-hypothesis weights) and an arbitrary informativeness
    weight q; the uninformative hypotheses keep a uniform payoff-state
    split, which is why their density contributions cancel.  Returns a
    boolean array, True where the chosen action is G.
    """

    ld = np.longdouble

    def normal_pdf(x, mean, sd):
        z = (ld(x) - ld(mean)) / ld(sd)
        return np.exp(-z * z / 2) / (ld(sd) * np.sqrt(2 * ld(np.pi)))

    w_good = ld(q) / (1 + np.exp(-ld(r)))
    w_bad = ld(q) / (1 + np.exp(ld(r)))
    w_noise = (1 - ld(q)) / 2
    common = w_noise * normal_pdf(llr, noise_mean, noise_sd)
    score_good = w_good * normal_pdf(llr, info_mean, info_sd) + common
    score_bad = w_bad * normal_pdf(llr, -info_mean, info_sd) + common
    return score_good >= score_bad


def action_log_probs(model: LlrModel, r: float, took_g: bool) -> tuple:
    """log P[action | F] for F = F_g, F_b, F_0 at public LLR r.

    A G action means llr >= -r, so its probability is the survival value
    at -r; a B action's is the CDF at -r.
    """
    tail = "log_sf" if took_g else "log_cdf"
    cdfs = (model.cdf_g, model.cdf_b, model.cdf_0)
    return tuple(float(getattr(cdf, tail)(-r)) for cdf in cdfs)


def next_public(model: LlrModel, r: float, took_g: bool) -> float:
    """The public LLR after one action, clipped at the saturation cap."""
    lt_g, lt_b, _ = action_log_probs(model, r, took_g)
    return min(max(r + (lt_g - lt_b), -R_CAP), R_CAP)


def _log_priors(gamma: float) -> np.ndarray:
    lg = math.log(gamma / 2.0)
    l0 = math.log((1.0 - gamma) / 2.0)
    return np.array([lg, lg, l0, l0])


def four_hypotheses(log_lik: np.ndarray) -> np.ndarray:
    """Rows of log-likelihoods under F_g, F_b and F_0 as rows over the four
    hypotheses (informative/good, informative/bad, noise/good, noise/bad):
    both noise hypotheses have F_0's likelihood."""
    log_lik = np.asarray(log_lik, dtype=float)
    return np.concatenate([log_lik, log_lik[..., 2:]], axis=-1)


def posterior(state: ObserverState) -> np.ndarray:
    """The observer's posterior over the four hypotheses."""
    w = four_hypotheses(state.log_lik) + _log_priors(state.gamma)
    w = np.exp(w - w.max())
    return w / w.sum()


def four_hypothesis_columns(log_lik: np.ndarray, gamma: float) -> tuple:
    """``(q, log_odds)`` of rows of three law columns by the observer's
    former formula over four hypotheses, with F_0's column duplicated:
    normalized weights for q, and the log-odds as logaddexp differences
    plus log(gamma / (1 - gamma))."""
    log_lik = four_hypotheses(log_lik)
    w = log_lik + _log_priors(gamma)
    w = np.exp(w - w.max(axis=-1, keepdims=True))
    w_info = w[..., 0] + w[..., 1]
    q = w_info / (w_info + (w[..., 2] + w[..., 3]))
    info = np.logaddexp(log_lik[..., 0], log_lik[..., 1])
    noise = np.logaddexp(log_lik[..., 2], log_lik[..., 3])
    return q, info - noise + math.log(gamma) - math.log1p(-gamma)


def sample_one(model: LlrModel, omega: int, theta: str, rng, size: int) -> np.ndarray:
    """``size`` private LLRs of one trajectory from ``LlrModel.sample``: a
    one-row block per piece of ``beliefs.CHUNK_STEPS``, all from ``rng``."""
    draws = np.empty(size)
    worlds = np.array([omega]), np.array([theta])
    for start in range(0, size, beliefs.CHUNK_STEPS):
        model.sample(*worlds, [rng], draws[None, start : start + beliefs.CHUNK_STEPS])
    return draws


def llr_stream(model: LlrModel, omega: int, theta: str, horizon: int, rng) -> np.ndarray:
    """The stream of private LLRs of one trajectory in the world (omega,
    theta), stated by raw numpy calls on ``model.spec``'s laws.

    In pieces of ``beliefs.CHUNK_STEPS`` draws: a mixture's noise piece is
    its component picks (F_g's with probability alpha), then its standard
    normals times the informative sd plus the picks' means; any other piece
    is standard normals times its law's sd plus its mean.
    """
    spec = model.spec
    mean, sd, *noise = spec.llr_laws()
    pieces = []
    for start in range(0, horizon, beliefs.CHUNK_STEPS):
        k = min(beliefs.CHUNK_STEPS, horizon - start)
        if omega == 0 and spec.kind == "mixture":
            pick_g = rng.random(k) < spec.alpha
            pieces.append(rng.standard_normal(k) * sd + np.where(pick_g, mean, -mean))
        else:
            m, s = noise if omega == 0 else (mean if theta == "g" else -mean, sd)
            pieces.append(rng.standard_normal(k) * s + m)
    return np.concatenate(pieces)


@dataclass(frozen=True)
class Trajectory:
    """One simulated run of the action process.

    actions and llrs have length T; public_llrs has length T+1 with the
    initial value first, so public_llrs[t] is the belief agent t+1 acts on.
    observer_beliefs, when recorded, aligns with public_llrs (entry 0 is
    the prior).  last_switch_time is the 1-based index of the last agent
    whose action differed from their predecessor's, or None.
    """

    actions: np.ndarray
    llrs: np.ndarray
    public_llrs: np.ndarray
    switch_count: int
    last_switch_time: Optional[int]
    observer_beliefs: Optional[np.ndarray] = None


def simulate_trajectory(
    model: LlrModel,
    omega: int,
    theta: str,
    horizon: int,
    rng: np.random.Generator,
    initial_r: float = 0.0,
    gamma: Optional[float] = None,
) -> Trajectory:
    """Simulate ``horizon`` agents acting in sequence, one at a time, in
    the world (omega, theta).

    Private LLRs are drawn from ``rng`` up front by ``llr_stream``, in the
    engine's pieces, so the two see the same draws if both state the
    stream alike.  When ``gamma`` is given, the observer's belief that the
    source is informative is tracked alongside from the four hypotheses'
    log-likelihoods.
    """
    if horizon < 1:
        raise InvalidParameterError(f"horizon must be >= 1, got {horizon}")
    llrs = llr_stream(model, omega, theta, horizon, rng)
    actions = np.empty(horizon, dtype="U1")
    public = np.empty(horizon + 1, dtype=float)
    public[0] = initial_r
    qs = np.empty(horizon + 1, dtype=float)
    log_lik = np.zeros(4)
    r = initial_r
    switch_count = 0
    last_switch: Optional[int] = None
    for t in range(horizon):
        took_g = bool(llrs[t] >= -r)
        actions[t] = "g" if took_g else "b"
        if t > 0 and actions[t] != actions[t - 1]:
            switch_count += 1
            last_switch = t + 1
        if gamma is not None:
            w = log_lik + _log_priors(gamma)
            w = np.exp(w - w.max())
            qs[t] = (w[0] + w[1]) / w.sum()
            lt_g, lt_b, lt_0 = action_log_probs(model, r, took_g)
            log_lik = log_lik + np.array([lt_g, lt_b, lt_0, lt_0])
            log_lik -= log_lik.max()
        r = next_public(model, r, took_g)
        public[t + 1] = r
    if gamma is not None:
        w = log_lik + _log_priors(gamma)
        w = np.exp(w - w.max())
        qs[horizon] = (w[0] + w[1]) / w.sum()
    return Trajectory(
        actions=actions,
        llrs=llrs,
        public_llrs=public,
        switch_count=switch_count,
        last_switch_time=last_switch,
        observer_beliefs=qs if gamma is not None else None,
    )


def history_log_liks(model: LlrModel, initial_r: float, actions: Sequence[str]):
    """Product-form log-likelihood of a whole history under each hypothesis.

    The public-LLR path is reconstructed first, then every per-step term of
    each law is evaluated in one vectorized pass.
    """
    took_g = np.array([a == "g" for a in actions], dtype=bool)
    rs = np.empty(len(actions), dtype=float)
    r = initial_r
    for t, g in enumerate(took_g):
        rs[t] = r
        r = next_public(model, r, g)
    lg, lb, l0 = (
        float(np.sum(np.where(took_g, cdf.log_sf(-rs), cdf.log_cdf(-rs))))
        for cdf in (model.cdf_g, model.cdf_b, model.cdf_0)
    )
    return np.array([lg, lb, l0, l0])


def batch_posterior(
    model: LlrModel, gamma: float, initial_r: float, actions: Sequence[str]
) -> float:
    """q after a whole history, computed in one pass; the prior if empty."""
    w = history_log_liks(model, initial_r, actions) + _log_priors(gamma)
    w = np.exp(w - w.max())
    return float((w[0] + w[1]) / w.sum())


def history_log_prob(
    model: LlrModel, gamma: float, initial_r: float, actions: Sequence[str]
) -> float:
    """Unconditional log-probability of observing the given action sequence."""
    w = history_log_liks(model, initial_r, actions) + _log_priors(gamma)
    m = float(w.max())
    return m + math.log(float(np.exp(w - m).sum()))


def step_at(model: LlrModel, r: float, took_g: bool) -> tuple:
    """``step`` at one public LLR after one action: ``(r_next, lt_g, lt_b,
    lt_0)`` as numpy floats, from the kernel on a one-element workspace."""
    out = step(model, np.array([r], dtype=float), took_g, Workspace(model, 1))
    return tuple(x[0] for x in out)


def reference_update(state: ObserverState, model: LlrModel, action: str) -> ObserverState:
    """Fold one observed action into the filter, one ``step`` call per
    action, adding its tails to the running sums: the update
    ``observer.history_log_liks`` replaced."""
    r_next, lt_g, lt_b, lt_0 = step_at(model, state.r_track, is_g(action))
    log_lik = state.log_lik + np.array([lt_g, lt_b, lt_0])
    top = log_lik.max()
    if not (math.isfinite(top) and math.isfinite(r_next)):
        raise InvalidParameterError(
            f"action {state.t} ({action!r}) is impossible at public LLR "
            f"{state.r_track!r}: it has probability 0 under "
            + ("every hypothesis" if top == -math.inf else "both informative ones")
        )
    return ObserverState(
        log_lik=log_lik,
        gamma=state.gamma,
        r_track=float(r_next),
        t=state.t + 1,
    )


def reference_fold(state: ObserverState, model: LlrModel, actions: Sequence[str]):
    """``(log_liks, rs)`` as ``observer.history_log_liks`` returns them, from
    ``reference_update`` applied action by action."""
    states = [state]
    for action in actions:
        states.append(reference_update(states[-1], model, action))
    return np.array([s.log_lik for s in states]), np.array([s.r_track for s in states])


def csv_cell(value) -> str:
    """Locale-independent CSV cell: ``repr`` for floats, an empty cell for
    NaN, one value at a time.  ``cli._cells`` and ``cli._csv_lines`` must
    give these bytes, whether a float's cell comes from ``repr`` or from
    ``herdlearn._shortest`` and whether a run of equal floats is formatted
    once."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if np.isnan(value):
            return ""
        return repr(value)
    return str(value)


def csv_lines(header: Sequence[str], rows, comments: Sequence[str] = ()) -> str:
    """CSV text written row by row and cell by cell with ``csv_cell``."""
    lines = [f"# {c}\n" for c in comments]
    lines.append(",".join(header) + "\n")
    lines.extend(",".join(csv_cell(v) for v in row) + "\n" for row in rows)
    return "".join(lines)


# Frozen constants, all computed with mpmath at 50 digits.
PHI_MINUS_1 = 0.15865525393145705
PHI_PLUS_1 = 0.84134474606854295
LOG_PHI_MINUS_1 = -1.8410216450092635
LOG_PHI_MINUS_101 = -5106.0341570556379747
LOG_PHI_MINUS_1414 = -999706.17311687981
JUMP_G_AT_0_SIGMA1 = 1.6682678659858136
JUMP_G_AT_M5_SIGMA1 = 5.6601209075202031
Q3_AFTER_GG_SIGMA1_TAU2 = 0.57141295878869215
MIX_ALPHA03_CDF0_AT_M4 = 0.11146364716150896
LOG_L_B_AT_8_SIGMA1_TAU2 = 2.8245418878283176
PATH3_SIGMA1 = 2.4687916925214598
ALL_G_20_PRODUCT_SIGMA1_TAU05 = 0.47196155205056649
