"""Batched, seeded experiment runner.

The claims this library is built to check are asymptotic; the experiment
runner turns them into desk-scale statistics over many simulated
trajectories: switch counts and last-switch times as surrogates for
perpetual disagreement, the final observer belief as a surrogate for its
limit, and herd-correctness rates.

Every trajectory owns a counter-based random stream keyed by
(master_seed, trajectory index), so results are bit-identical for a given
config regardless of batch size or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .beliefs import (
    BAD,
    GOOD,
    GaussianSpec,
    InvalidParameterError,
    ModelSpec,
    build_model,
)
from .dynamics import R_CAP, step

LOG_2 = math.log(2.0)

# Steps of private LLRs drawn at a time: a batch holds batch_size x
# CHUNK_STEPS draws whatever the horizon (traces excepted).
CHUNK_STEPS = 2048

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentResourceError",
    "ROW_DTYPE",
    "run_experiment",
    "compute_aggregates",
    "same_variance_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit for bit.

    omega/theta of None mean "draw it": omega informative with probability
    gamma, theta uniform.  record_q toggles the observer filter (turn it
    off for action-only questions; q columns then hold NaN).
    record_traces keeps full per-step traces in memory -- intended for
    small runs that will be written out for plotting.
    """

    model: ModelSpec
    gamma: float = 0.5
    horizon: int = 2000
    num_trajectories: int = 2000
    omega: Optional[int] = None
    theta: Optional[str] = None
    initial_r: float = 0.0
    master_seed: int = 0
    record_q: bool = True
    record_traces: bool = False
    batch_size: int = 1024
    workers: int = 1

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise InvalidParameterError(f"horizon must be >= 1, got {self.horizon}")
        if self.num_trajectories < 1:
            raise InvalidParameterError(
                f"num_trajectories must be >= 1, got {self.num_trajectories}"
            )
        if not 0.0 < self.gamma < 1.0:
            raise InvalidParameterError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.omega not in (None, 0, 1):
            raise InvalidParameterError(f"omega must be None, 0 or 1, got {self.omega}")
        if self.theta not in (None, GOOD, BAD):
            raise InvalidParameterError(
                f"theta must be None, 'g' or 'b', got {self.theta}"
            )
        if not math.isfinite(self.initial_r):
            raise InvalidParameterError(
                f"initial_r must be finite, got {self.initial_r}"
            )
        if not 0 <= self.master_seed < 2**64:
            raise InvalidParameterError(
                f"master_seed must lie in [0, 2**64), got {self.master_seed}"
            )
        if self.batch_size < 1 or self.workers < 1:
            raise InvalidParameterError("batch_size and workers must be >= 1")


ROW_DTYPE = np.dtype(
    [
        ("index", np.int64),
        ("omega", np.int8),
        ("theta", "U1"),
        ("final_action", "U1"),
        ("switch_count", np.int64),
        ("last_switch_time", np.int64),  # 0 means the actions never switched
        ("q_final", np.float64),
        ("q_log_odds", np.float64),
        ("absorbed", np.bool_),
    ]
)


@dataclass(frozen=True)
class Trace:
    """Per-step record of one trajectory, aligned with the CSV schema."""

    index: int
    actions: np.ndarray
    llrs: np.ndarray
    r_before: np.ndarray
    q: np.ndarray


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: np.ndarray
    aggregates: dict
    traces: Optional[list] = None


class ExperimentResourceError(RuntimeError):
    """Raised when a run cannot finish; carries the rows that did."""

    def __init__(self, message: str, completed_rows: np.ndarray):
        super().__init__(f"{message} (completed {len(completed_rows)} rows)")
        self.completed_rows = completed_rows


def _trajectory_rng(rng: np.random.Generator, master_seed: int, index: int) -> None:
    """Re-key ``rng``'s Philox to the stream of (master_seed, index).

    Key ``[master_seed, index]``, counter 0 and nothing buffered: the draws
    are exactly those of a fresh ``Philox(key=[master_seed, index])``,
    without building one (and its unused seed sequence) per trajectory.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (master_seed, index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _simulate_batch(config: ExperimentConfig, lo: int, hi: int):
    """Simulate trajectories lo..hi-1; returns (rows, traces or None).

    Results depend only on (config, trajectory index), never on the batch
    boundaries, so any partition of the index range gives identical rows.

    Each step is one call of the transition kernel ``step`` on the whole
    batch; it evaluates F_0's tail only when the observer is on.

    The private LLRs are drawn CHUNK_STEPS steps at a time: each trajectory
    keeps its stream (``LlrModel.sample_chunks``) and refills its row of
    one reused block per chunk, so memory does not grow with the horizon.
    A traced run draws straight into its trace matrix instead.
    """
    model = build_model(config.model)
    n = hi - lo
    horizon = config.horizon
    if config.record_traces:
        llrs = np.empty((n, horizon))
    else:
        # Padded rows: with rows exactly CHUNK_STEPS doubles apart, each
        # step's column falls into a few cache sets, and reading it took
        # 1.5x as long (n=512).
        width = min(horizon, CHUNK_STEPS)
        llrs = np.empty((n, width + 8))[:, :width]
    omegas = []
    thetas = []
    streams = []
    seed, gamma = config.master_seed, config.gamma
    rng = np.random.Generator(np.random.Philox())
    for i in range(n):
        _trajectory_rng(rng, seed, lo + i)
        # The world: omega informative w.p. gamma, theta uniform.  Both
        # uniforms are drawn even when the config fixes omega or theta, so
        # the LLR draws that follow do not depend on the fixing.
        u_omega, u_theta = rng.random(2).tolist()
        omega = config.omega
        if omega is None:
            omega = int(u_omega < gamma)
        theta = config.theta
        if theta is None:
            theta = GOOD if u_theta < 0.5 else BAD
        omegas.append(omega)
        thetas.append(theta)
        if horizon <= CHUNK_STEPS:  # one chunk: no stream to resume
            llrs[i] = model.sample(omega, theta, rng, size=horizon)
        else:
            stream = model.sample_chunks(omega, theta, rng, horizon, CHUNK_STEPS)
            llrs[i, :CHUNK_STEPS] = next(stream)
            streams.append(stream)

    r = np.full(n, config.initial_r, dtype=float)
    ll_info_g = np.zeros(n)
    ll_info_b = np.zeros(n)
    ll_noise = np.zeros(n)
    switch_count = np.zeros(n, dtype=np.int64)
    last_switch = np.zeros(n, dtype=np.int64)
    absorbed = np.zeros(n, dtype=bool)
    prev_g: Optional[np.ndarray] = None

    if config.record_traces:
        trace_actions = np.empty((n, horizon), dtype="U1")
        trace_r = np.empty((n, horizon))
        trace_q = np.full((n, horizon), np.nan)

    log_prior_info = math.log(config.gamma / 2.0)
    log_prior_noise = math.log((1.0 - config.gamma) / 2.0)

    def q_arrays():
        # The two uninformative hypotheses have equal likelihoods, so their
        # logaddexp is ll_noise + log 2 (numpy computes exactly that).
        info = np.logaddexp(ll_info_g, ll_info_b) + log_prior_info
        noise = ll_noise + LOG_2 + log_prior_noise
        log_odds = info - noise
        return 1.0 / (1.0 + np.exp(-np.clip(log_odds, -709.0, 709.0))), log_odds

    for start in range(0, horizon, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, horizon)
        block = llrs[:, start:stop] if config.record_traces else llrs
        if start:
            for i, stream in enumerate(streams):
                block[i, : stop - start] = next(stream)
        for t in range(start, stop):
            took_g = block[:, t - start] >= -r
            if config.record_traces:
                trace_r[:, t] = r
                trace_actions[:, t] = np.where(took_g, GOOD, BAD)

            r, lt_g, lt_b, lt_0 = step(model, r, took_g, config.record_q)
            if config.record_q:
                ll_info_g += lt_g
                ll_info_b += lt_b
                ll_noise += lt_0
                if config.record_traces:
                    trace_q[:, t] = q_arrays()[0]
            absorbed |= np.abs(r) >= R_CAP

            if prev_g is not None:
                switched = took_g != prev_g
                switch_count += switched
                last_switch = np.where(switched, t + 1, last_switch)
            prev_g = took_g

    rows = np.empty(n, dtype=ROW_DTYPE)
    rows["index"] = np.arange(lo, hi)
    rows["omega"] = omegas
    rows["theta"] = thetas
    rows["final_action"] = np.where(prev_g, GOOD, BAD)
    rows["switch_count"] = switch_count
    rows["last_switch_time"] = last_switch
    if config.record_q:
        q, log_odds = q_arrays()
        rows["q_final"] = q
        rows["q_log_odds"] = log_odds
    else:
        rows["q_final"] = np.nan
        rows["q_log_odds"] = np.nan
    rows["absorbed"] = absorbed

    traces = None
    if config.record_traces:
        traces = [
            Trace(
                index=lo + i,
                actions=trace_actions[i],
                llrs=llrs[i],
                r_before=trace_r[i],
                q=trace_q[i],
            )
            for i in range(n)
        ]
    return rows, traces


def _batch_bounds(n: int, batch_size: int) -> list:
    return [(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Simulate the configured trajectories and aggregate the rows.

    Deterministic given (config, master_seed): the batch partition is a
    pure function of the config and every batch derives its randomness
    from per-trajectory keys, so worker scheduling cannot reorder or
    perturb anything.
    """
    bounds = _batch_bounds(config.num_trajectories, config.batch_size)
    parts: list = []  # finished batches, in index order
    try:
        if config.workers > 1 and len(bounds) > 1:
            pool = ProcessPoolExecutor(max_workers=config.workers)
            try:
                futures = [
                    pool.submit(_simulate_batch, config, lo, hi) for lo, hi in bounds
                ]
                for fut in futures:
                    parts.append(fut.result())
            finally:
                # After a failure, batches not yet started are not run.
                pool.shutdown(cancel_futures=True)
        else:
            for lo, hi in bounds:
                parts.append(_simulate_batch(config, lo, hi))
    except (MemoryError, BrokenProcessPool) as exc:
        done = np.concatenate([p[0] for p in parts] or [np.empty(0, ROW_DTYPE)])
        reason = (
            "out of memory during simulation"
            if isinstance(exc, MemoryError)
            else "a worker process died during simulation"
        )
        raise ExperimentResourceError(reason, done) from exc

    rows = np.concatenate([p[0] for p in parts])
    traces = None
    if config.record_traces:
        traces = [tr for p in parts for tr in (p[1] or [])]
    return ExperimentResult(
        config=config,
        rows=rows,
        aggregates=compute_aggregates(rows, config.horizon),
        traces=traces,
    )


def _quantiles(values: np.ndarray) -> dict:
    return {
        "q25": float(np.quantile(values, 0.25)),
        "median": float(np.quantile(values, 0.5)),
        "q75": float(np.quantile(values, 0.75)),
    }


def compute_aggregates(rows: np.ndarray, horizon: int) -> dict:
    """Exact summaries of the per-trajectory rows (recomputable from them).

    Perpetual disagreement is proxied by a switch after horizon/2;
    consensus by its absence; both are reported so the dichotomy can be
    watched sharpening as the horizon grows.  These thresholds are
    finite-horizon surrogates for asymptotic events, not paper values.
    """
    n = len(rows)
    half = horizon / 2.0
    out = {
        "n": int(n),
        "horizon": int(horizon),
        "herd_correctness_rate": float(np.mean(rows["final_action"] == rows["theta"])),
        "frac_switch_after_half": float(np.mean(rows["last_switch_time"] > half)),
        "frac_consensus_second_half": float(np.mean(rows["last_switch_time"] <= half)),
        "mean_switch_count": float(np.mean(rows["switch_count"])),
        "median_switch_count": float(np.median(rows["switch_count"])),
        "switch_rate": float(np.mean(rows["switch_count"]))
        / max(horizon - 1, 1),
        "n_absorbed": int(np.sum(rows["absorbed"])),
    }
    if np.all(np.isfinite(rows["q_final"])):
        out["median_q_final"] = float(np.median(rows["q_final"]))
        out["q_by_regime"] = {}
        for omega in sorted(set(int(v) for v in rows["omega"])):
            sel = rows["omega"] == omega
            out["q_by_regime"][f"omega={omega}"] = _quantiles(rows["q_final"][sel])
    return out


def same_variance_experiment(
    sigma: float,
    m0_grid: Sequence[float],
    gamma: float = 0.5,
    horizon: int = 2000,
    num_trajectories: int = 2000,
    master_seed: int = 0,
    workers: int = 1,
) -> list:
    """Sweep the noise mean with tau = sigma, under an uninformative source.

    Equal variances put the noise law at the boundary where the tail order
    decides nothing; the noise mean then controls whether agents keep
    disagreeing (symmetric noise) or herd like an informed crowd (shifted
    noise).  Each grid point reuses the same per-trajectory streams, so
    the comparison across m0 is paired.

    Returns one dict per m0 with the disagreement rate (mean fraction of
    steps on which the action switched -- the desk-scale surrogate of the
    switch count statistic), the late-switch fraction, and the median
    final observer belief.
    """
    if len(m0_grid) == 0:
        raise InvalidParameterError("the m0 grid must hold at least one value")
    table = []
    for m0 in m0_grid:
        config = ExperimentConfig(
            model=GaussianSpec(sigma=sigma, tau=sigma, m0=float(m0)),
            gamma=gamma,
            horizon=horizon,
            num_trajectories=num_trajectories,
            omega=0,
            master_seed=master_seed,
            workers=workers,
        )
        agg = run_experiment(config).aggregates
        table.append(
            {
                "m0": float(m0),
                "disagreement_rate": agg["switch_rate"],
                "mean_switch_count": agg["mean_switch_count"],
                "frac_switch_after_half": agg["frac_switch_after_half"],
                "median_q_final": agg["median_q_final"],
            }
        )
    return table
