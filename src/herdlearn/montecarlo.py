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

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .beliefs import (
    BAD,
    CHUNK_STEPS,
    GOOD,
    MAX_FLOATS,
    GaussianSpec,
    InvalidParameterError,
    ModelSpec,
    _require,
    build_model,
)
from .dynamics import R_CAP, Workspace, step
from .observer import _log_priors, posterior_columns

# Steps whose actions are kept to count switches in one pass; a divisor of
# CHUNK_STEPS, so no block of them straddles two chunks.
ACT_ROWS = 256

# Trajectories per batch: it sets memory and scheduling, never a row.
BATCH_SIZE = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit for bit.

    omega/theta of None mean "draw it": omega informative with probability
    gamma, theta uniform.  Every run also runs the outside observer's
    filter, which reads the actions and never changes them.
    record_traces keeps full per-step traces in memory -- intended for
    small runs that will be written out for plotting.  Neither ``workers``
    nor the module's BATCH_SIZE, the trajectories per batch, changes a row.
    """

    model: ModelSpec
    gamma: float = 0.5
    horizon: int = 2000
    num_trajectories: int = 2000
    omega: Optional[int] = None
    theta: Optional[str] = None
    initial_r: float = 0.0
    master_seed: int = 0
    record_traces: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        _require(
            vars(self),
            finite=("initial_r",),
            positive=("horizon", "num_trajectories", "workers"),
        )
        # The rows of a run are one array, whose size in bytes must fit in a
        # signed pointer-sized integer.
        most = np.iinfo(np.intp).max // ROW_DTYPE.itemsize
        if self.num_trajectories > most:
            raise InvalidParameterError(
                f"num_trajectories must be at most {most}, the rows one array can "
                f"hold, got {self.num_trajectories}"
            )
        _log_priors(self.gamma)
        if self.omega not in (None, 0, 1):
            raise InvalidParameterError(f"omega must be None, 0 or 1, got {self.omega}")
        if self.theta not in (None, GOOD, BAD):
            raise InvalidParameterError(
                f"theta must be None, 'g' or 'b', got {self.theta}"
            )
        if not 0 <= self.master_seed < 2**64:
            raise InvalidParameterError(
                f"master_seed must lie in [0, 2**64), got {self.master_seed}"
            )
        batch = min(BATCH_SIZE, self.num_trajectories)
        # A traced batch holds its llr, r and q traces as one array, 3 floats a step.
        if self.record_traces and 3 * batch * self.horizon > MAX_FLOATS:
            raise InvalidParameterError(
                f"a traced batch of {batch} trajectories x {self.horizon} steps needs "
                f"3 floats a step, more than the {MAX_FLOATS} a numpy array can hold"
            )


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


# The state ``_trajectory_rng`` gives a Philox, refilled with each new key.
# Philox's state setter copies what it reads, so one dict serves every
# re-key (building a new one took nearly twice as long).
_REKEY = {
    "bit_generator": "Philox",
    "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
    "buffer": (0, 0, 0, 0),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def _trajectory_rng(rng: np.random.Generator, master_seed: int, index: int) -> None:
    """Re-key ``rng``'s Philox to the stream of (master_seed, index).

    Key ``[master_seed, index]``, counter 0 and nothing buffered: the draws
    are exactly those of a fresh ``Philox(key=[master_seed, index])``,
    without building one (and its unused seed sequence) per trajectory.
    The state is set from the module's one ``_REKEY`` dict, whose key is
    the only entry that changes; the setter copies it, so nothing of it is
    kept (and no two threads may re-key at once).
    """
    _REKEY["state"]["key"] = (master_seed, index)
    rng.bit_generator.state = _REKEY


class _Batch:
    """Trajectories lo..hi-1 after their first ``t`` steps.

    ``advance(stop)`` runs whole blocks of ACT_ROWS steps until ``t``
    reaches ``stop``, a multiple of ACT_ROWS or the horizon; ``rows`` and
    ``traces`` read the batch at ``t``.  Nothing depends on the batch
    boundaries or the stops, only on (config, trajectory index).

    Each step is one call of the transition kernel ``step`` on the whole
    batch, with one ``Workspace`` for the batch so that the steps reuse
    their buffers, and adds the tails under F_g, F_b and F_0 to the
    observer's log-likelihoods.  The step keeps its actions, and their
    switches are counted once per block of ACT_ROWS steps.

    The private LLRs are drawn one piece of CHUNK_STEPS steps at a time
    into one reused block, so a batch holds BATCH_SIZE x CHUNK_STEPS draws
    whatever the horizon.  The block of steps that starts a piece draws it
    with one ``LlrModel.sample`` call for the batch, which ``_streams``
    feeds one trajectory's stream at a time.  At the first piece it re-keys
    the generator and draws the trajectory's two world uniforms into a
    batch array (numpy derives the worlds after the last row; a mixture's
    row at once, as ``sample`` reads it); later pieces restore the Philox
    state each trajectory kept.  So a trajectory's own calls per piece are
    its RNG calls, the whole block is scaled at once, and a traced run
    copies each piece into its trace matrix.

    The log-likelihoods are running sums, never re-centered, and q and the
    log-odds are ``observer.posterior_columns`` of them, so replaying a
    trajectory's actions gives its q bit for bit.  A traced run fills its
    trace columns once per block too: each step stages the log-likelihoods
    after it and r before it in one ACT_ROWS x 4 x batch block, and the
    block's q is ``posterior_columns`` of its log-likelihood rows, the same
    elementwise operations as at each step.  An untraced batch holds no
    staging block.
    """

    def __init__(self, config: ExperimentConfig, lo: int, hi: int):
        self.config, self.lo, self.hi, self.t = config, lo, hi, 0
        self.model = model = build_model(config.model)
        n, horizon = hi - lo, config.horizon
        width = min(horizon, CHUNK_STEPS)  # the draws of a trajectory's longest piece
        # Padded rows: rows exactly CHUNK_STEPS doubles apart put each step's
        # column into a few cache sets, and reading it took 1.5x as long (n=512).
        self.llrs = np.empty((n, width + 8))[:, :width]
        self.world = np.empty((n, 2))  # each trajectory's two world uniforms
        self.omega = np.full(n, config.omega or 0, dtype=np.int8)
        self.theta = np.full(n, config.theta or GOOD)
        # Each trajectory's Philox state after its last piece, while more follow.
        self.states = [None] * n
        self.rng = np.random.Generator(np.random.Philox())
        self.r = np.full(n, config.initial_r, dtype=float)
        self.work = Workspace(model, n)
        self.log_liks = np.zeros((3, n))  # under F_g, F_b and F_0
        # The largest |r| after any step, NaN ignored: a trajectory is
        # absorbed once it reaches R_CAP.
        self.reach = np.zeros(n)
        # Row 1 + k of ``acts`` holds the actions of step act_lo + k of the
        # current block of ACT_ROWS steps, and row 0 those of the step before
        # it; the switches are tallied once per block.
        self.acts = np.empty((ACT_ROWS + 1, n), dtype=bool)
        self.switch_count = np.zeros(n, dtype=np.int64)
        self.last_switch = np.zeros(n, dtype=np.int64)
        if config.record_traces:
            self.trace_llrs, self.trace_r, self.trace_q = np.empty((3, n, horizon))
            self.trace_actions = np.empty((n, horizon), dtype="U1")
            # Row k: the log-likelihoods after step act_lo + k of the current
            # block (rows 0-2), and r before it (row 3).
            self.staged = np.empty((ACT_ROWS, 4, n))

    def _streams(self, start: int, more: bool):
        """``rng`` at each trajectory's stream in turn, for the piece at
        ``start``; with ``more`` pieces to come, each state is kept."""
        config, rng, states, omega = self.config, self.rng, self.states, self.omega
        bits, random = rng.bit_generator, rng.random
        seed, lo, gamma = config.master_seed, self.lo, config.gamma
        # A mixture reads a row's omega as soon as the row's world is drawn.
        omega_now = config.omega is None and config.model.kind == "mixture"
        for i, uniforms in enumerate(self.world):
            if start:
                bits.state = states[i]
            else:
                _trajectory_rng(rng, seed, lo + i)
                # The world: omega informative w.p. gamma, theta uniform.  Both
                # uniforms are drawn even when the config fixes omega or theta,
                # so the LLR draws that follow do not depend on the fixing.
                random(out=uniforms)
                if omega_now:
                    omega[i] = uniforms[0] < gamma
            yield rng
            if more:
                states[i] = bits.state
        if not start and config.omega is None:
            omega[:] = self.world[:, 0] < gamma
        if not start and config.theta is None:
            self.theta[:] = np.where(self.world[:, 1] < 0.5, GOOD, BAD)

    # The kernel's standardized tail arguments may overflow, as in NormalCdf.
    @np.errstate(over="ignore")
    def advance(self, stop: int) -> None:
        """Run the blocks of steps from ``t`` until ``t`` reaches ``stop``."""
        config, model, work, acts = self.config, self.model, self.work, self.acts
        horizon, gamma, traced = config.horizon, config.gamma, config.record_traces
        r, log_liks, reach = self.r, self.log_liks, self.reach
        tails, scratch = work.tails, work.scratch
        if traced:
            staged, trace_llrs = self.staged, self.trace_llrs
            trace_actions, trace_r, trace_q = self.trace_actions, self.trace_r, self.trace_q
        for act_lo in range(self.t, stop, ACT_ROWS):
            start = act_lo - act_lo % CHUNK_STEPS  # the first step of the block's piece
            block = self.llrs[:, : horizon - start]  # row i takes trajectory lo + i's piece
            if act_lo == start:
                streams = self._streams(start, start + CHUNK_STEPS < horizon)
                model.sample(self.omega, self.theta, streams, block)
                if traced:
                    trace_llrs[:, start : start + CHUNK_STEPS] = block
            act_hi = min(act_lo + ACT_ROWS, horizon)
            for j, t in enumerate(range(act_lo, act_hi)):
                took_g = acts[j + 1]
                # G iff llr >= -r; -r goes to the scratch row that ``step``
                # overwrites.
                np.greater_equal(block[:, t - start], np.negative(r, out=scratch), out=took_g)
                if traced:
                    staged[j, 3] = r
                step(model, r, took_g, work)
                log_liks += tails
                if traced:
                    staged[j, :3] = log_liks
                # |r| goes to the step's scratch row, which the next step overwrites.
                np.fmax(reach, np.abs(r, out=scratch), out=reach)
            # Count the block's switches, note the last; fill its trace columns.
            k = act_hi - act_lo
            sw = acts[1 : k + 1] != acts[:k]
            if act_lo == 0:
                sw[0] = False  # the first action switches from nothing
            counts = np.count_nonzero(sw, axis=0)
            np.add(self.switch_count, counts, out=self.switch_count)
            # Step act_lo + j sets last_switch to act_lo + j + 1; argmax finds
            # the last switch as the first True of the reversed rows.
            np.copyto(self.last_switch, act_hi - sw[::-1].argmax(axis=0), where=counts > 0)
            if traced:
                cols = slice(act_lo, act_hi)
                trace_actions[:, cols] = np.where(acts[1 : k + 1].T, GOOD, BAD)
                trace_r[:, cols] = staged[:k, 3].T
                trace_q[:, cols] = posterior_columns(staged[:k, :3].swapaxes(1, 2), gamma)[0].T
            acts[0] = acts[k]
            self.t = act_hi

    def rows(self) -> np.ndarray:
        """Each trajectory's ``ROW_DTYPE`` row after its first ``t`` steps."""
        rows = np.empty(self.hi - self.lo, dtype=ROW_DTYPE)
        rows["index"] = np.arange(self.lo, self.hi)
        rows["omega"] = self.omega
        rows["theta"] = self.theta
        rows["final_action"] = np.where(self.acts[0], GOOD, BAD)
        rows["switch_count"] = self.switch_count
        rows["last_switch_time"] = self.last_switch
        posterior = posterior_columns(self.log_liks.T, self.config.gamma)  # (q, log-odds)
        rows["q_final"], rows["q_log_odds"] = posterior
        rows["absorbed"] = self.reach >= R_CAP
        return rows

    def traces(self) -> list:
        """Each trajectory's ``Trace`` of its first ``t`` steps (traced runs)."""
        t, lo = self.t, self.lo
        columns = (self.trace_actions, self.trace_llrs, self.trace_r, self.trace_q)
        return [Trace(lo + i, *(c[i, :t] for c in columns)) for i in range(self.hi - lo)]


def _simulate_batch(config: ExperimentConfig, lo: int, hi: int):
    """Trajectories lo..hi-1 to the horizon (``_Batch``): (rows, traces or None)."""
    batch = _Batch(config, lo, hi)
    batch.advance(config.horizon)
    return batch.rows(), batch.traces() if config.record_traces else None


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    cannot tell)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Simulate the configured trajectories and aggregate the rows.

    Deterministic given (config, master_seed): the batch partition is a
    pure function of the config and every batch derives its randomness
    from per-trajectory keys, so worker scheduling cannot reorder or
    perturb anything.
    """
    n, size = config.num_trajectories, BATCH_SIZE
    starts = range(0, n, size)  # each batch's first index, never listed
    parts: list = []  # finished batches, in index order
    broken: tuple = ()  # the pool's failure, imported by pooled runs only
    # Under fork, the first submit starts max_workers processes, so a pool
    # has no more of them than batches or usable CPUs.  A pool of one would
    # only fork a process to run what this one runs as fast.
    workers = min(config.workers, len(starts), _usable_cpus())
    try:
        if workers > 1:
            from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
            broken = (BrokenProcessPool,)
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                # At most two batches per worker in flight, read in index order.
                futures = []
                for lo in starts:
                    futures.append(pool.submit(_simulate_batch, config, lo, min(lo + size, n)))
                    if len(futures) == 2 * workers:
                        parts.append(futures.pop(0).result())
                for fut in futures:
                    parts.append(fut.result())
            finally:
                # After a failure, batches not yet started are not run.
                pool.shutdown(cancel_futures=True)
        else:
            for lo in starts:
                parts.append(_simulate_batch(config, lo, min(lo + size, n)))
    except (MemoryError, *broken) as exc:
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
    half = horizon / 2.0
    return {
        "n": len(rows),
        "horizon": int(horizon),
        "herd_correctness_rate": float(np.mean(rows["final_action"] == rows["theta"])),
        "frac_switch_after_half": float(np.mean(rows["last_switch_time"] > half)),
        "frac_consensus_second_half": float(np.mean(rows["last_switch_time"] <= half)),
        "mean_switch_count": float(np.mean(rows["switch_count"])),
        "median_switch_count": float(np.median(rows["switch_count"])),
        "switch_rate": float(np.mean(rows["switch_count"]))
        / max(horizon - 1, 1),
        "n_absorbed": int(np.sum(rows["absorbed"])),
        "median_q_final": float(np.median(rows["q_final"])),
        "q_by_regime": {
            f"omega={omega}": _quantiles(rows["q_final"][rows["omega"] == omega])
            for omega in np.unique(rows["omega"]).tolist()
        },
    }


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

    At equal variances the noise mean decides the tail order
    (``tails.classify_gaussian``): Neither for |m0| < 1, where agents keep
    disagreeing, and Thinner for |m0| > 1, where they herd like an informed
    crowd.  The CLI's default grid, 0, 0.25 and 0.5, stays on the Neither
    side.  Each grid point reuses the same per-trajectory streams, so the
    comparison across m0 is paired.

    Returns one dict per m0 with the disagreement rate (mean fraction of
    steps on which the action switched -- the desk-scale surrogate of the
    switch count statistic), the late-switch fraction, and the median
    final observer belief.
    """
    if len(m0_grid) == 0:
        raise InvalidParameterError("the m0 grid must hold at least one value")
    # Every point's config first, so that a bad point stops the sweep before
    # any point runs.
    configs = [
        ExperimentConfig(
            model=GaussianSpec(sigma=sigma, tau=sigma, m0=float(m0)),
            gamma=gamma,
            horizon=horizon,
            num_trajectories=num_trajectories,
            omega=0,
            master_seed=master_seed,
            workers=workers,
        )
        for m0 in m0_grid
    ]
    table = []
    for config in configs:
        agg = run_experiment(config).aggregates
        table.append(
            {
                "m0": config.model.m0,
                "disagreement_rate": agg["switch_rate"],
                "mean_switch_count": agg["mean_switch_count"],
                "frac_switch_after_half": agg["frac_switch_after_half"],
                "median_q_final": agg["median_q_final"],
            }
        )
    return table
