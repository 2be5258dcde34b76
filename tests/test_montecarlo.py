"""Experiment engine: determinism, aggregation, engine/reference agreement."""

import dataclasses
import math
import os
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

import herdlearn.observer
from herdlearn import (
    ExperimentConfig,
    GaussianSpec,
    InvalidParameterError,
    MixtureSpec,
    build_model,
    montecarlo,
    observer_init,
    run_experiment,
    same_variance_experiment,
)
from herdlearn.beliefs import CHUNK_STEPS, MAX_FLOATS
from herdlearn.dynamics import R_CAP, update_public
from herdlearn.montecarlo import ExperimentResourceError, compute_aggregates

from oracles import llr_stream, simulate_trajectory

_simulate_batch = montecarlo._simulate_batch


# Pool workers receive batch functions by reference, so the faulty stand-ins
# live at module level; they fail by batch start, not by call order, since
# each worker process counts its own calls.
def _out_of_memory_from_200(config, lo, hi):
    if lo >= 200:
        raise MemoryError("boom")
    return _simulate_batch(config, lo, hi)


def _worker_dies_at_200(config, lo, hi):
    if lo == 200:
        os._exit(1)
    return _simulate_batch(config, lo, hi)


def _in_process_pool(monkeypatch):
    """Stand in for ProcessPoolExecutor with a pool that runs each batch as
    it is submitted, starting no process; its ``sizes`` lists the
    max_workers of every pool made.  run_experiment imports the executor
    from its module when a pooled run starts, so it is patched there."""

    class InProcessPool:
        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", InProcessPool)
    return InProcessPool


def small_config(**overrides):
    base = dict(
        model=GaussianSpec(sigma=1.0, tau=2.0),
        gamma=0.5,
        horizon=120,
        num_trajectories=300,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestValidation:
    def test_bad_values(self):
        with pytest.raises(InvalidParameterError):
            small_config(horizon=0)
        with pytest.raises(InvalidParameterError):
            small_config(num_trajectories=0)
        with pytest.raises(InvalidParameterError):
            small_config(gamma=1.0)
        with pytest.raises(InvalidParameterError):
            small_config(gamma=5e-324)  # in (0, 1), but its half is 0
        with pytest.raises(InvalidParameterError):
            small_config(omega=2)
        with pytest.raises(InvalidParameterError):
            small_config(theta="q")
        with pytest.raises(InvalidParameterError, match="workers must be positive, got 0"):
            small_config(workers=0)
        # The llr, r and q traces of a batch of 1024 are one array of
        # 3 x 1024 x horizon floats.
        with pytest.raises(InvalidParameterError, match="traced batch"):
            small_config(record_traces=True, num_trajectories=1024,
                         horizon=MAX_FLOATS // 1024)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("horizon", 0, "horizon must be positive, got 0"),
            ("num_trajectories", -3, "num_trajectories must be positive, got -3"),
            ("initial_r", math.inf, "initial_r must be finite, got inf"),
            ("initial_r", math.nan, "initial_r must be finite, got nan"),
        ],
    )
    def test_run_parameters_have_the_spec_wording(self, field, value, message):
        with pytest.raises(InvalidParameterError) as err:
            small_config(**{field: value})
        assert str(err.value) == message

    def test_rows_must_fit_in_one_array(self):
        # The rows of a run are one ROW_DTYPE array, whose size in bytes must
        # fit in a signed pointer-sized integer.
        most = np.iinfo(np.intp).max // montecarlo.ROW_DTYPE.itemsize
        assert small_config(num_trajectories=most).num_trajectories == most
        for n in (most + 1, 10**30):
            with pytest.raises(InvalidParameterError) as err:
                small_config(num_trajectories=n)
            assert str(err.value) == (
                f"num_trajectories must be at most {most}, the rows one array can "
                f"hold, got {n}"
            )

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 5e-324, math.nan])
    def test_gamma_has_one_check(self, monkeypatch, gamma):
        """The config and the observer reject gamma through the observer's
        prior table, with the same message."""
        checked = []
        original = montecarlo._log_priors
        monkeypatch.setattr(
            montecarlo, "_log_priors", lambda g: checked.append(g) or original(g)
        )
        with pytest.raises(InvalidParameterError) as config_err:
            small_config(gamma=gamma)
        assert len(checked) == 1
        with pytest.raises(InvalidParameterError) as observer_err:
            observer_init(gamma)
        assert str(config_err.value) == str(observer_err.value)
        assert original is herdlearn.observer._log_priors


class TestDeterminism:
    def test_identical_reruns(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        np.testing.assert_array_equal(a.rows, b.rows)
        assert a.aggregates == b.aggregates

    def test_batch_size_invariance(self):
        # Any partition of the index range into batches gives the same rows.
        for spec in (GaussianSpec(sigma=1.0, tau=2.0), MixtureSpec(sigma=1.0, alpha=0.35)):
            config = small_config(model=spec)
            n = config.num_trajectories
            whole = run_experiment(config).rows
            for bounds in (range(n + 1), [*range(0, n, 7), n], [0, 1, 8, 299, n]):
                rows = np.concatenate(
                    [_simulate_batch(config, lo, hi)[0] for lo, hi in zip(bounds, bounds[1:])]
                )
                np.testing.assert_array_equal(rows, whole)

    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 64)
        a = run_experiment(small_config(workers=1))
        b = run_experiment(small_config(workers=2))
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_pool_has_no_more_workers_than_batches(self, monkeypatch):
        # Under fork the first submit starts every one of max_workers
        # processes, so a pool larger than the batch count forks idle ones.
        pool = _in_process_pool(monkeypatch)
        monkeypatch.setattr(
            montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False
        )
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 128)
        config = small_config(workers=64)
        rows = run_experiment(config).rows
        assert pool.sizes == [3]
        np.testing.assert_array_equal(rows, _simulate_batch(config, 0, 300)[0])

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
    def test_pool_has_no_more_workers_than_usable_cpus(self, monkeypatch, affinity):
        # Without the cap, --workers 5000 over 5000 or more batches would fork
        # 5000 processes.  The usable CPUs are the affinity mask where the
        # platform has one, else the CPU count.
        pool = _in_process_pool(monkeypatch)
        if affinity:
            monkeypatch.setattr(
                montecarlo.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
            )
        else:
            monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 1)
        config = small_config(horizon=5, num_trajectories=12, workers=5000)
        rows = run_experiment(config).rows
        assert pool.sizes == [2 if affinity else 3]
        np.testing.assert_array_equal(rows, _simulate_batch(config, 0, 12)[0])

    def test_no_pool_of_one_process(self, monkeypatch):
        # --workers 4 on one usable CPU would fork a single worker to run
        # what the calling process runs as fast.
        pool = _in_process_pool(monkeypatch)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 1)
        config = small_config(horizon=5, num_trajectories=3, workers=4)
        rows = run_experiment(config).rows
        assert pool.sizes == []
        np.testing.assert_array_equal(rows, _simulate_batch(config, 0, 3)[0])

    def test_pool_keeps_two_batches_per_worker_in_flight(self, monkeypatch):
        # Submitting every batch before reading any result would hold a
        # future per batch; the run submits the next as each is read.
        in_flight = []  # unresolved futures after each submit

        class LazyPool:
            def __init__(self, max_workers):
                self.pending = set()

            def submit(self, fn, *args):
                pending = self.pending

                class Lazy(Future):
                    def result(self, timeout=None):
                        if not self.done():
                            pending.discard(self)
                            self.set_result(fn(*args))
                        return super().result()

                future = Lazy()
                pending.add(future)
                in_flight.append(len(pending))
                return future

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", LazyPool)
        monkeypatch.setattr(
            montecarlo.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 1)
        config = small_config(horizon=5, num_trajectories=200, workers=2)
        rows = run_experiment(config).rows
        assert len(in_flight) == 200 and max(in_flight) == 4
        np.testing.assert_array_equal(
            rows, run_experiment(dataclasses.replace(config, workers=1)).rows
        )

    def test_seed_changes_rows(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(master_seed=12))
        assert not np.array_equal(a.rows, b.rows)


def _philox_state(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return {
        "key": state["state"]["key"].tolist(),
        "counter": state["state"]["counter"].tolist(),
        "buffer_pos": state["buffer_pos"],
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }


class TestTrajectoryStream:
    """Re-keying one generator per trajectory replays a fresh Philox stream."""

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_rekeyed_stream_is_a_fresh_philox(self, seed):
        rng = np.random.Generator(np.random.Philox())
        for index in (0, 1, 2**64 - 1):
            # The previous trajectory left the generator mid-buffer, with
            # half of a 64-bit word kept for the next 32-bit draw.
            montecarlo._trajectory_rng(rng, seed ^ 5, (index + 3) % 2**64)
            rng.random(5)
            rng.integers(0, 2**32, dtype=np.uint32)
            before = _philox_state(rng)
            assert before["buffer_pos"] % 4 != 0 and before["has_uint32"] == 1

            montecarlo._trajectory_rng(rng, seed, index)
            fresh = np.random.Generator(
                np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
            )
            assert _philox_state(rng) == _philox_state(fresh)
            for draw in (
                lambda g: g.random(3),
                lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                lambda g: g.standard_normal(9),
                lambda g: g.random(2),
            ):
                np.testing.assert_array_equal(draw(rng), draw(fresh))
            assert _philox_state(rng) == _philox_state(fresh)


class TestEngineMatchesReferenceSimulator:
    """The vectorized engine and the scalar trajectory simulator must agree
    bit for bit when driven by the same per-trajectory generators; the
    simulator draws its LLRs by its own statement of the stream."""

    @pytest.mark.parametrize(
        "spec", [GaussianSpec(sigma=1.0, tau=2.0), MixtureSpec(sigma=1.0, alpha=0.35)]
    )
    def test_bitwise_agreement(self, spec):
        self._assert_matches_reference(
            ExperimentConfig(
                model=spec,
                gamma=0.4,
                horizon=80,
                num_trajectories=12,
                master_seed=99,
                record_traces=True,
            )
        )

    @pytest.mark.parametrize(
        "horizon",
        [
            montecarlo.CHUNK_STEPS - 1,
            montecarlo.CHUNK_STEPS,
            montecarlo.CHUNK_STEPS + 1,
            2 * montecarlo.CHUNK_STEPS + 1,
        ],
    )
    @pytest.mark.parametrize(
        "spec", [GaussianSpec(sigma=1.0, tau=2.0), MixtureSpec(sigma=1.0, alpha=0.35)]
    )
    def test_agreement_across_chunk_boundaries(self, monkeypatch, spec, horizon):
        # Noise worlds, so the mixture runs draw from the mixture law.
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 2)
        config = ExperimentConfig(
            model=spec,
            gamma=0.4,
            horizon=horizon,
            num_trajectories=3,
            omega=0,
            master_seed=31,
            record_traces=True,
        )
        traced = self._assert_matches_reference(config)
        untraced = run_experiment(dataclasses.replace(config, record_traces=False))
        np.testing.assert_array_equal(untraced.rows, traced.rows)

    @staticmethod
    def _assert_matches_reference(config, result=None):
        result = result or run_experiment(config)
        model = build_model(config.model)
        seed, gamma, horizon = config.master_seed, config.gamma, config.horizon
        for row, trace in zip(result.rows, result.traces):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([seed, row["index"]], dtype=np.uint64))
            )
            u_omega, u_theta = rng.random(2)
            omega = int(u_omega < gamma) if config.omega is None else config.omega
            theta = ("g" if u_theta < 0.5 else "b") if config.theta is None else config.theta
            traj = simulate_trajectory(model, omega, theta, horizon, rng, gamma=gamma)
            assert omega == row["omega"]
            assert theta == row["theta"]
            np.testing.assert_array_equal(traj.actions, trace.actions)
            np.testing.assert_array_equal(traj.llrs, trace.llrs)
            np.testing.assert_array_equal(traj.public_llrs[:-1], trace.r_before)
            assert traj.observer_beliefs[-1] == pytest.approx(
                row["q_final"], abs=1e-12
            )
            assert traj.switch_count == row["switch_count"]
            assert (traj.last_switch_time or 0) == row["last_switch_time"]
        return result



class TestPieceFill:
    """One ``LlrModel.sample`` call fills a piece for the whole batch; each
    trajectory still gets its own stream, as ``oracles.llr_stream`` states
    it, whatever the batch boundaries."""

    @pytest.mark.parametrize("horizon", [1, 2, 20, 2047, 2048, 2049])
    @pytest.mark.parametrize("world", ["drawn", "fixed"])
    @pytest.mark.parametrize(
        "spec", [GaussianSpec(sigma=1.0, tau=2.0), MixtureSpec(sigma=1.0, alpha=0.35)]
    )
    def test_batches_of_seven(self, monkeypatch, spec, world, horizon):
        fixed = {"drawn": {}, "fixed": {"omega": 0, "theta": "b"}}[world]
        config = ExperimentConfig(
            model=spec, gamma=0.4, horizon=horizon, num_trajectories=9,
            master_seed=17, record_traces=True, **fixed,
        )
        whole = run_experiment(config)
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 7)
        result = run_experiment(config)
        untraced = run_experiment(dataclasses.replace(config, record_traces=False))
        np.testing.assert_array_equal(result.rows, whole.rows)
        np.testing.assert_array_equal(untraced.rows, whole.rows)
        if world == "drawn":  # both worlds occur among the nine
            assert set(result.rows["omega"]) == {0, 1}
        model = build_model(spec)
        for row, trace in zip(result.rows, result.traces):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([17, row["index"]], dtype=np.uint64))
            )
            u_omega, u_theta = rng.random(2)
            omega = fixed.get("omega", int(u_omega < 0.4))
            theta = fixed.get("theta", "g" if u_theta < 0.5 else "b")
            assert (row["omega"], row["theta"]) == (omega, theta)
            np.testing.assert_array_equal(
                trace.llrs, llr_stream(model, omega, theta, horizon, rng)
            )
        # The last trajectory of the first batch and the first of the second.
        traced = dataclasses.replace(whole, rows=result.rows[6:8], traces=result.traces[6:8])
        TestEngineMatchesReferenceSimulator._assert_matches_reference(config, traced)


class TestBatchStops:
    """``_Batch.advance`` stops at multiples of ACT_ROWS, inside a piece of
    CHUNK_STEPS draws and at its end, and the batch reads the same there as
    a run whose horizon is the stop, wherever the stream allows it."""

    STOPS = (256, 2048, 2304, 4608)

    @staticmethod
    def _assert_traces_equal(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.index == b.index
            for field in ("actions", "llrs", "r_before", "q"):
                x, y = getattr(a, field), getattr(b, field)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), (a.index, field)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "spec",
        [GaussianSpec(sigma=1.0, tau=2.0), MixtureSpec(sigma=1.0, alpha=0.3)],
        ids=["gauss", "mixture"],
    )
    def test_stops_read_as_shorter_runs(self, spec, traced):
        config = ExperimentConfig(
            model=spec, gamma=0.4, horizon=self.STOPS[-1], num_trajectories=20,
            master_seed=23, record_traces=traced,
        )
        lo, hi = 1, 9  # index 1 is the one informative world among them
        batch = montecarlo._Batch(config, lo, hi)
        for stop in self.STOPS:
            batch.advance(stop)
            assert batch.t == stop
            rows = batch.rows()
            short_rows, short_traces = _simulate_batch(
                dataclasses.replace(config, horizon=stop), lo, hi
            )
            # A Gaussian piece's first draws do not depend on its length; a
            # mixture piece draws all its picks before its normals, so a
            # shorter last piece reads other values from the stream.
            if spec.kind == "gaussian" or stop % CHUNK_STEPS == 0 or stop == config.horizon:
                assert rows.tobytes() == short_rows.tobytes(), stop
                if traced:
                    self._assert_traces_equal(batch.traces(), short_traces)
            elif traced:
                llrs = [(a.llrs != b.llrs).any() for a, b in zip(batch.traces(), short_traces)]
                assert llrs == list(rows["omega"] == 0) and 0 < sum(llrs) < len(llrs), stop
        whole_rows, whole_traces = _simulate_batch(config, lo, hi)
        assert batch.rows().tobytes() == whole_rows.tobytes()
        if traced:
            self._assert_traces_equal(batch.traces(), whole_traces)
        else:
            assert whole_traces is None


class TestMemory:
    def test_peak_allocation_does_not_grow_with_the_horizon(self):
        # The LLRs are drawn CHUNK_STEPS at a time, so ten times the horizon
        # needs no more memory; a whole-horizon draw would need ten times
        # the block.
        def peak(horizon):
            config = ExperimentConfig(
                model=GaussianSpec(sigma=1.0, tau=2.0),
                horizon=horizon,
                num_trajectories=16,
                master_seed=3,
            )
            tracemalloc.start()
            try:
                run_experiment(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk = montecarlo.CHUNK_STEPS
        short, long = peak(2 * chunk), peak(20 * chunk)
        assert long <= short + 32 * 1024, (short, long)


class TestRegimeSelection:
    def test_fixed_world(self):
        result = run_experiment(small_config(omega=0, theta="b"))
        assert np.all(result.rows["omega"] == 0)
        assert np.all(result.rows["theta"] == "b")

    def test_random_world_frequencies(self):
        result = run_experiment(small_config(gamma=0.3, num_trajectories=4000, horizon=5))
        frac_info = float(np.mean(result.rows["omega"]))
        frac_good = float(np.mean(result.rows["theta"] == "g"))
        assert abs(frac_info - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 4000)
        assert abs(frac_good - 0.5) < 3 * math.sqrt(0.25 / 4000)

    def test_fixing_the_world_keeps_the_stream(self):
        # Both world uniforms are drawn even when the config fixes omega or
        # theta, so a trajectory whose drawn world matches the fixed one
        # gets the same LLRs and the same row.
        free = run_experiment(small_config()).rows
        for fixed in (dict(omega=0), dict(theta="b"), dict(omega=1, theta="g")):
            rows = run_experiment(small_config(**fixed)).rows
            same = np.ones(len(free), dtype=bool)
            for key, value in fixed.items():
                same &= free[key] == value
            assert 0 < same.sum() < len(free)
            np.testing.assert_array_equal(rows[same], free[same])

    def test_herding_when_informative(self):
        result = run_experiment(
            small_config(omega=1, horizon=500, num_trajectories=400)
        )
        assert result.aggregates["herd_correctness_rate"] >= 0.95


class TestAggregates:
    def test_recomputable_from_rows(self):
        result = run_experiment(small_config())
        assert compute_aggregates(result.rows, 120) == result.aggregates

    def test_switch_statistics_consistency(self):
        result = run_experiment(small_config())
        rows = result.rows
        agg = result.aggregates
        assert agg["frac_switch_after_half"] == pytest.approx(
            float(np.mean(rows["last_switch_time"] > 60))
        )
        assert agg["frac_switch_after_half"] + agg["frac_consensus_second_half"] == 1.0

    def test_q_trend_with_horizon_under_informative_fatter(self):
        """Median evidence for informativeness grows with the horizon."""
        medians = []
        for horizon in (500, 1000, 2000):
            result = run_experiment(
                small_config(
                    omega=1, horizon=horizon, num_trajectories=400, master_seed=21
                )
            )
            sel = result.rows["q_log_odds"]
            medians.append(float(np.median(sel)))
        assert medians[0] < medians[1] < medians[2]


class TestCalibration:
    """With omega drawn from the prior, the observer's posterior is a
    martingale under its own prior, so E[q_T] = gamma and E[omega - q_T]
    = 0 at every horizon.  Both means must lie within 5 standard errors."""

    @pytest.mark.parametrize(
        "spec, gamma",
        [(GaussianSpec(sigma=1.0, tau=2.0), 0.5), (MixtureSpec(sigma=1.0, alpha=0.3), 0.2)],
        ids=["gauss-0.5", "mixture-0.2"],
    )
    def test_mean_q_final_is_gamma(self, spec, gamma):
        config = ExperimentConfig(
            model=spec, gamma=gamma, horizon=200, num_trajectories=20_000, master_seed=12
        )
        rows = run_experiment(config).rows
        n = len(rows)
        for x, mean in [(rows["q_final"], gamma), (rows["omega"] - rows["q_final"], 0.0)]:
            z = (x.mean() - mean) / (x.std(ddof=1) / math.sqrt(n))
            assert abs(z) <= 5.0, z


class TestTraces:
    def test_trace_contents(self):
        config = small_config(record_traces=True, num_trajectories=5, horizon=40)
        result = run_experiment(config)
        assert len(result.traces) == 5
        model = build_model(config.model)
        trace = result.traces[0]
        for t in range(40):
            expected = "g" if trace.llrs[t] >= -trace.r_before[t] else "b"
            assert trace.actions[t] == expected
        assert np.all((trace.q >= 0) & (trace.q <= 1))

    def test_absorbed_means_the_cap_was_reached(self):
        # Started at the cap with a near-flat noise law, most trajectories
        # leave the cap and end below it; each is absorbed iff some step
        # put |r| at R_CAP, whatever r is at the horizon.
        config = ExperimentConfig(
            GaussianSpec(1.0, 1e6), horizon=50, num_trajectories=200, omega=0,
            initial_r=R_CAP, master_seed=4, record_traces=True,
        )
        result = run_experiment(config)
        model = build_model(config.model)
        reached, ended = [], []
        for trace in result.traces:
            r_final = update_public(model, float(trace.r_before[-1]), str(trace.actions[-1]))
            after = np.append(trace.r_before[1:], r_final)
            reached.append(bool(np.any(np.abs(after) >= R_CAP)))
            ended.append(abs(r_final) >= R_CAP)
        assert result.rows["absorbed"].tolist() == reached
        # The case tells reaching from ending: absorbed runs that end below.
        assert sum(a and not e for a, e in zip(reached, ended)) > 100

    def test_traces_absent_by_default(self):
        assert run_experiment(small_config()).traces is None

    @pytest.mark.parametrize(
        "spec,horizon",
        [(GaussianSpec(sigma=1.0, tau=2.0), h) for h in (1, 256, 257, 2048, 2049)]
        + [(MixtureSpec(sigma=1.0, alpha=0.3), 2048)],
        ids=["gauss-1", "gauss-256", "gauss-257", "gauss-2048", "gauss-2049", "mixture-2048"],
    )
    def test_traced_q_is_the_final_q_of_a_shorter_run(self, spec, horizon):
        # A traced run computes q once per block of ACT_ROWS steps; its q
        # after step h is q_final of the run that stops there, bit for bit,
        # at both ends of a block and of a piece of CHUNK_STEPS draws.  A
        # shorter run draws a prefix of the same Gaussian stream; a mixture
        # piece draws all its picks first, so it only compares whole pieces.
        config = small_config(model=spec, num_trajectories=6, master_seed=17)
        traced = run_experiment(dataclasses.replace(config, horizon=2049, record_traces=True))
        rows = run_experiment(dataclasses.replace(config, horizon=horizon)).rows
        q = np.array([trace.q[horizon - 1] for trace in traced.traces])
        np.testing.assert_array_equal(q.view(np.int64), rows["q_final"].view(np.int64))


class TestResourceError:
    def test_partial_result_error(self, monkeypatch):
        import herdlearn.montecarlo as mc

        real = mc._simulate_batch
        calls = {"n": 0}

        def flaky(config, lo, hi):
            calls["n"] += 1
            if calls["n"] == 3:
                raise MemoryError("boom")
            return real(config, lo, hi)

        monkeypatch.setattr(mc, "_simulate_batch", flaky)
        monkeypatch.setattr(mc, "BATCH_SIZE", 100)
        with pytest.raises(ExperimentResourceError) as err:
            run_experiment(small_config())
        assert len(err.value.completed_rows) == 200

    def test_batches_are_not_listed_before_the_work(self, monkeypatch):
        # A million one-trajectory batches: a list of their bounds, made
        # before the first batch ran, peaked at 128 MB.
        calls = {"n": 0}

        def fails_third(config, lo, hi):
            calls["n"] += 1
            if calls["n"] == 3:
                raise MemoryError
            return _simulate_batch(config, lo, hi)

        monkeypatch.setattr(montecarlo, "_simulate_batch", fails_third)
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 1)
        config = small_config(num_trajectories=10**6)
        tracemalloc.start()
        try:
            with pytest.raises(ExperimentResourceError) as err:
                run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(err.value.completed_rows) == 2
        assert peak < 2**20, peak

    def test_partial_result_error_with_workers(self, monkeypatch):
        full = run_experiment(small_config()).rows
        monkeypatch.setattr(montecarlo, "_simulate_batch", _out_of_memory_from_200)
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 100)
        with pytest.raises(ExperimentResourceError, match="out of memory") as err:
            run_experiment(small_config(workers=2))
        np.testing.assert_array_equal(err.value.completed_rows, full[:200])

    def test_dead_worker_keeps_finished_batches(self, monkeypatch):
        full = run_experiment(small_config()).rows
        monkeypatch.setattr(montecarlo, "_simulate_batch", _worker_dies_at_200)
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 100)
        with pytest.raises(ExperimentResourceError, match="worker") as err:
            run_experiment(small_config(workers=2))
        # Batches that finished before the pool broke come back in order.
        done = err.value.completed_rows
        assert len(done) in (0, 100, 200)
        np.testing.assert_array_equal(done, full[: len(done)])


class TestConsistencyWithConsensus:
    def test_all_g_frequency_matches_truncated_product(self):
        """Desk-scale version of the product/frequency cross-check."""
        from herdlearn import immediate_agreement_prob

        spec = GaussianSpec(sigma=1.0, tau=0.5)
        n = 40_000
        config = ExperimentConfig(
            model=spec,
            gamma=0.5,
            horizon=20,
            num_trajectories=n,
            omega=0,
            master_seed=77,
            record_traces=True,
        )
        result = run_experiment(config)
        acts = np.array([tr.actions for tr in result.traces])
        freq = float(np.mean(np.all(acts == "g", axis=1)))
        product = immediate_agreement_prob(
            build_model(spec), "0", 0.0, 20
        ).truncated_product
        se = math.sqrt(product * (1 - product) / n)
        assert abs(freq - product) <= 3 * se, (freq, product, 3 * se)


class TestSameVariance:
    def test_table_shape_and_pairing(self):
        table = same_variance_experiment(
            sigma=1.0,
            m0_grid=[0.0, 0.5],
            horizon=200,
            num_trajectories=400,
            master_seed=5,
        )
        assert [row["m0"] for row in table] == [0.0, 0.5]
        for row in table:
            assert set(row) == {
                "m0",
                "disagreement_rate",
                "mean_switch_count",
                "frac_switch_after_half",
                "median_q_final",
            }
            assert 0.0 <= row["disagreement_rate"] <= 1.0
            assert 0.0 <= row["median_q_final"] <= 1.0
