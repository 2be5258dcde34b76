"""Observer filter: exact Bayes over four hypotheses from actions alone."""

import math

import numpy as np
import pytest

from herdlearn import (
    InvalidParameterError,
    observer_init,
    observer_update,
    update_public,
)
from herdlearn import observer
from herdlearn.dynamics import R_CAP, WALK_BLOCK, Workspace, step
from herdlearn.observer import (
    LOG_2,
    ObserverState,
    history_log_liks,
    posterior_columns,
    replay,
)
from herdlearn import ExperimentConfig, GaussianSpec, MixtureSpec, build_model, run_experiment

import oracles
from oracles import batch_posterior, history_log_prob, same_bits


def philox(seed, index=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


class TestInit:
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.123])
    def test_prior(self, gamma):
        state = observer_init(gamma)
        assert state.q == pytest.approx(gamma, abs=1e-15)
        assert state.t == 1

    def test_four_state_prior_split(self):
        state = observer_init(0.7, initial_r=0.0)
        np.testing.assert_allclose(
            oracles.posterior(state), [0.35, 0.35, 0.15, 0.15], atol=1e-15
        )

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, 2.0, 5e-324])
    def test_gamma_validation(self, gamma):
        with pytest.raises(InvalidParameterError):
            observer_init(gamma)

    @pytest.mark.parametrize("initial_r", [math.inf, -math.inf, math.nan])
    def test_initial_r_validation(self, initial_r):
        with pytest.raises(InvalidParameterError, match="initial_r must be finite"):
            observer_init(0.5, initial_r)

    def test_log_odds_at_prior(self):
        state = observer_init(0.5)
        assert state.log_odds == pytest.approx(0.0, abs=1e-15)


class TestUpdate:
    def test_first_action_uninformative_when_noise_symmetric(self, gauss_fat):
        # Symmetric noise and a symmetric informative pair make the first
        # action carry no evidence about informativeness.
        state = observer_update(observer_init(0.5), gauss_fat, "g")
        assert state.q == pytest.approx(0.5, abs=1e-12)
        assert state.t == 2

    def test_q3_after_two_g(self, gauss_fat):
        state = observer_init(0.5)
        for action in ("g", "g"):
            state = observer_update(state, gauss_fat, action)
        assert state.q == pytest.approx(oracles.Q3_AFTER_GG_SIGMA1_TAU2, abs=1e-12)

    def test_noise_branch_keeps_theta_uniform(self, gauss_fat):
        state = observer_init(0.5)
        for action in ("g", "b", "g", "g", "b"):
            state = observer_update(state, gauss_fat, action)
            post = oracles.posterior(state)
            assert post[2] == pytest.approx(post[3], abs=0.0)

    def test_r_track_folds_update_public(self, mixture_half):
        state = observer_init(0.4, initial_r=0.7)
        r = 0.7
        for action in ("g", "g", "b", "g", "b", "b"):
            state = observer_update(state, mixture_half, action)
            r = update_public(mixture_half, r, action)
            assert state.r_track == r

    def test_loglik_is_the_running_sum(self, gauss_fat):
        # The kernel's tails, added in order, as the engine adds them.
        state = observer_init(0.5, initial_r=0.3)
        want = np.zeros(3)
        for action in ("g",) * 50 + ("b",) * 5:
            _, *tails = oracles.step_at(gauss_fat, state.r_track, action == "g")
            want = want + tails
            state = observer_update(state, gauss_fat, action)
            assert same_bits(state.log_lik, want)
        assert state.log_lik.max() < -1.0  # never re-centered


class TestBatchPosterior:
    def test_empty_history_is_prior(self, gauss_fat):
        assert batch_posterior(gauss_fat, 0.37, 0.0, []) == 0.37

    def test_q3_example(self, gauss_fat):
        assert batch_posterior(gauss_fat, 0.5, 0.0, ["g", "g"]) == pytest.approx(
            oracles.Q3_AFTER_GG_SIGMA1_TAU2, abs=1e-12
        )

    def test_matches_incremental_on_random_histories(self, gauss_fat, mixture_half):
        rng = philox(909)
        worst = 0.0
        for model in (gauss_fat, mixture_half):
            for _ in range(150):
                n = int(rng.integers(1, 201))
                actions = ["g" if u < 0.5 else "b" for u in rng.random(n)]
                state = observer_init(0.5)
                for a in actions:
                    state = observer_update(state, model, a)
                worst = max(worst, abs(state.q - batch_posterior(model, 0.5, 0.0, actions)))
        assert worst <= 1e-12

    def test_matches_incremental_nonuniform_start(self, gauss_fat):
        actions = ["b", "b", "g", "b"]
        state = observer_init(0.8, initial_r=-1.2)
        for a in actions:
            state = observer_update(state, gauss_fat, a)
        assert batch_posterior(gauss_fat, 0.8, -1.2, actions) == pytest.approx(
            state.q, abs=1e-13
        )


class TestMartingale:
    def _predictive(self, model, state):
        post = oracles.posterior(state)
        r = state.r_track
        probs = [
            math.exp(float(model.cdf_for(reg).log_sf(-r)))
            for reg in ("g", "b", "0", "0")
        ]
        return float(np.dot(post, probs))

    def test_exact_two_point_identity(self, gauss_fat):
        """E[q_next | history] = q exactly, state by state."""
        state = observer_init(0.5)
        for action in ("g", "g", "b"):
            p_g = self._predictive(gauss_fat, state)
            q_g = observer_update(state, gauss_fat, "g").q
            q_b = observer_update(state, gauss_fat, "b").q
            assert p_g * q_g + (1 - p_g) * q_b == pytest.approx(state.q, abs=1e-12)
            state = observer_update(state, gauss_fat, action)

    def test_monte_carlo_one_step(self, gauss_fat):
        state = observer_init(0.5)
        for action in ("g", "b"):
            state = observer_update(state, gauss_fat, action)
        p_g = self._predictive(gauss_fat, state)
        q_g = observer_update(state, gauss_fat, "g").q
        q_b = observer_update(state, gauss_fat, "b").q
        draws = philox(55).random(20_000) < p_g
        samples = np.where(draws, q_g, q_b)
        se = samples.std() / math.sqrt(len(samples))
        assert abs(samples.mean() - state.q) <= 3 * se


class TestLikelihoodSanity:
    def test_prefix_frequencies_match_filter(self):
        """Unconditional length-3 prefix frequencies match the filter's
        product-form history probabilities."""
        n = 100_000
        config = ExperimentConfig(
            model=GaussianSpec(sigma=1.0, tau=2.0),
            gamma=0.5,
            horizon=3,
            num_trajectories=n,
            master_seed=808,
            record_traces=True,
        )
        result = run_experiment(config)
        acts = np.array([tr.actions for tr in result.traces])
        model = build_model(config.model)
        for prefix in [(a, b, c) for a in "gb" for b in "gb" for c in "gb"]:
            freq = float(np.mean(np.all(acts == np.array(prefix), axis=1)))
            prob = math.exp(history_log_prob(model, 0.5, 0.0, list(prefix)))
            se = math.sqrt(prob * (1 - prob) / n)
            assert abs(freq - prob) <= 3 * se, (prefix, freq, prob)


class TestReplay:
    def test_replay_yields_prior_then_updates(self, gauss_fat):
        states = list(replay(gauss_fat, 0.5, 0.0, ["g", "g"]))
        assert [s.t for s in states] == [1, 2, 3]
        assert states[0].q == 0.5
        assert states[2].q == pytest.approx(oracles.Q3_AFTER_GG_SIGMA1_TAU2, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 0.2])
    def test_stacked_columns_equal_each_state(self, gauss_fat, mixture_half, gamma):
        # A random history, then a long herd that drives q to 1.
        actions = ["g" if u < 0.5 else "b" for u in philox(77).random(400)]
        actions += ["g"] * 2_000
        for model in (gauss_fat, mixture_half):
            states = list(replay(model, gamma, 0.3, actions))
            q, log_odds = posterior_columns(np.array([s.log_lik for s in states]), gamma)
            assert q.tolist() == [s.q for s in states]
            assert log_odds.tolist() == [s.log_odds for s in states]

    def test_impossible_action_is_rejected(self, gauss_fat):
        # At r = 1e300 a B action has probability 0 under every law.
        state = observer_init(0.5, initial_r=1e300)
        with np.errstate(invalid="ignore"):
            with pytest.raises(InvalidParameterError, match="action 1 .* impossible"):
                observer_update(state, gauss_fat, "b")
        assert observer_update(state, gauss_fat, "g").r_track == R_CAP


class TestPosteriorColumns:
    """Three law columns give the q and log-odds of the former formula over
    four hypotheses (``oracles.four_hypothesis_columns``) to rounding, and
    ``ObserverState`` gives ``posterior_columns``' bits."""

    @pytest.mark.parametrize("gamma", [1e-300, 0.5, 1 - 2**-53])
    def test_gives_the_four_hypothesis_bits(self, gamma):
        rng = philox(18)
        rows = [rng.normal(0.0, scale, size=(200, 3)) for scale in (1.0, 50.0, 1e3)]
        inf = math.inf
        rows.append(
            [
                [0.0, 0.0, 0.0],
                [0.0, -inf, -3.0],
                [-inf, 0.0, -0.5],
                [-inf, -inf, 0.0],  # log-odds -inf, q at its floor
                [0.0, -2.0, -inf],  # log-odds +inf, q 1
                [-inf, -inf, -inf],
                [0.0, 0.0, -800.0],  # log-odds beyond +709
                [-800.0, -900.0, 0.0],  # and beyond -709
                [0.0, -1e300, -1e300],
                [-1e-300, 5e-324, -5e-324],
            ]
        )
        log_lik = np.concatenate(rows)
        # The row of three -inf has no posterior: NaN, from both formulas.
        with np.errstate(invalid="ignore"):
            q, log_odds = posterior_columns(log_lik, gamma)
            want_q, want_log_odds = oracles.four_hypothesis_columns(log_lik, gamma)
            # One row at a time, as ``ObserverState`` forms its q.
            states = [ObserverState(row, gamma, 0.0, 1) for row in log_lik[-10:]]
            assert same_bits([s.q for s in states], q[-10:])
            assert same_bits([s.log_odds for s in states], log_odds[-10:])
        # Each formula rounds a handful of sums of terms no larger than the
        # row's finite entries and the log priors, so they may differ by 8
        # units of that scale's last place; q, of slope at most 1/4 in the
        # log-odds, by a quarter of that and its own rounding.  Beyond +-709
        # the new q saturates at 1/(1 + e^709) or 1.
        finite = np.where(np.isfinite(log_lik), np.abs(log_lik), 0.0).max(axis=1)
        scale = 1.0 + finite + abs(math.log(gamma / 2)) + abs(math.log((1 - gamma) / 2))
        tol = 8 * np.finfo(float).eps * scale
        same = np.isfinite(want_log_odds)
        assert same_bits(log_odds[~same], want_log_odds[~same])
        tol = tol[same]
        assert np.all(np.abs(log_odds[same] - want_log_odds[same]) <= tol)
        assert np.all(np.abs(q[same] - want_q[same]) <= tol / 4 + 4 * np.finfo(float).eps)
        assert same_bits(np.isnan(q), np.isnan(want_q))
        assert q[-7] == 1 / (1 + math.exp(709.0)) and want_q[-7] == 0.0
        finite = log_odds[np.isfinite(log_odds)]
        assert finite.max() > 709.0 and finite.min() < -709.0


class TestHistoryLogLiks:
    """The block filter against ``oracles.reference_update``, the per-action
    fold of ``step`` it replaced."""

    @pytest.mark.parametrize("gamma", [0.2, 0.5])
    def test_equals_the_per_action_fold(self, gauss_fat, mixture_half, gamma):
        # Random actions, then herds of 200, over more than two blocks.
        rng = philox(31)
        actions = ["g" if u < 0.5 else "b" for u in rng.random(600)]
        for u in rng.random(12):
            actions += ["g" if u < 0.5 else "b"] * 200
        assert len(actions) > 2 * WALK_BLOCK
        for model in (gauss_fat, mixture_half):
            state = observer_init(gamma, initial_r=0.3)
            log_liks, rs = history_log_liks(model, state, actions)
            want_log_liks, want_rs = oracles.reference_fold(state, model, actions)
            assert same_bits(log_liks, want_log_liks)
            assert same_bits(rs, want_rs)
            q, log_odds = posterior_columns(log_liks, gamma)
            want_q, want_log_odds = posterior_columns(want_log_liks, gamma)
            assert same_bits(q, want_q) and same_bits(log_odds, want_log_odds)

    def test_starts_from_any_state(self, mixture_half):
        actions = ["g", "b", "b", "g", "g", "g", "b"]
        state = observer_update(observer_init(0.3, initial_r=-1.5), mixture_half, "b")
        got = history_log_liks(mixture_half, state, actions)
        want = oracles.reference_fold(state, mixture_half, actions)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def test_zero_actions_give_the_prior_row(self, gauss_fat):
        state = observer_init(0.4, initial_r=-2.5)
        log_liks, rs = history_log_liks(gauss_fat, state, [])
        assert same_bits(log_liks, [state.log_lik])
        assert same_bits(rs, [-2.5])

    @pytest.mark.parametrize(
        "spec, initial_r, why",
        [
            (GaussianSpec(sigma=1.0, tau=2.0), 1e300, "every hypothesis"),
            (GaussianSpec(sigma=1.0, tau=1e100), 1e160, "both informative ones"),
        ],
    )
    def test_impossible_action_message_is_unchanged(self, spec, initial_r, why):
        model = build_model(spec)
        state = ObserverState(log_lik=np.zeros(3), gamma=0.5, r_track=initial_r, t=7)
        with pytest.raises(InvalidParameterError) as want:
            with np.errstate(invalid="ignore"):
                oracles.reference_update(state, model, "b")
        with pytest.raises(InvalidParameterError) as got:
            history_log_liks(model, state, ["b", "g", "b"])
        assert str(got.value) == str(want.value)
        assert f"action 7 ('b') is impossible at public LLR {initial_r!r}" in str(got.value)
        assert why in str(got.value)

    def test_calls_step_once_per_block(self, gauss_fat, monkeypatch):
        calls = []
        original = observer.step

        def counted(model, r, took_g, work):
            calls.append(np.size(r))
            return original(model, r, took_g, work)

        monkeypatch.setattr(observer, "step", counted)
        history_log_liks(gauss_fat, observer_init(0.5), ["g", "b"] * WALK_BLOCK)
        assert calls == [WALK_BLOCK, WALK_BLOCK]


class TestOnePosterior:
    """Replaying a trace's actions through ``history_log_liks`` and
    ``posterior_columns`` gives the trace's q and r and the row's q
    columns bit for bit: the engine and replay keep the same running sums
    and form q with the same formula."""

    @pytest.mark.parametrize("gamma, initial_r", [(0.5, 0.0), (0.2, 0.7), (1e-300, -1.3)])
    @pytest.mark.parametrize(
        "spec",
        [
            GaussianSpec(sigma=1.0, tau=2.0),
            GaussianSpec(sigma=1.0, tau=0.5),
            GaussianSpec(sigma=1.0, tau=1.0, m0=0.5),
            MixtureSpec(sigma=1.0, alpha=0.3),
        ],
        ids=["tau2", "tau05", "m05", "mixture"],
    )
    def test_replay_gives_every_traced_bit(self, spec, gamma, initial_r):
        # 4500 steps cross two pieces of CHUNK_STEPS draws.
        config = ExperimentConfig(
            model=spec,
            gamma=gamma,
            horizon=4500,
            num_trajectories=16,
            initial_r=initial_r,
            master_seed=21,
            record_traces=True,
        )
        result = run_experiment(config)
        model = build_model(spec)
        state = observer_init(gamma, initial_r)
        for row, trace in zip(result.rows, result.traces):
            log_liks, rs = history_log_liks(model, state, trace.actions == "g")
            q, log_odds = posterior_columns(log_liks, gamma)
            assert np.array_equal(trace.r_before, rs[:-1])
            assert np.array_equal(trace.q, q[1:])
            assert np.array_equal(row["q_final"], q[-1])
            assert np.array_equal(row["q_log_odds"], log_odds[-1])


class TestArrayActions:
    """Only a boolean array is taken as the G mask; every other sequence,
    arrays included, goes through ``is_g``."""

    def test_string_arrays_replay_their_actions(self, gauss_fat):
        state = observer_init(0.5, initial_r=0.2)
        actions = ["g", "b", "b", "g", "b"]
        got = history_log_liks(gauss_fat, state, np.array(actions))
        want = history_log_liks(gauss_fat, state, actions)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        mask = history_log_liks(gauss_fat, state, np.array([a == "g" for a in actions]))
        assert same_bits(mask[1], want[1])
        all_g = history_log_liks(gauss_fat, state, ["g"] * len(actions))
        assert not same_bits(got[1], all_g[1])

    @pytest.mark.parametrize(
        "actions",
        [np.array([1, 0, 1]), np.array([1.0]), np.array(["g", "x"]), np.array(["G"])],
        ids=["int", "float", "letter", "upper"],
    )
    def test_other_arrays_get_the_action_error(self, gauss_fat, actions):
        with pytest.raises(InvalidParameterError, match="action must be one of"):
            history_log_liks(gauss_fat, observer_init(0.5), actions)


def _poison(monkeypatch, name, at, laws=slice(None)):
    """Patch ``observer.step`` to give action ``at`` (0-based) of a history
    -inf tails under ``laws`` (rows of F_g, F_b, F_0), or ``observer.walk``
    to make the public LLR after it NaN; the blocks are counted as they
    pass."""
    original = getattr(observer, name)
    done = [0]  # actions in the blocks before this call

    def poisoned(model, r, took_g, *work):
        out = original(model, r, took_g, *work)
        k = at - done[0]
        done[0] += len(took_g)
        if 0 <= k < len(took_g):
            if work:
                work[0].tails[laws, k] = -math.inf
            else:
                out[k + 1] = math.nan
        return out

    monkeypatch.setattr(observer, name, poisoned)


class TestBlockCheck:
    """Impossible actions are found once per block; the error names the
    action, the public LLR before it and the reason exactly as checking
    each action in turn did."""

    N = 2500  # two full blocks and a partial one

    @pytest.mark.parametrize("at", [0, WALK_BLOCK - 1, WALK_BLOCK, 2300, N - 1])
    @pytest.mark.parametrize(
        "name, why", [("step", "every hypothesis"), ("walk", "both informative ones")]
    )
    def test_names_the_first_impossible_action(self, gauss_fat, monkeypatch, name, why, at):
        actions = ["g" if u < 0.5 else "b" for u in philox(55).random(self.N)]
        state = ObserverState(log_lik=np.zeros(3), gamma=0.5, r_track=0.4, t=3)
        _, rs = history_log_liks(gauss_fat, state, actions)
        _poison(monkeypatch, name, at)
        with pytest.raises(InvalidParameterError) as err:
            history_log_liks(gauss_fat, state, actions)
        assert str(err.value) == (
            f"action {3 + at} ({actions[at]!r}) is impossible at public LLR "
            f"{float(rs[at])!r}: it has probability 0 under {why}"
        )

    def test_the_first_of_two_is_named(self, gauss_fat, monkeypatch):
        actions = ["b"] * self.N
        _poison(monkeypatch, "step", 1500)
        _poison(monkeypatch, "walk", 1200)
        with pytest.raises(InvalidParameterError, match="action 1201 .* both informative"):
            history_log_liks(gauss_fat, observer_init(0.5), actions)

    def test_a_law_ruled_out_before_counts(self, gauss_fat, monkeypatch):
        # F_g is already impossible, so -inf tails under F_b and F_0 alone
        # leave the action probability 0 under every hypothesis.
        state = ObserverState(np.array([-math.inf, 0.0, -1.0]), 0.5, 0.4, 1)
        actions = ["g", "b"] * (self.N // 2)
        _, rs = history_log_liks(gauss_fat, state, actions)
        _poison(monkeypatch, "step", 1500, laws=slice(1, None))
        with pytest.raises(InvalidParameterError) as err:
            history_log_liks(gauss_fat, state, actions)
        assert str(err.value) == (
            f"action 1501 ('g') is impossible at public LLR {float(rs[1500])!r}: "
            "it has probability 0 under every hypothesis"
        )

    def test_full_blocks_share_a_workspace(self, gauss_fat, monkeypatch):
        seen = []
        original = observer.step

        def recorded(model, r, took_g, work):
            seen.append((work, len(r)))
            return original(model, r, took_g, work)

        monkeypatch.setattr(observer, "step", recorded)
        history_log_liks(gauss_fat, observer_init(0.5), ["g", "b"] * (self.N // 2))
        (w0, n0), (w1, n1), (w2, n2) = seen
        assert w0 is w1 and w2 is not w0
        assert (n0, n1, n2) == (WALK_BLOCK, WALK_BLOCK, self.N - 2 * WALK_BLOCK)


class TestLongRunStability:
    def test_running_sums_stay_accurate(self, gauss_fat):
        """2e5 actions in long herds with breaks, and B actions at
        r = +-R_CAP (tails near -1.25e11 at +R_CAP, -0 at -R_CAP), in
        segments that start at the given r and carry the log-likelihoods.
        The log-odds must match the priors plus ``math.fsum`` of the
        kernel's tails per column.  Every tail is <= 0, so a column's sum
        has no cancellation and recursive summation of n terms errs by at
        most (n - 1) u of it (u = 2**-53); the log-odds add a few
        roundings of the columns and priors.  Hence the tolerance, relative
        to those magnitudes: (n + 8) u.  Measured at the four segment
        ends: log-odds from -1640 to -2.8e11, relative errors 6e-15 to
        5e-14, at most 158 u of the scale against the bound's 2e5 u."""
        gamma, u = 0.3, 2.0**-53
        rng = philox(2024)
        segments = []  # (r before the segment, its actions)
        for r0, lead in [(0.0, ""), (R_CAP, "b"), (-R_CAP, "bbb"), (R_CAP, "bb")]:
            actions = list(lead)
            action = "g"
            while len(actions) < 50_000:
                actions += [action] * int(rng.geometric(1 / 60))
                action = "b" if action == "g" else "g"
                actions += [action] * int(rng.geometric(1 / 2))
                action = "b" if action == "g" else "g"
            segments.append((r0, actions))
        n = sum(len(actions) for _, actions in segments)
        assert n >= 200_000
        state = observer_init(gamma)
        tails = [[], [], []]  # the kernel's tails under F_g, F_b, F_0
        lg, l0 = math.log(gamma / 2), math.log((1 - gamma) / 2)
        for r0, actions in segments:
            state = ObserverState(state.log_lik, gamma, r0, state.t)
            log_liks, rs = history_log_liks(gauss_fat, state, actions)
            took_g = np.array(actions) == "g"
            work = Workspace(gauss_fat, len(actions))
            step(gauss_fat, rs[:-1].copy(), took_g, work)
            for column, row in zip(tails, work.tails.tolist()):
                column += row
            state = ObserverState(log_liks[-1], gamma, float(rs[-1]), state.t + len(actions))
            s_g, s_b, s_0 = (math.fsum(column) for column in tails)
            want = float(np.logaddexp(s_g, s_b)) + lg - (s_0 + LOG_2 + l0)
            got = state.log_odds
            scale = abs(s_g) + abs(s_b) + abs(s_0) + abs(lg) + abs(l0) + LOG_2
            assert abs(got - want) <= (n + 8) * u * scale, (got, want)


    def test_long_random_history_stays_finite(self, gauss_fat):
        rng = philox(4242)
        state = observer_init(0.5)
        for u in rng.random(20_000):
            state = observer_update(state, gauss_fat, "g" if u < 0.5 else "b")
        assert np.all(np.isfinite(state.log_lik))
        assert 0.0 <= state.q <= 1.0
        assert math.isfinite(state.log_odds)

    def test_q_stays_a_probability_over_a_long_herd(self, gauss_fat):
        # Once the noise weights are ~1e-16 of the informative ones, adding
        # two normalized informative weights rounds above 1.
        qs = [s.q for s in replay(gauss_fat, 0.5, 0.0, ["g"] * 3_000)]
        assert all(0.0 <= q <= 1.0 for q in qs)
        assert qs[-1] == 1.0

    def test_long_consensus_q_goes_informative(self, gauss_fat):
        # An unbroken herd looks informative: log-odds grow without NaNs.
        state = observer_init(0.5)
        for _ in range(5_000):
            state = observer_update(state, gauss_fat, "g")
        assert state.log_odds > 1.0
        assert math.isfinite(state.log_odds)
