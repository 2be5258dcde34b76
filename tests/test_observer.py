"""Observer filter: exact Bayes over four hypotheses from actions alone."""

import math

import numpy as np
import pytest

from herdlearn import (
    InvalidParameterError,
    observer_init,
    observer_update,
    replay,
    update_public,
)
from herdlearn import observer
from herdlearn.dynamics import R_CAP, WALK_BLOCK
from herdlearn.observer import ObserverState, history_log_liks, posterior_columns
from herdlearn import ExperimentConfig, GaussianSpec, build_model, run_experiment

import oracles
from oracles import batch_posterior, history_log_prob


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
            state.posterior, [0.35, 0.35, 0.15, 0.15], atol=1e-15
        )

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, 2.0])
    def test_gamma_validation(self, gamma):
        with pytest.raises(InvalidParameterError):
            observer_init(gamma)

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
            post = state.posterior
            assert post[2] == pytest.approx(post[3], abs=0.0)

    def test_r_track_folds_update_public(self, mixture_half):
        state = observer_init(0.4, initial_r=0.7)
        r = 0.7
        for action in ("g", "g", "b", "g", "b", "b"):
            state = observer_update(state, mixture_half, action)
            r = update_public(mixture_half, r, action)
            assert state.r_track == r

    def test_recentered_loglik(self, gauss_fat):
        state = observer_init(0.5)
        for action in ("g",) * 50:
            state = observer_update(state, gauss_fat, action)
        assert state.log_lik.max() == pytest.approx(0.0, abs=0.0)


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
        post = state.posterior
        r = state.r_track
        probs = [
            math.exp(float(model.log_tail(reg, "right", -r)))
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
            record_q=False,
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


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
        state = ObserverState(log_lik=np.zeros(4), gamma=0.5, r_track=initial_r, t=7)
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

        def counted(model, r, took_g, with_noise):
            calls.append(np.size(r))
            return original(model, r, took_g, with_noise)

        monkeypatch.setattr(observer, "step", counted)
        history_log_liks(gauss_fat, observer_init(0.5), ["g", "b"] * WALK_BLOCK)
        assert calls == [WALK_BLOCK, WALK_BLOCK]


class TestLongRunStability:
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
