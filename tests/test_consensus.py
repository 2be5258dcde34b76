"""Consensus-path analysis: the deterministic map, sum certificates, and
immediate-agreement bounds."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from herdlearn import (
    GaussianSpec,
    InvalidParameterError,
    MixtureSpec,
    SumVerdict,
    build_model,
    consensus,
    consensus_path,
    divergence_test,
    immediate_agreement_prob,
)
from herdlearn.consensus import (
    AgreementEstimate,
    ConsensusPath,
    DivergenceResult,
    tail_sum_upper_bound,
)
from herdlearn.dynamics import R_CAP, WALK_BLOCK, jump_b, jump_g, update_public, walk

import oracles


class TestPhi:
    def test_at_zero(self, gauss_fat):
        assert update_public(gauss_fat, 0.0, "g") == pytest.approx(
            oracles.JUMP_G_AT_0_SIGMA1, abs=1e-12
        )

    def test_at_minus5(self, gauss_fat):
        assert update_public(gauss_fat, -5.0, "g") == pytest.approx(
            -5.0 + oracles.JUMP_G_AT_M5_SIGMA1, abs=1e-10
        )

    def test_mirror_of_b_jump(self, gauss_fat):
        assert update_public(gauss_fat, 0.0, "g") == pytest.approx(
            -(0.0 + float(jump_b(gauss_fat, 0.0))), abs=1e-12
        )


class TestConsensusPath:
    def test_first_three_values(self, gauss_fat):
        path = consensus_path(gauss_fat, 0.0, 3)
        np.testing.assert_allclose(
            path.values,
            [0.0, oracles.JUMP_G_AT_0_SIGMA1, oracles.PATH3_SIGMA1],
            atol=1e-12,
        )
        assert not path.absorbed

    def test_strictly_increasing(self, gauss_fat):
        path = consensus_path(gauss_fat, 0.0, 500)
        assert np.all(np.diff(path.values) > 0)

    def test_prior_shifted_start(self, gauss_fat):
        path = consensus_path(gauss_fat, -3.0, 10)
        assert path.values[0] == -3.0
        assert path.values[1] == pytest.approx(
            update_public(gauss_fat, -3.0, "g"), abs=0.0
        )

    def test_absorption_at_cap(self, gauss_fat):
        path = consensus_path(gauss_fat, R_CAP, 3)
        assert path.absorbed
        assert np.all(np.abs(path.values) <= R_CAP)

    @pytest.mark.parametrize("initial_r,horizon", [(0.0, 1), (-3.0, 10), (0.0, 500)])
    def test_next_r_is_the_step_after_the_last_value(
        self, gauss_fat, initial_r, horizon
    ):
        path = consensus_path(gauss_fat, initial_r, horizon)
        assert not path.absorbed
        assert path.next_r == update_public(gauss_fat, float(path.values[-1]), "g")

    def test_next_r_of_an_absorbed_path_is_the_capped_value(self, gauss_fat):
        path = consensus_path(gauss_fat, R_CAP, 3)
        assert path.absorbed
        assert path.next_r == path.values[-1] == R_CAP

    def test_validation(self, gauss_fat):
        with pytest.raises(InvalidParameterError):
            consensus_path(gauss_fat, 0.0, 0)
        with pytest.raises(InvalidParameterError):
            consensus_path(gauss_fat, math.inf, 5)

    @pytest.mark.parametrize("initial_r", [0.0, -40.0, 2e6, R_CAP])
    def test_values_and_next_r_are_the_walk(self, gauss_fat, mixture_half, initial_r):
        horizon = 2 * WALK_BLOCK + 5
        for model in (gauss_fat, mixture_half):
            path = consensus_path(model, initial_r, horizon)
            want = walk(model, initial_r, [True] * horizon)
            got = np.append(path.values, path.next_r)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert path.absorbed == (initial_r >= R_CAP)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("initial_r", [-1e160, -1e300])
    def test_start_where_g_is_impossible_is_rejected(self, gauss_fat, initial_r):
        # Both informative laws give a G action probability 0 there, so the
        # jump, and the path, would be NaN.
        with pytest.raises(InvalidParameterError) as err:
            consensus_path(gauss_fat, initial_r, 3)
        assert f"initial_r={initial_r!r}" in str(err.value)
        assert "probability 0 under both informative laws" in str(err.value)


class TestDivergenceTest:
    def test_fatter_noise_diverges(self, gauss_fat):
        path = consensus_path(gauss_fat, 0.0, 2000)
        result = divergence_test(gauss_fat, path, "0")
        assert result.verdict is SumVerdict.DIVERGES
        assert result.partial_sums[-1] >= 20.0

    def test_thinner_noise_converges_with_certificate(self, gauss_thin):
        path = consensus_path(gauss_thin, 0.0, 3000)
        result = divergence_test(gauss_thin, path, "0")
        assert result.verdict is SumVerdict.CONVERGES
        assert result.tail_bound < 1e-9

    def test_wrong_state_tail_diverges_structurally(self, gauss_fat):
        path = consensus_path(gauss_fat, 0.0, 1000)
        result = divergence_test(gauss_fat, path, "b")
        assert result.verdict is SumVerdict.DIVERGES
        assert math.isinf(result.sum_lower_bound)

    def test_boundary_is_inconclusive(self, gauss_boundary):
        path = consensus_path(gauss_boundary, 0.0, 5000)
        result = divergence_test(gauss_boundary, path, "0")
        assert result.verdict is SumVerdict.INCONCLUSIVE

    def test_prior_independence_of_convergence(self, gauss_thin):
        """Convergence from one start implies it from the uniform start."""
        for start in (2.0, 0.0, -1.0):
            path = consensus_path(gauss_thin, start, 4000)
            result = divergence_test(gauss_thin, path, "0")
            assert result.verdict is SumVerdict.CONVERGES, start

    def test_partial_sums_monotone_in_noise_spread(self, gauss_fat):
        """Widening the noise law only raises the left-tail partial sums."""
        path = consensus_path(gauss_fat, 0.0, 400)
        previous = None
        for tau in (0.6, 1.0, 1.5, 2.0):
            model = build_model(GaussianSpec(sigma=1.0, tau=tau))
            sums = divergence_test(model, path, "0").partial_sums
            if previous is not None:
                assert np.all(sums >= previous - 1e-12)
            previous = sums

    def test_empty_path_rejected(self, gauss_fat):
        path = consensus_path(gauss_fat, 0.0, 1)
        stub = type(path)(values=np.array([]), next_r=0.0, absorbed=False)
        with pytest.raises(InvalidParameterError):
            divergence_test(gauss_fat, stub, "0")


class TestTailBoundSoundness:
    """The certified remainder bound must dominate the true remainder."""

    @pytest.mark.parametrize("tau,horizon", [(0.5, 2000), (0.6, 20000)])
    def test_bound_dominates_brute_force_tail(self, tau, horizon):
        model = build_model(GaussianSpec(sigma=1.0, tau=tau))
        extended = consensus_path(model, 0.0, horizon + 300_000)
        rs = extended.values
        h = np.exp(np.asarray(model.cdf_0.log_cdf(-rs)))
        brute_tail = float(h[horizon:].sum())
        rho = update_public(model, float(rs[horizon - 1]), "g")
        bound = tail_sum_upper_bound(model, "0", rho)
        assert math.isfinite(bound)
        assert brute_tail <= bound, (brute_tail, bound)
        assert bound < 1e-6


class TestCertificateShape:
    """Each certificate fact is held once: no echoed inputs, one remainder
    bound, left sums only."""

    def test_result_fields(self):
        assert [f.name for f in dataclasses.fields(ConsensusPath)] == [
            "values", "next_r", "absorbed",
        ]
        assert [f.name for f in dataclasses.fields(DivergenceResult)] == [
            "partial_sums", "verdict", "tail_bound", "sum_lower_bound",
        ]
        assert [f.name for f in dataclasses.fields(AgreementEstimate)] == [
            "lower", "upper", "diverged", "truncated_product", "divergence",
        ]

    def test_signatures(self):
        assert list(inspect.signature(divergence_test).parameters) == [
            "model", "path", "regime",
        ]
        assert list(inspect.signature(tail_sum_upper_bound).parameters) == [
            "model", "regime", "rho",
        ]

    @pytest.mark.parametrize(
        "spec, regime, initial_r, horizon, verdict, below",
        [
            (GaussianSpec(1.0, 0.9), "0", 0.0, 15000, SumVerdict.INCONCLUSIVE, 4.2e-4),
            (GaussianSpec(1.0, 0.5), "0", 0.0, 3000, SumVerdict.CONVERGES, 1e-9),
            (GaussianSpec(1.0, 2.0), "g", 2.0, 2000, SumVerdict.INCONCLUSIVE, 1e-4),
            # Fatter noise: the integral comparison gives no certificate.
            (MixtureSpec(1.0, 0.3), "0", 0.0, 2000, SumVerdict.INCONCLUSIVE, math.inf),
        ],
    )
    def test_an_undiverged_path_carries_its_remainder_bound(
        self, spec, regime, initial_r, horizon, verdict, below
    ):
        model = build_model(spec)
        path = consensus_path(model, initial_r, horizon)
        result = divergence_test(model, path, regime)
        assert result.verdict is verdict
        assert result.tail_bound == tail_sum_upper_bound(model, regime, path.next_r)
        if math.isinf(below):
            assert math.isinf(result.tail_bound)
        else:
            assert result.tail_bound < below

    @pytest.mark.parametrize(
        "spec, regime, initial_r, horizon, calls",
        [
            (GaussianSpec(1.0, 0.5), "0", 0.0, 3000, 1),  # converges
            (GaussianSpec(1.0, 0.9), "0", 0.0, 15000, 1),  # inconclusive
            (GaussianSpec(1.0, 2.0), "g", 10.0, 1000, 1),
            (GaussianSpec(1.0, 2.0), "0", 0.0, 2000, 0),  # crosses the threshold
            (GaussianSpec(1.0, 2.0), "b", 0.0, 1000, 0),  # structural divergence
            (GaussianSpec(1.0, 2.0), "g", R_CAP, 10, 0),  # absorbed
        ],
    )
    def test_agreement_bounds_the_remainder_at_most_once(
        self, monkeypatch, spec, regime, initial_r, horizon, calls
    ):
        bounds = []

        def counted(model, regime, rho):
            bounds.append(tail_sum_upper_bound(model, regime, rho))
            return bounds[-1]

        monkeypatch.setattr(consensus, "tail_sum_upper_bound", counted)
        estimate = immediate_agreement_prob(build_model(spec), regime, initial_r, horizon)
        assert len(bounds) == calls
        assert estimate.divergence.tail_bound == (bounds[0] if calls else math.inf)


class TestImmediateAgreement:
    def test_wrong_state_run_has_probability_zero(self, gauss_fat):
        estimate = immediate_agreement_prob(gauss_fat, "b", 0.0, 1000)
        assert estimate.diverged
        assert estimate.lower == 0.0
        assert estimate.upper == 0.0

    def test_thin_noise_bracket_is_tight(self, gauss_thin):
        estimate = immediate_agreement_prob(gauss_thin, "0", 0.0, 10_000)
        assert estimate.lower > 0.0
        assert estimate.upper - estimate.lower < 1e-6
        assert not estimate.diverged

    def test_good_state_from_strong_prior(self, gauss_fat):
        estimate = immediate_agreement_prob(gauss_fat, "g", 10.0, 1000)
        assert estimate.lower >= 0.99

    def test_positive_from_moderate_prior(self, gauss_fat):
        # A herd on the correct action has positive probability from a
        # favourable start.
        estimate = immediate_agreement_prob(gauss_fat, "g", 2.0, 2000)
        assert estimate.lower > 0.0

    def test_truncated_product_frozen_value(self, gauss_thin):
        estimate = immediate_agreement_prob(gauss_thin, "0", 0.0, 20)
        assert estimate.truncated_product == pytest.approx(
            oracles.ALL_G_20_PRODUCT_SIGMA1_TAU05, abs=1e-12
        )

    def test_product_sum_duality(self):
        """diverged is set exactly when the companion sum test diverges."""
        for sigma, tau, regime in [
            (1.0, 2.0, "0"),
            (1.0, 0.5, "0"),
            (1.0, 2.0, "b"),
            (1.0, 0.5, "g"),
        ]:
            model = build_model(GaussianSpec(sigma=sigma, tau=tau))
            path = consensus_path(model, 0.0, 2000)
            verdict = divergence_test(model, path, regime).verdict
            estimate = immediate_agreement_prob(model, regime, 0.0, 2000)
            assert estimate.diverged == (verdict is SumVerdict.DIVERGES)

    def test_mirror_symmetry(self, gauss_fat):
        """An all-B run judged by F_g equals an all-G run judged by F_b."""
        horizon = 500
        # The all-B path from 0 is the all-G path negated.
        all_b = -consensus_path(gauss_fat, 0.0, horizon).values
        # Factor per step is F_g(-r_t^b).
        log_all_b_under_g = float(np.sum(np.asarray(gauss_fat.cdf_g.log_cdf(-all_b))))
        estimate = immediate_agreement_prob(gauss_fat, "b", 0.0, horizon)
        assert log_all_b_under_g == pytest.approx(
            math.log(estimate.truncated_product), rel=1e-9
        )

    def test_bracket_ordering(self, gauss_fat, gauss_thin):
        for model, regime in [(gauss_fat, "0"), (gauss_thin, "0"), (gauss_fat, "g")]:
            estimate = immediate_agreement_prob(model, regime, 0.0, 500)
            assert 0.0 <= estimate.lower <= estimate.upper <= 1.0


class TestEventualMonotonicity:
    def test_gaussian_map_is_monotone_from_the_left_edge(self, gauss_fat):
        xs = np.linspace(-50.0, 50.0, 4001)
        phis = xs + np.asarray(jump_g(gauss_fat, xs))
        assert np.all(np.diff(phis) >= -1e-12)

    def test_grid_property_beyond_threshold(self, gauss_fat):
        xs = np.linspace(-30.0, 30.0, 2000)
        phis = xs + np.asarray(gauss_fat.cdf_g.log_sf(-xs)) - np.asarray(
            gauss_fat.cdf_b.log_sf(-xs)
        )
        assert np.all(np.diff(phis) >= -1e-12)
