"""Tail-ratio evaluation and relative tail-thickness classification."""

import math

import numpy as np
import pytest

from herdlearn import (
    GaussianSpec,
    InvalidParameterError,
    MixtureSpec,
    Verdict,
    build_model,
    classify_empirical,
    classify_gaussian,
    classify_mixture,
)
from herdlearn.beliefs import NormalCdf
from herdlearn.cli import build_parser
from herdlearn.tails import tail_ratios

import oracles


def classify_command(*argv):
    """The ``classify`` command's result for ``argv``: its errors raise,
    where ``cli.main`` would report them."""
    args = build_parser().parse_args(["classify", *argv])
    return args.func(args)


class TestTailRatios:
    def test_domain(self, gauss_fat):
        with pytest.raises(InvalidParameterError):
            tail_ratios(gauss_fat, -0.5)

    def test_a_list_reads_as_its_array(self, gauss_fat, mixture_half):
        for model in (gauss_fat, mixture_half):
            from_list = tail_ratios(model, [1.0, 2.0])
            from_array = tail_ratios(model, np.array([1.0, 2.0]))
            for got, want in zip(from_list, from_array):
                assert got.tobytes() == want.tobytes()
            for value, at_2 in zip(tail_ratios(model, 2.0), from_array):
                assert value.shape == ()
                assert value.tobytes() == at_2[1].tobytes()

    def test_frozen_value(self, gauss_fat):
        # log L_b(8) = log Phi(-2) - log Phi(-3) for sigma=1, tau=2.
        _, log_l_b, _, _ = tail_ratios(gauss_fat, 8.0)
        assert log_l_b == pytest.approx(oracles.LOG_L_B_AT_8_SIGMA1_TAU2, abs=1e-11)

    def test_mixture_floor(self, mixture_half):
        xs = np.linspace(0.0, 120.0, 200)
        _, log_l_b, log_r_g, _ = tail_ratios(mixture_half, xs)
        assert np.all(log_l_b >= math.log(0.5) - 1e-12)
        assert np.all(log_r_g >= math.log(0.5) - 1e-12)

    def test_symmetric_noise_mirrors(self, gauss_fat):
        # m0 = 0 makes all three laws symmetric, so L_b(x) = R_g(x).
        xs = np.linspace(0.0, 150.0, 100)
        log_l_g, log_l_b, log_r_g, log_r_b = tail_ratios(gauss_fat, xs)
        np.testing.assert_allclose(log_l_b, log_r_g, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(log_l_g, log_r_b, rtol=1e-12, atol=1e-12)

    def test_finite_everywhere(self, gauss_fat, gauss_thin, gauss_boundary, mixture_half):
        xs = np.linspace(0.0, 200.0, 64)
        for model in (gauss_fat, gauss_thin, gauss_boundary, mixture_half):
            for values in tail_ratios(model, xs):
                assert np.all(np.isfinite(values))


class TestClassifyGaussian:
    def test_fatter(self):
        result = classify_gaussian(GaussianSpec(sigma=1.0, tau=2.0))
        assert result.verdict is Verdict.FATTER

    def test_thinner(self):
        result = classify_gaussian(GaussianSpec(sigma=1.0, tau=0.5))
        assert result.verdict is Verdict.THINNER

    def test_neither_with_shifted_mean(self):
        result = classify_gaussian(GaussianSpec(sigma=1.0, tau=1.0, m0=0.3))
        assert result.verdict is Verdict.NEITHER

    @pytest.mark.parametrize("sigma", [1e-150, 1e-13, 1e-6, 1.0, 1e6, 1e150])
    def test_verdicts_at_every_scale(self, sigma):
        # Equal variance is tau within 1e-12 of sigma, whatever sigma's scale.
        for k, verdict in ((2.0, Verdict.FATTER), (0.5, Verdict.THINNER),
                           (1.0, Verdict.NEITHER)):
            assert classify_gaussian(GaussianSpec(sigma, k * sigma)).verdict is verdict

    @pytest.mark.parametrize(
        "sigma,tau,verdict",
        [(1e-13, 2e-13, Verdict.FATTER), (1e6, 1e6 + 1e-7, Verdict.NEITHER),
         (1.0, 1.0 + 1e-13, Verdict.NEITHER), (1.0, 1.0 + 1e-11, Verdict.FATTER)],
    )
    def test_equal_variance_is_relative(self, sigma, tau, verdict):
        assert classify_gaussian(GaussianSpec(sigma, tau)).verdict is verdict

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m0", [1.5, 2.0, -2.0, 5.0, 0.0, 0.5, -0.9])
    def test_equal_variance_follows_the_slopes(self, sigma, m0):
        """At tau = sigma every log tail ratio is asymptotically linear in x,
        with slope +-(mu_0 - mu_t) / s^2.  The signs of the four slopes, from
        mpmath tails, give the verdict: Fatter needs L_b and R_g bounded
        below, Thinner needs L_g or R_b to fall to 0."""
        spec = GaussianSpec(sigma, sigma, m0)
        model = build_model(spec)
        noise, s = model.cdf_0, model.cdf_0.sd
        x1, x2 = 1e3, 2e3

        def slope(law, left):
            def log_ratio(x):
                if left:
                    return oracles.normal_log_cdf(-x, noise.mean, s) - oracles.normal_log_cdf(
                        -x, law.mean, s
                    )
                return oracles.normal_log_sf(x, noise.mean, s) - oracles.normal_log_sf(
                    x, law.mean, s
                )

            return (log_ratio(x2) - log_ratio(x1)) / (x2 - x1)

        slopes = {
            "L_g": slope(model.cdf_g, True),
            "L_b": slope(model.cdf_b, True),
            "R_g": slope(model.cdf_g, False),
            "R_b": slope(model.cdf_b, False),
        }
        for name, law in (("L_g", model.cdf_g), ("L_b", model.cdf_b)):
            assert slopes[name] == pytest.approx((law.mean - noise.mean) / s**2, rel=1e-2)
        for name, law in (("R_g", model.cdf_g), ("R_b", model.cdf_b)):
            assert slopes[name] == pytest.approx((noise.mean - law.mean) / s**2, rel=1e-2)
        fatter = slopes["L_b"] >= 0 and slopes["R_g"] >= 0
        thinner = slopes["L_g"] < 0 or slopes["R_b"] < 0
        assert not fatter and thinner is (abs(m0) > 1)
        verdict = Verdict.THINNER if thinner else Verdict.NEITHER
        assert classify_gaussian(spec).verdict is verdict

    def test_mean_never_changes_verdict(self):
        for m0 in (-2.0, -0.5, 0.0, 0.5, 2.0):
            assert (
                classify_gaussian(GaussianSpec(1.0, 2.0, m0)).verdict
                is Verdict.FATTER
            )
            assert (
                classify_gaussian(GaussianSpec(1.0, 0.5, m0)).verdict
                is Verdict.THINNER
            )

    def test_evidence_shape(self):
        # The closed form reads only the spec; the grid is the advisory one.
        assert classify_gaussian(GaussianSpec(1.0, 2.0)).evidence is None
        result = classify_empirical(build_model(GaussianSpec(1.0, 2.0)), 200.0, n_grid=32)
        assert result.evidence.shape == (32, 5)


class TestClassifyMixture:
    def test_always_fatter_with_exact_floor(self):
        result = classify_mixture(MixtureSpec(sigma=1.0, alpha=0.5))
        assert result.verdict is Verdict.FATTER
        assert result.epsilon_estimate == pytest.approx(0.5)
        assert result.evidence is None


class TestClassifyEmpirical:
    def test_validation(self, gauss_fat):
        with pytest.raises(InvalidParameterError):
            classify_empirical(gauss_fat, x_max=0.0)
        with pytest.raises(InvalidParameterError):
            classify_empirical(gauss_fat, x_max=100.0, n_grid=8)

    @pytest.mark.parametrize("x_max", [1e200, 1e308])
    def test_grid_beyond_finite_tail_ratios_is_rejected(self, gauss_fat, x_max):
        # Both log tails of a ratio are -inf there, so the ratio is NaN.
        with pytest.raises(InvalidParameterError, match="not finite"):
            classify_empirical(gauss_fat, x_max=x_max)
        with pytest.raises(InvalidParameterError, match="not finite"):
            classify_command("--sigma", "1", "--tau", "2", f"--x-max={x_max}")

    def test_fatter_epsilon_saturates_beyond_exp_range(self, gauss_fat):
        # On [100, 1e4] both log ratios exceed log(max float).
        result = classify_empirical(gauss_fat, x_max=1e4)
        assert result.verdict is Verdict.FATTER
        assert result.epsilon_estimate == math.inf
        assert np.isfinite(result.evidence).all()

    def test_mixture_is_fatter_with_half_floor(self, mixture_half):
        result = classify_empirical(mixture_half, x_max=200.0)
        assert result.verdict is Verdict.FATTER
        assert result.epsilon_estimate >= 0.5 - 1e-9

    def test_first_order_dominant_noise_is_thinner(self, gauss_fat):
        # Noise that first-order dominates the good informative law:
        # Normal(3, 4) against the sigma=1 pair.
        model = build_model(GaussianSpec(sigma=1.0, tau=1.0, m0=1.5))
        assert model.cdf_0 == NormalCdf(3.0, 2.0)
        result = classify_empirical(model, x_max=200.0)
        assert result.verdict is Verdict.THINNER

    def test_equal_variance_is_undetermined(self, gauss_boundary):
        result = classify_empirical(gauss_boundary, x_max=200.0)
        assert result.verdict is Verdict.UNDETERMINED

    def test_agrees_with_closed_form_away_from_boundary(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            sigma = rng.uniform(0.5, 2.0)
            gap = rng.uniform(0.1, 1.5) * (1 if rng.random() < 0.5 else -1)
            tau = max(sigma + gap, 0.05)
            if abs(tau - sigma) <= 0.1:
                continue
            m0 = rng.uniform(-1.5, 1.5)
            params = GaussianSpec(sigma=sigma, tau=tau, m0=m0)
            closed = classify_gaussian(params).verdict
            empirical = classify_empirical(
                build_model(params), x_max=200.0
            ).verdict
            assert closed is empirical, (sigma, tau, m0, closed, empirical)
        # The equal-variance line, away from |m0| = 1, where it is Thinner.
        for _ in range(20):
            sigma = rng.uniform(0.5, 2.0)
            m0 = rng.uniform(1.2, 3.0) * (1 if rng.random() < 0.5 else -1)
            params = GaussianSpec(sigma=sigma, tau=sigma, m0=m0)
            closed = classify_gaussian(params).verdict
            empirical = classify_empirical(build_model(params), x_max=200.0).verdict
            assert closed is empirical is Verdict.THINNER, (sigma, m0, closed, empirical)

    @pytest.mark.parametrize("sigma", [1e-150, 1e-13, 1e-6, 1e-3, 1.0, 1e6, 1e150])
    def test_never_contradicts_the_closed_form_at_any_scale(self, sigma):
        # Below sigma of about 0.44 the default grid's top half lies inside
        # the LLR laws' bodies; at large sigma the log tails are so large
        # that rounding swamps their differences.  Either way the grid may
        # not decide.
        specs = [GaussianSpec(sigma, k * sigma) for k in (0.5, 1.0, 2.0)]
        for spec in (*specs, GaussianSpec(sigma, sigma, 2.0), MixtureSpec(sigma, 0.3)):
            rule = classify_gaussian if isinstance(spec, GaussianSpec) else classify_mixture
            closed = rule(spec).verdict
            advisory = classify_empirical(build_model(spec), x_max=200.0).verdict
            assert advisory in (closed, Verdict.UNDETERMINED), (spec, closed, advisory)

    def test_monotone_separation_for_fatter(self):
        # tau > sigma: log L_b runs away along the grid.
        params = GaussianSpec(sigma=1.0, tau=2.0)
        result = classify_empirical(build_model(params), x_max=120.0)
        log_l_b = result.evidence[:, 1]
        assert log_l_b[-1] - log_l_b[0] > 10.0

    def test_verdicts_are_exclusive(self, gauss_fat, gauss_thin, mixture_half):
        for model in (gauss_fat, gauss_thin, mixture_half):
            verdict = classify_empirical(model, x_max=200.0).verdict
            assert verdict in (Verdict.FATTER, Verdict.THINNER)


@pytest.mark.parametrize("n_grid", [-1, 0, 2, 15])
@pytest.mark.parametrize(
    "classify",
    [
        # The closed-form commands, whose advisory grid is classify_empirical's.
        lambda n: classify_command("--sigma", "1", "--tau", "2", f"--grid={n}"),
        lambda n: classify_command("--sigma", "1", "--mixture", "0.3", f"--grid={n}"),
        lambda n: classify_empirical(build_model(GaussianSpec(1.0, 2.0)), 200.0, n),
    ],
    ids=["gaussian", "mixture", "empirical"],
)
def test_every_classifier_rejects_a_grid_below_16_points(classify, n_grid):
    with pytest.raises(InvalidParameterError) as err:
        classify(n_grid)
    assert str(err.value) == f"n_grid must be >= 16, got {n_grid}"
