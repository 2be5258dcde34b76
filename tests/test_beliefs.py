"""Distribution-layer tests: induced laws, symmetry, stable tails, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from herdlearn import GaussianSpec, InvalidParameterError, MixtureSpec, build_model
from herdlearn import beliefs
from herdlearn.beliefs import DistinctnessError, NormalCdf

import oracles


def philox(seed, index=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def cdf(law, x):
    """F(x) from the law's stable log CDF."""
    return np.exp(np.asarray(law.log_cdf(x)))


class TestGaussianModel:
    """The raw-signal laws push forward to the documented normal LLR laws."""

    def test_induced_laws_sigma1_tau2(self):
        model = build_model(GaussianSpec(sigma=1.0, tau=2.0))
        assert model.cdf_g.mean == pytest.approx(2.0, abs=1e-15)
        assert model.cdf_g.sd == pytest.approx(2.0, abs=1e-15)
        assert model.cdf_b.mean == pytest.approx(-2.0, abs=1e-15)
        assert model.cdf_0.mean == pytest.approx(0.0, abs=1e-15)
        assert model.cdf_0.sd == pytest.approx(4.0, abs=1e-15)

    def test_equal_variance_case(self):
        model = build_model(GaussianSpec(sigma=1.0, tau=1.0))
        assert model.cdf_0.mean == 0.0
        assert model.cdf_0.sd == pytest.approx(2.0, abs=1e-15)

    def test_cdf_values_at_zero(self):
        model = build_model(GaussianSpec(sigma=1.0, tau=2.0))
        assert cdf(model.cdf_g, 0.0) == pytest.approx(oracles.PHI_MINUS_1, abs=1e-12)
        assert cdf(model.cdf_b, 0.0) == pytest.approx(oracles.PHI_PLUS_1, abs=1e-12)

    @pytest.mark.parametrize("sigma,tau", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_invalid_scale_parameters(self, sigma, tau):
        with pytest.raises(InvalidParameterError):
            GaussianSpec(sigma=sigma, tau=tau)

    @pytest.mark.parametrize(
        "sigma,tau,m0",
        [(math.inf, 1.0, 0.0), (math.nan, 1.0, 0.0), (1.0, math.inf, 0.0),
         (1.0, math.nan, 0.0), (1.0, 2.0, math.inf), (1.0, 2.0, -math.inf),
         (1.0, 2.0, math.nan),
         # Finite, but sigma^2 under- or overflows in the induced LLR laws.
         (1e-200, 1.0, 0.0), (1e-160, 1.0, 0.0), (1e200, 1e200, 0.0),
         (0.1, 1.0, 1e307)],
    )
    def test_non_finite_parameters(self, sigma, tau, m0):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            GaussianSpec(sigma=sigma, tau=tau, m0=m0)

    @pytest.mark.parametrize("m0", [1.0, -1.0])
    def test_distinctness_violation(self, m0):
        with pytest.raises(DistinctnessError):
            GaussianSpec(sigma=1.0, tau=1.0, m0=m0)

    def test_near_coincidence_allowed(self):
        GaussianSpec(sigma=1.0, tau=1.0, m0=0.999)
        GaussianSpec(sigma=1.0, tau=1.001, m0=1.0)


class TestPairSymmetry:
    """The informative pair mirrors around zero: F_g(x) + F_b(-x) = 1."""

    def test_grid_sigma1(self, gauss_fat):
        xs = np.linspace(-50.0, 50.0, 1000)
        total = cdf(gauss_fat.cdf_g, xs) + cdf(gauss_fat.cdf_b, -xs)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(sigma=st.floats(0.3, 3.0))
    def test_random_sigma(self, sigma):
        model = build_model(GaussianSpec(sigma=sigma, tau=2.0))
        xs = np.linspace(-20.0, 20.0, 100)
        total = cdf(model.cdf_g, xs) + cdf(model.cdf_b, -xs)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_mixture_pair_unchanged(self, gauss_fat, mixture_half):
        assert mixture_half.cdf_g == gauss_fat.cdf_g
        assert mixture_half.cdf_b == gauss_fat.cdf_b


class TestDensityRatio:
    """The LLR of the LLR is the identity: log f_g(x) - log f_b(x) = x."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_identity_on_grid(self, sigma):
        model = build_model(GaussianSpec(sigma=sigma, tau=1.5))
        xs = np.linspace(-40.0, 40.0, 401)
        g, b = model.cdf_g, model.cdf_b
        diff = stats.norm.logpdf(xs, g.mean, g.sd) - stats.norm.logpdf(xs, b.mean, b.sd)
        np.testing.assert_allclose(diff, xs, atol=1e-10)


class TestSupportAndContinuity:
    def test_unbounded_support(self, gauss_fat, mixture_half):
        for model in (gauss_fat, mixture_half):
            for regime in ("g", "b", "0"):
                # Positive mass arbitrarily far out: finite log tails.
                law = model.cdf_for(regime)
                assert math.isfinite(float(law.log_cdf(-200.0)))
                assert math.isfinite(float(law.log_sf(200.0)))

    def test_strictly_increasing_with_bounded_increments(self, gauss_fat, mixture_half):
        # No atoms: strictly increasing, and each fine-grid cell carries at
        # most (cell width) * (a density bound well above these laws').
        xs = np.linspace(-12.0, 12.0, 500)
        width = xs[1] - xs[0]
        for model in (gauss_fat, mixture_half):
            for law in (model.cdf_g, model.cdf_b, model.cdf_0):
                increments = np.diff(cdf(law, xs))
                assert np.all(increments > 0)
                assert np.all(increments < width * 0.5)

    def test_mutual_absolute_continuity_on_grid(self, gauss_fat):
        # Every interval gets positive mass from all three laws.
        xs = np.linspace(-10.0, 10.0, 81)
        for law in (gauss_fat.cdf_g, gauss_fat.cdf_b, gauss_fat.cdf_0):
            mass = np.diff(cdf(law, xs))
            assert np.all(mass > 0)


class TestLogTail:
    def test_left_tail_at_zero(self, gauss_fat):
        # F_g(-0) = Phi(-1) for the Normal(2, 4) law.
        assert gauss_fat.cdf_g.log_cdf(-0.0) == pytest.approx(
            oracles.LOG_PHI_MINUS_1, abs=1e-12
        )

    def test_symmetry_right_equals_mirrored_left(self):
        """Every informative pair is N(m, s)/N(-m, s), so 1 - F_g(x) and
        F_b(-x) are the same bits: ``divergence_test`` needs only left sums."""
        extremes = [0.0, -0.0, 5e-324, -5e-324, 1e6, -1e6, 1e300, -1e300]
        xs = np.concatenate([np.linspace(-100.0, 100.0, 201), extremes, [np.inf, -np.inf]])
        for sigma in (0.3, 0.7, 1.0, 1.6, 3.0, 10.0):
            for spec in (GaussianSpec(sigma=sigma, tau=1.5), MixtureSpec(sigma=sigma, alpha=0.3)):
                model = build_model(spec)
                right_g = np.asarray(model.cdf_g.log_sf(xs))
                left_b = np.asarray(model.cdf_b.log_cdf(-xs))
                assert np.array_equal(right_g.view(np.uint64), left_b.view(np.uint64))

    def test_deep_tail_against_oracle(self, gauss_fat):
        # x=200 puts the Normal(2, 4) left tail at Phi(-101).
        value = float(gauss_fat.cdf_g.log_cdf(-200.0))
        assert value == pytest.approx(oracles.LOG_PHI_MINUS_101, rel=1e-12)
        # The three-term Mills expansion agrees to its own accuracy.
        assert value == pytest.approx(oracles.mills_log_cdf_3term(101.0), rel=1e-13)

    def test_log_probability_down_to_minus_1e6(self):
        cdf = NormalCdf(0.0, 1.0)
        assert cdf.log_cdf(-1414.0) == pytest.approx(
            oracles.LOG_PHI_MINUS_1414, rel=1e-10
        )

    def test_matches_oracle_cdf_where_representable(self, gauss_fat):
        xs = np.linspace(-35.0, 35.0, 141)
        for regime in ("g", "b", "0"):
            law = gauss_fat.cdf_for(regime)
            direct = np.array([oracles.normal_cdf(-x, law.mean, law.sd) for x in xs])
            stable = np.exp(np.asarray(law.log_cdf(-xs)))
            keep = direct > 1e-300
            np.testing.assert_allclose(stable[keep], direct[keep], rtol=1e-10)

    def test_oracle_grid(self, gauss_fat):
        for x in (-30.0, -3.0, 0.0, 3.0, 30.0, 120.0):
            got = float(gauss_fat.cdf_0.log_cdf(-x))
            want = oracles.normal_log_cdf(-x, mean=0.0, sd=4.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("regime", ["g", "b", "0"])
    def test_side_selected_tail_is_bitwise_the_two_sided_pick(
        self, gauss_fat, mixture_half, regime
    ):
        """A tail whose side is chosen per element as ``dynamics.step``
        chooses it, the standardized argument times -1 for the right tail
        and +1 for the left, is the pick of ``log_sf`` and ``log_cdf``;
        so is each float on its own."""
        xs = np.concatenate([np.linspace(-60.0, 60.0, 241), [-1e3, 1e3, 0.0, -0.0]])
        right = np.arange(len(xs)) % 3 == 0
        sign = np.where(right, -1.0, 1.0)
        for model in (gauss_fat, mixture_half):
            cdf = model.cdf_for(regime)
            picked = np.where(right, cdf.log_sf(xs), cdf.log_cdf(xs))
            normals = [cdf] if isinstance(cdf, NormalCdf) else [cdf.component_a, cdf.component_b]
            tails = [beliefs.log_ndtr((xs - n.mean) / n.sd * sign) for n in normals]
            sided = tails[0] if len(tails) == 1 else cdf.log_mix(*tails)
            np.testing.assert_array_equal(sided, picked)
            for x, r, want in zip(xs, right, picked):
                assert (cdf.log_sf if r else cdf.log_cdf)(float(x)) == want

    def test_log_ndtr_gives_the_bits_of_scipys(self):
        """``beliefs.log_ndtr``, loaded from scipy's extension module alone,
        is ``scipy.special.log_ndtr`` bit for bit, also in the in-place
        ``out=`` form on a stack of rows that ``dynamics.step`` uses."""
        from scipy.special import log_ndtr

        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300,
                    5e-324, -5e-324, 1e6, -1e6, -38.5, 8.3]
        xs = np.concatenate([
            specials,
            40.0 * philox(5).standard_normal(50_000 - len(specials)),
            np.linspace(-1500.0, 40.0, 50_000),
        ])
        want = log_ndtr(xs).view(np.uint64)
        assert np.array_equal(beliefs.log_ndtr(xs).view(np.uint64), want)
        stack = xs.reshape(2, -1).copy()
        assert beliefs.log_ndtr(stack, out=stack) is stack
        assert np.array_equal(stack.reshape(-1).view(np.uint64), want)
        for x in specials:
            assert np.array_equal(beliefs.log_ndtr(x), log_ndtr(x), equal_nan=True)

    def test_bad_regime_and_side(self, gauss_fat):
        """A law is chosen by its regime; a tail's side is the method's
        name, ``log_cdf`` or ``log_sf``, so no side can be wrong."""
        with pytest.raises(InvalidParameterError):
            gauss_fat.cdf_for("x")


class TestMixtureModel:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_alpha_validation(self, alpha):
        with pytest.raises(InvalidParameterError, match="alpha must lie in"):
            MixtureSpec(sigma=1.0, alpha=alpha)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 1e-160, 1.5e154])
    def test_non_finite_sigma(self, sigma):
        # 1e-160 overflows the informative mean 2/sigma^2; 1.5e154 takes it
        # to 0, where F_g and F_b would coincide.
        with pytest.raises(InvalidParameterError, match="must be finite"):
            MixtureSpec(sigma=sigma, alpha=0.5)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_non_positive_sigma(self, sigma):
        with pytest.raises(InvalidParameterError, match="sigma must be positive"):
            MixtureSpec(sigma=sigma, alpha=0.5)

    def test_symmetric_mixture_median(self, mixture_half):
        assert cdf(mixture_half.cdf_0, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_pointwise_combination(self, gauss_fat):
        model = build_model(MixtureSpec(sigma=1.0, alpha=0.3))
        xs = np.linspace(-30.0, 30.0, 121)
        g, b = gauss_fat.cdf_g, gauss_fat.cdf_b
        expected = np.array(
            [
                0.3 * oracles.normal_cdf(x, g.mean, g.sd)
                + 0.7 * oracles.normal_cdf(x, b.mean, b.sd)
                for x in xs
            ]
        )
        np.testing.assert_allclose(cdf(model.cdf_0, xs), expected, rtol=1e-12)

    def test_alpha03_value_at_minus4(self):
        model = build_model(MixtureSpec(sigma=1.0, alpha=0.3))
        assert cdf(model.cdf_0, -4.0) == pytest.approx(
            oracles.MIX_ALPHA03_CDF0_AT_M4, abs=1e-12
        )

    def test_left_ratio_floor(self, mixture_half):
        # F_0(-x) >= 0.5 * F_b(-x) for every x: drop the F_g term.
        xs = np.linspace(0.0, 60.0, 200)
        log_f0 = np.asarray(mixture_half.cdf_0.log_cdf(-xs))
        log_fb = np.asarray(mixture_half.cdf_b.log_cdf(-xs))
        assert np.all(log_f0 - log_fb >= math.log(0.5) - 1e-12)


class TestSampling:
    def test_deterministic_given_stream(self, gauss_fat):
        a = gauss_fat.sample(1, "g", philox(3), size=100)
        b = gauss_fat.sample(1, "g", philox(3), size=100)
        np.testing.assert_array_equal(a, b)
        assert gauss_fat.sample(1, "g", philox(3), size=1)[0] == a[0]

    def test_informative_mean(self, gauss_fat):
        # Law is Normal(2, 4); the mean of 1e5 draws is within 3 standard errors.
        draws = gauss_fat.sample(1, "g", philox(11), size=100_000)
        assert abs(draws.mean() - 2.0) < 3.0 * 2.0 / math.sqrt(100_000)

    def test_pushforward_matches_raw_signal_mapping(self):
        # Drawing a raw signal s ~ Normal(1, sigma^2) and mapping 2 s / sigma^2
        # must match sampling the induced LLR law.
        sigma = 1.3
        model = build_model(GaussianSpec(sigma=sigma, tau=2.0))
        raw = philox(23).normal(1.0, sigma, 100_000)
        mapped = 2.0 * raw / sigma**2
        stat = stats.kstest(mapped, lambda x: cdf(model.cdf_g, x)).statistic
        assert stat < 1.63 / math.sqrt(100_000)  # 1% critical value

    def test_mixture_distribution(self, mixture_half):
        draws = mixture_half.sample(0, "g", philox(29), size=100_000)
        stat = stats.kstest(draws, lambda x: cdf(mixture_half.cdf_0, x)).statistic
        assert stat < 1.63 / math.sqrt(100_000)

    def test_mixture_draws_are_independent(self, mixture_half):
        # A component reused across draws would correlate neighbours at ~0.5.
        draws = mixture_half.sample(0, "g", philox(31), size=100_000)
        lag1 = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(lag1) < 4.0 / math.sqrt(100_000)

    # Horizons of every residue mod 4, the words in a Philox block, and one
    # that ends inside the block the stream starts in.
    @pytest.mark.parametrize(
        "horizon, chunk", [(10, 3), (9, 3), (5, 8), (3000, 1024), (7, 3), (12, 5), (2, 1)]
    )
    @pytest.mark.parametrize("law", ["gauss_info", "gauss_noise", "mixture_noise"])
    def test_chunks_join_into_the_whole_draw(
        self, monkeypatch, gauss_fat, mixture_half, law, horizon, chunk
    ):
        """Pieces of ``chunk`` draws, each resumed from the Philox state that
        the last one left while other streams run in between (as the engine
        resumes them), join into the whole draw, cut into pieces of
        ``chunk``."""
        monkeypatch.setattr(beliefs, "CHUNK_STEPS", chunk)
        model, omega, theta = {
            "gauss_info": (gauss_fat, 1, "b"),
            "gauss_noise": (gauss_fat, 0, "g"),
            "mixture_noise": (mixture_half, 0, "g"),
        }[law]
        # Streams that start 0-3 raw words into a block, as the engine's
        # do after drawing the two world uniforms.
        for consumed in range(4):
            rng = philox(53, 7)
            rng.bit_generator.random_raw(consumed)
            whole = model.sample(omega, theta, rng, size=horizon)
            rng = philox(53, 7)
            rng.bit_generator.random_raw(consumed)
            pieces = []
            for start in range(0, horizon, chunk):
                if start:
                    rng.bit_generator.state = state
                pieces.append(
                    model.sample(omega, theta, rng, size=min(chunk, horizon - start))
                )
                state = rng.bit_generator.state
                # Another trajectory's stream runs between two pieces.
                rng.bit_generator.state = philox(54, len(pieces)).bit_generator.state
                rng.random(len(pieces))
                rng.standard_normal(5)
            np.testing.assert_array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize("horizon", [1, 2047, 2048, 2049, 5000])
    @pytest.mark.parametrize("law", ["gauss_noise", "mixture_noise"])
    def test_stream_layout(self, gauss_fat, law, horizon):
        """The stream of trajectory i is that of a fresh ``Philox(key=[seed,
        i])`` in pieces of 2048 draws: a Normal piece is one ``normal`` call;
        a mixture piece draws its component picks, then its standard
        normals, and scales and shifts them."""
        seed, index = 61, 5
        if law == "gauss_noise":
            model = gauss_fat
        else:
            model = build_model(MixtureSpec(sigma=1.0, alpha=0.3))
        got = model.sample(0, "g", philox(seed, index), size=horizon)

        rng = np.random.Generator(np.random.Philox(key=[seed, index]))
        mean, sd = model.cdf_g.mean, model.cdf_g.sd
        pieces = []
        for start in range(0, horizon, 2048):
            k = min(2048, horizon - start)
            if law == "gauss_noise":
                pieces.append(rng.normal(model.cdf_0.mean, model.cdf_0.sd, k))
            else:
                pick_g = rng.random(k) < 0.3
                z = rng.standard_normal(k)
                pieces.append(np.where(pick_g, mean, -mean) + sd * z)
        np.testing.assert_array_equal(got, np.concatenate(pieces))

    def test_noise_ignores_theta(self, gauss_fat):
        a = gauss_fat.sample(0, "g", philox(41), size=50)
        b = gauss_fat.sample(0, "b", philox(41), size=50)
        np.testing.assert_array_equal(a, b)
