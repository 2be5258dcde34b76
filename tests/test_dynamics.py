"""Decision rule, the transition kernel, belief jumps, and the scalar
trajectory oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from herdlearn import (
    ExperimentConfig,
    GaussianSpec,
    InvalidParameterError,
    MixtureSpec,
    agent_action,
    build_model,
    run_experiment,
    update_public,
)
from herdlearn.dynamics import R_CAP, Workspace, jump_b, jump_g, step, walk

import oracles
from oracles import simulate_trajectory


def philox(seed, index=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


class TestAgentAction:
    def test_simple_cases(self):
        assert agent_action(0.0, 0.3) == "g"
        assert agent_action(-2.0, 1.0) == "b"

    def test_tie_goes_to_g(self):
        assert agent_action(1.5, -1.5) == "g"
        assert agent_action(0.0, 0.0) == "g"

    def test_matches_full_posterior_rule(self):
        """The four-hypothesis argmax collapses to the llr >= -r threshold.

        The uninformative weight and the noise law are drawn at random per
        case; both must cancel exactly.  Ranges are capped at |12| so the
        informative-density difference stays resolvable above the common
        noise term in the oracle's extended-precision arithmetic.
        """
        rng = philox(101)
        n = 10_000
        r = rng.uniform(-12, 12, n)
        llr = rng.uniform(-12, 12, n)
        q = rng.uniform(0.02, 0.98, n)
        noise_mean = rng.uniform(-3, 3, n)
        noise_sd = rng.uniform(0.3, 5.0, n)
        oracle = oracles.four_state_actions(
            r, llr, q, info_mean=2.0, info_sd=2.0, noise_mean=noise_mean, noise_sd=noise_sd
        )
        mine = np.array([agent_action(ri, li) == "g" for ri, li in zip(r, llr)])
        mismatches = int(np.sum(mine != oracle))
        assert mismatches == 0, f"{mismatches} disagreements with the posterior rule"


class TestJumps:
    def test_jump_g_at_zero(self, gauss_fat):
        assert float(jump_g(gauss_fat, 0.0)) == pytest.approx(
            oracles.JUMP_G_AT_0_SIGMA1, abs=1e-12
        )

    def test_jump_g_at_minus5(self, gauss_fat):
        assert float(jump_g(gauss_fat, -5.0)) == pytest.approx(
            oracles.JUMP_G_AT_M5_SIGMA1, abs=1e-11
        )

    def test_mirror_identity(self, gauss_fat):
        rs = np.linspace(-80.0, 80.0, 161)
        np.testing.assert_allclose(
            np.asarray(jump_b(gauss_fat, rs)),
            -np.asarray(jump_g(gauss_fat, -rs)),
            rtol=1e-11,
            atol=1e-11,
        )

    def test_signs_on_grid(self, gauss_fat, gauss_thin, mixture_half):
        rs = np.linspace(-100.0, 100.0, 1000)
        for model in (gauss_fat, gauss_thin, mixture_half):
            assert np.all(np.asarray(jump_g(model, rs)) >= 0.0)
            assert np.all(np.asarray(jump_b(model, rs)) <= 0.0)

    def test_extreme_r_accuracy(self, gauss_fat):
        # |r| up to 1e3 stays accurate: compare with the mpmath oracle.
        for r in (-1000.0, -300.0, 300.0, 1000.0):
            got = float(jump_g(gauss_fat, r))
            want = oracles.normal_log_sf(-r, 2.0, 2.0) - oracles.normal_log_sf(
                -r, -2.0, 2.0
            )
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize(
        "spec",
        [GaussianSpec(sigma=1.0, tau=2.0), MixtureSpec(sigma=1.0, alpha=0.3)],
        ids=["gaussian", "mixture"],
    )
    def test_equal_the_kernels_tail_difference(self, spec):
        """On an array and on each float, ``jump_g`` and ``jump_b`` are
        ``lt_g - lt_b`` of ``step`` after a G and after a B, bit for bit,
        from 0, the cap and +-1e300 (``kernel_rs``) to the point -m."""
        model = build_model(spec)
        rs = np.append(kernel_rs(), -model.cdf_g.mean)
        for took_g, jump in ((True, jump_g), (False, jump_b)):
            with np.errstate(all="ignore"):  # the jump is NaN at -1e300 or 1e300
                _, lt_g, lt_b, _ = step(model, rs.copy(), took_g, Workspace(model, len(rs)))
                want = lt_g - lt_b
                assert same_bits(jump(model, rs), want)
                assert same_bits([jump(model, r) for r in rs.tolist()], want)


class TestStep:
    """The one transition kernel, on arrays and (through
    ``oracles.step_at``) on floats."""

    @pytest.mark.parametrize("view", [False, True])
    def test_array_equals_elementwise_floats(self, gauss_fat, mixture_half, view):
        rs = np.concatenate([np.linspace(-60.0, 60.0, 121), [-1e3, 1e3, 0.0, R_CAP]])
        took = np.arange(len(rs)) % 3 != 0
        for model in (gauss_fat, mixture_half):
            r, g = (strided(rs), strided(took)) if view else (rs.copy(), took)
            batch = step(model, r, g, Workspace(model, len(rs)))
            if view:
                assert not r.base[1::2].any()  # the gaps between r's values
            for k, (r, g) in enumerate(zip(rs, took)):
                one = oracles.step_at(model, float(r), bool(g))
                for got, want in zip(batch, one):
                    assert got[k] == want

    def test_matches_direct_tails(self, mixture_half):
        for r in (-7.5, 0.0, 3.25):
            for took_g, tail in ((True, "log_sf"), (False, "log_cdf")):
                r_next, lt_g, lt_b, lt_0 = oracles.step_at(mixture_half, r, took_g)
                cdfs = (mixture_half.cdf_g, mixture_half.cdf_b, mixture_half.cdf_0)
                want = [getattr(cdf, tail)(-r) for cdf in cdfs]
                assert [lt_g, lt_b, lt_0] == want
                assert r_next == r + (want[0] - want[1])

    def test_clips_at_the_cap(self, gauss_fat):
        work = Workspace(gauss_fat, 2)
        r_next = step(gauss_fat, np.array([R_CAP, -R_CAP]), np.array([True, False]), work)[0]
        np.testing.assert_array_equal(r_next, [R_CAP, -R_CAP])


def strided(a: np.ndarray) -> np.ndarray:
    """``a``'s values as a view of every other element of a larger, zeroed
    array: the kernel's callers hand it views, not arrays of their own."""
    buf = np.zeros(2 * len(a), dtype=a.dtype)
    buf[::2] = a
    return buf[::2]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def kernel_rs() -> np.ndarray:
    """Public LLRs from 0 and the cap out to 1e300, then random ones."""
    extremes = [0.0, 1e3, -1e3, R_CAP, -R_CAP, 1e300, -1e300]
    return np.concatenate([extremes, philox(61).normal(0.0, 30.0, 200)])


def random_took(n: int) -> np.ndarray:
    return philox(62).random(n) < 0.5


def oracle_step(model, rs, took) -> tuple:
    """``step``'s four results, element by element, from
    ``oracles.next_public`` and ``oracles.action_log_probs``, which take
    every tail from ``log_cdf``/``log_sf``."""
    cols = [
        (oracles.next_public(model, r, g), *oracles.action_log_probs(model, r, g))
        for r, g in zip(rs.tolist(), took.tolist())
    ]
    return tuple(np.array(col) for col in zip(*cols))


def same_results(got, want) -> bool:
    return all(same_bits(g, w) for g, w in zip(got, want))


def assert_same_as_oracle(model, rs, took):
    """``step`` on an array, which it moves in place, and at each float
    gives the oracle's bits."""
    want = oracle_step(model, rs, took)
    r = rs.copy()
    with np.errstate(all="ignore"):  # the jump is NaN at +-1e300
        got = step(model, r, took, Workspace(model, len(rs)))
        assert got[0] is r
        assert same_results(got, want)
        for k, (r_k, g_k) in enumerate(zip(rs.tolist(), took.tolist())):
            assert same_results(oracles.step_at(model, r_k, g_k), [w[k] for w in want])


class TestNoiseTail:
    """F_0's tail where F_0 mixes the informative pair: ``log_mix`` of the
    two tails just evaluated, the same bits as the mixture's own tail."""

    @pytest.mark.parametrize("alpha", [0.5, 0.3])
    def test_equals_log_side(self, alpha):
        model = build_model(MixtureSpec(sigma=1.0, alpha=alpha))
        rs = kernel_rs()
        for took in (np.ones(len(rs), bool), np.zeros(len(rs), bool), random_took(len(rs))):
            assert_same_as_oracle(model, rs, took)


class TestWorkspace:
    """``step`` with a workspace reused across calls: the bits of the plain
    call (on a fresh workspace) and of the oracle, written in place."""

    @pytest.mark.parametrize("view", [False, True])
    def test_same_bits_as_the_plain_call(self, gauss_fat, mixture_half, view):
        shifted = build_model(GaussianSpec(sigma=0.8, tau=0.5, m0=0.3))
        rs = kernel_rs()
        took = random_took(len(rs))
        for model in (gauss_fat, mixture_half, shifted):
            assert_same_as_oracle(model, rs, took)
            work = Workspace(model, len(rs))
            r = strided(rs) if view else rs.copy()
            with np.errstate(all="ignore"):
                for _ in range(3):  # the workspace is reused across calls
                    g = strided(took) if view else took
                    want = oracle_step(model, r, g)
                    plain = step(model, r.copy(), g, Workspace(model, len(r)))
                    got = step(model, r, g, work)
                    assert got[0] is r
                    assert same_results(got, plain) and same_results(got, want)
                    took = ~took
            if view:
                assert not r.base[1::2].any()  # the gaps between r's values

    def test_holds_a_tail_row_per_law(self, gauss_fat, mixture_half):
        # F_g, F_b and F_0, whether F_0 is a Normal law or mixes the pair.
        for model in (gauss_fat, mixture_half):
            work = Workspace(model, 5)
            assert work.tails.shape == (3, 5)
            assert len(work.rows) == 3
            assert all(row.base is work.tails for row in work.rows)


class TestWalk:
    """``walk`` is ``step`` folded one action at a time, bit for bit."""

    @staticmethod
    def step_fold(model, r, took_g):
        rs = [float(r)]
        for g in took_g:
            rs.append(oracles.step_at(model, rs[-1], g)[0])
        return np.array(rs, dtype=float)

    @staticmethod
    def same(got, want):
        """NaN where the fold has NaN (its sign bit is not meaningful), and
        the same bits everywhere else."""
        nan = np.isnan(want)
        return np.array_equal(got, want, equal_nan=True) and np.array_equal(
            got[~nan].view(np.uint64), want[~nan].view(np.uint64)
        )

    @staticmethod
    def history(seed):
        # Random actions, then herds of 200 actions each.
        rng = philox(seed)
        took = (rng.random(1000) < 0.5).tolist()
        for g in rng.random(21) < 0.5:
            took += [bool(g)] * 200
        return took

    @pytest.mark.parametrize(
        "seed, initial_r",
        [(1, 0.0), (2, R_CAP), (3, -R_CAP), (4, 1e300), (5, "m"), (6, "-m")],
    )
    def test_equals_the_step_fold(self, gauss_fat, mixture_half, seed, initial_r):
        shifted = build_model(GaussianSpec(sigma=0.7, tau=1.3, m0=0.5))
        # Jumps far beyond R_CAP, so that both clips run.
        tiny = build_model(GaussianSpec(sigma=1e-4, tau=2e-4))
        took = self.history(seed)
        assert len(took) >= 5000
        for model in (gauss_fat, mixture_half, shifted, tiny):
            # "m" and "-m" start at the mean m of F_g or at -m, that of F_b,
            # where the first tail argument of F_b or of F_g is exactly zero:
            # walk's zero and step's differ in sign.
            r = {"m": model.cdf_g.mean, "-m": model.cdf_b.mean}.get(initial_r, initial_r)
            got = walk(model, r, took)
            want = self.step_fold(model, r, took)
            assert self.same(got, want)

    def test_impossible_action_gives_nan(self, gauss_fat, mixture_half):
        # At r = 1e300 a B action has probability 0 under both informative
        # laws, so the jump and every later value are NaN.
        took = [False, True, True, False]
        for model in (gauss_fat, mixture_half):
            got = walk(model, 1e300, took)
            with np.errstate(invalid="ignore"):
                want = self.step_fold(model, 1e300, took)
            assert np.isnan(got[1:]).all()
            assert self.same(got, want)

    def test_empty_history(self, gauss_fat):
        assert walk(gauss_fat, -2.5, []).tolist() == [-2.5]


class TestUpdatePublic:
    def test_basic_values(self, gauss_fat):
        assert update_public(gauss_fat, 0.0, "g") == pytest.approx(
            oracles.JUMP_G_AT_0_SIGMA1, abs=1e-12
        )
        # Overturning from far behind: -5 + 5.66012... stays nonnegative.
        after = update_public(gauss_fat, -5.0, "g")
        assert after == pytest.approx(-5.0 + oracles.JUMP_G_AT_M5_SIGMA1, abs=1e-10)
        assert after >= 0.0

    def test_symmetric_actions_mirror(self, gauss_fat):
        assert update_public(gauss_fat, 0.0, "b") == pytest.approx(
            -update_public(gauss_fat, 0.0, "g"), abs=1e-12
        )

    def test_bad_action(self, gauss_fat):
        with pytest.raises(InvalidParameterError):
            update_public(gauss_fat, 0.0, "x")

    def test_cap(self, gauss_fat):
        assert update_public(gauss_fat, R_CAP, "g") == R_CAP

    @settings(max_examples=80, deadline=None)
    @given(
        sigma=st.floats(0.4, 2.5),
        tau=st.floats(0.3, 3.0),
        m0=st.floats(-2.0, 2.0),
        r=st.floats(-30.0, 30.0),
    )
    def test_overturning_randomized(self, sigma, tau, m0, r):
        """One action is enough to pull the public belief to its side."""
        assume(abs(tau - sigma) > 1e-9 or abs(abs(m0) - 1.0) > 1e-9)
        model = build_model(GaussianSpec(sigma=sigma, tau=tau, m0=m0))
        assert update_public(model, r, "g") >= -1e-9
        assert update_public(model, r, "b") <= 1e-9

    def test_overturning_mixture(self, mixture_half):
        for r in np.linspace(-30, 30, 101):
            assert update_public(mixture_half, float(r), "g") >= -1e-9
            assert update_public(mixture_half, float(r), "b") <= 1e-9


class TestTrajectory:
    def test_invariants(self, gauss_fat):
        traj = simulate_trajectory(gauss_fat, 0, "g", 400, philox(5), gamma=0.5)
        assert len(traj.actions) == 400
        assert len(traj.llrs) == 400
        assert len(traj.public_llrs) == 401
        assert traj.public_llrs[0] == 0.0
        switches = 0
        last = None
        for t in range(400):
            r_t = traj.public_llrs[t]
            expected_action = "g" if traj.llrs[t] >= -r_t else "b"
            assert traj.actions[t] == expected_action
            assert traj.public_llrs[t + 1] == pytest.approx(
                update_public(gauss_fat, r_t, traj.actions[t]), abs=0.0
            )
            if t > 0 and traj.actions[t] != traj.actions[t - 1]:
                switches += 1
                last = t + 1
        assert traj.switch_count == switches
        assert traj.last_switch_time == last
        assert traj.observer_beliefs is not None
        assert len(traj.observer_beliefs) == 401
        assert traj.observer_beliefs[0] == 0.5

    def test_single_step_rule(self, gauss_fat):
        for seed in range(6):
            traj = simulate_trajectory(gauss_fat, 1, "g", 1, philox(seed))
            assert (traj.actions[0] == "g") == (traj.llrs[0] >= 0.0)

    def test_bitwise_determinism(self, mixture_half):
        a = simulate_trajectory(mixture_half, 0, "b", 200, philox(77), gamma=0.3)
        b = simulate_trajectory(mixture_half, 0, "b", 200, philox(77), gamma=0.3)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.llrs, b.llrs)
        np.testing.assert_array_equal(a.public_llrs, b.public_llrs)
        np.testing.assert_array_equal(a.observer_beliefs, b.observer_beliefs)

    def test_horizon_validation(self, gauss_fat):
        with pytest.raises(InvalidParameterError):
            simulate_trajectory(gauss_fat, 1, "g", 0, philox(0))

    def test_informative_herds_correctly(self, gauss_fat):
        hits = 0
        n = 300
        for i in range(n):
            traj = simulate_trajectory(gauss_fat, 1, "b", 500, philox(1234, i))
            hits += traj.actions[-1] == "b"
        assert hits / n >= 0.95

    def test_nonzero_initial_r(self, gauss_fat):
        traj = simulate_trajectory(
            gauss_fat, 1, "g", 50, philox(9), initial_r=3.0
        )
        assert traj.public_llrs[0] == 3.0


class TestStationarity:
    """Continuation probabilities depend on the history only through the
    public belief: a prefix after one G action has the same law as a fresh
    start from the post-G belief."""

    def test_one_step_prefix_matches_fresh_start(self, gauss_fat):
        n = 100_000
        horizon = 3
        base = ExperimentConfig(
            model=GaussianSpec(sigma=1.0, tau=2.0),
            gamma=0.5,
            horizon=horizon,
            num_trajectories=n,
            omega=0,
            master_seed=501,
            record_traces=True,
        )
        res_a = run_experiment(base)
        acts_a = np.array([tr.actions for tr in res_a.traces])
        cond = acts_a[:, 0] == "g"
        n_cond = int(cond.sum())
        # Continuation (b, g) after the initial G.
        hit_a = np.mean((acts_a[cond, 1] == "b") & (acts_a[cond, 2] == "g"))

        r_after_g = update_public(gauss_fat, 0.0, "g")
        fresh = ExperimentConfig(
            model=GaussianSpec(sigma=1.0, tau=2.0),
            gamma=0.5,
            horizon=2,
            num_trajectories=n,
            omega=0,
            initial_r=r_after_g,
            master_seed=502,
            record_traces=True,
        )
        res_b = run_experiment(fresh)
        acts_b = np.array([tr.actions for tr in res_b.traces])
        hit_b = np.mean((acts_b[:, 0] == "b") & (acts_b[:, 1] == "g"))

        se = math.sqrt(hit_a * (1 - hit_a) / n_cond + hit_b * (1 - hit_b) / n)
        assert abs(hit_a - hit_b) <= 3.0 * se, (
            f"conditional {hit_a:.5f} vs fresh {hit_b:.5f}, 3SE={3 * se:.5f}"
        )
