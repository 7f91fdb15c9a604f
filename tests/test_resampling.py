"""Tests for bootstrap inference, the Gaussian copula, and the MC harness."""

import numpy as np
import pytest
from scipy import stats

from listmrt.errors import DesignError, DomainError, InferenceError, ListmrtError
from listmrt.le_core import LeParams, simulate_le
from listmrt.le_gmm import MomentSpec, Spec, gmm_estimate
from listmrt.mrt_core import MrtJoint, MrtLatent
from listmrt.mrt_mle import MrtContinuousSample
from listmrt.resampling import (
    CONTINUOUS_TRUTH,
    DISCRETE_TRUTH,
    BootstrapConfig,
    CorrelationScale,
    DesignKind,
    Direction,
    DiscreteTruth,
    McDesign,
    _binary_corr,
    _bvn_cdf,
    _draw_bits,
    _frechet_upper,
    _latent_cholesky,
    _solve_latent_r,
    bootstrap,
    one_sided_pvalue,
    run_monte_carlo,
    simulate_continuous_design,
    simulate_discrete_design,
)

from _support import NULL_CONTROL, null_le_sample


def bernoulli_sample(n, p, seed):
    rng = np.random.default_rng(seed)
    x1 = (rng.random(n) < p).astype(int)
    filler = rng.integers(0, 2, size=(2, n))
    return MrtContinuousSample(x1=x1, x2=filler[0], x3=filler[1], z=rng.random(n))


def mean_x1(sample):
    return float(sample.x1.mean())


class TestBootstrapConfig:
    def test_small_n_reps_rejected(self):
        with pytest.raises(DomainError, match="n_reps"):
            BootstrapConfig(n_reps=50)


class TestBootstrap:
    def test_bernoulli_mean_se_matches_binomial(self):
        # Analytic SE of a Bernoulli(0.5) mean at n=400 is 0.025.
        sample = bernoulli_sample(400, 0.5, seed=2)
        res = bootstrap(sample, mean_x1, BootstrapConfig(n_reps=1000, seed=7))
        assert res.n_failed == 0
        assert res.estimates.shape == (1000, 1)
        assert abs(float(res.se[0]) - 0.025) < 0.15 * 0.025
        lo, hi = res.ci95[0]
        assert lo < sample.x1.mean() < hi

    def test_degenerate_sample_has_zero_se(self):
        sample = MrtContinuousSample(
            x1=np.ones(50, dtype=int), x2=np.zeros(50, dtype=int),
            x3=np.ones(50, dtype=int), z=np.full(50, 0.3),
        )
        res = bootstrap(sample, mean_x1, BootstrapConfig(n_reps=200, seed=1))
        assert float(res.se[0]) == 0.0
        assert np.all(res.ci95[0] == 1.0)

    def test_group_stratification_preserves_group_sizes(self):
        sample = null_le_sample(600, seed=9)
        counts = lambda s: (float((s.t == 0).sum()), float((s.t == 1).sum()))  # noqa: E731
        strat = bootstrap(sample, counts, BootstrapConfig(n_reps=150, seed=3))
        assert np.all(strat.se == 0.0)

    def test_gmm_bootstrap_se_matches_monte_carlo_sd(self):
        # Across-replication sd of delta-hat is the oracle for the bootstrap SE.
        # The no-misreport specification is the smooth case this calibration
        # claim covers: the unrestricted fit carries genuine boundary mass
        # (a mirror basin at p0, p1 -> 1), so its bootstrap sd is tail-driven
        # and unstable across base samples.
        truth = LeParams.no_misreport(0.35)
        mspec = MomentSpec(j_count=4, spec=Spec.NO_MISREPORT)

        def draw(seed):
            return simulate_le(truth, NULL_CONTROL, 2000, 0.5, seed)

        def delta_hat(s):
            return float(gmm_estimate(s, mspec).theta_hat.delta)

        mc = np.array([delta_hat(draw(1000 + i)) for i in range(120)])
        mc_sd = mc.std(ddof=1)
        res = bootstrap(
            draw(70), delta_hat,
            BootstrapConfig(n_reps=150, seed=71),
        )
        se = float(res.se[0])
        assert abs(se - mc_sd) < 0.25 * mc_sd, f"bootstrap {se:.4f} vs MC {mc_sd:.4f}"

    def test_excess_failures_raise_inference_error(self):
        sample = bernoulli_sample(100, 0.5, seed=4)

        def flaky(s):
            if int(s.x1.sum()) % 2 == 1:
                raise ListmrtError("parity failure")
            return float(s.x1.mean())

        with pytest.raises(InferenceError, match="unstable"):
            bootstrap(sample, flaky, BootstrapConfig(n_reps=200, seed=11))

    def test_moderate_failures_dropped_and_counted(self):
        sample = bernoulli_sample(400, 0.5, seed=6)

        def sometimes(s):
            m = float(s.x1.mean())
            if m > 0.531:  # roughly a tenth of replicates
                raise ListmrtError("upper tail")
            return m

        res = bootstrap(sample, sometimes, BootstrapConfig(n_reps=500, seed=13))
        assert 0 < res.n_failed <= 100
        assert res.estimates.shape[0] + res.n_failed == 500

    def test_joint_resampling(self):
        joint = MrtJoint.from_probs(DISCRETE_TRUTH.cell0.joint_probs(), n_cell=500)

        def total(j):
            assert j.n_cell == 500
            return float(j.probs[1].sum())

        res = bootstrap(joint, total, BootstrapConfig(n_reps=150, seed=2))
        assert res.estimates.shape == (150, 1)
        assert float(res.se[0]) > 0

    def test_invalid_stratification_rejected(self):
        with pytest.raises(DomainError, match="cannot resample"):
            bootstrap({"not": "a sample"}, lambda s: 0.0, BootstrapConfig(n_reps=100, seed=0))


class TestOneSidedPvalue:
    def test_forced_counts(self):
        ests = np.linspace(0.01, 1.0, 1000)
        assert abs(one_sided_pvalue(ests, 0.0, Direction.GREATER) - 1.0 / 1001.0) < 1e-15
        assert abs(one_sided_pvalue(ests, 0.0, Direction.LESS) - 1.0) < 1e-12

    def test_symmetric_estimates(self):
        ests = np.concatenate([np.linspace(-1, -0.01, 500), np.linspace(0.01, 1, 500)])
        assert abs(one_sided_pvalue(ests, 0.0, Direction.GREATER) - 0.5) < 0.01
        assert abs(one_sided_pvalue(ests, 0.0, Direction.LESS) - 0.5) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="nonempty"):
            one_sided_pvalue([], 0.0, Direction.GREATER)

    def test_size_under_boundary_null(self):
        # With the true mean at the null value, the bootstrap p-value is
        # approximately uniform: 5%-level rejections should be near 5%.
        rng = np.random.default_rng(314)
        n, b = 400, 199
        rejections = 0
        outer = 300
        for _ in range(outer):
            x = (rng.random(n) < 0.3).astype(float)
            boots = rng.integers(0, n, size=(b, n))
            ests = x[boots].mean(axis=1)
            p = one_sided_pvalue(ests, 0.3, Direction.GREATER)
            rejections += p < 0.05
        rate = rejections / outer
        assert 0.02 <= rate <= 0.08, f"rejection rate {rate:.3f}"


class TestCopula:
    def test_bvn_cdf_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h, k = rng.uniform(-2.5, 2.5, 2)
            r = rng.uniform(-0.95, 0.95)
            ref = stats.multivariate_normal(mean=[0, 0], cov=[[1, r], [r, 1]]).cdf([h, k])
            assert abs(_bvn_cdf(h, k, r) - ref) < 1e-12

    def test_solved_latent_r_hits_target(self):
        r = _solve_latent_r(0.3, 0.7, 0.15, "test")
        assert abs(_binary_corr(0.3, 0.7, r) - 0.15) < 1e-10
        assert _solve_latent_r(0.3, 0.7, 0.0, "test") == 0.0

    def test_frechet_bound_named_in_error(self):
        with pytest.raises(DesignError, match="Fréchet upper bound"):
            _solve_latent_r(0.05, 0.95, 0.3, "test")

    def test_degenerate_marginal_rejected(self):
        with pytest.raises(DesignError, match="degenerate marginal"):
            _solve_latent_r(0.0, 0.5, 0.1, "test")

    def test_realized_scale_marginals_and_correlation(self):
        # Unequal marginals, sigma = 0.2, one million draws: marginals within
        # 3 binomial SEs, every pairwise correlation within 0.01 of target.
        marg = np.array([0.900, 0.750, 0.891])
        chol = _latent_cholesky(marg, 0.20, "test", CorrelationScale.REALIZED)
        rng = np.random.default_rng(8)
        n = 1_000_000
        bits = _draw_bits(rng, np.broadcast_to(marg, (n, 3)), chol)
        for q in range(3):
            se = np.sqrt(marg[q] * (1 - marg[q]) / n)
            assert abs(bits[:, q].mean() - marg[q]) < 3 * se
        cc = np.corrcoef(bits.T)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert abs(cc[i, j] - 0.20) < 0.01

    def test_latent_scale_matches_analytic_attenuation(self):
        # On the latent scale the realized binary correlation is the analytic
        # thresholded-Gaussian value, strictly below sigma.
        marg = np.array([0.900, 0.750, 0.891])
        chol = _latent_cholesky(marg, 0.20, "test", CorrelationScale.LATENT)
        rng = np.random.default_rng(9)
        n = 1_000_000
        bits = _draw_bits(rng, np.broadcast_to(marg, (n, 3)), chol)
        cc = np.corrcoef(bits.T)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            expected = _binary_corr(marg[i], marg[j], 0.20)
            assert expected < 0.20
            assert abs(cc[i, j] - expected) < 0.01

    def test_sigma_zero_is_independent(self):
        marg = np.array([0.4, 0.6, 0.5])
        for scale in CorrelationScale:
            chol = _latent_cholesky(marg, 0.0, "test", scale)
            assert np.array_equal(chol, np.eye(3))


class TestMcDesign:
    def test_sigma_validated(self):
        with pytest.raises(DomainError, match="sigma"):
            McDesign(kind=DesignKind.DISCRETE_Z_CORRELATED, truth=DISCRETE_TRUTH,
                     n=100, n_reps=10, sigma=0.7)

    def test_truth_type_checked(self):
        with pytest.raises(DomainError, match="DiscreteTruth"):
            McDesign(kind=DesignKind.DISCRETE_Z, truth=CONTINUOUS_TRUTH, n=100, n_reps=10)
        with pytest.raises(DomainError, match="MleParams"):
            McDesign(kind=DesignKind.CONTINUOUS_Z, truth=DISCRETE_TRUTH, n=100, n_reps=10)

    def test_baseline_requires_sigma_zero(self):
        with pytest.raises(DomainError, match="sigma = 0"):
            McDesign(kind=DesignKind.DISCRETE_Z, truth=DISCRETE_TRUTH,
                     n=100, n_reps=10, sigma=0.1)

    def test_pr_z0_validated(self):
        with pytest.raises(DomainError, match="pr_z0"):
            DiscreteTruth(pr_z0=1.0, cell0=DISCRETE_TRUTH.cell0, cell1=DISCRETE_TRUTH.cell1)

    def test_default_scale_is_latent(self):
        d = McDesign(kind=DesignKind.DISCRETE_Z_CORRELATED, truth=DISCRETE_TRUTH,
                     n=100, n_reps=10, sigma=0.2)
        assert d.scale is CorrelationScale.LATENT

    def test_realized_scale_runs_and_differs(self):
        kw = dict(kind=DesignKind.DISCRETE_Z_CORRELATED, truth=DISCRETE_TRUTH,
                  n=2000, n_reps=8, seed=40, sigma=0.2)
        lat = run_monte_carlo(McDesign(**kw), estimators=("closed_form",))
        rea = run_monte_carlo(
            McDesign(scale=CorrelationScale.REALIZED, **kw), estimators=("closed_form",)
        )
        assert any(a.mean != b.mean for a, b in zip(lat, rea))


class TestSimulateDesigns:
    def test_discrete_cells_and_sizes(self):
        rng = np.random.default_rng(3)
        joints = simulate_discrete_design(DISCRETE_TRUTH, 5000, 0.0, rng)
        assert [j.z_cell for j in joints] == [0, 1]
        assert sum(j.n_cell for j in joints) == 5000
        # cell z=0 holds roughly 40% of the sample
        assert abs(joints[0].n_cell / 5000 - 0.4) < 0.05

    def test_sigma_zero_correlated_equals_baseline_bitwise(self):
        a = simulate_discrete_design(DISCRETE_TRUTH, 2000, 0.0, np.random.default_rng(5))
        b = simulate_discrete_design(DISCRETE_TRUTH, 2000, 0.0, np.random.default_rng(5))
        for x, y in zip(a, b):
            assert np.array_equal(x.counts, y.counts)
        s1 = simulate_continuous_design(CONTINUOUS_TRUTH, 1000, 0.0, np.random.default_rng(6))
        s2 = simulate_continuous_design(CONTINUOUS_TRUTH, 1000, 0.0, np.random.default_rng(6))
        assert np.array_equal(s1.x1, s2.x1) and np.array_equal(s1.z, s2.z)

    def test_continuous_marginal_law(self):
        rng = np.random.default_rng(11)
        s = simulate_continuous_design(CONTINUOUS_TRUTH, 200_000, 0.0, rng)
        # At the truth, Pr(X1=1) = E_z[ g(z)sig(z) + (1-g(z))sig(-z) ] with
        # g = sigmoid(z): checked against a numerical quadrature value.
        from scipy.special import expit

        grid = np.linspace(0, 1, 20001)
        gz = expit(grid)
        target = np.trapezoid(gz * expit(grid) + (1 - gz) * expit(-grid), grid)
        assert abs(s.x1.mean() - target) < 0.005

    def test_correlated_continuous_marginals_preserved(self):
        n = 150_000
        s0 = simulate_continuous_design(CONTINUOUS_TRUTH, n, 0.0, np.random.default_rng(17))
        for scale in CorrelationScale:
            s = simulate_continuous_design(
                CONTINUOUS_TRUTH, n, 0.20, np.random.default_rng(17), scale
            )
            for a, b in ((s.x1, s0.x1), (s.x2, s0.x2), (s.x3, s0.x3)):
                assert abs(a.mean() - b.mean()) < 0.006

    def test_scales_differ_at_positive_sigma(self):
        lat = simulate_discrete_design(
            DISCRETE_TRUTH, 20_000, 0.20, np.random.default_rng(12), CorrelationScale.LATENT
        )
        rea = simulate_discrete_design(
            DISCRETE_TRUTH, 20_000, 0.20, np.random.default_rng(12), CorrelationScale.REALIZED
        )
        assert not all(np.array_equal(a.counts, b.counts) for a, b in zip(lat, rea))


class TestRunMonteCarlo:
    def test_deterministic_tables(self):
        d = McDesign(kind=DesignKind.DISCRETE_Z, truth=DISCRETE_TRUTH, n=400, n_reps=12, seed=21)
        a = run_monte_carlo(d, estimators=("closed_form",))
        b = run_monte_carlo(d, estimators=("closed_form",))
        for x, y in zip(a, b):
            assert (x.mean, x.sd, x.median, x.n_failed) == (y.mean, y.sd, y.median, y.n_failed)

    def test_serial_equals_parallel(self):
        d = McDesign(kind=DesignKind.DISCRETE_Z, truth=DISCRETE_TRUTH, n=400, n_reps=12, seed=22)
        a = run_monte_carlo(d, estimators=("closed_form",), n_jobs=1)
        b = run_monte_carlo(d, estimators=("closed_form",), n_jobs=4)
        for x, y in zip(a, b):
            assert (x.mean, x.sd, x.median, x.n_failed) == (y.mean, y.sd, y.median, y.n_failed)

    def test_continuous_serial_equals_parallel(self):
        d = McDesign(kind=DesignKind.CONTINUOUS_Z, truth=CONTINUOUS_TRUTH,
                     n=400, n_reps=6, seed=23)
        a = run_monte_carlo(d, n_jobs=1)
        b = run_monte_carlo(d, n_jobs=2)
        for x, y in zip(a, b):
            assert (x.mean, x.sd, x.median) == (y.mean, y.sd, y.median)

    def test_discrete_golden_quick(self):
        # Light version of the golden table check (the acceptance gate runs
        # the full 1000 replications): closed form at n=2000.
        d = McDesign(kind=DesignKind.DISCRETE_Z, truth=DISCRETE_TRUTH,
                     n=2000, n_reps=120, seed=31)
        rows = {r.parameter: r for r in run_monte_carlo(d, estimators=("closed_form",))}
        assert abs(rows["pr_xstar"].mean - 0.634) < 0.02
        assert 0.015 < rows["pr_xstar"].sd < 0.045
        assert abs(rows["pr_xstar_z0"].mean - 0.379) < 0.03
        assert abs(rows["pr_xstar_z1"].mean - 0.817) < 0.03
        assert rows["pr_xstar"].truth == pytest.approx(0.642)
        # A handful of replicates trip the closed form's out-of-range guard
        # at this n; they are dropped and counted, never silently imputed.
        assert rows["pr_xstar"].n_failed <= 12

    def test_unknown_estimator_rejected(self):
        d = McDesign(kind=DesignKind.DISCRETE_Z, truth=DISCRETE_TRUTH, n=200, n_reps=2)
        with pytest.raises(DomainError, match="not available"):
            run_monte_carlo(d, estimators=("mle",))

    def test_mle_rows_shape(self):
        d = McDesign(kind=DesignKind.CONTINUOUS_Z, truth=CONTINUOUS_TRUTH,
                     n=500, n_reps=4, seed=9)
        rows = run_monte_carlo(d)
        assert [r.parameter for r in rows] == [
            "rho", "alpha1", "alpha0", "beta1", "beta0", "gamma1", "gamma0"
        ]
        assert all(r.estimator == "mle" for r in rows)
        assert rows[0].truth == 1.0 and rows[2].truth == -1.0
