"""Tests for the logistic-link maximum-likelihood estimator."""

import json
import math

import numpy as np
import pytest
from scipy import optimize
from scipy.special import expit

from listmrt import mrt_mle
from listmrt.cli import main
from listmrt.errors import DomainError
from listmrt.mrt_core import OrderingRule
from listmrt.mrt_mle import (
    MleParams,
    MrtContinuousSample,
    log_likelihood,
    mle_fit,
    predict_share,
    score,
    swap_labels,
)

# Slope-only truth for scalar z ~ Uniform[0,1]; class-1 links slope upward.
TRUTH = MleParams(
    rho=[1.0], alpha0=[-1.0], alpha1=[1.0], beta0=[-2.0], beta1=[2.0],
    gamma0=[-2.0], gamma1=[2.0],
)
# Across-replication dispersions of the n=2000 slope-only design, used to
# size single-draw tolerances (3 sigma).
TRUTH_SD = {
    "rho": 0.193, "alpha1": 0.126, "alpha0": 0.201, "beta1": 0.249,
    "beta0": 0.436, "gamma1": 0.240, "gamma0": 0.443,
}


def simulate_slope_only(n, seed, params=TRUTH):
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 1.0, n)
    xstar = rng.random(n) < expit(params.rho[0] * z)

    def draw(c1, c0):
        p = np.where(xstar, expit(c1 * z), expit(c0 * z))
        return (rng.random(n) < p).astype(int)

    x1 = draw(params.alpha1[0], params.alpha0[0])
    x2 = draw(params.beta1[0], params.beta0[0])
    x3 = draw(params.gamma1[0], params.gamma0[0])
    return MrtContinuousSample(x1=x1, x2=x2, x3=x3, z=z)


def random_params(rng, dim=1):
    return MleParams.from_vector(rng.uniform(-3.0, 3.0, 7 * dim), dim)


class TestMleParams:
    def test_vector_round_trip(self):
        vec = np.arange(7.0)
        p = MleParams.from_vector(vec, 1)
        assert np.array_equal(p.as_vector(), vec)
        assert p.dim == 1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError, match="one dimension"):
            MleParams(rho=[1.0, 2.0], alpha0=[1.0], alpha1=[2.0], beta0=[1.0],
                      beta1=[2.0], gamma0=[1.0], gamma1=[2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            MleParams(rho=[np.nan], alpha0=[1.0], alpha1=[2.0], beta0=[1.0],
                      beta1=[2.0], gamma0=[1.0], gamma1=[2.0])


class TestMrtContinuousSample:
    def test_from_records(self):
        recs = [
            {"x1": 1, "x2": 0, "x3": 1, "z": 0.3},
            {"x1": 0, "x2": 1, "x3": 0, "z": 0.8},
        ]
        s = MrtContinuousSample.from_records(recs)
        assert s.n == 2 and s.dim_z == 1
        assert s.z.shape == (2, 1)

    def test_validation(self):
        with pytest.raises(DomainError, match="nonempty"):
            MrtContinuousSample.from_records([])
        with pytest.raises(DomainError, match="only 0 and 1"):
            MrtContinuousSample(x1=[2], x2=[0], x3=[1], z=[0.5])
        with pytest.raises(DomainError, match="finite"):
            MrtContinuousSample(x1=[1], x2=[0], x3=[1], z=[np.inf])
        with pytest.raises(DomainError, match="matching"):
            MrtContinuousSample(x1=[1, 0], x2=[0, 1], x3=[1, 1], z=[0.5])


class TestLogLikelihood:
    def test_symmetric_point_hand_value(self):
        # Every link probability is one half, so each class contributes
        # 0.5^3 (three questions) times 0.5 (class weight) = 0.0625, and the
        # two-class sum makes the per-record likelihood 0.125. [DERIVED]
        zero = MleParams.from_vector(np.zeros(7), 1)
        s = simulate_slope_only(50, seed=3)
        ll = log_likelihood(zero, s)
        assert abs(ll - 50 * math.log(0.125)) < 1e-10

    def test_degenerate_class_zero_limit(self):
        # Intercept -30 on the class share gives class 0 weight ~1; class-0
        # links with intercept +30 produce the observed (1,1,1) with
        # probability ~1, so the record likelihood approaches 1, log -> 0.
        s = MrtContinuousSample(x1=[1], x2=[1], x3=[1], z=[0.5])
        p = MleParams(
            rho=[-30.0, 0.0], alpha0=[30.0, 0.0], alpha1=[0.5, 0.0],
            beta0=[30.0, 0.0], beta1=[0.5, 0.0], gamma0=[30.0, 0.0],
            gamma1=[0.5, 0.0],
        )
        assert abs(log_likelihood(p, s)) < 1e-8

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(0)
        s = simulate_slope_only(200, seed=1)
        for _ in range(25):
            assert log_likelihood(random_params(rng), s) <= 0.0

    def test_stable_at_large_coefficients(self):
        s = simulate_slope_only(100, seed=2)
        big = MleParams.from_vector(np.array([50.0, -50, 50, -50, 50, -50, 50]), 1)
        val = log_likelihood(big, s)
        assert np.isfinite(val)
        assert np.all(np.isfinite(score(big, s)))

    def test_score_vanishes_at_truth_in_large_sample(self):
        s = simulate_slope_only(1_000_000, seed=11)
        mean_score = score(TRUTH, s) / s.n
        assert np.abs(mean_score).max() < 2e-2

    def test_intercept_parameterization(self):
        # dim(z)+1 coefficients are read as intercept + slopes.
        s = MrtContinuousSample(x1=[1], x2=[0], x3=[1], z=[2.0])
        p_int = MleParams.from_vector(np.tile([1.0, 0.0], 7).reshape(7, 2).ravel(), 2)
        p_slope = MleParams.from_vector(np.full(7, 0.5), 1)
        # intercept 1, slope 0 at z=2 gives the same links as slope 0.5 at z=2
        assert abs(log_likelihood(p_int, s) - log_likelihood(p_slope, s)) < 1e-12

    def test_incompatible_dimension_rejected(self):
        s = simulate_slope_only(10, seed=0)
        bad = MleParams.from_vector(np.arange(21.0), 3)
        with pytest.raises(DomainError, match="dimension"):
            log_likelihood(bad, s)


class TestScore:
    def test_matches_finite_differences(self):
        s = simulate_slope_only(400, seed=5)
        rng = np.random.default_rng(7)
        for _ in range(20):
            vec = rng.uniform(-3.0, 3.0, 7)
            p = MleParams.from_vector(vec, 1)
            analytic = score(p, s)
            fd = np.empty(7)
            for i in range(7):
                up, dn = vec.copy(), vec.copy()
                up[i] += 1e-5
                dn[i] -= 1e-5
                fd[i] = (
                    log_likelihood(MleParams.from_vector(up, 1), s)
                    - log_likelihood(MleParams.from_vector(dn, 1), s)
                ) / 2e-5
            denom = max(1.0, float(np.abs(fd).max()))
            assert np.abs(analytic - fd).max() / denom < 1e-4

    def test_label_swap_invariance(self):
        s = simulate_slope_only(300, seed=9)
        rng = np.random.default_rng(13)
        for dim in (1, 2):
            for _ in range(10):
                p = random_params(rng, dim)
                assert abs(log_likelihood(p, s) - log_likelihood(swap_labels(p), s)) < 1e-10


class _WinnerFails:
    """Stand-in for scipy.optimize in mrt_mle: the first start converges but
    is pushed out of the lead, and every later start reports failure."""

    def __init__(self):
        self.calls = 0

    def minimize(self, *args, **kwargs):
        res = optimize.minimize(*args, **kwargs)
        self.calls += 1
        if self.calls == 1:
            res.success, res.fun = True, res.fun + 1.0
        else:
            res.success = False
        return res


class TestMleFit:
    def test_converged_follows_the_winning_start(self, monkeypatch, tmp_path):
        s = simulate_slope_only(400, seed=5)
        monkeypatch.setattr(mrt_mle, "optimize", _WinnerFails())
        fit = mle_fit(s, OrderingRule(question=1, class1_higher=True))
        assert fit.converged is False

        data = tmp_path / "cont.csv"
        assert main(["simulate", "--design", "mrt-continuous", "--n", "400",
                     "--seed", "5", "--output", str(data)]) == 0
        report_path = tmp_path / "report.json"
        monkeypatch.setattr(mrt_mle, "optimize", _WinnerFails())
        assert main(["estimate-mrt", "--input", str(data), "--seed", "1",
                     "--format", "json", "--output", str(report_path)]) == 0
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["diagnostics"]["not_converged"] == ["mle optimizer did not converge"]

    def test_recovers_truth_single_draw(self):
        s = simulate_slope_only(2000, seed=17)
        fit = mle_fit(s, OrderingRule(question=1, class1_higher=True), include_intercept=False)
        assert fit.converged and not fit.small_sample
        est = fit.params
        for name, sd in TRUTH_SD.items():
            err = abs(float(getattr(est, name)[0]) - float(getattr(TRUTH, name)[0]))
            assert err < 3.0 * sd, f"{name} off by {err:.3f} (3 sigma = {3 * sd:.3f})"
        assert fit.se is not None
        assert all(np.all(v > 0) for v in fit.se.values())

    def test_ordering_rule_flips_labels(self):
        s = simulate_slope_only(1500, seed=21)
        up = mle_fit(s, OrderingRule(question=1, class1_higher=True), include_intercept=False)
        dn = mle_fit(s, OrderingRule(question=1, class1_higher=False), include_intercept=False)
        assert float(up.params.alpha1[0]) > float(up.params.alpha0[0])
        assert float(dn.params.alpha1[0]) < float(dn.params.alpha0[0])
        assert abs(up.loglik - dn.loglik) < 1e-7
        assert np.allclose(dn.params.rho, -up.params.rho, atol=1e-6)

    def test_never_worse_than_truth(self):
        s = simulate_slope_only(800, seed=23)
        fit = mle_fit(s, OrderingRule(question=1, class1_higher=True), include_intercept=False)
        assert fit.loglik >= log_likelihood(TRUTH, s) - 1e-9

    def test_runs_the_six_fixed_starts(self, monkeypatch):
        starts = []

        class Recording:
            def minimize(self, fun, x0, *args, **kwargs):
                starts.append(np.array(x0))
                return optimize.minimize(fun, x0, *args, **kwargs)

        s = simulate_slope_only(2000, seed=41)
        monkeypatch.setattr(mrt_mle, "optimize", Recording())
        mle_fit(s, include_intercept=True)
        expected = [
            np.repeat([r, -mag, mag, -mag, mag, -mag, mag], 2)
            for mag, r in [(0.5, 0.0), (0.5, 1.0), (0.5, -1.0), (2.5, 0.0), (2.5, 1.0), (2.5, -1.0)]
        ]
        assert len(starts) == len(expected)
        for got, want in zip(starts, expected):
            np.testing.assert_array_equal(got, want)

    def test_small_sample_flagged(self):
        s = simulate_slope_only(80, seed=29)
        fit = mle_fit(s, include_intercept=False)
        assert fit.small_sample

    def test_zero_slope_design_with_intercepts(self):
        # Links that do not depend on z: slope estimates should sit within
        # two standard errors of zero.
        rng = np.random.default_rng(31)
        n = 4000
        z = rng.uniform(0.0, 1.0, n)
        xstar = rng.random(n) < 0.45
        p1 = np.where(xstar, 0.80, 0.25)
        p2 = np.where(xstar, 0.75, 0.30)
        p3 = np.where(xstar, 0.85, 0.20)
        s = MrtContinuousSample(
            x1=(rng.random(n) < p1).astype(int),
            x2=(rng.random(n) < p2).astype(int),
            x3=(rng.random(n) < p3).astype(int),
            z=z,
        )
        fit = mle_fit(s, OrderingRule(question=1, class1_higher=True))
        assert fit.params.dim == 2
        assert fit.se is not None
        # Each slope is individually within ~2 SE of zero with 95% chance;
        # across six coefficients a deterministic test needs the 3-SE band.
        for name in ("alpha0", "alpha1", "beta0", "beta1", "gamma0", "gamma1"):
            slope = float(getattr(fit.params, name)[1])
            se = float(fit.se[name][1])
            assert abs(slope) < 3.0 * se + 1e-6, f"{name} slope {slope:.3f} (se {se:.3f})"


class TestPredictShare:
    def test_logistic_arithmetic(self):
        p = MleParams.from_vector(np.array([2.0, -1, 1, -2, 2, -2, 2]), 1)
        out = predict_share(p, [[0.5]])
        assert abs(float(out[0]) - expit(1.0)) < 1e-12

    def test_dimension_mismatch(self):
        p = MleParams.from_vector(np.arange(21.0), 3)
        with pytest.raises(DomainError, match="incompatible"):
            predict_share(p, [[0.5]])
