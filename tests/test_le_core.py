"""Oracle tests for the list-experiment forward model, solver, and simulator."""

import numpy as np
import pytest
from _support import observed_control, random_attainable_control
from scipy import stats

from listmrt.errors import DomainError
from listmrt.le_core import (
    ControlDistribution,
    LeParams,
    LeSample,
    Spec,
    TreatmentDistribution,
    Unidentified,
    empirical_distributions,
    le_forward,
    mean_difference_analytic,
    simulate_le,
    simulate_modified_le,
    solve_le_closed_form,
)

UNIFORM4 = ControlDistribution(j_count=3, probs=np.full(4, 0.25))
SKEWED4 = ControlDistribution(j_count=3, probs=np.array([0.4, 0.3, 0.2, 0.1]))


class TestLeParams:
    def test_delta_one_allowed(self):
        assert LeParams.unrestricted(1.0, 0.0, 0.0).delta == 1.0

    def test_rates_must_be_below_one(self):
        with pytest.raises(DomainError):
            LeParams.unrestricted(0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            LeParams.unrestricted(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            LeParams.strategic(0.5, 1.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            LeParams.unrestricted(-0.1, 0.0, 0.0)

    def test_spec_constraints(self):
        with pytest.raises(DomainError):
            LeParams(delta=0.2, p0=0.1, p1=0.2, spec=Spec.EQUAL_P)
        with pytest.raises(DomainError):
            LeParams(delta=0.2, p0=0.1, p1=0.1, spec=Spec.NO_MISREPORT)
        with pytest.raises(DomainError):
            LeParams(delta=0.2, p0=0.1, p1=0.0, spec=Spec.STRATEGIC, p=0.3)


class TestLeForward:
    def test_no_trait_no_noise_is_identity(self):
        out = le_forward(LeParams.unrestricted(0.0, 0.0, 0.0), SKEWED4)
        np.testing.assert_allclose(out.probs[:4], SKEWED4.probs, atol=1e-15)
        assert out.probs[4] == 0.0

    def test_delta_one_is_unit_shift(self):
        out = le_forward(LeParams.unrestricted(1.0, 0.0, 0.0), SKEWED4)
        assert out.probs[0] == 0.0
        np.testing.assert_allclose(out.probs[1:], SKEWED4.probs, atol=1e-15)

    def test_brute_force_dgp_oracle(self):
        # Treatment side of the two-stage DGP simulated directly: truthful
        # count, plus the trait, then a uniform-misreport mixture.
        params = LeParams.unrestricted(0.3, 0.1, 0.2)
        n = 1_000_000
        rng = np.random.default_rng(20240801)
        r = rng.integers(0, 4, size=n)  # truthful counts, uniform over 0..3
        xstar = rng.random(n) < 0.3
        y = r + xstar
        mis = rng.random(n) < 0.2
        y = np.where(mis, rng.integers(0, 5, size=n), y)
        freq = np.bincount(y, minlength=5) / n
        # Uniform truthful counts + p0 = 0.1 leave the observed control
        # distribution uniform, so the forward map applies to UNIFORM4 as is.
        expected = le_forward(params, UNIFORM4).probs
        se = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(freq - expected) < 3 * se)

    def test_output_is_probability_vector(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            j = int(rng.integers(3, 7))
            p0, p1 = rng.uniform(0, 0.6, size=2)
            params = LeParams.unrestricted(rng.uniform(0, 1), p0, p1)
            control = ControlDistribution(j_count=j, probs=random_attainable_control(rng, j, p0))
            out = le_forward(params, control)  # construction validates entries
            assert abs(out.probs.sum() - 1.0) < 1e-12

    def test_unattainable_control_raises(self):
        control = ControlDistribution(j_count=3, probs=np.array([0.05, 0.35, 0.3, 0.3]))
        with pytest.raises(DomainError):
            le_forward(LeParams.unrestricted(0.3, 0.6, 0.2), control)

    def test_strategic_hand_example(self):
        control = ControlDistribution(j_count=3, probs=np.array([0.1, 0.2, 0.3, 0.4]))
        out = le_forward(LeParams.strategic(0.4, 0.5), control)
        np.testing.assert_allclose(out.probs, [0.06, 0.16, 0.26, 0.44, 0.08], atol=1e-15)

    def test_strategic_p_zero_equals_clean_unrestricted(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            j = int(rng.integers(3, 6))
            probs = rng.dirichlet(np.ones(j + 1))
            control = ControlDistribution(j_count=j, probs=probs)
            delta = float(rng.uniform(0, 0.99))
            a = le_forward(LeParams.strategic(delta, 0.0), control)
            b = le_forward(LeParams.unrestricted(delta, 0.0, 0.0), control)
            np.testing.assert_array_equal(a.probs, b.probs)


class TestMeanDifference:
    def test_half_delta_kills_bias(self):
        for p in (0.0, 0.2, 0.8):
            got = mean_difference_analytic(LeParams.equal_p(0.5, p), SKEWED4)
            assert got == pytest.approx(0.5, abs=1e-12)

    def test_equal_p_frozen_value(self):
        got = mean_difference_analytic(LeParams.equal_p(0.2, 0.1), SKEWED4)
        assert got == pytest.approx(0.23, abs=1e-12)
        # Cross-check against the forward model's means.
        obs = ControlDistribution(j_count=3, probs=observed_control(SKEWED4.probs, 0.1))
        implied = le_forward(LeParams.equal_p(0.2, 0.1), obs)
        assert implied.mean - obs.mean == pytest.approx(0.23, abs=1e-12)

    def test_no_misreport_returns_delta(self):
        for d in (0.0, 0.17, 0.93):
            got = mean_difference_analytic(LeParams.no_misreport(d), UNIFORM4)
            assert got == pytest.approx(d, abs=1e-12)

    def test_matches_forward_model_means(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            j = int(rng.integers(3, 7))
            p0, p1 = rng.uniform(0, 0.6, size=2)
            params = LeParams.unrestricted(rng.uniform(0, 1), p0, p1)
            control = ControlDistribution(j_count=j, probs=random_attainable_control(rng, j, p0))
            treatment = le_forward(params, control)
            analytic = mean_difference_analytic(params, control)
            assert analytic == pytest.approx(treatment.mean - control.mean, abs=1e-12)

    def test_strategic_rejected(self):
        with pytest.raises(DomainError):
            mean_difference_analytic(LeParams.strategic(0.3, 0.2), UNIFORM4)


CURVED4 = np.array([0.15, 0.35, 0.25, 0.25])  # nonlinear in the count


class TestClosedFormSolver:
    def test_round_trip_exact(self):
        params = LeParams.unrestricted(0.4, 0.05, 0.10)
        control = ControlDistribution(j_count=3, probs=observed_control(CURVED4, 0.05))
        treatment = le_forward(params, control)
        got = solve_le_closed_form(control, treatment)
        assert isinstance(got, LeParams)
        assert got.delta == pytest.approx(0.4, abs=1e-10)
        assert got.p0 == pytest.approx(0.05, abs=1e-10)
        assert got.p1 == pytest.approx(0.10, abs=1e-10)

    def test_delta_half_unidentified(self):
        params = LeParams.unrestricted(0.5, 0.05, 0.10)
        control = ControlDistribution(j_count=3, probs=observed_control(CURVED4, 0.05))
        treatment = le_forward(params, control)
        got = solve_le_closed_form(control, treatment)
        assert isinstance(got, Unidentified)

    def test_linear_control_unidentified(self):
        # Consecutive differences of a count-linear control distribution carry
        # no information about delta: every cross product in the ratio is 0.
        params = LeParams.unrestricted(0.4, 0.05, 0.10)
        control = ControlDistribution(j_count=3, probs=observed_control(SKEWED4.probs, 0.05))
        treatment = le_forward(params, control)
        got = solve_le_closed_form(control, treatment)
        assert isinstance(got, Unidentified)

    def test_uniform_control_degenerate(self):
        # A uniform observed control distribution makes consecutive treatment
        # differences vanish, hitting the degenerate-denominator branch.
        treatment = le_forward(LeParams.unrestricted(0.3, 0.1, 0.2), UNIFORM4)
        got = solve_le_closed_form(UNIFORM4, treatment)
        assert isinstance(got, Unidentified)

    def test_dimension_mismatch_raises(self):
        c4 = ControlDistribution(j_count=4, probs=np.full(5, 0.2))
        t4 = le_forward(LeParams.no_misreport(0.3), c4)
        with pytest.raises(DomainError):
            solve_le_closed_form(c4, t4)

    def test_identified_region_property(self):
        rng = np.random.default_rng(17)
        identified = 0
        for _ in range(200):
            delta = float(rng.uniform(0, 1))
            if abs(delta - 0.5) < 0.05:
                delta = 0.3
            p0, p1 = rng.uniform(0, 0.6, size=2)
            params = LeParams.unrestricted(delta, p0, p1)
            control = ControlDistribution(j_count=3, probs=random_attainable_control(rng, 3, p0))
            treatment = le_forward(params, control)
            got = solve_le_closed_form(control, treatment)
            if isinstance(got, LeParams):
                identified += 1
                assert got.delta == pytest.approx(delta, abs=1e-8)
                assert got.p0 == pytest.approx(p0, abs=1e-8)
                assert got.p1 == pytest.approx(p1, abs=1e-8)
        assert identified >= 180


class TestSimulate:
    def test_determinism(self):
        params = LeParams.unrestricted(0.3, 0.1, 0.2)
        a = simulate_le(params, SKEWED4, 5000, 0.5, 42)
        b = simulate_le(params, SKEWED4, 5000, 0.5, 42)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.t, b.t)

    def test_clean_control_matches_truthful_distribution(self):
        n = 200_000
        sample = simulate_le(LeParams.unrestricted(0.3, 0.0, 0.0), SKEWED4, n, 0.5, 3)
        control, _, _, _ = empirical_distributions(sample)
        n0 = (sample.t == 0).sum()
        se = np.sqrt(SKEWED4.probs * (1 - SKEWED4.probs) / n0)
        assert np.all(np.abs(control.probs - SKEWED4.probs) < 3 * se)

    def test_group_frequencies_match_forward_model(self):
        params = LeParams.unrestricted(0.3, 0.1, 0.2)
        n = 1_000_000
        sample = simulate_le(params, SKEWED4, n, 0.5, 5)
        control, treatment, _, _ = empirical_distributions(sample)
        n0, n1 = (sample.t == 0).sum(), (sample.t == 1).sum()
        p0_obs = observed_control(SKEWED4.probs, 0.1)
        p1_obs = le_forward(params, ControlDistribution(j_count=3, probs=p0_obs)).probs
        se0 = np.sqrt(p0_obs * (1 - p0_obs) / n0)
        se1 = np.sqrt(p1_obs * (1 - p1_obs) / n1)
        assert np.all(np.abs(control.probs - p0_obs) < 3 * se0)
        assert np.all(np.abs(treatment.probs - p1_obs) < 3 * se1)

    def test_strategic_group_frequencies_match_forward_model(self):
        params = LeParams.strategic(0.4, 0.3)
        n = 400_000
        sample = simulate_le(params, SKEWED4, n, 0.5, 9)
        control, treatment, _, _ = empirical_distributions(sample)
        n0, n1 = (sample.t == 0).sum(), (sample.t == 1).sum()
        p1_obs = le_forward(params, SKEWED4).probs
        se0 = np.sqrt(SKEWED4.probs * (1 - SKEWED4.probs) / n0)
        se1 = np.sqrt(np.maximum(p1_obs * (1 - p1_obs), 1e-12) / n1)
        assert np.all(np.abs(control.probs - SKEWED4.probs) < 3 * se0)
        assert np.all(np.abs(treatment.probs - p1_obs) < 3.5 * se1)

    def test_chi_square_goodness_of_fit_over_seeds(self):
        params = LeParams.unrestricted(0.25, 0.15, 0.1)
        p0_obs = observed_control(SKEWED4.probs, 0.15)
        p1_obs = le_forward(params, ControlDistribution(j_count=3, probs=p0_obs)).probs
        rejections = 0
        for seed in range(20):
            sample = simulate_le(params, SKEWED4, 1_000_000, 0.5, 1000 + seed)
            y1 = sample.y[sample.t == 1]
            counts = np.bincount(y1, minlength=5)
            stat, p = stats.chisquare(counts, f_exp=p1_obs * y1.size)
            rejections += p < 0.01
        assert rejections <= 1

    def test_modified_direct_rates(self):
        params = LeParams.unrestricted(0.3, 0.1, 0.1)
        n = 200_000
        sample = simulate_modified_le(params, SKEWED4, n, 0.5, 77, q1=0.2, q0=0.1)
        base = simulate_le(params, SKEWED4, n, 0.5, 77)
        np.testing.assert_array_equal(sample.y, base.y)
        np.testing.assert_array_equal(sample.t, base.t)
        direct = sample.x_direct[sample.t == 0]
        assert np.isin(direct, (0, 1)).all()
        assert (sample.x_direct[sample.t == 1] == -1).all()
        # Pr(direct=1) = (1-q1) delta + q0 (1-delta) = 0.8*0.3 + 0.1*0.7 = 0.31
        rate = direct.mean()
        se = np.sqrt(0.31 * 0.69 / direct.size)
        assert abs(rate - 0.31) < 4 * se

    @pytest.mark.parametrize(
        "params, expected",
        [
            (LeParams.unrestricted(0.5, 0.1, 0.2),
             [0, -1, -1, 1, 0, -1, -1, -1, -1, -1, 0, 1, -1, 1, -1, -1]),
            (LeParams.strategic(0.5, 0.3),
             [1, -1, -1, 1, 0, -1, -1, -1, -1, -1, 0, 1, -1, 0, -1, -1]),
        ],
    )
    def test_modified_direct_answers_pinned(self, params, expected):
        # The direct-question flips continue simulate_le's stream, which
        # draws two uniform blocks after the traits (misreport flags and
        # replacement values) except under the strategic spec (one block).
        sample = simulate_modified_le(params, SKEWED4, 16, 0.5, 2024, q1=0.3, q0=0.2)
        assert sample.x_direct.tolist() == expected

    def test_preconditions(self):
        params = LeParams.no_misreport(0.3)
        with pytest.raises(DomainError):
            simulate_le(params, SKEWED4, 1, 0.5, 0)
        with pytest.raises(DomainError):
            simulate_le(params, SKEWED4, 100, 0.0, 0)
        with pytest.raises(DomainError):
            simulate_modified_le(params, SKEWED4, 100, 0.5, 0, q1=1.0)


class TestEmpiricalDistributions:
    def test_all_zero_control(self):
        sample = LeSample(j_count=3, y=np.array([0, 0, 2]), t=np.array([0, 0, 1]))
        control, _, _, _ = empirical_distributions(sample)
        np.testing.assert_array_equal(control.probs, [1.0, 0.0, 0.0, 0.0])

    def test_even_split_shares(self):
        y = np.zeros(100, dtype=int)
        t = np.repeat([0, 1], 50)
        _, _, c0, c1 = empirical_distributions(LeSample(j_count=3, y=y, t=t))
        assert c0 == 0.5 and c1 == 0.5

    def test_large_sample_matches_generator(self):
        params = LeParams.unrestricted(0.3, 0.1, 0.2)
        sample = simulate_le(params, SKEWED4, 1_000_000, 0.4, 21)
        _, _, c0, c1 = empirical_distributions(sample)
        assert abs(c1 - 0.4) < 3 * np.sqrt(0.4 * 0.6 / 1_000_000)


class TestLeSampleValidation:
    def test_y_out_of_range_names_record(self):
        with pytest.raises(DomainError, match="record 1"):
            LeSample(j_count=3, y=np.array([0, 4, 1]), t=np.array([0, 0, 1]))

    def test_treatment_may_reach_j_plus_one(self):
        sample = LeSample(j_count=3, y=np.array([3, 4]), t=np.array([0, 1]))
        assert sample.n == 2

    def test_both_groups_required(self):
        with pytest.raises(DomainError):
            LeSample(j_count=3, y=np.array([0, 1]), t=np.array([0, 0]))

    def test_x_direct_validated_on_control_rows(self):
        with pytest.raises(DomainError):
            LeSample(
                j_count=3,
                y=np.array([0, 1]),
                t=np.array([0, 1]),
                x_direct=np.array([5, -1]),
            )
