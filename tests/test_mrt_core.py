"""Tests for latent-trait recovery from three binary measurements."""

import numpy as np
import pytest

from listmrt import mrt_core
from listmrt.errors import (
    DecompositionError,
    DomainError,
    EstimationError,
    NearDegenerateError,
)
from listmrt.mrt_core import (
    MIN_SEPARATION,
    Method,
    MrtEstimate,
    MrtJoint,
    MrtLatent,
    OrderingRule,
    aggregate_unconditional,
    build_matrices,
    decompose_closed_form,
    decompose_extreme,
    misreport_rates,
    rank_test,
)

# Two covariate cells with fully worked-out latent structure, used as exact
# round-trip oracles. Cell weights 0.4 / 0.6 give an overall share of 0.642.
GOLDEN_Z0 = MrtLatent(
    pr_xstar=0.378,
    pr_x_given_xstar=np.array([[0.269, 0.881], [0.269, 0.731], [0.269, 0.881]]),
)
GOLDEN_Z1 = MrtLatent(
    pr_xstar=0.818,
    pr_x_given_xstar=np.array([[0.310, 0.900], [0.289, 0.750], [0.289, 0.891]]),
)

# [DERIVED] frozen count cube whose transfer matrix has complex eigenvalues
# (discriminant -0.1126): inconsistent with a binary conditionally
# independent latent trait.
COMPLEX_COUNTS = np.array([[[7, 17], [16, 9]], [[11, 12], [17, 1]]], dtype=float)

# [DERIVED] frozen n=60 multinomial draws from GOLDEN_Z0's joint: the first
# pushes one recovered probability slightly outside [0,1] (within the 0.02
# clamping slack), the second leaves the slack region by 0.367.
CLIP_COUNTS = np.array([[[15, 10], [3, 7]], [[4, 5], [5, 11]]], dtype=float)
FAR_OUT_COUNTS = np.array([[[12, 5], [8, 2]], [[7, 9], [2, 15]]], dtype=float)


def golden_joint(latent, n_cell=1.0, z_cell=None):
    return MrtJoint.from_probs(latent.joint_probs(), z_cell=z_cell, n_cell=n_cell)


def random_separated_latent(rng):
    """Latent cell with all identification margins bounded away from zero."""
    while True:
        pi = rng.uniform(0.05, 0.95)
        m = rng.uniform(0.02, 0.98, size=(3, 2))
        if np.all(np.abs(m[:, 1] - m[:, 0]) >= 0.05):
            return MrtLatent(pr_xstar=pi, pr_x_given_xstar=m)


def sort_latent_by_question(latent, question):
    """Truth with columns ordered so class 1 has the higher Pr(X_q=1|X*)."""
    m = latent.pr_x_given_xstar
    if m[question - 1, 1] >= m[question - 1, 0]:
        return latent
    return MrtLatent(pr_xstar=1.0 - latent.pr_xstar, pr_x_given_xstar=m[:, ::-1])


class TestMrtJoint:
    def test_from_records_counts(self):
        x1 = [1, 1, 0, 1]
        x2 = [1, 0, 0, 1]
        x3 = [1, 1, 0, 1]
        joint = MrtJoint.from_records(x1, x2, x3, z_cell="a")
        assert joint.n_cell == 4
        assert joint.counts[1, 1, 1] == 2
        assert joint.counts[1, 0, 1] == 1
        assert joint.counts[0, 0, 0] == 1
        assert joint.counts.sum() == 4
        assert joint.z_cell == "a"

    def test_from_records_rejects_nonbinary(self):
        with pytest.raises(DomainError, match="only 0 and 1"):
            MrtJoint.from_records([0, 2], [0, 1], [0, 1])

    def test_from_records_rejects_empty_and_ragged(self):
        with pytest.raises(DomainError):
            MrtJoint.from_records([], [], [])
        with pytest.raises(DomainError):
            MrtJoint.from_records([0, 1], [0], [0, 1])

    def test_validation(self):
        good = np.ones((2, 2, 2))
        with pytest.raises(DomainError, match="2x2x2"):
            MrtJoint(z_cell=None, counts=np.ones((2, 2)), n_cell=4)
        with pytest.raises(DomainError, match="nonnegative"):
            MrtJoint(z_cell=None, counts=-good, n_cell=-8)
        with pytest.raises(DomainError, match="n_cell"):
            MrtJoint(z_cell=None, counts=good * 0, n_cell=0)
        with pytest.raises(DomainError, match="sum"):
            MrtJoint(z_cell=None, counts=good, n_cell=9)

    def test_from_probs_requires_unit_mass(self):
        with pytest.raises(DomainError, match="sum to 1"):
            MrtJoint.from_probs(np.full((2, 2, 2), 0.2))

    def test_probs_property(self):
        joint = MrtJoint(z_cell=None, counts=np.full((2, 2, 2), 2.0), n_cell=16)
        assert np.allclose(joint.probs, 0.125)


class TestMrtLatent:
    def test_joint_probs_sum_to_one(self):
        probs = GOLDEN_Z0.joint_probs()
        assert probs.shape == (2, 2, 2)
        assert abs(probs.sum() - 1.0) < 1e-14
        assert probs.min() > 0

    def test_joint_probs_hand_cell(self):
        # Pr(1,1,1) = (1-pi) * prod(col 0) + pi * prod(col 1)
        lat = MrtLatent(pr_xstar=0.4, pr_x_given_xstar=np.array([[0.2, 0.8], [0.3, 0.7], [0.5, 0.9]]))
        expect = 0.6 * 0.2 * 0.3 * 0.5 + 0.4 * 0.8 * 0.7 * 0.9
        assert abs(lat.joint_probs()[1, 1, 1] - expect) < 1e-15
        expect000 = 0.6 * 0.8 * 0.7 * 0.5 + 0.4 * 0.2 * 0.3 * 0.1
        assert abs(lat.joint_probs()[0, 0, 0] - expect000) < 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            MrtLatent(pr_xstar=1.2, pr_x_given_xstar=np.full((3, 2), 0.5))
        with pytest.raises(DomainError):
            MrtLatent(pr_xstar=0.5, pr_x_given_xstar=np.full((2, 2), 0.5))
        with pytest.raises(DomainError):
            MrtLatent(pr_xstar=0.5, pr_x_given_xstar=np.full((3, 2), -0.1))


class TestBuildMatrices:
    def test_single_record(self):
        joint = MrtJoint.from_records([1], [1], [1])
        mats = build_matrices(joint, 1)
        expect = np.zeros((2, 2))
        expect[1, 1] = 1.0
        assert np.array_equal(mats.m_x1x2x3, expect)
        assert np.array_equal(mats.m_x1x3, expect)
        assert np.array_equal(mats.m_x1, np.array([0.0, 1.0]))
        mats0 = build_matrices(joint, 0)
        assert np.array_equal(mats0.m_x1x2x3, np.zeros((2, 2)))

    def test_x2_slices_partition_the_joint(self):
        joint = golden_joint(GOLDEN_Z0)
        m0 = build_matrices(joint, 0)
        m1 = build_matrices(joint, 1)
        assert np.allclose(m0.m_x1x2x3 + m1.m_x1x2x3, m0.m_x1x3)
        assert abs(m0.m_x1.sum() - 1.0) < 1e-14

    def test_x2_fix_validated(self):
        with pytest.raises(DomainError, match="x2_fix"):
            build_matrices(golden_joint(GOLDEN_Z0), 2)


class TestRankTest:
    def test_full_rank_rejects(self):
        probs = GOLDEN_Z0.joint_probs()
        counts = np.floor(probs * 2000)
        counts[0, 0, 0] += 2000 - counts.sum()
        joint = MrtJoint(z_cell=None, counts=counts, n_cell=2000)
        res = rank_test(joint, n_boot=499, seed=7)
        assert res.reject_rank1
        assert res.p_value < 0.05
        assert not res.underpowered
        assert res.statistic > 1.0

    def test_rank_one_statistic_zero(self):
        # Conditionally independent single class: the joint factorizes, the
        # determinant is exactly zero, and every bootstrap draw ties or beats it.
        ind = MrtLatent(
            pr_xstar=0.4, pr_x_given_xstar=np.array([[0.5, 0.5], [0.3, 0.3], [0.6, 0.6]])
        )
        joint = MrtJoint.from_probs(ind.joint_probs(), n_cell=2000)
        res = rank_test(joint, n_boot=199, seed=3)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.reject_rank1

    def test_small_cell_flagged_underpowered(self):
        joint = MrtJoint.from_records([0, 1, 1, 0, 1], [1, 0, 1, 0, 1], [0, 1, 1, 1, 0])
        res = rank_test(joint, n_boot=199, seed=0)
        assert res.underpowered
        assert not res.reject_rank1

    def test_degenerate_margin_returns_nonrejection(self):
        # Every respondent answered X1 = 1: a margin is zero, the rank-1 null
        # cannot even be resampled, so the test declines to reject.
        x1 = np.ones(100, dtype=int)
        rng = np.random.default_rng(5)
        joint = MrtJoint.from_records(x1, rng.integers(0, 2, 100), rng.integers(0, 2, 100))
        res = rank_test(joint, n_boot=199, seed=0)
        assert res.underpowered
        assert res.p_value == 1.0
        assert not res.reject_rank1

    def test_deterministic_in_seed(self):
        probs = GOLDEN_Z0.joint_probs()
        joint = MrtJoint.from_probs(probs, n_cell=500)
        a = rank_test(joint, n_boot=299, seed=11)
        b = rank_test(joint, n_boot=299, seed=11)
        assert a.p_value == b.p_value and a.statistic == b.statistic

    def test_n_boot_validated(self):
        with pytest.raises(DomainError, match="n_boot"):
            rank_test(golden_joint(GOLDEN_Z0, n_cell=100), n_boot=5)


class TestDecomposeClosedForm:
    @pytest.mark.parametrize("latent", [GOLDEN_Z0, GOLDEN_Z1], ids=["z0", "z1"])
    @pytest.mark.parametrize("x2_fix", [0, 1])
    def test_golden_round_trip(self, latent, x2_fix):
        est = decompose_closed_form(golden_joint(latent), x2_fix)
        assert est.method is Method.CLOSED_FORM
        assert not est.clipped
        assert abs(est.pr_xstar - latent.pr_xstar) < 1e-10
        assert np.abs(est.pr_x_given_xstar - latent.pr_x_given_xstar).max() < 1e-10

    def test_x2_fix_choices_agree(self):
        joint = golden_joint(GOLDEN_Z1)
        e0 = decompose_closed_form(joint, 0)
        e1 = decompose_closed_form(joint, 1)
        assert abs(e0.pr_xstar - e1.pr_xstar) < 1e-8
        assert np.abs(e0.pr_x_given_xstar - e1.pr_x_given_xstar).max() < 1e-8

    def test_eigen_gap_reported(self):
        est = decompose_closed_form(golden_joint(GOLDEN_Z0), 1)
        # gap = |Pr(X2=1|X*=1) - Pr(X2=1|X*=0)| = 0.731 - 0.269
        assert abs(est.eigen_gap - 0.462) < 1e-10

    def test_ordering_rule_flips_labels(self):
        joint = golden_joint(GOLDEN_Z0)
        flipped = decompose_closed_form(joint, 1, OrderingRule(question=1, class1_higher=False))
        assert abs(flipped.pr_xstar - (1.0 - 0.378)) < 1e-10
        assert np.abs(
            flipped.pr_x_given_xstar - GOLDEN_Z0.pr_x_given_xstar[:, ::-1]
        ).max() < 1e-10

    def test_ordering_rule_other_questions(self):
        joint = golden_joint(GOLDEN_Z0)
        for q in (2, 3):
            est = decompose_closed_form(joint, 1, OrderingRule(question=q, class1_higher=True))
            assert abs(est.pr_xstar - 0.378) < 1e-10
        with pytest.raises(DomainError, match="question"):
            OrderingRule(question=4)

    def test_complex_eigenvalues_rejected(self):
        joint = MrtJoint(z_cell=None, counts=COMPLEX_COUNTS, n_cell=COMPLEX_COUNTS.sum())
        with pytest.raises(DecompositionError, match="complex eigenvalues"):
            decompose_closed_form(joint, 1)

    def test_nonseparating_second_question_near_degenerate(self):
        latent = MrtLatent(
            pr_xstar=0.4, pr_x_given_xstar=np.array([[0.2, 0.8], [0.5, 0.5], [0.3, 0.9]])
        )
        with pytest.raises(NearDegenerateError, match="separate"):
            decompose_closed_form(golden_joint(latent), 1)

    def test_rank_one_joint_rejected(self):
        ind = MrtLatent(
            pr_xstar=0.4, pr_x_given_xstar=np.array([[0.5, 0.5], [0.3, 0.3], [0.6, 0.6]])
        )
        with pytest.raises(DecompositionError, match="singular"):
            decompose_closed_form(golden_joint(ind), 1)

    def test_vanishing_class_rejected(self):
        tiny = MrtLatent(
            pr_xstar=1e-5, pr_x_given_xstar=np.array([[0.2, 0.8], [0.3, 0.7], [0.3, 0.9]])
        )
        with pytest.raises(EstimationError, match="class probability"):
            decompose_closed_form(golden_joint(tiny), 1)

    def test_sampling_noise_within_slack_is_clamped(self):
        joint = MrtJoint(z_cell=None, counts=CLIP_COUNTS, n_cell=60)
        est = decompose_closed_form(joint, 1)
        assert est.clipped
        every = np.concatenate([est.pr_x_given_xstar.ravel(), [est.pr_xstar]])
        assert every.min() >= 0.0 and every.max() <= 1.0

    def test_beyond_slack_directs_to_extreme(self):
        joint = MrtJoint(z_cell=None, counts=FAR_OUT_COUNTS, n_cell=60)
        with pytest.raises(EstimationError, match="extreme"):
            decompose_closed_form(joint, 1)

    def test_random_round_trips(self):
        rng = np.random.default_rng(20260818)
        rule = OrderingRule(question=2, class1_higher=True)
        for _ in range(200):
            latent = random_separated_latent(rng)
            truth = sort_latent_by_question(latent, question=2)
            est = decompose_closed_form(golden_joint(latent), 1, rule)
            assert abs(est.pr_xstar - truth.pr_xstar) < 1e-8
            assert np.abs(est.pr_x_given_xstar - truth.pr_x_given_xstar).max() < 1e-8

    def test_finite_sample_estimate_is_consistent(self):
        rng = np.random.default_rng(99)
        n = 200_000
        xstar = rng.random(n) < GOLDEN_Z0.pr_xstar
        p = GOLDEN_Z0.pr_x_given_xstar
        xs = [rng.random(n) < np.where(xstar, p[j, 1], p[j, 0]) for j in range(3)]
        joint = MrtJoint.from_records(*[x.astype(int) for x in xs])
        est = decompose_closed_form(joint, 1)
        assert abs(est.pr_xstar - 0.378) < 0.01
        assert np.abs(est.pr_x_given_xstar - p).max() < 0.01


class TestDecomposeExtreme:
    @pytest.mark.parametrize("latent", [GOLDEN_Z0, GOLDEN_Z1], ids=["z0", "z1"])
    def test_golden_round_trip(self, latent):
        est = decompose_extreme(golden_joint(latent), 1)
        assert est.method is Method.EXTREME
        assert abs(est.pr_xstar - latent.pr_xstar) < 1e-8
        assert np.abs(est.pr_x_given_xstar - latent.pr_x_given_xstar).max() < 1e-8

    def test_matches_closed_form_on_population(self):
        joint = golden_joint(GOLDEN_Z1)
        cf = decompose_closed_form(joint, 1)
        ex = decompose_extreme(joint, 1)
        assert abs(cf.pr_xstar - ex.pr_xstar) < 1e-7
        assert np.abs(cf.pr_x_given_xstar - ex.pr_x_given_xstar).max() < 1e-7

    def test_outputs_always_in_unit_interval(self):
        # The same joint the closed form refuses (out of range by 0.367).
        joint = MrtJoint(z_cell=None, counts=FAR_OUT_COUNTS, n_cell=60)
        est = decompose_extreme(joint, 1)
        every = np.concatenate([est.pr_x_given_xstar.ravel(), [est.pr_xstar]])
        assert every.min() >= 0.0 and every.max() <= 1.0
        assert est.clipped

    def test_deterministic(self):
        joint = MrtJoint(z_cell=None, counts=CLIP_COUNTS, n_cell=60)
        a = decompose_extreme(joint, 1)
        b = decompose_extreme(joint, 1)
        assert a.pr_xstar == b.pr_xstar
        assert np.array_equal(a.pr_x_given_xstar, b.pr_x_given_xstar)

    def test_random_round_trips(self):
        rng = np.random.default_rng(7)
        rule = OrderingRule(question=2, class1_higher=True)
        for _ in range(25):
            latent = random_separated_latent(rng)
            truth = sort_latent_by_question(latent, question=2)
            est = decompose_extreme(golden_joint(latent), 1, rule)
            assert abs(est.pr_xstar - truth.pr_xstar) < 1e-6
            assert np.abs(est.pr_x_given_xstar - truth.pr_x_given_xstar).max() < 1e-6


def dirichlet_cells(count, n, seed):
    """Count cubes of n respondents from Dirichlet(1,...,1) joints, skipping
    draws whose (X1, X3) matrix is singular."""
    rng = np.random.default_rng(seed)
    cells = []
    while len(cells) < count:
        counts = rng.multinomial(n, rng.dirichlet(np.ones(8))).reshape(2, 2, 2).astype(float)
        m = counts.sum(axis=1)
        if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) >= 1e-12 * n * n:
            cells.append(counts)
    return cells


def transfer(counts):
    joint = MrtJoint(z_cell=None, counts=counts, n_cell=float(counts.sum()))
    return mrt_core._transfer_matrix(build_matrices(joint, 1))


def assert_feasible(x):
    assert x.min() >= 0.0 and x.max() <= 1.0
    assert abs(x[1] - x[0]) >= MIN_SEPARATION
    assert abs(x[3] - x[2]) >= MIN_SEPARATION


class TestExtremeShortCircuit:
    @pytest.mark.parametrize("x2_fix", [0, 1])
    def test_exact_cell_skips_the_search(self, monkeypatch, x2_fix):
        def no_search(a):
            raise AssertionError("the profile search ran")

        monkeypatch.setattr(mrt_core, "_extreme_profile", no_search)
        rng = np.random.default_rng(11)
        counts = rng.multinomial(2000, GOLDEN_Z1.joint_probs().ravel()).reshape(2, 2, 2)
        for joint in (golden_joint(GOLDEN_Z0), MrtJoint(z_cell=None, counts=counts, n_cell=2000)):
            cf = decompose_closed_form(joint, x2_fix)
            ex = decompose_extreme(joint, x2_fix)
            assert not cf.clipped and not ex.clipped
            assert ex.method is Method.EXTREME
            assert abs(ex.pr_xstar - cf.pr_xstar) <= 1e-15
            assert np.abs(ex.pr_x_given_xstar - cf.pr_x_given_xstar).max() <= 1e-15
            assert abs(ex.eigen_gap - cf.eigen_gap) <= 1e-15

    def test_no_optimizer_imported(self):
        assert not hasattr(mrt_core, "multistart_nelder_mead")
        assert not any(
            getattr(value, "__name__", "").startswith("scipy") for value in vars(mrt_core).values()
        )


def _brute_inner(a, p10, p11, n=801):
    """Dense-grid minimum of the objective over (p20, p21) at fixed (p10, p11),
    refined twice on finer local grids; the two separation lines are sampled
    explicitly."""
    grid = np.linspace(0.0, 1.0, n)
    s, t = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    s = np.concatenate([s, grid, grid])
    t = np.concatenate([t, grid + MIN_SEPARATION, grid - MIN_SEPARATION])
    h = 1.0 / (n - 1)
    for _ in range(3):
        ok = (t >= 0.0) & (t <= 1.0) & (np.abs(t - s) >= MIN_SEPARATION)
        s, t = s[ok], t[ok]
        f = mrt_core._extreme_objective(a, p10, p11, s, t)
        k = int(f.argmin())
        best = (s[k], t[k], float(f[k]))
        local = np.linspace(-2.0 * h, 2.0 * h, 201)
        s, t = (g.ravel() for g in np.meshgrid(best[0] + local, best[1] + local, indexing="ij"))
        s = np.clip(s, 0.0, 1.0)
        h = 4.0 * h / 200
    return best


class TestExtremeInnerFit:
    """The exact inner box solve against a dense-grid minimiser."""

    def _fit(self, a, p10, p11):
        f, p20, p21, _ = mrt_core._inner_fit(a, np.array([p10]), np.array([p11]))
        return float(f[0]), float(p20[0]), float(p21[0])

    def test_random_transfer_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            a = 0.5 * np.eye(2) + 0.4 * rng.normal(size=(2, 2))
            p10, p11 = np.sort(rng.uniform(size=2))
            f, p20, p21 = self._fit(a, p10, p11)
            s_ref, t_ref, f_ref = _brute_inner(a, p10, p11)
            assert_feasible(np.array([p10, p11, p20, p21]))
            assert f <= f_ref + 1e-12
            np.testing.assert_allclose([p20, p21], [s_ref, t_ref], atol=1e-4)

    @pytest.mark.parametrize(
        "truth, clipped",
        [
            ((1.3, 0.4), (1.0, None)),  # edge p20 = 1
            ((0.2, -0.5), (None, 0.0)),  # edge p21 = 0
            ((-0.6, 1.7), (0.0, 1.0)),  # corner
        ],
    )
    def test_optimum_clipped_at_a_bound(self, truth, clipped):
        # The objective is zero at `truth`, which lies outside the box.
        p10, p11 = 0.3, 0.7
        a = truth[0] * np.eye(2) + (truth[1] - truth[0]) * mrt_core._projector(p10, p11)
        f, p20, p21 = self._fit(a, p10, p11)
        s_ref, t_ref, f_ref = _brute_inner(a, p10, p11)
        assert f <= f_ref + 1e-12
        assert f > 1e-12  # the bound binds
        np.testing.assert_allclose([p20, p21], [s_ref, t_ref], atol=1e-4)
        for value, bound in zip((p20, p21), clipped):
            if bound is not None:
                assert value == bound

    def test_optimum_on_the_separation_floor(self):
        # A = 0.4 I: the unconstrained fit has p20 = p21.
        a = 0.4 * np.eye(2)
        f, p20, p21 = self._fit(a, 0.3, 0.7)
        s_ref, t_ref, f_ref = _brute_inner(a, 0.3, 0.7)
        assert f <= f_ref + 1e-12
        assert MIN_SEPARATION <= abs(p21 - p20) <= MIN_SEPARATION * (1.0 + 1e-9)
        assert abs(0.5 * (p20 + p21) - 0.4) < 1e-6


# Objective of the multi-start Nelder-Mead fit that the profile replaced, on
# CLIP_COUNTS, FAR_OUT_COUNTS and dirichlet_cells(20, 60, 5), at x2_fix = 1.
# That fit evaluated the objective entrywise, which is accurate only to about
# 1e-11 near the separation floor.
NELDER_MEAD_OBJECTIVE = [
    0.00021079082124547368,
    0.0014722035321383163,
    1.0103863200632624e-05,
    0.006135119623606921,
    0.0544843373130191,
    8.19832079990096e-21,
    0.018795525494276794,
    0.005515278344990935,
    0.00020920176517019425,
    0.00844722222222222,
    0.07354726389932634,
    1.4835704062796131,
    0.05277197354842878,
    1.1736186111316733,
    0.004598308748371958,
    7.703719777548943e-34,
    0.03999999999999998,
    9.802960544069274e-05,
    0.029383808053179916,
    4.4108746000915463e-20,
    0.0028698979596836734,
    1.0793051842975951e-20,
]


class TestExtremeProfile:
    def test_never_worse_than_nelder_mead(self):
        cells = [CLIP_COUNTS, FAR_OUT_COUNTS] + dirichlet_cells(20, 60, 5)
        for counts, pinned in zip(cells, NELDER_MEAD_OBJECTIVE, strict=True):
            a = transfer(counts)
            m1, lams = mrt_core._extreme_fit(a, 1)
            x = np.array([m1[1, 0], m1[1, 1], *lams])
            assert_feasible(x)
            assert float(mrt_core._extreme_objective(a, *x)) <= pinned + 1e-12

    def test_profile_reaches_zero_on_exact_cells(self):
        # Without the short-circuit the search still finds the exact fit.
        for latent in (GOLDEN_Z0, GOLDEN_Z1):
            a = transfer(golden_joint(latent).counts)
            x = mrt_core._extreme_profile(a)
            assert_feasible(x)
            assert x[0] < x[1]
            assert float(mrt_core._extreme_objective(a, *x)) < 1e-16


class TestAggregateUnconditional:
    def test_golden_cells_aggregate(self):
        e0 = decompose_closed_form(golden_joint(GOLDEN_Z0), 1)
        e1 = decompose_closed_form(golden_joint(GOLDEN_Z1), 1)
        overall = aggregate_unconditional([(e0, 0.4), (e1, 0.6)])
        assert abs(overall - 0.642) < 1e-10

    def test_weights_must_sum_to_one(self):
        e0 = decompose_closed_form(golden_joint(GOLDEN_Z0), 1)
        with pytest.raises(DomainError, match="sum to 1"):
            aggregate_unconditional([(e0, 0.4), (e0, 0.5)])

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="nonempty"):
            aggregate_unconditional([])


class TestMisreportRates:
    def _estimate(self, r0, r1):
        m = np.array([[r0, r1], [0.3, 0.7], [0.2, 0.9]])
        return MrtEstimate(
            pr_xstar=0.5, pr_x_given_xstar=m, method=Method.CLOSED_FORM,
            clipped=False, eigen_gap=0.4,
        )

    def test_reverse_coded_question(self):
        # Affirming is the truthful answer for non-carriers: a carrier who
        # affirms is misreporting, a non-carrier who denies is misreporting.
        est = self._estimate(r0=0.963, r1=0.293)
        rates = misreport_rates(est, 1, affirmative_is_truth_for=0)
        assert abs(rates["q1"] - 0.293) < 1e-12
        assert abs(rates["q0"] - 0.037) < 1e-12

    def test_directly_coded_question(self):
        est = self._estimate(r0=0.05, r1=0.85)
        rates = misreport_rates(est, 1, affirmative_is_truth_for=1)
        assert abs(rates["q1"] - 0.15) < 1e-12
        assert abs(rates["q0"] - 0.05) < 1e-12

    def test_other_question_indices(self):
        est = self._estimate(r0=0.9, r1=0.1)
        rates = misreport_rates(est, 3, affirmative_is_truth_for=1)
        assert abs(rates["q1"] - (1.0 - 0.9)) < 1e-12
        assert abs(rates["q0"] - 0.2) < 1e-12

    def test_validation(self):
        est = self._estimate(0.9, 0.1)
        with pytest.raises(DomainError, match="direct_question_index"):
            misreport_rates(est, 0, 1)
        with pytest.raises(DomainError, match="affirmative_is_truth_for"):
            misreport_rates(est, 1, 2)
