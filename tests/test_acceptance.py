"""Acceptance gate: the package's eleven headline guarantees.

One test per criterion, in order. Each test prints a single line

    ACCEPTANCE n: PASS/FAIL - <measured values vs pinned tolerances>

before its assertions run, so a failing criterion still reports what was
measured. The Monte Carlo criteria are sized for a 4-core machine; the whole
gate takes a few minutes. Run with:

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
from scipy import stats

from _support import (
    NULL_J,
    fit_null_rep,
    fit_power_rep,
    mrt_roundtrip_rep,
    null_le_sample,
    random_attainable_control,
)
from listmrt.cli import main
from listmrt.le_core import (
    ControlDistribution,
    LeParams,
    Unidentified,
    le_forward,
    mean_difference_analytic,
    solve_le_closed_form,
)
from listmrt.le_gmm import MomentSpec, j_test
from listmrt.mrt_core import (
    Method,
    MrtEstimate,
    MrtJoint,
    MrtLatent,
    misreport_rates,
    rank_test,
)
from listmrt.mrt_mle import MleParams, log_likelihood, score, swap_labels
from listmrt.resampling import (
    CONTINUOUS_TRUTH,
    DISCRETE_TRUTH,
    DesignKind,
    McDesign,
    run_monte_carlo,
    simulate_continuous_design,
    simulate_discrete_design,
)

CTX = multiprocessing.get_context("fork")
JOBS = 4


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. Analytic mean-difference identity


def test_criterion_01_mean_difference_identity():
    rng = np.random.default_rng(10_001)
    worst = 0.0
    for _ in range(1000):
        j = int(rng.integers(3, 7))
        delta = float(rng.uniform(0.0, 0.99))
        p0, p1 = (float(v) for v in rng.uniform(0.0, 0.8, size=2))
        params = LeParams.unrestricted(delta, p0, p1)
        control = ControlDistribution(j_count=j, probs=random_attainable_control(rng, j, p0))
        treatment = le_forward(params, control)
        gap = abs(mean_difference_analytic(params, control) - (treatment.mean - control.mean))
        worst = max(worst, gap)
    ok = worst < 1e-12
    report(1, ok, f"analytic vs forward mean difference over 1000 random "
                  f"(delta, p0, p1, P0, J in 3..6): max |gap| = {worst:.3e} (tol 1e-12)")
    assert ok


# ---------------------------------------------------------------------------
# 2. Closed-form list-experiment round trip at J=3


def test_criterion_02_closed_form_round_trip():
    rng = np.random.default_rng(20_002)
    identified, attempts, worst = 0, 0, 0.0
    while identified < 500:
        attempts += 1
        assert attempts < 5000, "identified draws unexpectedly rare"
        delta = float(rng.uniform(0.0, 1.0))
        if abs(delta - 0.5) < 0.05:
            continue
        p0, p1 = (float(v) for v in rng.uniform(0.0, 0.6, size=2))
        params = LeParams.unrestricted(delta, p0, p1)
        control = ControlDistribution(j_count=3, probs=random_attainable_control(rng, 3, p0))
        treatment = le_forward(params, control)
        got = solve_le_closed_form(control, treatment)
        if isinstance(got, Unidentified):
            continue
        identified += 1
        worst = max(worst, abs(got.delta - delta), abs(got.p0 - p0), abs(got.p1 - p1))
    ok = worst < 1e-8
    report(2, ok, f"500 identified J=3 instances ({attempts} draws): "
                  f"max recovery error = {worst:.3e} (tol 1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# 3. Overidentification-test size and null distribution


def test_criterion_03_j_test_size():
    with CTX.Pool(JOBS) as pool:
        out = pool.map(fit_null_rep, [(2000, 20_000 + i) for i in range(1000)])
    t_stats = np.array([r[0] for r in out])
    p_values = np.array([r[1] for r in out])
    rejection = float(np.mean(p_values < 0.05))
    dof = j_test(null_le_sample(2000, 20_000), MomentSpec(j_count=NULL_J)).dof
    ks_p = float(stats.kstest(t_stats, "chi2", args=(dof,)).pvalue)
    ok = 0.03 <= rejection <= 0.07 and ks_p > 0.01
    report(3, ok, f"null DGP, n=2000, 1000 reps: rejection rate "
                  f"{rejection:.4f} (window [0.03, 0.07]); KS of T_n vs chi2({dof}) "
                  f"p = {ks_p:.4f} (needs > 0.01)")
    assert 0.03 <= rejection <= 0.07
    assert ks_p > 0.01


# ---------------------------------------------------------------------------
# 4. Overidentification-test power


def test_criterion_04_j_test_power():
    with CTX.Pool(JOBS) as pool:
        pvs = pool.map(fit_power_rep, [(8000, 30_000 + i) for i in range(200)])
    power = float(np.mean(np.array(pvs) < 0.05))
    ok = power >= 0.9
    report(4, ok, f"violating DGP (0.1 mass shifted), n=8000, 200 reps: "
                  f"rejection rate {power:.3f} (needs >= 0.9)")
    assert ok


# ---------------------------------------------------------------------------
# 5. Discrete-design golden numbers


def test_criterion_05_discrete_golden_numbers():
    rows = run_monte_carlo(
        McDesign(kind=DesignKind.DISCRETE_Z, truth=DISCRETE_TRUTH, n=2000, n_reps=1000, seed=505),
        estimators=("closed_form",),
        n_jobs=JOBS,
    )
    by_param = {row.parameter: row for row in rows}
    mean = by_param["pr_xstar"].mean
    sd = by_param["pr_xstar"].sd
    z0 = by_param["pr_xstar_z0"].mean
    z1 = by_param["pr_xstar_z1"].mean
    ok = (
        abs(mean - 0.634) <= 0.015
        and 0.5 * 0.029 <= sd <= 1.5 * 0.029
        and abs(z0 - 0.379) <= 0.02
        and abs(z1 - 0.817) <= 0.02
    )
    report(5, ok, f"closed form, n=2000, 1000 reps: overall mean {mean:.4f} "
                  f"(0.634 +/- 0.015), sd {sd:.4f} (0.029 +/- 50%), "
                  f"z0 mean {z0:.4f} (0.379 +/- 0.02), z1 mean {z1:.4f} (0.817 +/- 0.02)")
    assert abs(mean - 0.634) <= 0.015
    assert 0.5 * 0.029 <= sd <= 1.5 * 0.029
    assert abs(z0 - 0.379) <= 0.02
    assert abs(z1 - 0.817) <= 0.02


# ---------------------------------------------------------------------------
# 6. Exact decomposition round trip


def test_criterion_06_mrt_exact_round_trip():
    with CTX.Pool(JOBS) as pool:
        errors = np.array(pool.map(mrt_roundtrip_rep, [40_000 + i for i in range(1000)]))
    worst_closed = float(errors[:, 0].max())
    worst_extreme = float(errors[:, 1].max())
    ok = worst_closed < 1e-8 and worst_extreme < 1e-6
    report(6, ok, f"1000 well-separated instances: max closed-form error "
                  f"{worst_closed:.3e} (tol 1e-8), max extreme error "
                  f"{worst_extreme:.3e} (tol 1e-6)")
    assert worst_closed < 1e-8
    assert worst_extreme < 1e-6


# ---------------------------------------------------------------------------
# 7. Rank-test power and size


def _pooled(joints) -> MrtJoint:
    counts = np.sum([np.asarray(j.counts, dtype=float) for j in joints], axis=0)
    return MrtJoint(z_cell=None, counts=counts, n_cell=float(counts.sum()))


def test_criterion_07_rank_test_power_and_size():
    reps = 100
    power = {}
    for n in (500, 1000, 2000):
        rejected = 0
        for i in range(reps):
            rng = np.random.default_rng(60_000_000 + 1000 * n + i)
            joints = simulate_discrete_design(DISCRETE_TRUTH, n, 0.0, rng)
            res = rank_test(_pooled(joints), n_boot=299, seed=70_000 + i)
            rejected += bool(res.reject_rank1)
        power[n] = rejected / reps

    # Size: a genuinely rank-1 data-generating process (class-independent
    # response profiles make the three answers mutually independent).
    rank1 = MrtLatent(
        pr_xstar=0.5,
        pr_x_given_xstar=np.array([[0.3, 0.3], [0.5, 0.5], [0.6, 0.6]]),
    )
    probs = rank1.joint_probs().ravel()
    size_reps = 200
    false_rej = 0
    for i in range(size_reps):
        rng = np.random.default_rng(80_000 + i)
        counts = rng.multinomial(1000, probs).reshape(2, 2, 2).astype(float)
        res = rank_test(MrtJoint(z_cell=None, counts=counts, n_cell=1000.0),
                        n_boot=299, seed=90_000 + i)
        false_rej += bool(res.reject_rank1)
    size = false_rej / size_reps
    ok = all(v == 1.0 for v in power.values()) and size <= 0.07
    report(7, ok, f"rank-1 null rejected in {power[500]:.0%}/{power[1000]:.0%}/"
                  f"{power[2000]:.0%} of reps at n=500/1000/2000 (needs 100%); "
                  f"size {size:.3f} under a true rank-1 DGP (needs <= 0.07)")
    assert all(v == 1.0 for v in power.values())
    assert size <= 0.07


# ---------------------------------------------------------------------------
# 8. Continuous-design MLE golden numbers


_MLE_REF_MEANS = {
    "rho": 0.985, "alpha1": 1.008, "alpha0": -0.990, "beta1": 2.036,
    "beta0": -2.044, "gamma1": 2.030, "gamma0": -2.031,
}
_MLE_REF_SDS = {
    "rho": 0.193, "alpha1": 0.126, "alpha0": 0.201, "beta1": 0.249,
    "beta0": 0.436, "gamma1": 0.240, "gamma0": 0.443,
}
_MLE_TRUTH = {
    "rho": 1.0, "alpha1": 1.0, "alpha0": -1.0, "beta1": 2.0,
    "beta0": -2.0, "gamma1": 2.0, "gamma0": -2.0,
}


def test_criterion_08_continuous_mle_golden_numbers():
    rows = run_monte_carlo(
        McDesign(kind=DesignKind.CONTINUOUS_Z, truth=CONTINUOUS_TRUTH, n=2000, n_reps=1000, seed=808),
        estimators=("mle",),
        n_jobs=JOBS,
    )
    by_param = {row.parameter: row for row in rows}
    mean_gaps = {p: abs(by_param[p].mean - ref) for p, ref in _MLE_REF_MEANS.items()}
    sd_in_band = {
        p: 0.5 * ref <= by_param[p].sd <= 1.5 * ref for p, ref in _MLE_REF_SDS.items()
    }
    rows500 = run_monte_carlo(
        McDesign(kind=DesignKind.CONTINUOUS_Z, truth=CONTINUOUS_TRUTH, n=500, n_reps=300, seed=809),
        estimators=("mle",),
        n_jobs=JOBS,
    )
    median_gaps = {row.parameter: abs(row.median - _MLE_TRUTH[row.parameter]) for row in rows500}
    worst_mean = max(mean_gaps.values())
    worst_median = max(median_gaps.values())
    ok = worst_mean <= 0.10 and all(sd_in_band.values()) and worst_median <= 0.3
    report(8, ok, f"n=2000, 1000 reps: worst |mean - reference| {worst_mean:.4f} "
                  f"(tol 0.10), sds within +/-50% of reference for "
                  f"{sum(sd_in_band.values())}/7 coefficients; "
                  f"n=500, 300 reps: worst |median - truth| {worst_median:.4f} (tol 0.3)")
    assert worst_mean <= 0.10, mean_gaps
    assert all(sd_in_band.values()), sd_in_band
    assert worst_median <= 0.3, median_gaps


# ---------------------------------------------------------------------------
# 9. Correlated-response sensitivity direction


def test_criterion_09_correlation_sensitivity():
    means = {}
    for sigma in (0.0, 0.05, 0.20):
        rows = run_monte_carlo(
            McDesign(kind=DesignKind.DISCRETE_Z_CORRELATED, truth=DISCRETE_TRUTH,
                     n=2000, n_reps=1000, sigma=sigma, seed=777),
            estimators=("closed_form",),
            n_jobs=JOBS,
        )
        means[sigma] = {row.parameter: row.mean for row in rows}
    z0 = means[0.20]["pr_xstar_z0"]
    worst_shift = max(abs(means[0.05][p] - means[0.0][p]) for p in means[0.0])
    ok = 0.41 <= z0 <= 0.45 and worst_shift <= 0.02
    report(9, ok, f"sigma=0.20: mean z0 estimate {z0:.4f} (window [0.41, 0.45]; "
                  f"truth 0.378, upward bias reproduced); worst sigma=0.05 vs "
                  f"sigma=0 shift {worst_shift:.4f} (tol 0.02)")
    assert 0.41 <= z0 <= 0.45
    assert worst_shift <= 0.02


# ---------------------------------------------------------------------------
# 10. Likelihood gradient and label-swap invariance


def test_criterion_10_gradient_and_label_swap():
    rng = np.random.default_rng(101_010)
    sample = simulate_continuous_design(CONTINUOUS_TRUTH, 300, 0.0, rng)
    base = CONTINUOUS_TRUTH.as_vector()
    dim = CONTINUOUS_TRUTH.dim
    worst_rel, worst_swap = 0.0, 0.0
    for _ in range(20):
        vec = base + rng.normal(0.0, 1.0, size=base.size)
        params = MleParams.from_vector(vec, dim)
        grad = score(params, sample)
        fd = np.empty_like(grad)
        for i in range(vec.size):
            h = 1e-6 * max(1.0, abs(vec[i]))
            up, dn = vec.copy(), vec.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                log_likelihood(MleParams.from_vector(up, dim), sample)
                - log_likelihood(MleParams.from_vector(dn, dim), sample)
            ) / (2.0 * h)
        rel = float(np.max(np.abs(grad - fd)) / max(1.0, float(np.max(np.abs(grad)))))
        worst_rel = max(worst_rel, rel)
        swap_gap = abs(log_likelihood(swap_labels(params), sample) - log_likelihood(params, sample))
        worst_swap = max(worst_swap, swap_gap)
    ok = worst_rel < 1e-4 and worst_swap < 1e-10
    report(10, ok, f"20 random points: worst relative gradient-vs-finite-difference "
                   f"gap {worst_rel:.3e} (tol 1e-4); worst label-swap likelihood "
                   f"change {worst_swap:.3e} (tol 1e-10)")
    assert worst_rel < 1e-4
    assert worst_swap < 1e-10


# ---------------------------------------------------------------------------
# 11. End-to-end CLI runs on survey-shaped synthetic data


def _table(report_payload, name):
    return next(t for t in report_payload["tables"] if t["name"] == name)


def _schema_problems(report_payload, label):
    problems = []
    if report_payload.get("schema_version") != "1.0":
        problems.append(f"{label}: missing schema_version")
    meta = report_payload.get("metadata", {})
    for key in ("tool", "version", "seed", "config_hash", "created_utc"):
        if key not in meta:
            problems.append(f"{label}: metadata lacks {key}")
    if report_payload.get("primary_table") not in {t["name"] for t in report_payload["tables"]}:
        problems.append(f"{label}: primary_table not among tables")
    return problems


def test_criterion_11_cli_end_to_end(tmp_path):
    problems = []

    # List-experiment reports at both survey shapes J=4 and J=5.
    for j in (4, 5):
        data = tmp_path / f"le{j}.csv"
        out = tmp_path / f"le{j}.json"
        assert main(["simulate", "--design", "le-null", "--j-count", str(j),
                     "--n", "1500", "--seed", str(100 + j), "--output", str(data)]) == 0
        assert main(["test-le", "--input", str(data), "--j-count", str(j),
                     "--seed", str(100 + j), "--format", "json",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        problems += _schema_problems(payload, f"test-le J={j}")
        tests = _table(payload, "tests")
        if [row[0] for row in tests["rows"]] != ["unrestricted", "equal_p", "no_misreport", "strategic"]:
            problems.append(f"test-le J={j}: spec rows incomplete")
        for row in tests["rows"]:
            p_value, marker, verdict = row[7], row[8], row[9]
            if not (0.0 <= p_value <= 1.0 and marker in {"x", "+", "ok"}
                    and verdict in {"rejected", "not rejected"}):
                problems.append(f"test-le J={j}: malformed row {row[0]}")
        aux = _table(payload, "auxiliary_tests")
        if [row[0] for row in aux["rows"]] != ["control_mean_equals_half_j", "modified_design_gap"]:
            problems.append(f"test-le J={j}: auxiliary tests incomplete")

    # Latent recovery on three binary questions with five demographic covariates.
    data = tmp_path / "survey.csv"
    out = tmp_path / "survey.json"
    assert main(["simulate", "--design", "mrt-survey", "--n", "2000",
                 "--seed", "31", "--output", str(data)]) == 0
    assert main(["estimate-mrt", "--input", str(data), "--seed", "31",
                 "--n-boot", "150", "--format", "json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    problems += _schema_problems(payload, "estimate-mrt")
    expected_cells = {"overall"}
    expected_cells.update(f"z_{name}={v}"
                          for name in ("gender", "race", "religion", "politics") for v in (0, 1))
    expected_cells.update(f"z_age={v}" for v in (0, 1, 2))
    estimates = _table(payload, "estimates")
    cells = {row[0] for row in estimates["rows"]}
    if cells != expected_cells:
        problems.append(f"estimate-mrt: cells {sorted(cells)} != expected 12")
    for row in estimates["rows"]:
        estimate, se = row[4], row[5]
        if not isinstance(estimate, float):
            problems.append(f"estimate-mrt: non-numeric estimate in {row[:4]}")
        if not (isinstance(se, float) or se == "unavailable"):
            problems.append(f"estimate-mrt: row {row[:4]} lacks se or unavailable marker")
    rank_rows = _table(payload, "rank_tests")["rows"]
    if {row[0] for row in rank_rows} != expected_cells:
        problems.append("estimate-mrt: rank tests incomplete")
    if not _table(payload, "q_tests")["rows"]:
        problems.append("estimate-mrt: q tests missing")

    # Misreporting-rate convention arithmetic on the designated direct question.
    est = MrtEstimate(
        pr_xstar=0.55,
        pr_x_given_xstar=np.array([[0.963, 0.293], [0.5, 0.5], [0.4, 0.9]]),
        method=Method.CLOSED_FORM,
        clipped=False,
        eigen_gap=0.3,
    )
    q = misreport_rates(est, 1, 0)
    if abs(q["q1"] - 0.293) > 1e-12:
        problems.append(f"q1 convention: {q['q1']!r} != 0.293")
    if abs(q["q0"] - 0.037) > 1e-12:
        problems.append(f"q0 convention: {q['q0']!r} != 0.037")

    ok = not problems
    detail = ("test-le schema-complete at J=4 and J=5; estimate-mrt schema-complete "
              "with 12 covariate cells; q1/q0 convention (0.293 -> q1=0.293, "
              "0.963 -> q0=0.037) exact")
    if problems:
        detail = "; ".join(problems)
    report(11, ok, detail)
    assert ok, problems
