"""Correctness checks of listmrt reports, computed independently of the package.

Each check takes a JSON report and the CSV it was computed from and returns a
list of problems (empty when the report is right). The reference values come
from the benchmark's own numpy code reading the CSV, or from properties the
method must have; nothing is compared with a saved copy of earlier reports.
bench/README.md gives the reason for every tolerance.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np
from scipy import stats

LE_J = 4
LE_TRUE_DELTA = 0.35  # the le-null simulator's sensitive share, no misreporting
LE_DELTA_TOL = 0.30  # six sampling sd of delta-hat at n = 2000
LE_FREE = {"unrestricted": 3, "equal_p": 2, "no_misreport": 1, "strategic": 2}

MRT_CLOSED_FORM_TOL = 1e-8
MRT_EXTREME_TOL = 1e-6
MRT_MAX_DROPPED = 0.20

MLE_LOGLIK_RTOL = 1e-8
MLE_GRAD_TOL = 0.25  # at most 1/8 of the score sd at the truth (1/se >= 2)
MLE_FIELDS = ("rho", "alpha0", "alpha1", "beta0", "beta1", "gamma0", "gamma1")
# The montecarlo `continuous` design: slope-only logistic links, z ~ U[0, 1].
MC_TRUTH = {"rho": 1.0, "alpha1": 1.0, "alpha0": -1.0, "beta1": 2.0, "beta0": -2.0,
            "gamma1": 2.0, "gamma0": -2.0}
# Sampling sd of each slope estimate at n = 2000 (400 replications, seeds 7
# and 8, rounded up).
MC_SD = {"rho": 0.21, "alpha1": 0.13, "alpha0": 0.22, "beta1": 0.24, "beta0": 0.50,
         "gamma1": 0.26, "gamma0": 0.48}
MC_Z = 6.0  # tolerance on a Monte Carlo mean, in standard errors of that mean

SIMULATED_COLUMNS = {
    "le-null": ["y", "t", "x_direct"],
    "mrt-survey": ["x1", "x2", "x3", "z_gender", "z_race", "z_religion", "z_politics", "z_age"],
    "mrt-continuous": ["x1", "x2", "x3", "z"],
}


def read_csv(path: str) -> dict:
    """Columns of a CSV file as lists of strings, keyed by header name."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _table(report: dict, name: str) -> list[dict]:
    for tab in report["tables"]:
        if tab["name"] == name:
            return [dict(zip(tab["columns"], row)) for row in tab["rows"]]
    raise KeyError(f"report has no table {name!r}")


def _close(a: float, b: float, tol: float) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


def simulated_csv(path: str, flags: list) -> list:
    design = flags[flags.index("--design") + 1]
    n = int(flags[flags.index("--n") + 1])
    columns = read_csv(path)
    problems = []
    if list(columns) != SIMULATED_COLUMNS[design]:
        problems.append(f"columns {list(columns)} != {SIMULATED_COLUMNS[design]}")
    elif len(columns["x1" if "x1" in columns else "y"]) != n:
        problems.append(f"expected {n} data rows")
    return problems


# ---------------------------------------------------------------------------
# le-gmm


def _le_fit_problems(spec: str, t_stat, dof, p_value) -> list:
    problems = []
    if dof != LE_J + 1 - LE_FREE[spec]:
        problems.append(f"{spec}: dof {dof} != J+1-free = {LE_J + 1 - LE_FREE[spec]}")
    elif not _close(p_value, float(stats.chi2.sf(t_stat, dof)), 1e-12):
        problems.append(f"{spec}: p_value {p_value} != chi2.sf({t_stat}, {dof})")
    return problems


def _le_param_problems(name: str, value) -> list:
    if not (isinstance(value, float) and 0.0 <= value < 1.0):
        return [f"{name} = {value} outside [0, 1)"]
    if name.endswith("delta") and abs(value - LE_TRUE_DELTA) > LE_DELTA_TOL:
        return [f"{name} = {value} is not within {LE_DELTA_TOL} of the true {LE_TRUE_DELTA}"]
    return []


def le_test_report(report: dict, data: str) -> list:
    """`test-le --spec all`: chi-square p-values, dof, estimates in [0, 1)."""
    problems = []
    rows = _table(report, "tests")
    if sorted(r["spec"] for r in rows) != sorted(LE_FREE):
        problems.append(f"specs {[r['spec'] for r in rows]} != {sorted(LE_FREE)}")
    for row in rows:
        problems += _le_fit_problems(row["spec"], row["t_stat"], row["dof"], row["p_value"])
        for name in ("delta", "p0", "p1", "p"):
            if row[name] is not None:
                problems += _le_param_problems(f"{row['spec']}.{name}", row[name])
    return problems


def le_estimate_report(report: dict, data: str) -> list:
    """`estimate-le --n-boot`: mean difference from the CSV, fit, bootstrap CIs."""
    columns = read_csv(data)
    y = np.array(columns["y"], dtype=float)
    t = np.array(columns["t"], dtype=int)
    mean_diff = y[t == 1].mean() - y[t == 0].mean()
    rows = {r["parameter"]: r for r in _table(report, "estimates")}
    problems = []
    if set(rows) != {"delta", "p0", "p1", "mean_difference"}:
        problems.append(f"estimate rows {sorted(rows)}")
        return problems
    if not _close(rows["mean_difference"]["estimate"], mean_diff, 1e-12):
        problems.append(
            f"mean_difference {rows['mean_difference']['estimate']} != CSV value {mean_diff}"
        )
    for name in ("delta", "p0", "p1"):
        problems += _le_param_problems(name, rows[name]["estimate"])
    for name, row in rows.items():
        if not all(isinstance(row[k], float) for k in ("se", "ci_low", "ci_high")):
            problems.append(f"{name}: no bootstrap se/CI")
        elif not row["ci_low"] <= row["estimate"] <= row["ci_high"]:
            problems.append(f"{name}: CI [{row['ci_low']}, {row['ci_high']}] misses {row['estimate']}")
    for fit in _table(report, "fit"):
        problems += _le_fit_problems(fit["spec"], fit["t_stat"], fit["dof"], fit["p_value"])
    return problems


# ---------------------------------------------------------------------------
# mrt-survey


def _survey_joints(data: str) -> dict:
    """Empirical 2x2x2 joint and n per reported cell, recounted from the CSV."""
    columns = read_csv(data)
    x = np.array([columns[c] for c in ("x1", "x2", "x3")], dtype=int)
    masks = {"overall": np.ones(x.shape[1], dtype=bool)}
    for name in (c for c in columns if c.startswith("z")):
        z = np.array(columns[name], dtype=int)
        for value in np.unique(z):
            masks[f"{name}={value}"] = z == value
    joints = {}
    for label, mask in masks.items():
        counts = np.zeros((2, 2, 2))
        np.add.at(counts, tuple(x[:, mask]), 1.0)
        joints[label] = (counts / mask.sum(), int(mask.sum()))
    return joints


def _implied_joint(est: dict) -> np.ndarray:
    """Joint of three responses, conditionally independent given X*."""
    out = np.zeros((2, 2, 2))
    for k, weight in ((0, 1.0 - est["pr_xstar"]), (1, est["pr_xstar"])):
        p = [est[f"pr_x{j}_given_{k}"] for j in (1, 2, 3)]
        out += weight * np.einsum("i,j,k->ijk", *([1.0 - q, q] for q in p))
    return out


def mrt_bootstrap_replicates(report: dict) -> int:
    """Bootstrap replicates run, summed over the cells that were bootstrapped."""
    cells = {
        r["cell"] for r in _table(report, "estimates")
        if r["estimator"] == report["metadata"]["bootstrap_estimator"] and isinstance(r["se"], float)
    }
    return report["metadata"]["n_boot"] * len(cells)


def mrt_survey_report(report: dict, data: str) -> list:
    """Discrete `estimate-mrt`: the recovered latent structure reproduces each
    cell's joint, q-rates follow from question 1, aggregation, rank, drops."""
    joints = _survey_joints(data)
    diagnostics = report["diagnostics"]
    clipped = set(diagnostics.get("clipped", []))
    estimates: dict = {}
    problems = []
    for row in _table(report, "estimates"):
        estimates.setdefault((row["estimator"], row["cell"]), {})[row["parameter"]] = row["estimate"]
        if row["n"] != joints[row["cell"]][1]:
            problems.append(f"{row['cell']}: n {row['n']} != CSV count {joints[row['cell']][1]}")
    for estimator in ("closed_form", "extreme"):
        if (estimator, "overall") not in estimates:
            problems.append(f"no {estimator} estimate for the overall cell")
    for (estimator, cell), est in estimates.items():
        if est["q1"] != est["pr_x1_given_1"] or not _close(est["q0"], 1.0 - est["pr_x1_given_0"], 1e-15):
            problems.append(f"{estimator}:{cell}: q1/q0 do not follow from question 1")
        if f"{estimator}:{cell}" in clipped:
            continue
        tol = MRT_CLOSED_FORM_TOL if estimator == "closed_form" else MRT_EXTREME_TOL
        err = float(np.abs(_implied_joint(est) - joints[cell][0]).max())
        if err > tol:
            problems.append(f"{estimator}:{cell}: implied joint misses the CSV joint by {err:.3g}")

    meta = report["metadata"]
    gender = [c for c in joints if c.startswith("z_gender=")]
    chosen = meta["bootstrap_estimator"]
    if all((chosen, c) in estimates for c in gender):
        n_total = joints["overall"][1]
        aggregate = sum(joints[c][1] / n_total * estimates[chosen, c]["pr_xstar"] for c in gender)
        if not _close(meta.get("aggregate_pr_xstar"), aggregate, 1e-12):
            problems.append(f"aggregate_pr_xstar {meta.get('aggregate_pr_xstar')} != {aggregate}")

    rank = {r["cell"]: r for r in _table(report, "rank_tests")}
    if rank["overall"]["verdict"] != "rank 2":
        problems.append(f"overall cell does not reject rank 1 (p = {rank['overall']['p_value']})")

    if "bootstrap_unreliable" in diagnostics:
        problems.append(f"bootstrap aborted: {diagnostics['bootstrap_unreliable']}")
    for line in diagnostics.get("dropped_replicates", []):
        dropped, total = map(int, re.search(r"dropped (\d+) of (\d+)", line).groups())
        if dropped > MRT_MAX_DROPPED * total:
            problems.append(f"more than {MRT_MAX_DROPPED:.0%} dropped: {line}")
    if meta["n_boot"] and mrt_bootstrap_replicates(report) != meta["n_boot"] * len(joints):
        problems.append("some cells have no bootstrap standard errors")
    return problems


# ---------------------------------------------------------------------------
# mle-mc


def _mixture_loglik(vec: np.ndarray, feats: np.ndarray, x: np.ndarray) -> float:
    """Two-class logistic mixture log-likelihood; vec packs MLE_FIELDS rows."""
    coef = vec.reshape(len(MLE_FIELDS), feats.shape[1])
    eta = feats @ coef.T  # (n, 7)
    log_g, log_1mg = -np.logaddexp(0.0, -eta), -np.logaddexp(0.0, eta)
    per_class = []
    for k in (0, 1):
        total = log_g[:, 0] if k == 1 else log_1mg[:, 0]
        for m in range(3):
            col = 1 + 2 * m + k
            total = total + np.where(x[m] == 1, log_g[:, col], log_1mg[:, col])
        per_class.append(total)
    return float(np.logaddexp(*per_class).sum())


def mle_report(report: dict, data: str) -> list:
    """Continuous `estimate-mrt`: log-likelihood, stationarity, ordering rule."""
    columns = read_csv(data)
    x = np.array([columns[c] for c in ("x1", "x2", "x3")], dtype=int)
    z = np.array(columns["z"], dtype=float)
    feats = np.column_stack([np.ones_like(z), z])
    rows = {r["parameter"]: r["estimate"] for r in _table(report, "estimates")}
    try:
        vec = np.array([rows[f"{f}[{c}]"] for f in MLE_FIELDS for c in ("intercept", "z")])
    except KeyError as exc:
        return [f"missing coefficient {exc}"]
    problems = []
    loglik = _mixture_loglik(vec, feats, x)
    reported = report["metadata"]["loglik"]
    if not abs(reported - loglik) <= MLE_LOGLIK_RTOL * abs(loglik):
        problems.append(f"loglik {reported} != recomputed {loglik}")
    grad = np.empty(vec.size)
    for i in range(vec.size):
        h = 1e-5 * max(1.0, abs(vec[i]))
        step = np.zeros(vec.size)
        step[i] = h
        grad[i] = (_mixture_loglik(vec + step, feats, x) - _mixture_loglik(vec - step, feats, x)) / (2 * h)
    if np.abs(grad).max() > MLE_GRAD_TOL:
        problems.append(f"gradient at the estimate is not ~0: max |g| = {np.abs(grad).max():.3g}")
    zbar = feats.mean(axis=0)
    alpha0 = np.array([rows["alpha0[intercept]"], rows["alpha0[z]"]])
    alpha1 = np.array([rows["alpha1[intercept]"], rows["alpha1[z]"]])
    if not zbar @ alpha1 > zbar @ alpha0:
        problems.append("ordering 1:higher violated: class 1 answers question 1 less often")
    return problems


def montecarlo_report(report: dict, data: str) -> list:
    """`montecarlo --design continuous`: means near the truth, nothing failed."""
    reps = report["metadata"]["reps"]
    rows = {r["parameter"]: r for r in _table(report, "results") if r["estimator"] == "mle"}
    problems = []
    if set(rows) != set(MC_TRUTH):
        return [f"parameters {sorted(rows)} != {sorted(MC_TRUTH)}"]
    for name, row in rows.items():
        tol = MC_Z * MC_SD[name] / math.sqrt(reps)
        if row["truth"] != MC_TRUTH[name]:
            problems.append(f"{name}: truth {row['truth']} != {MC_TRUTH[name]}")
        if not _close(row["mean"], MC_TRUTH[name], tol):
            problems.append(f"{name}: mean {row['mean']} not within {tol:.3g} of {MC_TRUTH[name]}")
        if row["n_failed"] != 0:
            problems.append(f"{name}: {row['n_failed']} replications failed")
    return problems
