"""Shared synthetic data-generating helpers for the test suite.

Workers used with multiprocessing live here (module-level, picklable).
"""

from __future__ import annotations

import numpy as np

from listmrt.le_core import (
    ControlDistribution,
    LeParams,
    LeSample,
    simulate_le,
)
from listmrt.le_gmm import MomentSpec, Spec, j_test


def observed_control(c, p0: float) -> np.ndarray:
    """Observed control distribution implied by truthful count distribution c."""
    c = np.asarray(c, dtype=float)
    return (1.0 - p0) * c + p0 / c.size


def random_attainable_control(rng: np.random.Generator, j: int, p0: float) -> np.ndarray:
    """Random observed control distribution consistent with misreporting rate p0."""
    c = rng.dirichlet(np.ones(j + 1))
    return observed_control(c, p0)


# Null data-generating process used for size calibration: all model assumptions
# hold, parameters interior. The truthful count distribution has strong second
# differences: a count-uniform (or count-linear) control distribution would
# leave p0 weakly identified and distort the test statistic's distribution.
NULL_J = 4
NULL_PARAMS = LeParams.unrestricted(0.35, 0.20, 0.25)
NULL_CONTROL = ControlDistribution(
    j_count=NULL_J, probs=np.array([0.35, 0.27, 0.18, 0.12, 0.08])
)


def null_le_sample(n: int, seed) -> LeSample:
    return simulate_le(NULL_PARAMS, NULL_CONTROL, n, 0.5, seed)


def violating_le_sample(n: int, seed) -> LeSample:
    """Sample whose control and treatment groups draw from different truthful
    count distributions (0.1 probability mass moved from count 0 to count J),
    so no parameter value satisfies the forward model."""
    j = 4
    c_control = np.array([0.35, 0.25, 0.20, 0.15, 0.05])
    c_treat = np.array([0.25, 0.25, 0.20, 0.15, 0.15])
    delta, p0, p1 = 0.3, 0.1, 0.1
    rng = np.random.default_rng(seed)
    t = (rng.random(n) < 0.5).astype(np.int64)
    r = np.where(
        t == 1,
        rng.choice(j + 1, size=n, p=c_treat),
        rng.choice(j + 1, size=n, p=c_control),
    )
    xstar = (rng.random(n) < delta).astype(np.int64)
    y = r + np.where(t == 1, xstar, 0)
    p_t = np.where(t == 1, p1, p0)
    mis = rng.random(n) < p_t
    repl = np.floor(rng.random(n) * (j + 1 + t)).astype(np.int64)
    y = np.where(mis, repl, y)
    return LeSample(j_count=j, y=y, t=t)


def fit_null_rep(args) -> tuple[float, float, float]:
    """Monte Carlo worker: simulate under the null, fit, test."""
    n, seed = args
    sample = null_le_sample(n, seed)
    res = j_test(sample, MomentSpec(j_count=NULL_J))
    return res.t_stat, res.p_value, res.theta_hat.delta


def fit_power_rep(args) -> float:
    """Monte Carlo worker: simulate under the violating DGP, return p-value."""
    n, seed = args
    sample = violating_le_sample(n, seed)
    res = j_test(sample, MomentSpec(j_count=4))
    return res.p_value


def mrt_roundtrip_rep(seed) -> tuple[float, float]:
    """Worker: exact-population round trip of both latent decomposers.

    Draws a well-separated latent cell (class-conditional response rates at
    least 0.3 apart on every question, everything inside [0.05, 0.95]),
    forward-constructs the exact 2x2x2 joint, and returns the recovery error
    (worst absolute deviation over all latent parameters) of the closed-form
    and extreme decomposers.
    """
    from listmrt.mrt_core import (
        MrtJoint,
        MrtLatent,
        decompose_closed_form,
        decompose_extreme,
    )

    rng = np.random.default_rng(seed)
    pr = rng.uniform(0.2, 0.8)
    while True:
        low = rng.uniform(0.05, 0.45, size=3)
        high = low + rng.uniform(0.3, 0.5, size=3)
        if high.max() <= 0.95:
            break
    m = np.column_stack([low, high])  # class 1 higher on every question
    latent = MrtLatent(pr_xstar=pr, pr_x_given_xstar=m)
    n = 1000.0
    joint = MrtJoint(z_cell=None, counts=latent.joint_probs() * n, n_cell=n)
    errors = []
    for decomposer in (decompose_closed_form, decompose_extreme):
        est = decomposer(joint, 1)
        errors.append(
            max(abs(est.pr_xstar - pr), float(np.abs(est.pr_x_given_xstar - m).max()))
        )
    return errors[0], errors[1]
