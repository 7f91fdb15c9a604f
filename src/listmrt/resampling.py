"""Bootstrap inference and the deterministic Monte Carlo harness.

The bootstrap resamples each sample type by its own scheme (list-experiment
records within their treatment group, an MRT cell's counts by a multinomial
draw, continuous-covariate records i.i.d.), reruns an estimator per
replicate, and reports percentile intervals; replicates where the estimator
legitimately fails (rank failure, non-convergence) are dropped and counted,
with a hard error once more than a fifth fail.

The Monte Carlo designs reproduce the simulation studies: a two-cell
discrete-covariate design, a continuous-covariate logistic design, and
correlated variants in which the three responses are drawn per conditional
(X*, z) cell from a Gaussian copula with marginals preserved exactly through
the thresholds. Sigma parameterizes the copula on one of two scales (see
CorrelationScale): the default LATENT scale sets the latent equicorrelation
to sigma — the parameterization that reproduces the reference tables — while
the REALIZED scale solves per-pair latent correlations so every realized
binary Pearson correlation equals sigma. A sigma of zero routes through the
same generator, so the baseline designs and the sigma=0 correlated designs
are bit-identical under equal seeds.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np
from scipy import optimize
from scipy.special import expit, ndtr, ndtri

from .errors import (
    DesignError,
    DomainError,
    InferenceError,
    ListmrtError,
)
from .le_core import LeSample
from .mrt_core import (
    Method,
    MrtJoint,
    MrtLatent,
    OrderingRule,
    decompose_closed_form,
    decompose_extreme,
)
from .mrt_mle import PARAM_ORDER, MleParams, MrtContinuousSample, _design_matrix, mle_fit

logger = logging.getLogger(__name__)

_MAX_FAILURE_SHARE = 0.20
_Z_GRID_POINTS = 101
_MC_ORDERING = OrderingRule(question=1, class1_higher=True)

# 32-node Gauss-Legendre rule on [-1, 1], used for the bivariate normal
# rectangle probability (correlation-integral form).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


class Direction(enum.Enum):
    GREATER = "greater"
    LESS = "less"


class DesignKind(enum.Enum):
    DISCRETE_Z = "discrete_z"
    CONTINUOUS_Z = "continuous_z"
    DISCRETE_Z_CORRELATED = "discrete_z_correlated"
    CONTINUOUS_Z_CORRELATED = "continuous_z_correlated"


class CorrelationScale(enum.Enum):
    """How sigma parameterizes the within-cell response dependence.

    LATENT: sigma is the equicorrelation of the latent trivariate Gaussian
    (one value for every pair and cell); the realized binary correlations are
    attenuated below sigma by the thresholding, typically to about half at
    these designs' marginals. This scale reproduces the reference simulation
    tables and is the default.

    REALIZED: per-pair latent correlations are solved numerically so that the
    realized binary Pearson correlation of each response pair equals sigma
    exactly; raises DesignError when sigma exceeds a pair's Fréchet bound.

    Results are mechanism-dependent, so report the scale alongside any output.
    """

    LATENT = "latent"
    REALIZED = "realized"


@dataclass(frozen=True)
class BootstrapConfig:
    n_reps: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_reps < 100:
            raise DomainError(f"n_reps must be at least 100 for usable SEs, got {self.n_reps}")


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """estimates: (kept replicates, k) matrix; ci95: (k, 2) percentile bounds."""

    estimates: np.ndarray
    se: np.ndarray
    ci95: np.ndarray
    n_failed: int


@dataclass(frozen=True, eq=False)
class DiscreteTruth:
    """Two-cell latent truth: Pr(Z=0) plus the per-cell latent structure."""

    pr_z0: float
    cell0: MrtLatent
    cell1: MrtLatent

    def __post_init__(self) -> None:
        if not 0.0 < self.pr_z0 < 1.0:
            raise DomainError(f"pr_z0 must be in (0, 1), got {self.pr_z0}")


DISCRETE_TRUTH = DiscreteTruth(
    pr_z0=0.4,
    cell0=MrtLatent(
        pr_xstar=0.378,
        pr_x_given_xstar=np.array([[0.269, 0.881], [0.269, 0.731], [0.269, 0.881]]),
    ),
    cell1=MrtLatent(
        pr_xstar=0.818,
        pr_x_given_xstar=np.array([[0.310, 0.900], [0.289, 0.750], [0.289, 0.891]]),
    ),
)

# Slope-only logistic truth for z ~ Uniform[0,1].
CONTINUOUS_TRUTH = MleParams(
    rho=[1.0], alpha0=[-1.0], alpha1=[1.0], beta0=[-2.0], beta1=[2.0],
    gamma0=[-2.0], gamma1=[2.0],
)


@dataclass(frozen=True, eq=False)
class McDesign:
    kind: DesignKind
    truth: object
    n: int
    n_reps: int
    seed: int = 0
    sigma: float = 0.0
    scale: CorrelationScale = CorrelationScale.LATENT

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma <= 0.5:
            raise DomainError(f"sigma must be in [0, 0.5], got {self.sigma}")
        if self.n_reps < 1:
            raise DomainError("n_reps must be >= 1")
        if self.n < 2:
            raise DomainError("n must be >= 2")
        discrete = self.kind in (DesignKind.DISCRETE_Z, DesignKind.DISCRETE_Z_CORRELATED)
        if discrete and not isinstance(self.truth, DiscreteTruth):
            raise DomainError(f"{self.kind.value} requires a DiscreteTruth")
        if not discrete and not isinstance(self.truth, MleParams):
            raise DomainError(f"{self.kind.value} requires MleParams truth")
        if self.kind in (DesignKind.DISCRETE_Z, DesignKind.CONTINUOUS_Z) and self.sigma != 0.0:
            raise DomainError("baseline designs require sigma = 0")


@dataclass(frozen=True, eq=False)
class McRow:
    estimator: str
    parameter: str
    truth: float
    mean: float
    sd: float
    median: float
    n_failed: int


# ---------------------------------------------------------------------------
# Gaussian copula machinery


def _bvn_cdf(h: float, k: float, r: float) -> float:
    """P(W1 <= h, W2 <= k) for standard bivariate normal with correlation r,
    via Gauss-Legendre quadrature of the correlation-integral representation.
    """
    phi_h = ndtr(h)
    phi_k = ndtr(k)
    if r == 0.0:
        return float(phi_h * phi_k)
    t = 0.5 * r * (_GL_NODES + 1.0)
    w = 0.5 * r * _GL_WEIGHTS
    one_mt2 = 1.0 - t * t
    integrand = np.exp(-(h * h - 2.0 * t * h * k + k * k) / (2.0 * one_mt2)) / np.sqrt(one_mt2)
    return float(phi_h * phi_k + (w * integrand).sum() / (2.0 * math.pi))


def _binary_corr(p: float, q: float, r: float) -> float:
    """Pearson correlation of 1{W1<=ndtri(p)}, 1{W2<=ndtri(q)} under latent r."""
    joint = _bvn_cdf(float(ndtri(p)), float(ndtri(q)), r)
    return (joint - p * q) / math.sqrt(p * (1.0 - p) * q * (1.0 - q))


def _frechet_upper(p: float, q: float) -> float:
    """Largest attainable correlation of Bernoulli(p), Bernoulli(q)."""
    return (min(p, q) - p * q) / math.sqrt(p * (1.0 - p) * q * (1.0 - q))


def _solve_latent_r(p: float, q: float, sigma: float, context: str) -> float:
    """Latent normal correlation giving binary correlation sigma; DesignError
    when sigma exceeds the Fréchet upper bound of the pair."""
    if sigma == 0.0:
        return 0.0
    if min(p, q) <= 0.0 or max(p, q) >= 1.0:
        raise DesignError(
            f"{context}: a degenerate marginal (p={p:.4g}, q={q:.4g}) admits only sigma=0"
        )
    bound = _frechet_upper(p, q)
    if sigma >= bound - 1e-9:
        raise DesignError(
            f"{context}: target correlation sigma={sigma} violates the Fréchet "
            f"upper bound {bound:.4f} for marginals ({p:.4f}, {q:.4f})"
        )
    return float(optimize.brentq(
        lambda r: _binary_corr(p, q, r) - sigma, 0.0, 1.0 - 1e-9, xtol=1e-12, rtol=1e-12,
    ))


def _latent_cholesky(
    marginals, sigma: float, context: str,
    scale: CorrelationScale = CorrelationScale.LATENT,
) -> np.ndarray:
    """Cholesky factor of the 3x3 latent correlation matrix for one cell."""
    corr = np.eye(3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if scale is CorrelationScale.LATENT:
            r = sigma
        else:
            r = _solve_latent_r(
                float(marginals[i]), float(marginals[j]), sigma,
                f"{context}, questions ({i + 1},{j + 1})",
            )
        corr[i, j] = corr[j, i] = r
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise DesignError(
            f"{context}: latent correlation matrix for sigma={sigma} is not "
            "positive definite"
        ) from exc


def _draw_bits(rng: np.random.Generator, marginals: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Correlated Bernoulli rows: marginals (n, 3), one latent cholesky."""
    n = marginals.shape[0]
    w = rng.standard_normal((n, 3)) @ chol.T
    return (ndtr(w) <= marginals).astype(np.int64)


def simulate_discrete_design(
    truth: DiscreteTruth, n: int, sigma: float, rng: np.random.Generator,
    scale: CorrelationScale = CorrelationScale.LATENT,
) -> list[MrtJoint]:
    """One dataset from the two-cell design; returns one MrtJoint per z cell.

    Responses within a (z, X*) cell are drawn through a Gaussian copula whose
    correlation is parameterized by `scale` (see CorrelationScale); marginal
    response probabilities are hit exactly through the copula thresholds.
    """
    chols = {}
    for z_val, cell in ((0, truth.cell0), (1, truth.cell1)):
        for k in (0, 1):
            chols[z_val, k] = _latent_cholesky(
                cell.pr_x_given_xstar[:, k], sigma, f"cell z={z_val}, class {k}", scale
            )
    z = (rng.random(n) >= truth.pr_z0).astype(np.int64)
    joints = []
    for z_val, cell in ((0, truth.cell0), (1, truth.cell1)):
        n_z = int((z == z_val).sum())
        if n_z == 0:
            raise DesignError(f"no observations landed in cell z={z_val}; increase n")
        xstar = (rng.random(n_z) < cell.pr_xstar).astype(np.int64)
        bits = np.empty((n_z, 3), dtype=np.int64)
        for k in (0, 1):
            mask = xstar == k
            marg = np.broadcast_to(cell.pr_x_given_xstar[:, k], (int(mask.sum()), 3))
            bits[mask] = _draw_bits(rng, marg, chols[z_val, k])
        joints.append(MrtJoint.from_records(bits[:, 0], bits[:, 1], bits[:, 2], z_cell=z_val))
    return joints


def _continuous_marginals(truth: MleParams, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pr(X*=1|z) and the (n, 3, 2) response marginals for slope-only or
    intercept+slopes truth over scalar z."""
    feats = _design_matrix(z[:, None], truth.dim)
    share = expit(feats @ truth.rho)
    marg = np.empty((z.size, 3, 2))
    for m, (c0, c1) in enumerate(
        ((truth.alpha0, truth.alpha1), (truth.beta0, truth.beta1), (truth.gamma0, truth.gamma1))
    ):
        marg[:, m, 0] = expit(feats @ c0)
        marg[:, m, 1] = expit(feats @ c1)
    return share, marg


def simulate_continuous_design(
    truth: MleParams, n: int, sigma: float, rng: np.random.Generator,
    scale: CorrelationScale = CorrelationScale.LATENT,
) -> MrtContinuousSample:
    """One dataset from the logistic design with z ~ Uniform[0,1].

    On the LATENT scale a single equicorrelated copula serves every record.
    On the REALIZED scale the latent correlations vary with (z, X*); they are
    solved on a fixed 101-point grid over [0,1] and each record uses its
    nearest grid point. Thresholds always use the record's exact marginals.
    """
    z = rng.uniform(0.0, 1.0, n)
    share, marg = _continuous_marginals(truth, z)
    xstar = (rng.random(n) < share).astype(np.int64)
    own_marg = np.take_along_axis(marg, xstar[:, None, None], axis=2)[:, :, 0]
    if sigma == 0.0 or scale is CorrelationScale.LATENT:
        corr = np.full((3, 3), sigma)
        np.fill_diagonal(corr, 1.0)
        bits = _draw_bits(rng, own_marg, np.linalg.cholesky(corr))
        return MrtContinuousSample(x1=bits[:, 0], x2=bits[:, 1], x3=bits[:, 2], z=z)
    grid = np.linspace(0.0, 1.0, _Z_GRID_POINTS)
    _, grid_marg = _continuous_marginals(truth, grid)
    chols = np.empty((_Z_GRID_POINTS, 2, 3, 3))
    for g in range(_Z_GRID_POINTS):
        for k in (0, 1):
            chols[g, k] = _latent_cholesky(
                grid_marg[g, :, k], sigma, f"grid z={grid[g]:.2f}, class {k}", scale
            )
    idx = np.rint(z * (_Z_GRID_POINTS - 1)).astype(np.int64)
    bits = np.empty((n, 3), dtype=np.int64)
    # One rng draw block per occupied (grid, class) cell, visited in fixed
    # order so the stream is deterministic.
    for g in range(_Z_GRID_POINTS):
        for k in (0, 1):
            mask = (idx == g) & (xstar == k)
            if not mask.any():
                continue
            bits[mask] = _draw_bits(rng, own_marg[mask], chols[g, k])
    return MrtContinuousSample(x1=bits[:, 0], x2=bits[:, 1], x3=bits[:, 2], z=z)


# ---------------------------------------------------------------------------
# Bootstrap


def _resample(sample, rng: np.random.Generator):
    if isinstance(sample, LeSample):
        # Within each treatment group, so both group sizes stay fixed.
        idx = np.arange(sample.y.size)
        parts = []
        for t_val in (0, 1):
            grp = idx[sample.t == t_val]
            parts.append(rng.choice(grp, size=grp.size, replace=True))
        take = np.concatenate(parts)
        x_direct = None if sample.x_direct is None else sample.x_direct[take]
        return LeSample(
            j_count=sample.j_count, y=sample.y[take], t=sample.t[take], x_direct=x_direct
        )
    if isinstance(sample, MrtJoint):
        return _resample_joint(sample, rng)
    if isinstance(sample, MrtContinuousSample):
        take = rng.integers(0, sample.n, size=sample.n)
        return MrtContinuousSample(
            x1=sample.x1[take], x2=sample.x2[take], x3=sample.x3[take], z=sample.z[take]
        )
    raise DomainError(f"cannot resample a {type(sample).__name__}")


def _resample_joint(joint: MrtJoint, rng: np.random.Generator) -> MrtJoint:
    n = int(round(joint.n_cell))
    counts = rng.multinomial(n, (joint.counts / joint.n_cell).ravel()).reshape(2, 2, 2)
    return MrtJoint(z_cell=joint.z_cell, counts=counts.astype(float), n_cell=float(n))


def bootstrap(sample, estimator, config: BootstrapConfig = BootstrapConfig()) -> BootstrapResult:
    """Record-level bootstrap of an estimator.

    `estimator` maps a resampled object of the same type (LeSample, MrtJoint
    or MrtContinuousSample) to a scalar or vector of estimates. Replicates
    where it raises a package error are dropped and counted; more than 20%
    failures aborts with InferenceError.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    rows = []
    n_failed = 0
    for _ in range(config.n_reps):
        redraw = _resample(sample, rng)
        try:
            est = estimator(redraw)
        except ListmrtError:
            n_failed += 1
            continue
        rows.append(np.atleast_1d(np.asarray(est, dtype=float)))
    if n_failed > _MAX_FAILURE_SHARE * config.n_reps:
        raise InferenceError(
            f"{n_failed}/{config.n_reps} bootstrap replicates failed (> "
            f"{_MAX_FAILURE_SHARE:.0%}); the estimator is unstable on this sample"
        )
    estimates = np.vstack(rows)
    se = estimates.std(axis=0, ddof=1)
    ci95 = np.percentile(estimates, [2.5, 97.5], axis=0).T
    return BootstrapResult(estimates=estimates, se=se, ci95=ci95, n_failed=n_failed)


def one_sided_pvalue(estimates, null_value: float, direction: Direction) -> float:
    """Percentile bootstrap p-value with add-one smoothing.

    For H1 'parameter > null_value' (Direction.GREATER), counts replicates at
    or below the null value; symmetric for Direction.LESS.
    """
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size == 0:
        raise DomainError("estimates must be nonempty")
    if direction is Direction.GREATER:
        k = int((estimates <= null_value).sum())
    else:
        k = int((estimates >= null_value).sum())
    return (k + 1.0) / (estimates.size + 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo harness

_DISCRETE_ESTIMATORS = tuple(method.value for method in Method)
_CONTINUOUS_ESTIMATORS = ("mle",)


def _mc_rep(args):
    design, seed_seq, estimators = args
    rng = np.random.default_rng(seed_seq)
    out = {}
    if design.kind in (DesignKind.DISCRETE_Z, DesignKind.DISCRETE_Z_CORRELATED):
        joints = simulate_discrete_design(
            design.truth, design.n, design.sigma, rng, design.scale
        )
        weights = [j.n_cell / design.n for j in joints]
        for name in estimators:
            fit = decompose_closed_form if name == "closed_form" else decompose_extreme
            try:
                ests = [fit(j, 1, _MC_ORDERING) for j in joints]
            except ListmrtError:
                out[name] = None
                continue
            overall = sum(w * e.pr_xstar for e, w in zip(ests, weights))
            out[name] = [overall, ests[0].pr_xstar, ests[1].pr_xstar]
    else:
        sample = simulate_continuous_design(
            design.truth, design.n, design.sigma, rng, design.scale
        )
        include_intercept = design.truth.dim == 2
        for name in estimators:
            try:
                fit = mle_fit(sample, _MC_ORDERING, include_intercept=include_intercept)
            except ListmrtError:
                out[name] = None
                continue
            out[name] = [float(getattr(fit.params, f)[0]) for f in PARAM_ORDER]
    return out


def _mc_truth_rows(design: McDesign) -> list[tuple[str, float]]:
    if isinstance(design.truth, DiscreteTruth):
        t = design.truth
        overall = (1.0 - t.pr_z0) * t.cell1.pr_xstar + t.pr_z0 * t.cell0.pr_xstar
        return [
            ("pr_xstar", overall),
            ("pr_xstar_z0", t.cell0.pr_xstar),
            ("pr_xstar_z1", t.cell1.pr_xstar),
        ]
    return [(f, float(getattr(design.truth, f)[0])) for f in PARAM_ORDER]


def run_monte_carlo(design: McDesign, estimators=None, n_jobs: int = 1) -> list[McRow]:
    """Replicate the design, run each estimator, tabulate mean/sd/median.

    Per-replication RNG streams are spawned from the design seed by
    replication index, so serial and parallel runs produce byte-identical
    tables. Failed replicates are dropped per estimator and counted.
    """
    discrete = design.kind in (DesignKind.DISCRETE_Z, DesignKind.DISCRETE_Z_CORRELATED)
    valid = _DISCRETE_ESTIMATORS if discrete else _CONTINUOUS_ESTIMATORS
    estimators = tuple(estimators) if estimators is not None else valid
    unknown = [e for e in estimators if e not in valid]
    if unknown:
        raise DomainError(f"estimators {unknown} not available for {design.kind.value}")

    seeds = np.random.SeedSequence(design.seed).spawn(design.n_reps)
    tasks = [(design, s, estimators) for s in seeds]
    if n_jobs > 1:
        with get_context("fork").Pool(n_jobs) as pool:
            reps = pool.map(_mc_rep, tasks)
    else:
        reps = [_mc_rep(t) for t in tasks]

    truth_rows = _mc_truth_rows(design)
    table = []
    for name in estimators:
        kept = np.array([r[name] for r in reps if r[name] is not None])
        n_failed = sum(1 for r in reps if r[name] is None)
        for col, (param, truth) in enumerate(truth_rows):
            if kept.size == 0:
                mean = sd = median = float("nan")
            else:
                mean = float(kept[:, col].mean())
                sd = float(kept[:, col].std(ddof=1)) if kept.shape[0] > 1 else 0.0
                median = float(np.median(kept[:, col]))
            table.append(McRow(
                estimator=name, parameter=param, truth=truth,
                mean=mean, sd=sd, median=median, n_failed=n_failed,
            ))
    return table
