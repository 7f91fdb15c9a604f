"""GMM estimation and validity testing for list experiments.

The forward model maps the control response distribution to the treatment
distribution, so each response level contributes one moment condition:
the model-implied treatment probability minus its empirical counterpart.
The J+2 moments sum to zero identically at any empirical input, so J+1 of
them carry the information; the overidentification statistic
T_n = n * min_theta psi_bar' W psi_bar is asymptotically chi-square with
(J+1) - (free parameters) degrees of freedom, and it does not depend on which
redundant moment is left out of the efficient weighting.

Both GMM steps are bounded least-squares fits (see gmm_estimate). Also
houses the modified-design consistency check (direct question asked of the
control group) and the auxiliary z-test that the control mean equals J/2.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import optimize
from scipy.special import chdtrc, ndtr

from ._optim import box_lattice
from .errors import DomainError, IdentificationError
from .le_core import (
    ControlDistribution,
    LeParams,
    LeSample,
    Spec,
    TreatmentDistribution,
    _forward_jacobian,
    _forward_probs,
    empirical_distributions,
)

logger = logging.getLogger(__name__)

# Rows map the packed free parameters to (delta, p0, p1, p): theta = vec @ _EMBED[spec],
# and the Jacobian in the free parameters is jac @ _EMBED[spec].T.
_EMBED = {
    Spec.UNRESTRICTED: np.eye(3, 4),  # (delta, p0, p1)
    Spec.EQUAL_P: np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]]),  # (delta, p)
    Spec.NO_MISREPORT: np.eye(1, 4),  # (delta,)
    Spec.STRATEGIC: np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),  # (delta, p)
}

_PARAM_HI = 0.999  # open upper edge of the parameter box (rates live in [0, 1))
_COND_LIMIT = 1e12  # condition number beyond which the weight matrix is ridged
_LSQ_TOL = 1e-12  # ftol, xtol and gtol of the least-squares solves

#: Printed alongside the modified-design gap: a zero gap is necessary but not
#: sufficient for truthful reporting.
MODIFIED_LE_CAVEAT = (
    "A zero gap between the mean difference and the direct-question rate does "
    "not establish truthful reporting: with direct-question misreporting rates "
    "q1 (trait carriers denying) and q0 (non-carriers affirming), the gap is "
    "zero whenever (1-q1)*delta + q0*(1-delta) equals delta + p*(1-2*delta)/2."
)


@dataclass(frozen=True)
class MomentSpec:
    """Which misreporting specification to estimate."""

    j_count: int
    spec: Spec = Spec.UNRESTRICTED

    def __post_init__(self) -> None:
        if self.j_count < 1:
            raise DomainError(f"j_count must be >= 1, got {self.j_count}")

    @property
    def n_free(self) -> int:
        return _EMBED[self.spec].shape[0]

    @property
    def dof(self) -> int:
        """Degrees of freedom of the overidentification test: (J+1) - free."""
        return (self.j_count + 1) - self.n_free


@dataclass(frozen=True, eq=False)
class GmmResult:
    """Two-step GMM estimate and overidentification test."""

    theta_hat: LeParams
    t_stat: float
    dof: int
    p_value: float
    weight_matrix: np.ndarray
    converged: bool
    ridged: bool
    spec: MomentSpec
    n: int


PopulationInput = tuple[ControlDistribution, TreatmentDistribution, float, float]


def _freqs(
    data: LeSample | PopulationInput,
) -> tuple[np.ndarray, np.ndarray, float, float, int | None, int]:
    """Normalize either input form to (p0hat, p1hat, c0, c1, n, j_count)."""
    if isinstance(data, LeSample):
        control, treatment, c0, c1 = empirical_distributions(data)
        return control.probs, treatment.probs, c0, c1, data.n, data.j_count
    control, treatment, c0, c1 = data
    if control.j_count != treatment.j_count:
        raise DomainError("control and treatment j_count differ")
    if not (c0 > 0.0 and c1 > 0.0):
        raise DomainError(f"group shares must be positive, got c0={c0}, c1={c1}")
    if abs(c0 + c1 - 1.0) > 1e-9:
        raise DomainError(f"group shares must sum to 1, got {c0 + c1}")
    return control.probs, treatment.probs, float(c0), float(c1), None, control.j_count


def _check_theta_spec(theta: LeParams, spec: Spec) -> None:
    if spec is Spec.STRATEGIC:
        if theta.spec is not Spec.STRATEGIC:
            raise DomainError("strategic moments require strategic parameters")
        return
    if theta.spec is Spec.STRATEGIC:
        raise DomainError("strategic parameters passed to a uniform-misreporting spec")
    if spec is Spec.EQUAL_P and theta.p0 != theta.p1:
        raise DomainError("equal_p moments require p0 == p1")
    if spec is Spec.NO_MISREPORT and (theta.p0 != 0.0 or theta.p1 != 0.0):
        raise DomainError("no_misreport moments require p0 == p1 == 0")


def moment_values(
    data: LeSample | PopulationInput, theta: LeParams, spec: MomentSpec
) -> np.ndarray:
    """All J+2 moment values (model-implied minus observed treatment probs).

    The vector sums to zero identically, so only J+1 entries are informative.
    """
    _check_theta_spec(theta, spec.spec)
    p0hat, p1hat, _, _, _, j = _freqs(data)
    if j != spec.j_count:
        raise DomainError(f"data has j_count={j}, spec expects {spec.j_count}")
    if theta.p0 >= 1.0:
        raise DomainError("p0 must be < 1")
    return _forward_probs(p0hat, j, theta.spec, theta.delta, theta.p0, theta.p1, theta.p) - p1hat


def _g0_matrix(theta: LeParams, j: int) -> np.ndarray:
    """Jacobian of the moment vector with respect to the control probabilities.

    The forward model is affine in them, so column k is the model at the k-th
    unit vector minus the model at zero.
    """
    args = (j, theta.spec, theta.delta, theta.p0, theta.p1, theta.p)
    images = np.array([_forward_probs(e, *args) for e in np.eye(j + 2, j + 1, -1)])
    return (images[1:] - images[0]).T


def moment_covariance(
    theta: LeParams, p0hat: np.ndarray, p1hat: np.ndarray, c0: float, c1: float
) -> np.ndarray:
    """Asymptotic covariance of sqrt(n) times the full moment vector.

    The moments are G0 @ P0hat + const(theta) - P1hat with P0hat, P1hat
    independent multinomial frequency vectors based on shares c0, c1 of the
    sample, so the covariance is
    G0 Omega0 G0' / c0 + Omega1 / c1 with Omega = diag(P) - P P'.
    """
    j = p0hat.size - 1
    g0 = _g0_matrix(theta, j)
    om0 = np.diag(p0hat) - np.outer(p0hat, p0hat)
    om1 = np.diag(p1hat) - np.outer(p1hat, p1hat)
    return g0 @ om0 @ g0.T / c0 + om1 / c1


def _unpack(vec: np.ndarray, spec: Spec) -> LeParams:
    delta, p0, p1, p = vec @ _EMBED[spec]
    return LeParams(delta=delta, p0=p0, p1=p1, spec=spec, p=p)


def _starts(spec: Spec) -> list[np.ndarray]:
    """Eight deterministic starting points spanning the box (unrestricted, equal_p)."""
    if spec is Spec.UNRESTRICTED:
        return box_lattice([(0.0, _PARAM_HI)] * 3, [[0.25, 0.75], [0.1, 0.4], [0.1, 0.4]])
    return box_lattice([(0.0, _PARAM_HI)] * 2, [[0.1, 0.35, 0.6, 0.85], [0.1, 0.4]])


def _segment_min(c: np.ndarray, a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Minimiser of ||c + a x||^2 on the segment from lo to hi."""
    d = a @ (hi - lo)
    r = c + a @ lo
    den = float(d @ d)
    t = min(max(-float(d @ r) / den, 0.0), 1.0) if den > 0.0 else float(d @ r < 0.0)
    return lo + t * (hi - lo)


def _affine_min(c: np.ndarray, a: np.ndarray, spec: Spec) -> np.ndarray:
    """Exact minimiser of ||c + a x||^2 under a spec whose moments are affine.

    no_misreport: x = (delta,) on [0, HI], a clipped 1-D solve. strategic:
    x = (delta, u) with u = delta * p on the triangle 0 <= u <= HI * delta <=
    HI^2, a convex quadratic: the unconstrained solution if it is feasible,
    otherwise the best of the three edges. Returns the packed (delta,) or
    (delta, p); p is 0 when delta is 0, where it is not identified.
    """
    hi = _PARAM_HI
    if spec is Spec.NO_MISREPORT:
        return _segment_min(c, a, np.zeros(1), np.full(1, hi))
    x = np.linalg.lstsq(a, -c, rcond=None)[0]
    if not (0.0 <= x[1] <= hi * x[0] <= hi * hi):
        corners = (np.zeros(2), np.array([hi, 0.0]), np.array([hi, hi * hi]))
        edges = [_segment_min(c, a, lo, up) for lo, up in combinations(corners, 2)]
        x = min(edges, key=lambda e: float(np.sum((c + a @ e) ** 2)))
    return np.array([x[0], min(x[1] / x[0], hi) if x[0] > 0.0 else 0.0])


def _weight_from_cov(sigma: np.ndarray) -> tuple[np.ndarray, bool]:
    k = sigma.shape[0]
    ridged = False
    cond = np.linalg.cond(sigma)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        ridge = 1e-10 * float(np.trace(sigma)) / k
        ridged = True
        if ridge <= 0.0:
            # Fully degenerate covariance (point-mass groups): fall back to
            # identity weighting rather than invert a zero matrix.
            return np.eye(k), True
        sigma = sigma + ridge * np.eye(k)
        if np.linalg.cond(sigma) > 1e15:
            return np.eye(k), True
    w = np.linalg.inv(sigma)
    return (w + w.T) / 2.0, ridged


def gmm_estimate(
    data: LeSample | PopulationInput,
    spec: MomentSpec,
    n_for_stat: int | None = None,
) -> GmmResult:
    """Two-step GMM fit of the forward model with an overidentification test.

    Step 1 minimizes the identity-weighted norm of all J+2 moments; step 2
    re-minimizes psi_K' W psi_K, with W the inverse of the moment covariance
    evaluated at the step-1 solution (ridge-regularized and flagged when
    near-singular), as the norm of the residuals whitened by the Cholesky
    factor of W. T_n is n times the step-2 minimum and is referred to the
    chi-square upper tail with dof = (J+1) - free parameters.

    Each step is a bounded least-squares problem on the box [0, 0.999] with
    the analytic Jacobian of the forward model. The moments are affine in
    delta under no_misreport and in (delta, delta * p) under strategic, so
    those steps are solved exactly (_affine_min). Under unrestricted and
    equal_p, step 1 runs a trust-region reflective solve from each point of
    a fixed lattice and keeps the best; step 2 starts from the step-1
    solution. `converged` is true when the winning solve of each step met
    its tolerance; exact steps count as converged.

    Args:
      data: an LeSample, or (ControlDistribution, TreatmentDistribution,
        c0, c1) population/frequency input.
      spec: misreporting specification and item count.
      n_for_stat: sample size used to scale T_n when `data` is the population
        tuple (defaults to 1; ignored for LeSample input).
    """
    if spec.j_count < 3:
        raise IdentificationError(
            f"estimation needs at least three nonsensitive items, got j_count={spec.j_count}"
        )
    p0hat, p1hat, c0, c1, n, j = _freqs(data)
    if j != spec.j_count:
        raise DomainError(f"data has j_count={j}, spec expects {spec.j_count}")
    if n is None:
        n = 1 if n_for_stat is None else int(n_for_stat)
    kind = spec.spec
    embed = _EMBED[kind]

    def fit(keep: slice, root: np.ndarray, x0=None) -> tuple[np.ndarray, float, bool]:
        """(argmin, min, converged) of ||root' psi_keep||^2, from x0 or else the lattice."""

        def resid(vec: np.ndarray) -> np.ndarray:
            return root.T @ (_forward_probs(p0hat, j, kind, *(vec @ embed)) - p1hat)[keep]

        def jac(vec: np.ndarray) -> np.ndarray:
            return root.T @ (_forward_jacobian(p0hat, j, kind, *(vec @ embed)) @ embed.T)[keep]

        if kind in (Spec.NO_MISREPORT, Spec.STRATEGIC):
            # The moments are affine in (delta, delta * p); the Jacobian at
            # (delta, p) = (1, 0) holds their coefficients.
            unit = np.eye(spec.n_free)[0]
            x = _affine_min(resid(np.zeros(spec.n_free)), jac(unit), kind)
            return x, float(np.sum(resid(x) ** 2)), True
        solves = [
            optimize.least_squares(resid, start, jac=jac, bounds=(0.0, _PARAM_HI), method="trf",
                                   ftol=_LSQ_TOL, xtol=_LSQ_TOL, gtol=_LSQ_TOL)
            for start in (_starts(kind) if x0 is None else [x0])
        ]
        best = min(solves, key=lambda res: res.cost)
        # The trust-region solver stops strictly inside the box, down to a
        # denormal, so a coordinate it reports on an active bound is set to it.
        x = np.where(best.active_mask < 0, 0.0, np.where(best.active_mask > 0, _PARAM_HI, best.x))
        return x, float(np.sum(resid(x) ** 2)), bool(best.success)

    x1, _, conv1 = fit(slice(None), np.eye(j + 2))
    theta1 = _unpack(x1, kind)

    # The moments sum to zero at every theta and so does each row of their
    # covariance, so psi_K' inv(Sigma_KK) psi_K is the same function of theta
    # for every set K of J+1 moments: dropping moment 0 loses nothing.
    sigma = moment_covariance(theta1, p0hat, p1hat, c0, c1)
    w, ridged = _weight_from_cov(sigma[1:, 1:])
    x2, f2, conv2 = fit(slice(1, None), np.linalg.cholesky(w), x1)
    theta2 = _unpack(x2, kind)

    t_stat = max(0.0, n * f2)
    dof = spec.dof
    p_value = float(chdtrc(dof, t_stat)) if dof >= 1 else math.nan
    return GmmResult(
        theta_hat=theta2,
        t_stat=t_stat,
        dof=dof,
        p_value=p_value,
        weight_matrix=w,
        converged=conv1 and conv2,
        ridged=ridged,
        spec=spec,
        n=n,
    )


def j_test(
    data: LeSample | PopulationInput,
    spec: MomentSpec,
    n_for_stat: int | None = None,
) -> GmmResult:
    """Overidentification test of the forward model under `spec`.

    The test is the two-step fit of gmm_estimate; its T_n does not depend on
    which redundant moment the efficient weighting leaves out.
    """
    return gmm_estimate(data, spec, n_for_stat)


@dataclass(frozen=True)
class ModifiedLeResult:
    """Gap between the list-experiment mean difference and the direct rate."""

    mean_diff: float
    direct_rate: float
    gap: float
    gap_se: float
    caveat: str = MODIFIED_LE_CAVEAT


def modified_le_check(
    sample: LeSample,
    direct_responses=None,
    n_boot: int = 1000,
    seed=0,
) -> ModifiedLeResult:
    """Compare the mean-difference estimate against a direct question.

    In the modified design the control group is also asked the sensitive
    question directly. Under fully truthful reporting the two estimates of
    the sensitive-trait share coincide, so gap = mean_diff - direct_rate has
    expectation zero; the converse fails (see MODIFIED_LE_CAVEAT). The gap's
    standard error comes from a stratified bootstrap that resamples the
    control and treatment groups independently, keeping each control record's
    (count, direct answer) pair intact.

    Args:
      sample: list-experiment records.
      direct_responses: 0/1 vector aligned with the control records in sample
        order; defaults to sample.x_direct on control rows.
      n_boot: bootstrap replications for gap_se.
      seed: RNG seed for the bootstrap.
    """
    mask0 = sample.t == 0
    y0 = sample.y[mask0].astype(float)
    y1 = sample.y[~mask0].astype(float)
    if direct_responses is None:
        if sample.x_direct is None:
            raise DomainError("no direct responses: pass direct_responses or set x_direct")
        direct = sample.x_direct[mask0].astype(float)
    else:
        direct = np.asarray(direct_responses, dtype=float)
        if direct.ndim != 1 or direct.size != y0.size:
            raise DomainError(
                f"direct_responses must have one entry per control record "
                f"({y0.size}), got shape {direct.shape}"
            )
        if not np.isin(direct, (0.0, 1.0)).all():
            raise DomainError("direct_responses must be 0/1")
    if n_boot < 2:
        raise DomainError("n_boot must be >= 2")

    mean_diff = float(y1.mean() - y0.mean())
    direct_rate = float(direct.mean())
    gap = mean_diff - direct_rate

    rng = np.random.default_rng(seed)
    n0, n1 = y0.size, y1.size
    gaps = np.empty(n_boot)
    for b in range(n_boot):
        i0 = rng.integers(0, n0, size=n0)
        i1 = rng.integers(0, n1, size=n1)
        gaps[b] = (y1[i1].mean() - y0[i0].mean()) - direct[i0].mean()
    gap_se = float(gaps.std(ddof=1))
    return ModifiedLeResult(mean_diff=mean_diff, direct_rate=direct_rate, gap=gap, gap_se=gap_se)


@dataclass(frozen=True)
class ZTestResult:
    """Two-sided z-test of a sample mean against a reference value."""

    statistic: float
    p_value: float
    mean: float
    se: float


def control_mean_ztest(sample: LeSample) -> ZTestResult:
    """z-test of whether the control mean equals J/2.

    Under a design whose nonsensitive items each have affirmative probability
    1/2, the control count mean is J/2; a rejection flags either item
    imbalance or control-group misreporting toward the middle of the support.
    """
    y0 = sample.y[sample.t == 0].astype(float)
    target = sample.j_count / 2.0
    mean = float(y0.mean())
    se = float(y0.std(ddof=1) / math.sqrt(y0.size)) if y0.size > 1 else 0.0
    if se == 0.0:
        z = 0.0 if mean == target else math.inf * math.copysign(1.0, mean - target)
        p = 1.0 if mean == target else 0.0
        return ZTestResult(statistic=z, p_value=p, mean=mean, se=se)
    z = (mean - target) / se
    return ZTestResult(statistic=z, p_value=float(2.0 * ndtr(-abs(z))), mean=mean, se=se)


def mean_difference_empirical(sample: LeSample) -> tuple[float, float]:
    """Treatment-minus-control mean and its unpooled (Welch) standard error."""
    y0 = sample.y[sample.t == 0].astype(float)
    y1 = sample.y[sample.t == 1].astype(float)
    diff = float(y1.mean() - y0.mean())
    se = math.sqrt(y0.var(ddof=1) / y0.size + y1.var(ddof=1) / y1.size)
    return diff, float(se)
