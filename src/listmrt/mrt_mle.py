"""Maximum-likelihood latent-trait recovery with logistic links (continuous covariates).

When the covariate takes many values, cell-by-cell decomposition runs out of
data; instead each conditional probability is given a logistic link in z,

    Pr(X*=1|z) = g(z; rho),  Pr(X_m=1|X*=j, z) = g(z; theta_mj),

and the mixture log-likelihood of the three observed responses is maximized
over the seven coefficient vectors. The likelihood is invariant to swapping
the latent-class labels (exchange the class-0/class-1 coefficient blocks and
flip the sign of rho's link); an ordering rule applied after optimization
picks the labeling, exactly as in the discrete decomposition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import expit

from .errors import DomainError, EstimationError
from .mrt_core import OrderingRule

logger = logging.getLogger(__name__)

_COEF_BOUND = 40.0
_FD_STEP = 1e-5
# Truth-agnostic lattice: (response magnitude, latent-share coefficient)
# pairs; class-1 links start positive, class-0 links negative.
_START_GRID = [(0.5, 0.0), (0.5, 1.0), (0.5, -1.0), (2.5, 0.0), (2.5, 1.0), (2.5, -1.0)]

_FIELDS = ("rho", "alpha0", "alpha1", "beta0", "beta1", "gamma0", "gamma1")
# The order in which reports and Monte Carlo tables list the parameters.
PARAM_ORDER = ("rho", "alpha1", "alpha0", "beta1", "beta0", "gamma1", "gamma0")


@dataclass(frozen=True, eq=False)
class MleParams:
    """Logistic-link coefficients; all seven vectors share one dimension.

    Each vector is either slopes only (dimension = dim(z)) or an intercept
    followed by slopes (dimension = 1 + dim(z)); which one is meant is
    inferred from the sample's covariate dimension.

    Identification requires the class-0 and class-1 link coefficients to
    differ within each question (equal links make the latent classes
    indistinguishable). The likelihood itself remains well defined at such
    points — optimizers and oracle evaluations may pass through them — so
    the condition is a property of a usable *estimate*, enforced by
    `mle_fit`'s ordering step, not a construction-time restriction.
    """

    rho: np.ndarray
    alpha0: np.ndarray
    alpha1: np.ndarray
    beta0: np.ndarray
    beta1: np.ndarray
    gamma0: np.ndarray
    gamma1: np.ndarray

    def __post_init__(self) -> None:
        dims = set()
        for name in _FIELDS:
            vec = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if vec.ndim != 1 or not np.all(np.isfinite(vec)):
                raise DomainError(f"{name} must be a finite 1-d coefficient vector")
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)
            dims.add(vec.size)
        if len(dims) != 1:
            raise DomainError(f"coefficient vectors must share one dimension, got {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.rho.size

    def as_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, name) for name in _FIELDS])

    @classmethod
    def from_vector(cls, vec: np.ndarray, dim: int) -> "MleParams":
        parts = np.asarray(vec, dtype=float).reshape(len(_FIELDS), dim)
        return cls(**dict(zip(_FIELDS, parts)))


@dataclass(frozen=True, eq=False)
class MrtContinuousSample:
    """Responses to the three questions plus a continuous covariate vector."""

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    z: np.ndarray  # shape (n, dim_z)

    def __post_init__(self) -> None:
        x1, x2, x3 = (np.asarray(a, dtype=np.int64) for a in (self.x1, self.x2, self.x3))
        z = np.asarray(self.z, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        if x1.ndim != 1 or x1.size == 0:
            raise DomainError("sample must be nonempty")
        if not (x1.shape == x2.shape == x3.shape) or z.shape[0] != x1.size or z.ndim != 2:
            raise DomainError("x1, x2, x3, z must have matching first dimensions")
        for name, arr in (("x1", x1), ("x2", x2), ("x3", x3)):
            if not np.isin(arr, (0, 1)).all():
                raise DomainError(f"{name} must contain only 0 and 1")
        if not np.all(np.isfinite(z)):
            raise DomainError("z must be finite")
        for name, arr in (("x1", x1), ("x2", x2), ("x3", x3), ("z", z)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_records(cls, records) -> "MrtContinuousSample":
        if not records:
            raise DomainError("records must be nonempty")
        return cls(
            x1=[r["x1"] for r in records],
            x2=[r["x2"] for r in records],
            x3=[r["x3"] for r in records],
            z=[np.atleast_1d(r["z"]) for r in records],
        )

    @property
    def n(self) -> int:
        return self.x1.size

    @property
    def dim_z(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True, eq=False)
class MleFit:
    """Result of mle_fit.

    se maps each coefficient field name to its standard-error vector (same
    shape as the coefficient); it is None when the observed information was
    not invertible.
    """

    params: MleParams
    loglik: float
    converged: bool
    se: dict[str, np.ndarray] | None
    small_sample: bool = False


def _design_matrix(z: np.ndarray, dim: int) -> np.ndarray:
    """Design matrix of covariate rows z (shape (n, dim(z))) for coefficient
    vectors of dimension dim: slopes only when dim == dim(z), an intercept
    column followed by the slopes when dim == 1 + dim(z)."""
    width = z.shape[1]
    if dim == width:
        return z
    if dim == width + 1:
        return np.hstack([np.ones((z.shape[0], 1)), z])
    raise DomainError(
        f"coefficient dimension {dim} incompatible with z of width {width}: expected "
        f"{width} (slopes only) or {width + 1} (intercept + slopes)"
    )


def _loglik_terms(vec: np.ndarray, feats: np.ndarray, xs, dim: int):
    """Per-class complete-data log-likelihood rows and the link indices."""
    parts = vec.reshape(len(_FIELDS), dim)
    eta = feats @ parts.T  # (n, 7) columns in _FIELDS order
    log_g = -np.logaddexp(0.0, -eta)  # log sigmoid
    log_1mg = -np.logaddexp(0.0, eta)
    ll = np.zeros((feats.shape[0], 2))
    ll[:, 0] = log_1mg[:, 0]  # Pr(X*=0|z)
    ll[:, 1] = log_g[:, 0]
    for m, x in enumerate(xs):  # questions 1..3 -> columns 1+2m (class 0), 2+2m (class 1)
        for j in (0, 1):
            col = 1 + 2 * m + j
            ll[:, j] += np.where(x == 1, log_g[:, col], log_1mg[:, col])
    return ll, eta


def _loglik_and_grad(vec: np.ndarray, feats: np.ndarray, xs, dim: int):
    ll, eta = _loglik_terms(vec, feats, xs, dim)
    total = np.logaddexp(ll[:, 0], ll[:, 1])
    post1 = np.exp(ll[:, 1] - total)
    sig = expit(eta)
    resid = np.empty_like(eta)  # d(record loglik)/d(eta_col)
    resid[:, 0] = post1 - sig[:, 0]
    for m, x in enumerate(xs):
        for j in (0, 1):
            col = 1 + 2 * m + j
            w = post1 if j == 1 else (1.0 - post1)
            resid[:, col] = w * (x - sig[:, col])
    grad = resid.T @ feats  # (7, dim)
    return float(total.sum()), grad.ravel()


def log_likelihood(params: MleParams, sample: MrtContinuousSample) -> float:
    """Mixture log-likelihood of the observed responses; always <= 0."""
    feats = _design_matrix(sample.z, params.dim)
    ll, _ = _loglik_terms(
        params.as_vector(), feats, (sample.x1, sample.x2, sample.x3), params.dim
    )
    return float(np.logaddexp(ll[:, 0], ll[:, 1]).sum())


def score(params: MleParams, sample: MrtContinuousSample) -> np.ndarray:
    """Gradient of log_likelihood in the packed (rho, alpha0, alpha1, beta0,
    beta1, gamma0, gamma1) coordinate order, flattened."""
    feats = _design_matrix(sample.z, params.dim)
    _, grad = _loglik_and_grad(
        params.as_vector(), feats, (sample.x1, sample.x2, sample.x3), params.dim
    )
    return grad


def swap_labels(params: MleParams) -> MleParams:
    """The label-swapped twin: identical likelihood, classes renamed."""
    return MleParams(
        rho=-params.rho,
        alpha0=params.alpha1,
        alpha1=params.alpha0,
        beta0=params.beta1,
        beta1=params.beta0,
        gamma0=params.gamma1,
        gamma1=params.gamma0,
    )


def _ordering_violated(params: MleParams, feats: np.ndarray, ordering: OrderingRule) -> bool:
    pairs = {
        1: (params.alpha0, params.alpha1),
        2: (params.beta0, params.beta1),
        3: (params.gamma0, params.gamma1),
    }
    c0, c1 = pairs[ordering.question]
    zbar = feats.mean(axis=0)
    higher1 = float(zbar @ c1) > float(zbar @ c0)
    return higher1 != ordering.class1_higher


def _starts(dim: int) -> list[np.ndarray]:
    """One packed start per `_START_GRID` point, each field's vector constant."""
    return [np.repeat([r, -mag, mag, -mag, mag, -mag, mag], dim) for mag, r in _START_GRID]


def _hessian_se(vec: np.ndarray, feats: np.ndarray, xs, dim: int):
    """Standard errors from the observed information, by central differences
    of the analytic gradient; None when the information matrix is singular."""
    k = vec.size
    hess = np.empty((k, k))
    for i in range(k):
        h = _FD_STEP * max(1.0, abs(vec[i]))
        up = vec.copy()
        up[i] += h
        dn = vec.copy()
        dn[i] -= h
        _, gu = _loglik_and_grad(up, feats, xs, dim)
        _, gd = _loglik_and_grad(dn, feats, xs, dim)
        hess[:, i] = (gu - gd) / (2.0 * h)
    hess = (hess + hess.T) / 2.0
    info = -hess
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(cov)
    if not np.all(np.isfinite(diag)) or diag.min() <= 0:
        return None
    return np.sqrt(diag)


def mle_fit(
    sample: MrtContinuousSample,
    ordering: OrderingRule = OrderingRule(),
    include_intercept: bool = True,
) -> MleFit:
    """Maximize the mixture log-likelihood from six fixed starts.

    Runs bounded quasi-Newton ascent (L-BFGS-B, analytic gradient) from each
    point of a truth-agnostic six-point lattice and keeps the highest
    likelihood; no start depends on the data or on a seed, so the fit is a
    deterministic function of the sample. Label swapping is resolved
    afterwards by `ordering`. Standard errors come from the inverse observed
    information.

    Raises EstimationError when no start converges.
    """
    dim = sample.dim_z + (1 if include_intercept else 0)
    feats = _design_matrix(sample.z, dim)
    xs = (sample.x1, sample.x2, sample.x3)

    def objective(vec):
        ll, grad = _loglik_and_grad(vec, feats, xs, dim)
        return -ll, -grad

    bounds = [(-_COEF_BOUND, _COEF_BOUND)] * (len(_FIELDS) * dim)
    best = None
    best_f = np.inf
    any_converged = False
    for x0 in _starts(dim):
        res = optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"ftol": 1e-9, "gtol": 1e-6, "maxiter": 500},
        )
        if res.success:
            any_converged = True
        if res.fun < best_f:
            best_f = float(res.fun)
            best = res
    if not any_converged:
        raise EstimationError(
            f"no start converged in {len(_START_GRID)} attempts; best objective {best_f:.6g}"
        )
    vec = np.asarray(best.x, dtype=float)
    params = MleParams.from_vector(vec, dim)
    if _ordering_violated(params, feats, ordering):
        params = swap_labels(params)
        vec = params.as_vector()
    se_diag = _hessian_se(vec, feats, xs, dim)
    se = (
        dict(zip(_FIELDS, se_diag.reshape(len(_FIELDS), dim)))
        if se_diag is not None
        else None
    )
    return MleFit(
        params=params,
        loglik=-best_f,
        converged=bool(best.success),
        se=se,
        small_sample=sample.n < 100,
    )


def predict_share(params: MleParams, z) -> np.ndarray:
    """Point prediction Pr(X*=1|z) = g(z; rho) at the given covariate rows."""
    feats = _design_matrix(np.atleast_2d(np.asarray(z, dtype=float)), params.dim)
    return expit(feats @ params.rho)
