"""Latent-trait identification from three binary measurements (discrete covariates).

Three yes-no questions that are conditionally independent given a binary
latent trait X* identify the full latent structure: the 2x2 matrix of joint
(X1, X2=x2, X3) probabilities, multiplied by the inverse of the (X1, X3)
joint matrix, is similar to a diagonal matrix whose eigenvalues are
Pr(X2=x2 | X*=k) and whose eigenvectors are the columns of M_{X1|X*}.
Normalizing eigenvector columns to sum one, the latent class shares and the
remaining conditional response probabilities follow by linear algebra.

Provides the matrix construction, a bootstrap rank test (invertibility
precondition), the closed-form eigendecomposition estimator, the
box-constrained extreme estimator, cell aggregation, and the mapping from
conditional response probabilities to misreporting rates.

The extreme estimator needs no general-purpose optimizer. Where the closed
form already lies in its box it returns that exact fit. Elsewhere it solves
the fit over the second question's probabilities exactly (a two-variable box
least-squares problem) and profiles the first question's probabilities on a
fixed grid polished by Gauss-Newton steps.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    DomainError,
    EstimationError,
    NearDegenerateError,
)

logger = logging.getLogger(__name__)

# Eigenvalue-gap threshold below which the two latent classes cannot be told
# apart through the fixed question (the decomposition is ill-posed).
EIGEN_GAP_TOL = 1e-8
# Discriminants in [-_DISC_SNAP_TOL, 0) are treated as repeated real roots.
_DISC_SNAP_TOL = 1e-10
# Probabilities recovered outside [0,1] by at most this slack are clamped
# (with the clipped flag set); worse violations raise EstimationError.
CLIP_SLACK = 0.02
# Minimum admissible latent-class probability: below this the conditional
# response probabilities of the vanishing class are not recoverable.
MIN_CLASS_PROB = 1e-4


class Method(enum.Enum):
    CLOSED_FORM = "closed_form"
    EXTREME = "extreme"


@dataclass(frozen=True)
class OrderingRule:
    """Which measurement pins the latent-class labels, and in which direction.

    `question` is the 1-based measurement index; class 1 is the latent class
    with the higher Pr(X_question = 1 | X*) when `class1_higher` is true, the
    lower otherwise. This is study-specific metadata (the direction must be
    known a priori); it is never inferred from data.
    """

    question: int = 1
    class1_higher: bool = True

    def __post_init__(self) -> None:
        if self.question not in (1, 2, 3):
            raise DomainError(f"question must be 1, 2, or 3, got {self.question}")


@dataclass(frozen=True, eq=False)
class MrtJoint:
    """Joint response counts of the three questions within one covariate cell.

    counts[i, j, k] is the number of respondents with (X1, X2, X3) = (i, j, k).
    Counts may be nonintegral when the joint encodes exact population
    probabilities scaled by n_cell (used by round-trip oracles).
    """

    z_cell: object
    counts: np.ndarray
    n_cell: float

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape != (2, 2, 2):
            raise DomainError(f"counts must be a 2x2x2 array, got shape {counts.shape}")
        if not np.all(np.isfinite(counts)) or counts.min() < 0:
            raise DomainError("counts must be finite and nonnegative")
        if self.n_cell <= 0:
            raise DomainError(f"n_cell must be positive, got {self.n_cell}")
        if abs(counts.sum() - self.n_cell) > 1e-9 * max(1.0, self.n_cell):
            raise DomainError(f"counts sum to {counts.sum()}, expected n_cell={self.n_cell}")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_records(cls, x1, x2, x3, z_cell: object = None) -> "MrtJoint":
        x1, x2, x3 = (np.asarray(a, dtype=np.int64) for a in (x1, x2, x3))
        if not (x1.shape == x2.shape == x3.shape) or x1.ndim != 1 or x1.size == 0:
            raise DomainError("x1, x2, x3 must be equal-length nonempty 1-d arrays")
        for name, arr in (("x1", x1), ("x2", x2), ("x3", x3)):
            if not np.isin(arr, (0, 1)).all():
                raise DomainError(f"{name} must contain only 0 and 1")
        counts = np.zeros((2, 2, 2))
        np.add.at(counts, (x1, x2, x3), 1.0)
        return cls(z_cell=z_cell, counts=counts, n_cell=float(x1.size))

    @classmethod
    def from_probs(cls, probs, z_cell: object = None, n_cell: float = 1.0) -> "MrtJoint":
        """Exact population joint: counts are probabilities scaled by n_cell."""
        probs = np.asarray(probs, dtype=float)
        if abs(probs.sum() - 1.0) > 1e-9:
            raise DomainError(f"probs must sum to 1, got {probs.sum()}")
        return cls(z_cell=z_cell, counts=probs * n_cell, n_cell=n_cell)

    @property
    def probs(self) -> np.ndarray:
        return self.counts / self.n_cell


@dataclass(frozen=True, eq=False)
class MrtLatent:
    """Latent parameters of one covariate cell, used to forward-construct joints.

    pr_x_given_xstar[j, k] = Pr(X_{j+1} = 1 | X* = k), columns k = 0, 1.
    """

    pr_xstar: float
    pr_x_given_xstar: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.pr_x_given_xstar, dtype=float)
        if m.shape != (3, 2):
            raise DomainError(f"pr_x_given_xstar must be 3x2, got shape {m.shape}")
        if not 0.0 <= self.pr_xstar <= 1.0 or m.min() < 0.0 or m.max() > 1.0:
            raise DomainError("latent probabilities must lie in [0, 1]")
        m.flags.writeable = False
        object.__setattr__(self, "pr_x_given_xstar", m)

    def joint_probs(self) -> np.ndarray:
        """2x2x2 joint Pr(X1, X2, X3) under conditional independence given X*."""
        out = np.zeros((2, 2, 2))
        for k, weight in ((0, 1.0 - self.pr_xstar), (1, self.pr_xstar)):
            vecs = [np.array([1.0 - p, p]) for p in self.pr_x_given_xstar[:, k]]
            out += weight * np.einsum("i,j,k->ijk", *vecs)
        return out


@dataclass(frozen=True, eq=False)
class MrtEstimate:
    """Recovered latent structure of one covariate cell.

    pr_x_given_xstar[j, k] = estimated Pr(X_{j+1} = 1 | X* = k).
    eigen_gap is the separation of the two recovered eigenvalues
    (Pr(X2=x2_fix | X*=0) vs X*=1), the key stability diagnostic.
    """

    pr_xstar: float
    pr_x_given_xstar: np.ndarray
    method: Method
    clipped: bool
    eigen_gap: float


@dataclass(frozen=True, eq=False)
class RankTestResult:
    """Bootstrap test of H0: the (X1, X3) joint matrix has rank 1."""

    statistic: float
    p_value: float
    reject_rank1: bool
    underpowered: bool = False


@dataclass(frozen=True, eq=False)
class MrtMatrices:
    m_x1x2x3: np.ndarray  # Pr(X1=i, X2=x2_fix, X3=j)
    m_x1x3: np.ndarray  # Pr(X1=i, X3=j)
    m_x1: np.ndarray  # Pr(X1=i)


def build_matrices(joint: MrtJoint, x2_fix: int) -> MrtMatrices:
    """Relative-frequency matrices entering the decomposition."""
    if x2_fix not in (0, 1):
        raise DomainError(f"x2_fix must be 0 or 1, got {x2_fix}")
    p = joint.probs
    m_x1x2x3 = p[:, x2_fix, :]
    m_x1x3 = p.sum(axis=1)
    m_x1 = m_x1x3.sum(axis=1)
    return MrtMatrices(m_x1x2x3=m_x1x2x3, m_x1x3=m_x1x3, m_x1=m_x1)


def rank_test(joint: MrtJoint, n_boot: int = 999, seed=0) -> RankTestResult:
    """Bootstrap determinant test of rank(M_{X1,X3}) = 1 against rank 2.

    The statistic is n * det(M-hat)^2; its null distribution is simulated by
    resampling from the best rank-1 fit (the outer product of the observed
    X1 and X3 margins). Rejection requires the observed determinant to exceed
    what margin-independent noise produces. Small cells (n < 30) and
    degenerate margins cannot reject and are flagged underpowered.
    """
    if n_boot < 19:
        raise DomainError("n_boot must be at least 19")
    mats = build_matrices(joint, 1)
    m = mats.m_x1x3
    n = joint.n_cell
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    statistic = n * det * det
    marg1 = m.sum(axis=1)
    marg3 = m.sum(axis=0)
    underpowered = n < 30
    if min(marg1.min(), marg3.min()) <= 0.0:
        return RankTestResult(
            statistic=statistic, p_value=1.0, reject_rank1=False, underpowered=True
        )
    null_probs = np.outer(marg1, marg3).ravel()
    rng = np.random.default_rng(seed)
    n_draw = int(round(n))
    boot = rng.multinomial(n_draw, null_probs, size=n_boot) / n_draw
    boot_det = boot[:, 0] * boot[:, 3] - boot[:, 1] * boot[:, 2]
    boot_stat = n_draw * boot_det * boot_det
    p_value = (1.0 + int((boot_stat >= statistic).sum())) / (n_boot + 1.0)
    return RankTestResult(
        statistic=statistic,
        p_value=float(p_value),
        reject_rank1=bool(p_value < 0.05) and not underpowered,
        underpowered=underpowered,
    )


def _transfer_matrix(mats: MrtMatrices) -> np.ndarray:
    """A = M_{X1,x2,X3} @ inverse(M_{X1,X3}); similar to diag of eigenvalues."""
    m = mats.m_x1x3
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-12:
        raise DecompositionError(
            "the (X1, X3) joint matrix is singular; run rank_test — a rank-1 "
            "joint cannot be decomposed"
        )
    inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    return mats.m_x1x2x3 @ inv


def _eigen_2x2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic eigendecomposition of a real 2x2 matrix with real spectrum.

    Returns (eigenvalues, column eigenvectors), unordered and unnormalized.
    """
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = tr * tr - 4.0 * det
    if disc < -_DISC_SNAP_TOL:
        raise DecompositionError(
            f"complex eigenvalues (discriminant {disc:.3e}): the joint "
            "distribution is inconsistent with conditional independence given "
            "a binary trait; consider the extreme estimator"
        )
    root = math.sqrt(max(disc, 0.0))
    lams = np.array([(tr - root) / 2.0, (tr + root) / 2.0])
    vecs = np.empty((2, 2))
    for i, lam in enumerate(lams):
        v1 = np.array([a[0, 1], lam - a[0, 0]])
        v2 = np.array([lam - a[1, 1], a[1, 0]])
        v = v1 if np.abs(v1).sum() >= np.abs(v2).sum() else v2
        if np.abs(v).sum() < 1e-14:
            # Diagonal matrix: coordinate eigenvectors.
            v = np.array([1.0, 0.0]) if abs(lam - a[0, 0]) <= abs(lam - a[1, 1]) else np.array([0.0, 1.0])
        vecs[:, i] = v
    return lams, vecs


def _pr_question(q: int, m1: np.ndarray, lams: np.ndarray, m3: np.ndarray, x2_fix: int):
    """Pr(X_q = 1 | X* = k) for k = 0, 1 from the decomposition pieces."""
    if q == 1:
        return m1[1, :]
    if q == 2:
        return lams if x2_fix == 1 else 1.0 - lams
    return m3[1, :]


def _finish(
    m1: np.ndarray,
    lams: np.ndarray,
    mats: MrtMatrices,
    x2_fix: int,
    ordering: OrderingRule,
    method: Method,
) -> MrtEstimate:
    """Shared tail of both estimators: class shares, third-question matrix,
    label ordering, and range handling (beyond CLIP_SLACK the closed form
    raises; the extreme estimator always clamps)."""
    det = m1[0, 0] * m1[1, 1] - m1[0, 1] * m1[1, 0]
    if abs(det) < 1e-12:
        raise DecompositionError("recovered M_{X1|X*} is singular; classes indistinguishable")
    m1_inv = np.array([[m1[1, 1], -m1[0, 1]], [-m1[1, 0], m1[0, 0]]]) / det
    pi = m1_inv @ mats.m_x1
    if pi.min() < MIN_CLASS_PROB:
        raise EstimationError(
            f"a latent-class probability ({pi.min():.2e}) is below {MIN_CLASS_PROB}; "
            "the vanishing class's response probabilities are not recoverable"
        )
    # M_{X1,X3} = M1 diag(pi) M3' => M3 = (M1^-1 M_{X1,X3})' diag(1/pi)
    m3 = (m1_inv @ mats.m_x1x3).T / pi[None, :]

    # Label ordering per the configured rule.
    probe = _pr_question(ordering.question, m1, lams, m3, x2_fix)
    want_swap = (probe[1] < probe[0]) if ordering.class1_higher else (probe[1] > probe[0])
    if want_swap:
        m1 = m1[:, ::-1]
        m3 = m3[:, ::-1]
        lams = lams[::-1]
        pi = pi[::-1]

    p2 = lams if x2_fix == 1 else 1.0 - lams
    values = np.stack([m1[1, :], p2, m3[1, :]])  # 3x2: Pr(X_j=1|X*=k)
    all_probs = np.concatenate([values.ravel(), pi])
    outside = float(np.maximum(all_probs - 1.0, 0.0).max() - np.minimum(all_probs, 0.0).min())
    clipped = False
    if outside > 0.0:
        if method is Method.CLOSED_FORM and outside > CLIP_SLACK:
            raise EstimationError(
                f"recovered probabilities leave [0,1] by {outside:.3g} "
                f"(> slack {CLIP_SLACK}); use the extreme estimator"
            )
        clipped = True
        values = np.clip(values, 0.0, 1.0)
        pi = np.clip(pi, 0.0, 1.0)
    return MrtEstimate(
        pr_xstar=float(pi[1]),
        pr_x_given_xstar=values,
        method=method,
        clipped=clipped,
        eigen_gap=float(abs(lams[1] - lams[0])),
    )


def _closed_form_pieces(a: np.ndarray, x2_fix: int) -> tuple[np.ndarray, np.ndarray]:
    """M_{X1|X*} (column-sum-normalized eigenvectors of A) and the eigenvalues."""
    lams, vecs = _eigen_2x2(a)
    gap = float(abs(lams[1] - lams[0]))
    # The discriminant carries absolute rounding error of order eps*scale^2,
    # so gaps below ~8*sqrt(eps)*scale cannot be distinguished from zero; an
    # exactly degenerate pair can surface as a spurious gap slightly above
    # EIGEN_GAP_TOL. Extend the near-degenerate region up to the noise floor.
    scale = max(1.0, abs(lams[0]) + abs(lams[1]))
    noise_floor = 8.0 * math.sqrt(np.finfo(float).eps) * scale
    if gap < max(EIGEN_GAP_TOL, noise_floor):
        raise NearDegenerateError(
            f"eigenvalue gap {gap:.2e} is below the resolvable threshold "
            f"{max(EIGEN_GAP_TOL, noise_floor):.2e}: question 2 does not "
            f"separate the latent classes at x2_fix={x2_fix}"
        )
    sums = vecs.sum(axis=0)
    if np.abs(sums).min() < 1e-12:
        raise DecompositionError("an eigenvector has zero column sum; cannot normalize")
    return vecs / sums[None, :], lams


def decompose_closed_form(
    joint: MrtJoint, x2_fix: int, ordering: OrderingRule = OrderingRule()
) -> MrtEstimate:
    """Global, optimization-free recovery of the latent structure.

    Eigendecomposes A = M_{X1,x2,X3} M_{X1,X3}^{-1} analytically; eigenvalues
    are Pr(X2=x2_fix | X*=k) and column-sum-normalized eigenvectors form
    M_{X1|X*}. Finite samples can push recovered probabilities slightly
    outside [0,1]; within CLIP_SLACK they are clamped (clipped=true), beyond
    it an EstimationError directs the caller to decompose_extreme.

    Raises DecompositionError for complex eigenvalues, NearDegenerateError
    when the eigenvalue gap is below EIGEN_GAP_TOL (the fixed question does
    not separate the classes), EstimationError for unrecoverable ranges.
    """
    mats = build_matrices(joint, x2_fix)
    m1, lams = _closed_form_pieces(_transfer_matrix(mats), x2_fix)
    return _finish(m1, lams, mats, x2_fix, ordering, Method.CLOSED_FORM)


# The extreme estimator keeps |p10 - p11| and |p20 - p21| at least this far
# apart: M stays invertible and the two classes stay distinct.
MIN_SEPARATION = 1e-6


def _projector(p10, p11) -> np.ndarray:
    """P1 = M e2 e2' M^{-1}, so that M diag(p20, p21) M^{-1} = p20 I + (p21 - p20) P1.

    M = [[1-p10, 1-p11], [p10, p11]]; broadcasts over arrays of (p10, p11)
    and returns shape (..., 2, 2).
    """
    p10, p11 = np.asarray(p10, dtype=float), np.asarray(p11, dtype=float)
    u = np.stack([1.0 - p11, p11], axis=-1)
    v = np.stack([-p10, 1.0 - p10], axis=-1)
    return u[..., :, None] * v[..., None, :] / (p11 - p10)[..., None, None]


def _extreme_objective(a: np.ndarray, p10, p11, p20, p21) -> np.ndarray:
    """||A - M diag(p20, p21) M^{-1}||_F^2, broadcast over parameter arrays.

    Evaluated as A - p20 I - (p21 - p20) P1, which stays accurate near the
    separation floor; expanding M diag(p20, p21) M^{-1} entrywise divides a
    difference of nearly equal products by p11 - p10 there.
    """
    p20 = np.asarray(p20, dtype=float)[..., None, None]
    p21 = np.asarray(p21, dtype=float)[..., None, None]
    r = a - p20 * np.eye(2) - (p21 - p20) * _projector(p10, p11)
    return (r * r).sum(axis=(-2, -1))


def _separate(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move hi up by one ulp (lo down where hi is 1) wherever rounding left
    hi - lo just below MIN_SEPARATION."""
    short = hi - lo < MIN_SEPARATION
    at_top = hi >= 1.0
    return (
        np.where(short & at_top, np.nextafter(lo, -np.inf), lo),
        np.where(short & ~at_top, np.nextafter(hi, np.inf), hi),
    )


# Boundary of the inner feasible set {0 <= p20, p21 <= 1, |p21 - p20| >=
# MIN_SEPARATION} in (s, w) = (p20, p21 - p20): six segments, each a start
# (s0, w0) and a direction (ds, dw) traversed for tau in [0, 1].
_SEP = MIN_SEPARATION
_SEGMENTS = np.array(
    [
        [0.0, _SEP, 0.0, 1.0 - _SEP],  # p20 = 0
        [1.0, -_SEP, 0.0, _SEP - 1.0],  # p20 = 1
        [_SEP, -_SEP, 1.0 - _SEP, _SEP - 1.0],  # p21 = 0
        [0.0, 1.0, 1.0 - _SEP, _SEP - 1.0],  # p21 = 1
        [0.0, _SEP, 1.0 - _SEP, 0.0],  # p21 - p20 = MIN_SEPARATION
        [_SEP, -_SEP, 1.0 - _SEP, 0.0],  # p20 - p21 = MIN_SEPARATION
    ]
).T[:, :, None]


def _inner_fit(a: np.ndarray, p10: np.ndarray, p11: np.ndarray):
    """Exact minimum over (p20, p21) of the extreme objective at each (p10, p11).

    For fixed (p10, p11) the fit p20 I + w P1 is linear in (s, w) = (p20,
    p21 - p20), so the objective is a convex quadratic and the feasible set is
    two triangles. The minimum is the solution of the 2x2 normal equations
    when that is feasible, else the best clipped minimum along the six
    boundary segments. Returns (objective, p20, p21, free), where free holds
    the (s, w) directions the minimum may move along without leaving its face
    (shape (N, 2, 2), zero rows where a constraint binds).
    """
    proj = _projector(p10, p11)
    pp = (proj * proj).sum(axis=(-2, -1))
    tr_a = a[0, 0] + a[1, 1]
    ap = (a * proj).sum(axis=(-2, -1))
    # Normal equations in (s, w): <I,I> = 2, <I,P1> = tr P1 = 1, <P1,P1> = pp.
    det = 2.0 * pp - 1.0
    s_int = (tr_a * pp - ap) / det
    w_int = (2.0 * ap - tr_a) / det
    s0, w0, ds, dw = _SEGMENTS
    num = ds * tr_a + dw * ap - (2.0 * s0 * ds + s0 * dw + w0 * ds + w0 * dw * pp)
    tau = np.clip(num / (2.0 * ds * ds + 2.0 * ds * dw + dw * dw * pp), 0.0, 1.0)
    s = np.clip(np.concatenate([s_int[None], s0 + tau * ds]), 0.0, 1.0)
    t = np.clip(np.concatenate([(s_int + w_int)[None], s0 + w0 + tau * (ds + dw)]), 0.0, 1.0)
    up = t >= s
    lo, hi = _separate(np.where(up, s, t), np.where(up, t, s))
    s, t = np.where(up, lo, hi), np.where(up, hi, lo)
    f = _extreme_objective(a, p10, p11, s, t)
    interior_ok = (
        (s_int >= 0.0) & (s_int <= 1.0) & (s_int + w_int >= 0.0)
        & (s_int + w_int <= 1.0) & (np.abs(w_int) >= MIN_SEPARATION)
    )
    f[0] = np.where(interior_ok, f[0], np.inf)
    best = f.argmin(axis=0)
    idx = np.arange(f.shape[1])
    free = np.zeros((idx.size, 2, 2))
    free[best == 0] = np.eye(2)
    seg = np.maximum(best - 1, 0)
    moving = (best > 0) & (tau[seg, idx] > 0.0) & (tau[seg, idx] < 1.0)
    free[moving, 0, 0] = ds[seg[moving], 0]
    free[moving, 0, 1] = dw[seg[moving], 0]
    return f[best, idx], s[best, idx], t[best, idx], free


def _outer_points(p10: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p10, p11) for outer coordinates (p10, d = p11 - p10), projected onto
    0 <= p10, p11 <= 1, p11 - p10 >= MIN_SEPARATION."""
    d = np.clip(d, MIN_SEPARATION, 1.0)
    p10 = np.clip(p10, 0.0, 1.0 - d)
    return _separate(p10, np.minimum(p10 + d, 1.0))


# Profile grid: every pair p10 < p11 of a 101-point lattice on [0, 1].
_GRID_P10, _GRID_P11 = np.linspace(0.0, 1.0, 101)[np.array(np.triu_indices(101, 1))]
# Backtracking lengths and the tangents of the three outer faces (d at the
# floor, p10 = 0, p11 = 1) in (p10, d) coordinates.
_STEP_LENGTHS = 2.0 ** -np.arange(40.0)
_FACE_TANGENTS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
_POLISH_ITERATIONS = 60


def _gauss_newton_steps(a, p10, p11, p20, p21, free) -> np.ndarray:
    """Variable-projection Gauss-Newton steps in (p10, d) for one point: the
    full step and one restricted to each outer face's tangent."""
    d = p11 - p10
    w = p21 - p20
    proj = _projector(p10, p11)
    u = np.array([1.0 - p11, p11])
    v = np.array([-p10, 1.0 - p10])
    d_p11 = (np.outer([-1.0, 1.0], v) - proj) / d
    d_p10 = (np.outer(u, [-1.0, -1.0]) + proj) / d
    # Columns: the fit's derivative in p10 at fixed d, and in d at fixed p10,
    # with the inner coefficients held; the part the free inner directions can
    # absorb is projected out (Kaufman's variable-projection Jacobian).
    jac = -w * np.stack([(d_p10 + d_p11).ravel(), d_p11.ravel()], axis=1)
    basis = np.stack([(fs * np.eye(2) + fw * proj).ravel() for fs, fw in free], axis=1)
    jac = jac - basis @ np.linalg.lstsq(basis, jac, rcond=None)[0]
    resid = (a - p20 * np.eye(2) - w * proj).ravel()
    scale = np.linalg.norm(jac, axis=0)
    scale[scale == 0.0] = 1.0
    steps = [np.linalg.lstsq(jac / scale, -resid, rcond=None)[0] / scale]
    for tangent in _FACE_TANGENTS:
        jt = jac @ tangent
        if jt @ jt > 0.0:
            steps.append(-tangent * (jt @ resid) / (jt @ jt))
    return np.array(steps)


def _extreme_profile(a: np.ndarray) -> np.ndarray:
    """Minimizer (p10, p11, p20, p21), p10 < p11, of the extreme objective.

    The label swap maps (p10, p11, p20, p21) to (p11, p10, p21, p20) with the
    same fit, so only p10 < p11 is searched. The inner problem over (p20, p21)
    is solved exactly (`_inner_fit`); the profile over (p10, p11) is scanned
    on a fixed grid, and its best point is polished by projected Gauss-Newton steps with backtracking, each accepted
    only if it lowers the objective. Deterministic.
    """
    f, p20, p21, free = _inner_fit(a, _GRID_P10, _GRID_P11)
    j = int(f.argmin())
    x = np.array([_GRID_P10[j], _GRID_P11[j], p20[j], p21[j]])
    best, free = f[j], free[j]
    for _ in range(_POLISH_ITERATIONS):
        steps = _gauss_newton_steps(a, *x, free)
        trial = (steps[:, None, :] * _STEP_LENGTHS[:, None]).reshape(-1, 2)
        c10, c11 = _outer_points(x[0] + trial[:, 0], x[1] - x[0] + trial[:, 1])
        cf, c20, c21, cfree = _inner_fit(a, c10, c11)
        k = int(cf.argmin())
        if not cf[k] < best:
            break
        x = np.array([c10[k], c11[k], c20[k], c21[k]])
        best, free = cf[k], cfree[k]
    return x


def _extreme_fit(a: np.ndarray, x2_fix: int) -> tuple[np.ndarray, np.ndarray]:
    """(M_{X1|X*}, (p20, p21)) minimizing the extreme objective for A."""
    try:
        m1, lams = _closed_form_pieces(a, x2_fix)
    except DecompositionError:
        pass
    else:
        x = np.array([m1[1, 0], m1[1, 1], lams[0], lams[1]])
        in_box = bool(np.all((x >= 0.0) & (x <= 1.0)))
        if in_box and min(abs(x[1] - x[0]), abs(x[3] - x[2])) >= MIN_SEPARATION:
            return m1, lams
    p10, p11, p20, p21 = _extreme_profile(a)
    return np.array([[1.0 - p10, 1.0 - p11], [p10, p11]]), np.array([p20, p21])


def decompose_extreme(
    joint: MrtJoint, x2_fix: int, ordering: OrderingRule = OrderingRule()
) -> MrtEstimate:
    """Box-constrained Frobenius-norm fit of the decomposition.

    Minimizes ||A - M diag(p20, p21) M^{-1}||_F^2 over
    (p10, p11, p20, p21) in [0,1]^4 (M's columns are the Bernoulli vectors of
    p10, p11), with |p10-p11| and |p20-p21| at least MIN_SEPARATION.
    When the closed-form eigendecomposition lies in that set the objective is
    exactly zero there, and that point (unique up to the label swap) is
    returned without a search. Otherwise `_extreme_profile` solves the inner
    fit over (p20, p21) exactly and profiles (p10, p11) on a fixed grid
    polished by Gauss-Newton. Downstream class shares and third-question
    probabilities are clamped into [0,1] with clipped=true if needed, so every
    output lies in [0,1].
    """
    mats = build_matrices(joint, x2_fix)
    m1, lams = _extreme_fit(_transfer_matrix(mats), x2_fix)
    return _finish(m1, lams, mats, x2_fix, ordering, Method.EXTREME)


def aggregate_unconditional(estimates) -> float:
    """Overall Pr(X* = 1): cell-weighted average of conditional shares."""
    if not estimates:
        raise DomainError("estimates must be nonempty")
    weights = np.array([w for _, w in estimates], dtype=float)
    if abs(weights.sum() - 1.0) > 1e-12 * max(1, len(estimates)):
        raise DomainError(f"cell weights must sum to 1, got {weights.sum()!r}")
    return float(sum(w * est.pr_xstar for est, w in estimates))


def misreport_rates(
    estimate: MrtEstimate, direct_question_index: int, affirmative_is_truth_for: int
) -> dict[str, float]:
    """Misreporting rates of the direct question implied by the estimate.

    q1 is the misreporting rate of trait carriers (X*=1), q0 of non-carriers.
    `affirmative_is_truth_for` names the latent class for which answering 1
    is truthful: 1 when the question affirms the trait directly, 0 when it is
    reverse-coded (answering 1 denies the trait).
    """
    if direct_question_index not in (1, 2, 3):
        raise DomainError(f"direct_question_index must be 1..3, got {direct_question_index}")
    if affirmative_is_truth_for not in (0, 1):
        raise DomainError(f"affirmative_is_truth_for must be 0 or 1, got {affirmative_is_truth_for}")
    r = estimate.pr_x_given_xstar[direct_question_index - 1, :]
    if affirmative_is_truth_for == 1:
        return {"q1": float(1.0 - r[1]), "q0": float(r[0])}
    return {"q1": float(r[1]), "q0": float(1.0 - r[0])}
