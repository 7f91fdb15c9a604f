"""List-experiment forward model, analytic identities, closed-form solver, and simulator.

A list experiment shows the control group J nonsensitive yes-no items and the
treatment group the same J items plus one sensitive item; only the count of
"yes" answers is reported. The model couples the two observed count
distributions through the sensitive-trait share delta and group-wise
misreporting rates: a respondent in group t answers truthfully with
probability 1-p_t and otherwise replaces the count with a uniform draw over
the group's full response support (the draw may land on the truth). The
strategic variant instead lets only trait carriers whose truthful treatment
count would be J+1 misreport, with probability p, by reporting J.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

logger = logging.getLogger(__name__)

# Absolute tolerance separating algebraic degeneracy from float noise in the
# closed-form solver.
DEGENERACY_TOL = 1e-6

_PROB_SLACK = 1e-9  # forgiveness for float drift when validating probabilities


class Spec(enum.Enum):
    """Misreporting specification for a list experiment."""

    UNRESTRICTED = "unrestricted"  # p0 and p1 free
    EQUAL_P = "equal_p"  # p0 = p1
    NO_MISREPORT = "no_misreport"  # p0 = p1 = 0
    STRATEGIC = "strategic"  # only trait carriers at the top count misreport


@dataclass(frozen=True)
class LeParams:
    """Parameter triple of a list experiment plus its misreporting specification.

    delta is the population share answering the sensitive item affirmatively
    under true preference; p0/p1 are the uniform-misreporting rates in the
    control/treatment group; p is the strategic misreporting rate (used only
    when spec is STRATEGIC, in which case p0 and p1 are ignored and must be 0).
    """

    delta: float
    p0: float = 0.0
    p1: float = 0.0
    spec: Spec = Spec.UNRESTRICTED
    p: float = 0.0  # strategic-misreporting probability

    def __post_init__(self) -> None:
        if not np.isfinite(self.delta) or not 0.0 <= self.delta <= 1.0:
            raise DomainError(f"delta={self.delta!r} must lie in [0, 1]")
        for name in ("p0", "p1", "p"):
            v = getattr(self, name)
            if not np.isfinite(v) or not 0.0 <= v < 1.0:
                raise DomainError(f"{name}={v!r} must lie in [0, 1)")
        if self.spec is Spec.EQUAL_P and self.p0 != self.p1:
            raise DomainError("equal_p spec requires p0 == p1")
        if self.spec is Spec.NO_MISREPORT and (self.p0 != 0.0 or self.p1 != 0.0):
            raise DomainError("no_misreport spec requires p0 == p1 == 0")
        if self.spec is Spec.STRATEGIC and (self.p0 != 0.0 or self.p1 != 0.0):
            raise DomainError("strategic spec uses p; set p0 = p1 = 0")

    @classmethod
    def unrestricted(cls, delta: float, p0: float, p1: float) -> "LeParams":
        return cls(delta=delta, p0=p0, p1=p1, spec=Spec.UNRESTRICTED)

    @classmethod
    def equal_p(cls, delta: float, p: float) -> "LeParams":
        return cls(delta=delta, p0=p, p1=p, spec=Spec.EQUAL_P)

    @classmethod
    def no_misreport(cls, delta: float) -> "LeParams":
        return cls(delta=delta, spec=Spec.NO_MISREPORT)

    @classmethod
    def strategic(cls, delta: float, p: float) -> "LeParams":
        return cls(delta=delta, spec=Spec.STRATEGIC, p=p)


def _validated_probs(probs, expected_len: int, what: str) -> np.ndarray:
    arr = np.asarray(probs, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != expected_len:
        raise DomainError(f"{what} must be a length-{expected_len} vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} contains non-finite entries")
    if arr.min() < -_PROB_SLACK or arr.max() > 1.0 + _PROB_SLACK:
        raise DomainError(f"{what} has entries outside [0, 1]: min={arr.min()}, max={arr.max()}")
    if abs(arr.sum() - 1.0) > 1e-12 * expected_len:
        raise DomainError(f"{what} must sum to 1, got {arr.sum()!r}")
    arr = np.where(arr < 0.0, 0.0, arr)  # drop float-noise negatives within slack
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ControlDistribution:
    """Observed response distribution of the control group: Pr(Y0 = 0..J)."""

    j_count: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.j_count < 1:
            raise DomainError(f"j_count must be >= 1, got {self.j_count}")
        object.__setattr__(
            self, "probs", _validated_probs(self.probs, self.j_count + 1, "control probs")
        )

    @property
    def mean(self) -> float:
        return float(self.probs @ np.arange(self.j_count + 1))


@dataclass(frozen=True, eq=False)
class TreatmentDistribution:
    """Observed response distribution of the treatment group: Pr(Y1 = 0..J+1)."""

    j_count: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.j_count < 1:
            raise DomainError(f"j_count must be >= 1, got {self.j_count}")
        object.__setattr__(
            self, "probs", _validated_probs(self.probs, self.j_count + 2, "treatment probs")
        )

    @property
    def mean(self) -> float:
        return float(self.probs @ np.arange(self.j_count + 2))


@dataclass(frozen=True, eq=False)
class LeSample:
    """Observed list-experiment records in column layout.

    y[i] is the reported count, t[i] the group indicator (0 control,
    1 treatment), and x_direct an optional direct-question response for
    control rows (-1 marks "not asked", which is every treatment row).
    """

    j_count: int
    y: np.ndarray
    t: np.ndarray
    x_direct: np.ndarray | None = None

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.int64)
        t = np.asarray(self.t, dtype=np.int64)
        if y.ndim != 1 or t.ndim != 1 or y.shape != t.shape:
            raise DomainError("y and t must be 1-d arrays of equal length")
        if y.size < 2:
            raise DomainError("a sample needs at least two records")
        if not np.isin(t, (0, 1)).all():
            raise DomainError("t must contain only 0 and 1")
        if (t == 0).sum() == 0 or (t == 1).sum() == 0:
            raise DomainError("both groups must be nonempty")
        if y.min() < 0 or (y > self.j_count + t).any():
            bad = int(np.flatnonzero((y < 0) | (y > self.j_count + t))[0])
            raise DomainError(
                f"record {bad}: y={y[bad]} outside [0, {self.j_count + t[bad]}] for t={t[bad]}"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        if self.x_direct is not None:
            x = np.asarray(self.x_direct, dtype=np.int64)
            if x.shape != y.shape:
                raise DomainError("x_direct must have one entry per record")
            if not np.isin(x[t == 0], (0, 1)).all():
                raise DomainError("x_direct must be 0/1 on control rows")
            object.__setattr__(self, "x_direct", x)

    @property
    def n(self) -> int:
        return int(self.y.size)


def _forward_probs(
    p0v: np.ndarray, j: int, spec: Spec, delta: float, p0: float, p1: float, p: float
) -> np.ndarray:
    """The forward model on raw scalars: implied Pr(Y1 = 0..J+1) from Pr(Y0 = 0..J).

    le_forward, the GMM moments and the GMM objective all evaluate the model
    here; p is read under the strategic spec only, p0 and p1 under the others.
    """
    d = delta
    if spec is Spec.STRATEGIC:
        out = np.empty(j + 2)
        out[0] = (1.0 - d) * p0v[0]
        out[1:j] = (1.0 - d) * p0v[1:j] + d * p0v[: j - 1]
        out[j] = (1.0 - d) * p0v[j] + d * p0v[j - 1] + d * p * p0v[j]
        out[j + 1] = d * (1.0 - p) * p0v[j]
        return out

    kappa = (1.0 - p1) / (1.0 - p0)
    floor = p0 / (j + 1)
    inner = np.empty(j + 2)
    inner[0] = (1.0 - d) * (p0v[0] - floor)
    inner[1 : j + 1] = d * p0v[:j] + (1.0 - d) * p0v[1:] - floor
    inner[j + 1] = d * (p0v[j] - floor)
    return kappa * inner + p1 / (j + 2)


def _forward_jacobian(
    p0v: np.ndarray, j: int, spec: Spec, delta: float, p0: float, p1: float, p: float
) -> np.ndarray:
    """Jacobian of _forward_probs: a (J+2, 4) matrix, columns d/d(delta, p0, p1, p).

    The p column is zero under the uniform-misreporting specs and the p0, p1
    columns are zero under the strategic spec.
    """
    d = delta
    jac = np.zeros((j + 2, 4))
    if spec is Spec.STRATEGIC:
        jac[0, 0] = -p0v[0]
        jac[1:j, 0] = p0v[: j - 1] - p0v[1:j]
        jac[j, 0] = p0v[j - 1] - (1.0 - p) * p0v[j]
        jac[j + 1, 0] = (1.0 - p) * p0v[j]
        jac[j, 3] = d * p0v[j]
        jac[j + 1, 3] = -d * p0v[j]
        return jac

    # Uniform specs: the model is kappa * inner + p1/(J+2), with kappa =
    # (1-p1)/(1-p0) and inner affine in delta and in floor = p0/(J+1).
    kappa = (1.0 - p1) / (1.0 - p0)
    floor = p0 / (j + 1)
    scaled = _forward_probs(p0v, j, spec, d, p0, p1, p) - p1 / (j + 2)  # kappa * inner
    jac[0, 0] = floor - p0v[0]
    jac[1 : j + 1, 0] = p0v[:j] - p0v[1:]
    jac[j + 1, 0] = p0v[j] - floor
    jac[:, 0] *= kappa
    floor_coef = np.ones(j + 2)  # minus d(inner)/d(floor)
    floor_coef[0], floor_coef[j + 1] = 1.0 - d, d
    jac[:, 1] = scaled / (1.0 - p0) - kappa * floor_coef / (j + 1)
    jac[:, 2] = 1.0 / (j + 2) - scaled / (1.0 - p1)
    return jac


def le_forward(params: LeParams, control: ControlDistribution) -> TreatmentDistribution:
    """Map the control response distribution to the implied treatment distribution.

    Under the uniform-misreporting specs, with kappa = (1-p1)/(1-p0):

        P1(0)   = kappa * ((1-delta) P0(0) - (1-delta) p0/(J+1)) + p1/(J+2)
        P1(j)   = kappa * (delta P0(j-1) + (1-delta) P0(j) - p0/(J+1)) + p1/(J+2)
        P1(J+1) = kappa * (delta P0(J) - delta p0/(J+1)) + p1/(J+2)

    Under the strategic spec the control group reports truthfully and only
    trait carriers with truthful count J+1 misreport (probability p, report J).

    Raises DomainError if the implied vector is not a probability
    distribution, which happens when `control` is not attainable as an
    observed distribution under misreporting rate p0 (some mass below the
    uniform floor p0/(J+1)).
    """
    return TreatmentDistribution(
        j_count=control.j_count,
        probs=_forward_probs(
            control.probs, control.j_count, params.spec, params.delta, params.p0, params.p1, params.p
        ),
    )


def mean_difference_analytic(params: LeParams, control: ControlDistribution) -> float:
    """Expected treatment-minus-control mean response, in closed form.

        E(Y1) - E(Y0) = delta (1-p1) + (p0-p1)/(1-p0) E(Y0)
                        - J (1-p1) p0 / (2 (1-p0)) + (J+1) p1 / 2

    With p0 = p1 = p this collapses to delta + p (1 - 2 delta) / 2, and with
    no misreporting to delta alone. Not defined for the strategic spec.
    """
    if params.spec is Spec.STRATEGIC:
        raise DomainError("mean_difference_analytic applies to uniform-misreporting specs only")
    d, p0, p1 = params.delta, params.p0, params.p1
    j = control.j_count
    ey0 = control.mean
    return (
        d * (1.0 - p1)
        + (p0 - p1) / (1.0 - p0) * ey0
        - j * (1.0 - p1) * p0 / (2.0 * (1.0 - p0))
        + (j + 1) * p1 / 2.0
    )


@dataclass(frozen=True)
class Unidentified:
    """Returned by solve_le_closed_form when the parameters cannot be pinned down."""

    reason: str


def solve_le_closed_form(
    control: ControlDistribution,
    treatment: TreatmentDistribution,
    tol: float = DEGENERACY_TOL,
) -> LeParams | Unidentified:
    """Recover (delta, p0, p1) from a J=3 pair of observed distributions.

    Consecutive differences of the interior restrictions are linear in delta,
    so their ratio identifies it; the outer restrictions then identify p0
    (needs delta != 1/2), and any sufficiently separated restriction
    identifies p1. Returns Unidentified when a pivotal denominator or
    |1 - 2 delta| falls below `tol`, or when the algebraic solution lies
    outside the parameter cube (data inconsistent with the model).
    """
    if control.j_count != 3 or treatment.j_count != 3:
        raise DomainError("closed-form solver requires j_count == 3")
    q0 = control.probs
    q1 = treatment.probs

    big_a = q1[3] - q1[2]
    big_b = q1[2] - q1[1]
    a = q0[2] - q0[1]
    b = 2.0 * q0[1] - q0[2] - q0[0]
    c = q0[3] - q0[2]
    d_ = 2.0 * q0[2] - q0[3] - q0[1]

    if abs(big_b) < tol:
        return Unidentified("consecutive treatment difference P1(2)-P1(1) vanishes")
    den_delta = big_a * b - big_b * d_
    # Scale against every cross product feeding the ratio: when all of them
    # vanish (e.g. a control distribution linear in the count) the ratio
    # carries no information about delta at all.
    scale = max(abs(big_a * b), abs(big_b * d_), abs(big_b * c), abs(big_a * a))
    if scale < 1e-12 or abs(den_delta) < tol * scale:
        return Unidentified("delta denominator vanishes")
    delta = (big_b * c - big_a * a) / den_delta

    if abs(1.0 - 2.0 * delta) < tol:
        return Unidentified("delta = 1/2, p0 not identified")

    # (P1(4)-P1(0)) / (P1(2)-P1(1)) isolates p0 once delta is known; a + delta*b
    # is the delta-linear form of the shared denominator.
    lhs = (q1[4] - q1[0]) / big_b * (a + delta * b)
    p0 = 4.0 * (lhs - delta * q0[3] + (1.0 - delta) * q0[0]) / (1.0 - 2.0 * delta)

    if abs(1.0 - p0) < tol:
        return Unidentified("p0 = 1, treatment map degenerate")

    # Pick the restriction whose p1 coefficient is largest in magnitude.
    floor = p0 / 4.0
    g = np.empty(5)
    g[0] = (1.0 - delta) * (q0[0] - floor)
    g[1:4] = delta * q0[0:3] + (1.0 - delta) * q0[1:4] - floor
    g[4] = delta * (q0[3] - floor)
    g /= 1.0 - p0
    coef = 1.0 / 5.0 - g
    k = int(np.argmax(np.abs(coef)))
    if abs(coef[k]) < tol:
        return Unidentified("every restriction is uninformative about p1")
    p1 = (q1[k] - g[k]) / coef[k]

    sol = np.array([delta, p0, p1])
    snapped = np.clip(sol, 0.0, np.nextafter(1.0, 0.0))
    if np.max(np.abs(snapped - sol)) > _PROB_SLACK:
        return Unidentified(
            f"solution (delta={delta:.6g}, p0={p0:.6g}, p1={p1:.6g}) outside the parameter space"
        )
    return LeParams.unrestricted(*snapped)


def simulate_le(
    params: LeParams,
    control: ControlDistribution,
    n: int,
    group_share: float,
    seed,
) -> LeSample:
    """Draw an i.i.d. list-experiment sample of size n.

    `control` is the distribution of truthful answers to the nonsensitive
    items, shared by both groups; `group_share` is the treatment-assignment
    probability. Draw order is fixed (group, truthful counts, trait, misreport
    flags, replacement values), so a given seed always yields the same sample.

    Args:
      params: data-generating parameters, any spec.
      control: truthful nonsensitive-count distribution (support 0..J).
      n: number of respondents, >= 2.
      group_share: Pr(t = 1), strictly inside (0, 1).
      seed: anything numpy.random.default_rng accepts.
    """
    sample, _, _ = _draw_le(params, control, n, group_share, seed)
    return sample


def _draw_le(params, control, n, group_share, seed):
    """simulate_le's draws; also returns the latent traits x* and the
    generator, positioned just past the sample's last draw."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if not 0.0 < group_share < 1.0:
        raise DomainError("group_share must lie strictly inside (0, 1)")
    j = control.j_count
    rng = np.random.default_rng(seed)

    t = (rng.random(n) < group_share).astype(np.int64)
    r = rng.choice(j + 1, size=n, p=control.probs)
    xstar = (rng.random(n) < params.delta).astype(np.int64)
    y = r + np.where(t == 1, xstar, 0)

    if params.spec is Spec.STRATEGIC:
        hide = (t == 1) & (xstar == 1) & (r == j) & (rng.random(n) < params.p)
        y = np.where(hide, j, y)
    else:
        p_t = np.where(t == 1, params.p1, params.p0)
        mis = rng.random(n) < p_t
        # Replacement draw covers the group's full support {0..J+t}, truth included.
        u = rng.random(n)
        repl = np.floor(u * (j + 1 + t)).astype(np.int64)
        y = np.where(mis, repl, y)
    return LeSample(j_count=j, y=y, t=t), xstar, rng


def simulate_modified_le(
    params: LeParams,
    control: ControlDistribution,
    n: int,
    group_share: float,
    seed,
    q1: float = 0.0,
    q0: float = 0.0,
) -> LeSample:
    """Like simulate_le, but control respondents also answer a direct question.

    Each control respondent's latent trait is drawn from the same delta as the
    treatment group; the direct answer misstates it with probability q1 for
    trait carriers (who deny) and q0 for non-carriers (who affirm). The
    resulting sample carries x_direct (-1 on treatment rows). The list
    answers are simulate_le's for the same seed; the direct-question draws
    continue its stream.
    """
    for name, v in (("q1", q1), ("q0", q0)):
        if not 0.0 <= v < 1.0:
            raise DomainError(f"{name}={v!r} must lie in [0, 1)")
    base, xstar, rng = _draw_le(params, control, n, group_share, seed)
    flip = rng.random(n)
    direct = np.where(xstar == 1, (flip >= q1).astype(np.int64), (flip < q0).astype(np.int64))
    direct = np.where(base.t == 1, -1, direct)
    return LeSample(j_count=base.j_count, y=base.y, t=base.t, x_direct=direct)


def empirical_distributions(
    sample: LeSample,
) -> tuple[ControlDistribution, TreatmentDistribution, float, float]:
    """Per-group relative response frequencies and group shares (c0, c1)."""
    j = sample.j_count
    mask1 = sample.t == 1
    n = sample.n
    n1 = int(mask1.sum())
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise DomainError("both groups must be nonempty")
    f0 = np.bincount(sample.y[~mask1], minlength=j + 1) / n0
    f1 = np.bincount(sample.y[mask1], minlength=j + 2) / n1
    return (
        ControlDistribution(j_count=j, probs=f0),
        TreatmentDistribution(j_count=j, probs=f1),
        n0 / n,
        n1 / n,
    )
