"""Exact evaluation of the ordinary-line bound constants and concrete checks.

Every number here is a ``Fraction``; nothing is ever rounded. The verifiers
return report objects rather than raising on a failed inequality, because some
of the inequalities are only guaranteed asymptotically: a false ``holds`` on a
small set is data, not a bug. Inequalities that are theorems at every size
(the skew-lines bound, Sylvester-Gallai over the rationals) are enforced by
the test suite on top of these reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError, UsageError
from .fields import _to_fraction
from .geometry import (
    CanonLine2,
    CanonLine3,
    Kind,
    Point,
    _plucker_incident,
    canon_line,
    collinear,
    direction_row,
    incident,
    skew,
)
from .incidence import (
    PointSet,
    _breaks_cap,
    _line_histogram,
    _plane_groups,
    ordinary_lines,
    span_summary,
)

__all__ = [
    "BoundConstants",
    "bound_constants",
    "gamma_prime",
    "SylvesterGallaiReport",
    "verify_sylvester_gallai",
    "SkewBoundReport",
    "verify_skew_bound",
    "AlmostCoplanarReport",
    "verify_almost_coplanar",
    "ConcurrentProbeReport",
    "concurrent_lines_probe",
    "plane_ordinary_profile",
]


def gamma_prime(beta: Fraction, gamma: Fraction, beta1: Fraction) -> Fraction:
    """Line-count constant for a set with at most a beta1 fraction on any line.

    The derivation splits into branches whose constants differ; the minimum is
    the only value valid regardless of branch.
    """
    return min(gamma, gamma * (1 - beta1) ** 2, beta**2 * (1 - beta1) / 2)


@dataclass(frozen=True)
class BoundConstants:
    """All constants of the ordinary-line lower bound, as exact rationals.

    ``d_alpha`` is the final coefficient: a set of n points with heaviest-plane
    fraction alpha is guaranteed at least d_alpha * n^2 ordinary lines (for n
    large). The three case bounds mirror the structure of the counting
    argument: few points projecting onto a heavy line (case 1), many residual
    planar points (case 2a), and the saturated regime (case 2b).
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    alpha0: Fraction
    c_alpha0: Fraction
    mu: Fraction
    nu: Fraction
    beta1_case1: Fraction
    gamma_prime_case1: Fraction
    beta1_case2b: Fraction
    gamma_prime_case2b: Fraction
    d_case1: Fraction
    d_case2a: Fraction
    d_case2b: Fraction
    d_alpha: Fraction


def bound_constants(alpha, beta, gamma) -> BoundConstants:
    """Evaluate every constant of the bound exactly at the given parameters.

    alpha is the heaviest-plane fraction, beta the max line fraction assumed by
    the planar line-count theorem, gamma its line-count constant.
    """
    alpha, beta, gamma = map(_to_fraction, (alpha, beta, gamma))
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not 0 < v < 1:
            raise UsageError(f"{name} = {v} is outside (0, 1)")

    alpha0 = beta * gamma
    c_alpha0 = gamma**5 / 2
    mu = alpha - Fraction(1, 4) * min(alpha, beta, gamma) * (1 - alpha) ** 2
    nu = 2 * mu - alpha + gamma * (1 - alpha) ** 2
    if nu <= 0:
        raise DomainError(f"nu = {nu} <= 0: outside the regime of the case analysis")

    beta1_case1 = mu / alpha
    gp1 = gamma_prime(beta, gamma, beta1_case1)
    d_case1 = min(gp1 * alpha**2 * (1 - alpha) / 4, gp1 * alpha**2 / 2)

    d_case2a = Fraction(1, 2) * mu * beta * (1 - alpha)

    beta1_case2b = alpha / nu
    gp2 = gamma_prime(beta, gamma, beta1_case2b)
    d_case2b = min(alpha * gp2 / 4, gp2 / 2)

    return BoundConstants(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        alpha0=alpha0,
        c_alpha0=c_alpha0,
        mu=mu,
        nu=nu,
        beta1_case1=beta1_case1,
        gamma_prime_case1=gp1,
        beta1_case2b=beta1_case2b,
        gamma_prime_case2b=gp2,
        d_case1=d_case1,
        d_case2a=d_case2a,
        d_case2b=d_case2b,
        d_alpha=min(d_case1, d_case2a, d_case2b),
    )


@dataclass
class SylvesterGallaiReport:
    holds: bool
    witness: CanonLine2 | None


def verify_sylvester_gallai(P: PointSet) -> SylvesterGallaiReport:
    """Check that a non-collinear planar set spans an ordinary line.

    Always true over the rationals; the extension field admits counterexamples,
    which this reports rather than rejects.
    """
    if P.kind not in (Kind.AFFINE2, Kind.PROJECTIVE2):
        raise UsageError("verify_sylvester_gallai needs a planar set")
    if len(P) < 3:
        raise UsageError("verify_sylvester_gallai needs at least 3 points")
    lines = ordinary_lines(P)
    if lines:
        return SylvesterGallaiReport(holds=True, witness=lines[0])
    # With no ordinary line the guarantee holds only vacuously: one line holds P.
    return SylvesterGallaiReport(holds=all(collinear(P[0], P[1], p) for p in P), witness=None)


@dataclass
class SkewBoundReport:
    lhs: int
    rhs: int
    holds: bool


def verify_skew_bound(P: PointSet, line1: CanonLine3, line2: CanonLine3) -> SkewBoundReport:
    """Compare the ordinary count of P against |P on l|*|P on l'| - |P| for two
    skew lines."""
    if P.kind is not Kind.AFFINE3:
        raise UsageError("verify_skew_bound needs a 3D affine set")
    if not skew(line1, line2):
        raise UsageError("the two lines are coplanar, not skew")
    on1 = sum(1 for h in P.homs if _plucker_incident(line1.plucker, h))
    on2 = sum(1 for h in P.homs if _plucker_incident(line2.plucker, h))
    lhs = span_summary(P).ordinary
    rhs = on1 * on2 - len(P)
    return SkewBoundReport(lhs=lhs, rhs=rhs, holds=lhs >= rhs)


@dataclass
class AlmostCoplanarReport:
    count: int
    bound: Fraction
    holds: bool
    caveat: str


def verify_almost_coplanar(P: PointSet, k: int) -> AlmostCoplanarReport:
    """Compare the ordinary count of a set with at most n-k coplanar points
    against the threshold (k + 1/2)(n - k) - C(k, 2).

    The threshold is guaranteed only for n large relative to k, so ``holds``
    is a report; the caveat repeats this.
    """
    if k < 0:
        raise UsageError("k must be nonnegative")
    n = len(P)
    if k > n:
        raise UsageError(f"k must be at most n = {n}")
    if _breaks_cap(P, n - k, "plane_summary"):
        # The heaviest of the planes over n - k, ties broken by the least key.
        over = _plane_groups(P, n - k + 1)
        offender = min(over, key=lambda key: (-len(over[key]), key))
        raise UsageError(
            f"plane {offender} contains {len(over[offender])} points, more than n - k = {n - k}"
        )
    bound = (k + Fraction(1, 2)) * (n - k) - comb(k, 2)
    count = span_summary(P).ordinary
    return AlmostCoplanarReport(
        count=count,
        bound=bound,
        holds=count >= bound,
        caveat="threshold guaranteed only for n large relative to k; "
        "a miss at small n is informational",
    )


@dataclass
class ConcurrentProbeReport:
    contained_in: int
    ordinary_avoiding_apex: int


def concurrent_lines_probe(P: PointSet, apex: Point) -> ConcurrentProbeReport:
    """For a planar set covered by few lines through a common apex, count how many
    such lines are needed and how many ordinary lines of P avoid the apex."""
    if P.kind not in (Kind.AFFINE2, Kind.PROJECTIVE2):
        raise UsageError("concurrent_lines_probe needs a planar set")
    if apex.kind is not P.kind or apex.field_name != P.field_name:
        raise UsageError("apex must match the set's kind and field")
    pencil = {canon_line(apex, p) for p in P if p != apex}
    if len(pencil) <= 1:
        raise UsageError("the set lies on a single line through the apex")
    avoiding = sum(1 for line in ordinary_lines(P) if not incident(line, apex))
    return ConcurrentProbeReport(contained_in=len(pencil), ordinary_avoiding_apex=avoiding)


def plane_ordinary_profile(P: PointSet) -> list[tuple[int, int]]:
    """For each spanned plane with at least 4 points, pair its point count with
    the ordinary count of that coplanar subset taken on its own.

    Output is data for the open question whether some heavy plane's subset
    spans close to half its size in ordinary lines; nothing is asserted.
    Sorted by descending point count, then ascending ordinary count. Each
    subset is counted on the set's own integer coordinates, by index.
    """
    homs = P.homs
    profile = [
        (len(members), _line_histogram([homs[i] for i in members], direction_row).ordinary)
        for members in _plane_groups(P, 4).values()
    ]
    profile.sort(key=lambda entry: (-entry[0], entry[1]))
    return profile
