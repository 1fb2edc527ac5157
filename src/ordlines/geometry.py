"""Exact points, incidence predicates, and canonical line/plane representatives.

Everything here is pure and exact. Points are immutable; predicates are
determinant sign-free zero tests, so they work over the rationals and over the
extension field alike. Canonical representatives (``CanonLine2``,
``CanonLine3``, ``CanonPlane``) exist so that equal geometric objects compare
and hash equal. The incidence kernels do not build them per pair: they key bare
integer tuples through the row forms (``cross_row``, ``plucker_row``,
``direction_row``, ``direction2_row``) and wrap only the keys they return.

Normalization conventions:

* rational inputs produce primitive integer coefficient vectors (content 1)
  whose first nonzero entry is positive;
* extension-field inputs produce coefficient vectors scaled so the first
  nonzero entry is exactly 1 (the field has no order, so sign normalization is
  replaced by leading-one normalization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DegenerateInputError, InvariantViolationError, UsageError, _digit_limited
from .fields import Eisenstein, as_scalar, scalar_sort_key

__all__ = [
    "Kind",
    "Point",
    "affine2",
    "affine3",
    "projective2",
    "make_point",
    "CanonLine2",
    "CanonLine3",
    "CanonPlane",
    "collinear",
    "coplanar",
    "canon_line",
    "canon_plane",
    "incident",
    "skew",
]


class Kind(str, Enum):
    AFFINE2 = "affine2"
    AFFINE3 = "affine3"
    PROJECTIVE2 = "projective2"


_COORD_COUNT = {Kind.AFFINE2: 2, Kind.AFFINE3: 3, Kind.PROJECTIVE2: 3}


@_digit_limited
@dataclass(frozen=True)
class Point:
    """An exact point. Projective points are stored in canonical form."""

    coords: tuple
    kind: Kind

    @property
    def is_rational(self) -> bool:
        return not any(isinstance(c, Eisenstein) for c in self.coords)

    @property
    def field_name(self) -> str:
        return "Q" if self.is_rational else "Qw"

    def sort_key(self) -> tuple:
        return tuple(scalar_sort_key(c) for c in self.coords)

    def __repr__(self):
        cs = ", ".join(str(c) for c in self.coords)
        return f"{self.kind.value}({cs})"


def _lift(coords: tuple) -> tuple:
    """Coerce raw values; lift the whole tuple into the extension field if any part is in it."""
    cs = tuple(as_scalar(c) for c in coords)
    if any(isinstance(c, Eisenstein) for c in cs):
        cs = tuple(c if isinstance(c, Eisenstein) else Eisenstein(c, 0) for c in cs)
    return cs


def affine2(x, y) -> Point:
    return Point(_lift((x, y)), Kind.AFFINE2)


def affine3(x, y, z) -> Point:
    cs = _lift((x, y, z))
    if any(isinstance(c, Eisenstein) for c in cs):
        raise UsageError("3D points over the extension field are not supported")
    return Point(cs, Kind.AFFINE3)


def projective2(x, y, z) -> Point:
    """Projective plane point, scaled so the first nonzero coordinate is 1."""
    cs = _lift((x, y, z))
    for c in cs:
        if c != 0:
            cs = tuple(v / c for v in cs)
            return Point(cs, Kind.PROJECTIVE2)
    raise DegenerateInputError("projective point needs at least one nonzero coordinate")


def make_point(coords, kind: Kind) -> Point:
    """Build a point of the given kind from raw coordinates."""
    coords = tuple(coords)
    if len(coords) != _COORD_COUNT[kind]:
        raise UsageError(f"{kind.value} needs {_COORD_COUNT[kind]} coordinates, got {len(coords)}")
    if kind is Kind.AFFINE2:
        return affine2(*coords)
    if kind is Kind.AFFINE3:
        return affine3(*coords)
    return projective2(*coords)


def _require_same(points, kinds, op: str) -> None:
    k0 = points[0].kind
    if k0 not in kinds:
        raise UsageError(f"{op}: unsupported point kind {k0.value}")
    f0 = points[0].field_name
    for p in points[1:]:
        if p.kind is not k0:
            raise UsageError(f"{op}: mixed point kinds {k0.value} / {p.kind.value}")
        if p.field_name != f0:
            raise UsageError(f"{op}: mixed coordinate fields {f0} / {p.field_name}")


def _det3(r0, r1, r2):
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def collinear(p: Point, q: Point, r: Point) -> bool:
    """True iff the three points lie on a common line. Symmetric in its arguments."""
    _require_same((p, q, r), (Kind.AFFINE2, Kind.AFFINE3, Kind.PROJECTIVE2), "collinear")
    if p.kind is Kind.PROJECTIVE2:
        return _det3(p.coords, q.coords, r.coords) == 0
    u = tuple(b - a for a, b in zip(p.coords, q.coords))
    v = tuple(b - a for a, b in zip(p.coords, r.coords))
    if p.kind is Kind.AFFINE2:
        return u[0] * v[1] - u[1] * v[0] == 0
    return (
        u[1] * v[2] - u[2] * v[1] == 0
        and u[2] * v[0] - u[0] * v[2] == 0
        and u[0] * v[1] - u[1] * v[0] == 0
    )


def coplanar(p: Point, q: Point, r: Point, s: Point) -> bool:
    """True iff four 3D points lie on a common plane. Symmetric in its arguments."""
    _require_same((p, q, r, s), (Kind.AFFINE3,), "coplanar")
    u = tuple(b - a for a, b in zip(p.coords, q.coords))
    v = tuple(b - a for a, b in zip(p.coords, r.coords))
    w = tuple(b - a for a, b in zip(p.coords, s.coords))
    return _det3(u, v, w) == 0


# --- integer fast path ------------------------------------------------------
#
# Rational points are cleared to integer homogeneous tuples once, after which
# every canonical key is a handful of int multiplications plus one gcd. The
# incidence kernels and the annealer key whole rows (the row forms below). The
# pair forms and ``primitive_signed`` serve ``canon_line`` and ``canon_plane``,
# one object at a time, and are reference code for the tests and ``bench/``.


def int_hom(p: Point) -> tuple[int, ...]:
    """Integer homogeneous coordinates of a rational point (last entry is the weight
    for affine kinds)."""
    cs = p.coords
    den = 1
    for c in cs:
        den = den * (c.denominator // math.gcd(den, c.denominator))
    ints = tuple(c.numerator * (den // c.denominator) for c in cs)
    if p.kind is Kind.PROJECTIVE2:
        return ints
    return ints + (den,)


def primitive_signed(v: tuple[int, ...]) -> tuple[int, ...]:
    """Divide out the content and make the first nonzero entry positive."""
    g = math.gcd(*v)
    if g == 0:
        raise DegenerateInputError("zero coefficient vector")
    if g != 1:
        v = tuple([x // g for x in v])
    for x in v:
        if x:
            return v if x > 0 else tuple([-y for y in v])


# Each key has a row form that keys one anchor against a list of points in one
# call: the entries are formed and normalized in line (one ``math.gcd``, the
# sign of the first nonzero entry read as ``(v0 or v1 or ...) < 0``), exactly as
# ``primitive_signed`` would, and a zero vector raises the same error. The pair
# forms are a row of one.


def cross_row(a: tuple[int, ...], bs) -> list[tuple[int, int, int]]:
    """``cross_key(a, b)`` for each integer homogeneous 3-tuple b of bs."""
    a0, a1, a2 = a
    gcd = math.gcd
    out = []
    append = out.append
    for b0, b1, b2 in bs:
        v0, v1, v2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        g = gcd(v0, v1, v2)
        if (v0 or v1 or v2) < 0:
            g = -g
        elif not g:
            raise DegenerateInputError("zero coefficient vector")
        append((v0, v1, v2) if g == 1 else (v0 // g, v1 // g, v2 // g))
    return out


def direction_row(anchor: tuple[int, ...], qs) -> list[tuple[int, int, int]]:
    """``direction_key(anchor, q)`` for each integer homogeneous 4-tuple q of qs."""
    x0, x1, x2, w = anchor
    gcd = math.gcd
    out = []
    append = out.append
    for q0, q1, q2, wq in qs:
        v0, v1, v2 = q0 * w - x0 * wq, q1 * w - x1 * wq, q2 * w - x2 * wq
        g = gcd(v0, v1, v2)
        if (v0 or v1 or v2) < 0:
            g = -g
        elif not g:
            raise DegenerateInputError("zero coefficient vector")
        append((v0, v1, v2) if g == 1 else (v0 // g, v1 // g, v2 // g))
    return out


def direction2_row(anchor: tuple[int, ...], qs) -> list[tuple[int, int]]:
    """The canonical direction from an affine 2D anchor to each point of qs
    (integer homogeneous (x, y, w) with w > 0): the primitive signed
    (x*w_a - x_a*w, y*w_a - y_a*w), a positive multiple of q - anchor. Two points
    share it exactly when they are collinear with the anchor."""
    x, y, w = anchor
    gcd = math.gcd
    out = []
    append = out.append
    for qx, qy, wq in qs:
        v0, v1 = qx * w - x * wq, qy * w - y * wq
        g = gcd(v0, v1)
        if (v0 or v1) < 0:
            g = -g
        elif not g:
            raise DegenerateInputError("zero coefficient vector")
        append((v0, v1) if g == 1 else (v0 // g, v1 // g))
    return out


def plucker_row(a: tuple[int, ...], bs) -> list[tuple[int, ...]]:
    """``plucker_key(a, b)`` for each integer homogeneous 4-tuple b of bs."""
    a0, a1, a2, a3 = a
    gcd = math.gcd
    out = []
    append = out.append
    for b0, b1, b2, b3 in bs:
        p01 = a0 * b1 - a1 * b0
        p02 = a0 * b2 - a2 * b0
        p03 = a0 * b3 - a3 * b0
        p12 = a1 * b2 - a2 * b1
        p13 = a1 * b3 - a3 * b1
        p23 = a2 * b3 - a3 * b2
        g = gcd(p01, p02, p03, p12, p13, p23)
        if (p01 or p02 or p03 or p12 or p13 or p23) < 0:
            g = -g
        elif not g:
            raise DegenerateInputError("zero coefficient vector")
        if g == 1:
            append((p01, p02, p03, p12, p13, p23))
        else:
            append((p01 // g, p02 // g, p03 // g, p12 // g, p13 // g, p23 // g))
    return out


def cross_key(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical line key for two integer homogeneous 3-tuples."""
    return cross_row(a, (b,))[0]


def plucker_key(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical line key (Plücker 6-vector) for two integer homogeneous 4-tuples."""
    return plucker_row(a, (b,))[0]


def plane_key(a: tuple[int, ...], b: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical plane key for three integer homogeneous 4-tuples (non-collinear)."""
    m = (a, b, c)

    def minor(c0, c1, c2):
        return _det3(
            (m[0][c0], m[0][c1], m[0][c2]),
            (m[1][c0], m[1][c1], m[1][c2]),
            (m[2][c0], m[2][c1], m[2][c2]),
        )

    return primitive_signed((minor(1, 2, 3), -minor(0, 2, 3), minor(0, 1, 3), -minor(0, 1, 2)))


def direction_key(anchor: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical direction from an anchor to another point (integer homogeneous 4-tuples)."""
    return direction_row(anchor, (q,))[0]


def _plucker_incident(plucker: tuple[int, ...], x: tuple[int, ...]) -> bool:
    """Whether the integer homogeneous 4-tuple x is on the line with this Plücker
    vector: every minor x_i p_jk - x_j p_ik + x_k p_ij (i < j < k) vanishes."""
    x0, x1, x2, x3 = x
    p01, p02, p03, p12, p13, p23 = plucker
    return (
        x0 * p12 - x1 * p02 + x2 * p01 == 0
        and x0 * p13 - x1 * p03 + x3 * p01 == 0
        and x0 * p23 - x2 * p03 + x3 * p02 == 0
        and x1 * p23 - x2 * p13 + x3 * p12 == 0
    )


def _leading_one(v: tuple) -> tuple:
    for c in v:
        if c != 0:
            return tuple(x / c for x in v)
    raise DegenerateInputError("zero coefficient vector")


def _hom3(p: Point) -> tuple:
    if p.kind is Kind.PROJECTIVE2:
        return p.coords
    one = Fraction(1) if p.is_rational else Eisenstein(1, 0)
    return p.coords + (one,)


# --- canonical objects ------------------------------------------------------


@_digit_limited
@dataclass(frozen=True, slots=True)
class CanonLine2:
    """Canonical coefficient vector of a plane line: a point lies on the line iff the
    dot product with its homogeneous coordinates is zero."""

    vector: tuple

    def sort_key(self) -> tuple:
        return tuple(scalar_sort_key(as_scalar(c)) for c in self.vector)


@_digit_limited
@dataclass(frozen=True, slots=True)
class CanonLine3:
    """Canonical Plücker 6-vector (p01, p02, p03, p12, p13, p23) of a spatial line.

    The vector is the whole line: built from any two distinct points of it, the
    representative is the same, and incidence and skewness are read from the
    vector alone.
    """

    plucker: tuple[int, ...]

    def __post_init__(self):
        p01, p02, p03, p12, p13, p23 = self.plucker
        if p01 * p23 - p02 * p13 + p03 * p12 != 0:
            raise InvariantViolationError("Plücker vector violates the quadric relation")

    def sort_key(self) -> tuple:
        return self.plucker


@_digit_limited
@dataclass(frozen=True, slots=True)
class CanonPlane:
    """Canonical coefficient vector (a, b, c, d): a point (x, y, z) lies on the plane
    iff ``a*x + b*y + c*z + d == 0``."""

    vector: tuple[int, ...]

    def sort_key(self) -> tuple:
        return self.vector


def canon_line(p: Point, q: Point) -> CanonLine2 | CanonLine3:
    """Canonical representative of the line through two distinct points.

    Symmetric in its arguments; every point r is on the returned line iff
    ``collinear(p, q, r)``.
    """
    _require_same((p, q), (Kind.AFFINE2, Kind.AFFINE3, Kind.PROJECTIVE2), "canon_line")
    if p == q:
        raise DegenerateInputError("canon_line needs two distinct points")
    if p.kind is Kind.AFFINE3:
        return CanonLine3(plucker_key(int_hom(p), int_hom(q)))
    if p.is_rational:
        return CanonLine2(cross_key(int_hom(p), int_hom(q)))
    a, b = _hom3(p), _hom3(q)
    v = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    return CanonLine2(_leading_one(v))


def canon_plane(p: Point, q: Point, r: Point) -> CanonPlane:
    """Canonical representative of the plane spanned by a non-collinear 3D triple."""
    _require_same((p, q, r), (Kind.AFFINE3,), "canon_plane")
    if collinear(p, q, r):
        raise DegenerateInputError("canon_plane needs a non-collinear triple")
    return CanonPlane(plane_key(int_hom(p), int_hom(q), int_hom(r)))


def incident(obj: CanonLine2 | CanonLine3 | CanonPlane, p: Point) -> bool:
    """Exact membership test of a point on a canonical line or plane."""
    if isinstance(obj, CanonLine2):
        if p.kind not in (Kind.AFFINE2, Kind.PROJECTIVE2):
            raise UsageError("CanonLine2 incidence needs a plane point")
        h = _hom3(p)
        return obj.vector[0] * h[0] + obj.vector[1] * h[1] + obj.vector[2] * h[2] == 0
    if isinstance(obj, CanonLine3):
        if p.kind is not Kind.AFFINE3:
            raise UsageError("CanonLine3 incidence needs a 3D point")
        return _plucker_incident(obj.plucker, int_hom(p))
    if isinstance(obj, CanonPlane):
        if p.kind is not Kind.AFFINE3:
            raise UsageError("CanonPlane incidence needs a 3D point")
        x, y, z = p.coords
        a, b, c, d = obj.vector
        return a * x + b * y + c * z + d == 0
    raise UsageError(f"incident: unsupported object {type(obj).__name__}")


def skew(l1: CanonLine3, l2: CanonLine3) -> bool:
    """True iff two spatial lines neither meet nor are parallel: their reciprocal
    Plücker product is nonzero."""
    if not (isinstance(l1, CanonLine3) and isinstance(l2, CanonLine3)):
        raise UsageError("skew needs two spatial lines")
    p01, p02, p03, p12, p13, p23 = l1.plucker
    q01, q02, q03, q12, q13, q23 = l2.plucker
    return p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01 != 0
