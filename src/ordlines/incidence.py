"""Spanned lines and planes of a finite point set, and radial projections.

Lines come from one trick: group the C(n,2) point pairs by the canonical key
of the line they span. Each group then holds exactly the indices of the set's
points on that line, so histograms, degrees, and ordinary-line lists all fall
out of one dictionary pass. Planes come from one kernel that works per anchor
point: the other points are grouped by their direction from the anchor, and
pairs of direction classes by the normal they span, so each group is the
anchor's share of one plane. A plane's first anchor (its smallest index) sees
all of its points, which gives the exact point set of every spanned plane
without touching raw triples.

Projections from a set point are kept projective: the image of q under
projection from p is the direction of the line pq, as a point of the rational
projective plane. No image plane is ever chosen, which makes the projection
exact and canonical while preserving exactly the collinearity structure a
generic image plane would show.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .errors import DegenerateInputError, InvariantViolationError, UsageError
from .geometry import (
    CanonLine2,
    CanonLine3,
    CanonPlane,
    Kind,
    Point,
    canon_line,
    cross_key,
    direction_key,
    incident,
    int_hom,
    plucker_key,
    primitive_signed,
    projective2,
)

__all__ = [
    "PointSet",
    "SpanSummary",
    "PlaneSummary",
    "ProjectionImage",
    "KellyTraceReport",
    "span_summary",
    "ordinary_lines",
    "plane_summary",
    "max_collinear",
    "point_degrees",
    "project_from",
    "image_point_set",
    "kelly_trace",
]


@dataclass(frozen=True)
class PointSet:
    """A nonempty tuple of pairwise distinct points, all of one kind and field."""

    points: tuple[Point, ...]
    label: str = ""

    def __init__(self, points, label: str = ""):
        pts = tuple(points)
        if not pts:
            raise UsageError("point set must be nonempty")
        k0, f0 = pts[0].kind, pts[0].field_name
        for p in pts[1:]:
            if p.kind is not k0:
                raise UsageError(f"mixed point kinds {k0.value} / {p.kind.value}")
            if p.field_name != f0:
                raise UsageError(f"mixed coordinate fields {f0} / {p.field_name}")
        if len(set(pts)) != len(pts):
            raise UsageError("point set has duplicate points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "label", label)

    @property
    def kind(self) -> Kind:
        return self.points[0].kind

    @property
    def field_name(self) -> str:
        return self.points[0].field_name

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i) -> Point:
        return self.points[i]


@dataclass
class SpanSummary:
    """Histogram of spanned lines by the number of set points they contain.

    ``t[k]`` counts lines with exactly k points; ``ordinary`` is ``t[2]``.
    """

    t: dict[int, int]
    num_lines: int
    ordinary: int
    max_collinear: int
    n: int


@dataclass
class PlaneSummary:
    """Every spanned plane of a 3D set, with its point count and the sorted
    indices of the set's points on it."""

    plane_counts: dict[CanonPlane, int]
    max_coplanar: int
    plane_points: dict[CanonPlane, tuple[int, ...]]


@dataclass
class ProjectionImage:
    """Result of projecting a 3D set from one of its points.

    Each group pairs a direction (a rational projective-plane point) with the
    sorted indices of the source points lying on the line through the center in
    that direction.
    """

    center: int
    groups: list[tuple[Point, tuple[int, ...]]]
    source: PointSet

    def __post_init__(self):
        seen: set[int] = set()
        for _, idxs in self.groups:
            if seen & set(idxs):
                raise InvariantViolationError("projection groups overlap")
            seen |= set(idxs)
        expected = set(range(len(self.source))) - {self.center}
        if seen != expected:
            raise InvariantViolationError("projection groups do not cover the source set")


@dataclass
class KellyTraceReport:
    """Accounting of the projection-based ordinary-line hunt from one center.

    ``l1_size`` counts image lines with at least two image points and no
    unique-preimage points; ``found_ordinary`` lists ordinary lines of the
    source set that avoid the center, at least one per such image line.
    """

    q1_size: int
    q2_size: int
    l1_size: int
    found_ordinary: list[CanonLine3]


def _line_groups(P: PointSet) -> dict:
    """Map each spanned line's canonical key to the set of incident point indices."""
    pts = P.points
    n = len(pts)
    groups: dict = {}
    if P.field_name == "Q":
        homs = [int_hom(p) for p in pts]
        key = plucker_key if P.kind is Kind.AFFINE3 else cross_key
        for i in range(n - 1):
            hi = homs[i]
            for j in range(i + 1, n):
                g = groups.setdefault(key(hi, homs[j]), set())
                g.add(i)
                g.add(j)
    else:
        for i in range(n - 1):
            for j in range(i + 1, n):
                g = groups.setdefault(canon_line(pts[i], pts[j]), set())
                g.add(i)
                g.add(j)
    return groups


def span_summary(P: PointSet) -> SpanSummary:
    """Classify every spanned line of P by how many points of P it contains."""
    if len(P) < 2:
        raise UsageError("span_summary needs at least 2 points")
    groups = _line_groups(P)
    t = Counter(len(g) for g in groups.values())
    n = len(P)
    if sum(comb(k, 2) * c for k, c in t.items()) != comb(n, 2):
        raise InvariantViolationError("line histogram does not account for every point pair")
    return SpanSummary(
        t=dict(sorted(t.items())),
        num_lines=len(groups),
        ordinary=t.get(2, 0),
        max_collinear=max(t),
        n=n,
    )


def ordinary_lines(P: PointSet) -> list[CanonLine2 | CanonLine3]:
    """The spanned lines containing exactly two points of P, canonically sorted."""
    if len(P) < 2:
        raise UsageError("ordinary_lines needs at least 2 points")
    out = [key for key, g in _line_groups(P).items() if len(g) == 2]
    if P.field_name == "Q":  # rational keys are bare tuples; the Qw path's are lines
        as_line = CanonLine3 if P.kind is Kind.AFFINE3 else CanonLine2
        out = [as_line(key) for key in out]
    out.sort(key=lambda line: line.sort_key())
    return out


def max_collinear(P: PointSet) -> int:
    return span_summary(P).max_collinear


def point_degrees(P: PointSet) -> list[int]:
    """Number of spanned lines through each point, indexed like P."""
    if len(P) < 2:
        raise UsageError("point_degrees needs at least 2 points")
    degrees = [0] * len(P)
    for g in _line_groups(P).values():
        for i in g:
            degrees[i] += 1
    return degrees


def _anchor_planes(
    homs: list[tuple[int, ...]], anchor: int, others
) -> dict[tuple[int, ...], list[int]]:
    """The planes through one point of a 3D set, spanned with the points ``others``.

    Maps each plane's normal (a primitive integer 3-vector) to the indices in
    ``others`` on that plane. The points are grouped by direction from the
    anchor, and two direction classes lie on the plane whose normal is their
    cross product; a line through the anchor thus joins every plane that
    contains it. Empty when ``others`` is collinear with the anchor.
    """
    ha = homs[anchor]
    classes: dict[tuple[int, ...], list[int]] = {}
    for j in others:
        d = direction_key(ha, homs[j])
        members = classes.get(d)
        if members is None:
            classes[d] = [j]
        else:
            members.append(j)
    dirs = list(classes)
    # Each class of a plane is met paired with the plane's first class, so
    # only those pairs add a class to its bundle.
    bundles: dict[tuple[int, ...], list[int]] = {}
    for a in range(len(dirs) - 1):
        da = dirs[a]
        for b in range(a + 1, len(dirs)):
            normal = cross_key(da, dirs[b])
            bundle = bundles.get(normal)
            if bundle is None:
                bundles[normal] = [a, b]
            elif bundle[0] == a:
                bundle.append(b)
    groups = list(classes.values())
    return {
        normal: [j for c in bundle for j in groups[c]] for normal, bundle in bundles.items()
    }


def _plane_groups(P: PointSet) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map each spanned plane's key (as ``plane_key`` gives it) to the sorted
    indices of the points of P on it.

    Each point i anchors the planes it spans with the points after it. A plane
    is complete at its smallest-index anchor, so a key seen before is skipped.
    """
    homs = [int_hom(p) for p in P.points]
    n = len(homs)
    groups: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i in range(n - 2):
        x0, x1, x2, w = homs[i]
        for (n0, n1, n2), members in _anchor_planes(homs, i, range(i + 1, n)).items():
            key = primitive_signed((w * n0, w * n1, w * n2, -(n0 * x0 + n1 * x1 + n2 * x2)))
            if key not in groups:
                groups[key] = (i, *sorted(members))
    if not groups:
        raise DegenerateInputError("all points are collinear; spanned planes are undefined")
    return groups


def plane_summary(P: PointSet) -> PlaneSummary:
    """Classify every spanned plane of a 3D set by the points of P it contains."""
    if P.kind is not Kind.AFFINE3:
        raise UsageError("plane_summary needs a 3D affine set")
    if len(P) < 3:
        raise UsageError("plane_summary needs at least 3 points")
    points = {CanonPlane(k): members for k, members in sorted(_plane_groups(P).items())}
    counts = {plane: len(members) for plane, members in points.items()}
    return PlaneSummary(
        plane_counts=counts, max_coplanar=max(counts.values()), plane_points=points
    )


def project_from(P: PointSet, center_index: int) -> ProjectionImage:
    """Project a 3D set from one of its points, grouping the rest by direction."""
    if P.kind is not Kind.AFFINE3:
        raise UsageError("project_from needs a 3D affine set")
    if len(P) < 2:
        raise UsageError("project_from needs at least 2 points")
    if not 0 <= center_index < len(P):
        raise UsageError(f"center index {center_index} out of range for {len(P)} points")
    homs = [int_hom(p) for p in P.points]
    hc = homs[center_index]
    by_dir: dict[tuple[int, ...], list[int]] = {}
    for i in range(len(P)):
        if i == center_index:
            continue
        by_dir.setdefault(direction_key(hc, homs[i]), []).append(i)
    groups = [(projective2(*d), tuple(sorted(idxs))) for d, idxs in by_dir.items()]
    groups.sort(key=lambda g: g[0].sort_key())
    return ProjectionImage(center=center_index, groups=groups, source=P)


def image_point_set(img: ProjectionImage) -> tuple[PointSet, tuple[bool, ...]]:
    """The projected set as projective points, with a unique-preimage flag per point."""
    pts = tuple(p for p, _ in img.groups)
    flags = tuple(len(idxs) == 1 for _, idxs in img.groups)
    label = f"{img.source.label or 'set'}/projected-from-{img.center}"
    return PointSet(pts, label=label), flags


def kelly_trace(P: PointSet, center_index: int) -> KellyTraceReport:
    """Hunt for ordinary lines of P avoiding one point, via the projection from it.

    Projects P from the chosen center, finds the image lines that have at least
    two image points but no unique-preimage point, and exhaustively searches the
    plane over each such image line for ordinary lines of P that avoid the
    center. Over the rationals that search is guaranteed to succeed for every
    such plane; an empty-handed search is reported as an invariant violation
    rather than papered over.
    """
    if P.field_name != "Q":
        raise UsageError("kelly_trace needs a rational point set")
    img = project_from(P, center_index)
    q1, flags = image_point_set(img)
    q2_size = sum(flags)
    report = KellyTraceReport(
        q1_size=len(q1), q2_size=q2_size, l1_size=0, found_ordinary=[]
    )
    if len(q1) < 2:
        return report

    center = P[center_index]
    found: set[CanonLine3] = set()
    for g in _line_groups(q1).values():
        if any(flags[k] for k in g):
            continue
        report.l1_size += 1
        # The plane through the center and this image line meets P exactly in
        # the center plus the preimages, so the lines of that local set (with
        # the center at index 0) are the lines of P in the plane.
        local = [center]
        for k in g:
            local.extend(P[i] for i in img.groups[k][1])
        found_here = 0
        for key, members in _line_groups(PointSet(local)).items():
            if len(members) == 2 and 0 not in members:
                found.add(CanonLine3(key))
                found_here += 1
        if found_here == 0:
            raise InvariantViolationError(
                "no ordinary line avoiding the center in a plane where one is guaranteed"
            )

    for line in found:
        on_line = sum(1 for p in P if incident(line, p))
        if on_line != 2 or incident(line, center):
            raise InvariantViolationError("recorded line is not ordinary or hits the center")
    report.found_ordinary = sorted(found, key=lambda line: line.sort_key())
    if len(report.found_ordinary) < report.l1_size:
        raise InvariantViolationError("fewer ordinary lines than hunted planes")
    return report
