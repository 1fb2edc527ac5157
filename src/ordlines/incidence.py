"""Spanned lines and planes of a finite point set, and radial projections.

Lines and planes come from kernels that work per anchor point. From anchor i,
the later points fall into one class per line through i. A k-point line gives
classes of sizes k-1, ..., 1 at its first k-1 points, so with h[s] the number
of (anchor, class) pairs of size s, the line histogram is t[k] = h[k-1] - h[k]:
it needs one anchor's classes at a time, never a store of all lines. Ordinary
lines need no point lists: a k-point line is keyed by C(k, 2) pairs over all
anchors, so it is ordinary exactly when its key is counted once. Degrees need
no line either: point i starts one class at anchor i per line on which it is not
the last point, and a line's last point is alone in its class at the line's
second-to-last point and nowhere else, so the degree of i is its class count
plus the singleton classes {i} at earlier anchors.

Each anchor's row of keys is one call of a row form from ``geometry``
(``plucker_row``, ``direction_row``, ``cross_row``, ``direction2_row``), which
keys the anchor against a list of points and normalizes in line, with no
Python call per pair; ``_pair_keys`` picks it by the kind of set. On an affine
2D set a class needs only the direction from the anchor, so it is keyed by the
2-entry primitive (x*w_a - x_a*w, y*w_a - y_a*w), a positive multiple of
q - a; whole line keys (``cross_row``, ``plucker_row``) are formed only where
lines are listed.

The line histogram and the degrees are sums over anchors, so the anchors are
split into stripes, anchor i going to stripe i mod S; anchor i keys n - 1 - i
pairs, so the stripes get about equal shares. A stripe returns only its
class-size Counter or its n-long list of degree shares, and the sum of the
stripes is what one stripe over every anchor gives, so the histogram's checks
run on the merged counts unchanged and every count is the same at any S. A set
of more than ``_POOL_MIN_PAIRS`` pairs runs one stripe per usable CPU in a fork
pool; a smaller set runs as one stripe in-process and never imports
``multiprocessing``. Ordinary lines, pair counts and planes are not striped:
their results are as large as their pair or triple counts, and shipping them
between processes costs more than keying them.

Planes group pairs of one anchor's direction classes by the normal they span,
so each group (a bundle) is the anchor's share of one plane, again complete at
its first anchor, without touching raw triples. A bundle carries the count of its
points beside its classes, so the heaviest plane through a point is read
without listing members. Whether some plane holds at least m points needs
less: such a plane misses at most N - m of the anchor's N later points, so it
contains two of the few largest classes, and only the bundles of those are
formed and completed (``_some_plane_holds``). The kernels read a rational
set's integer coordinates, computed once per set (``PointSet.homs``), so a
subset of the set is counted from its indices and never rebuilt as a set.

Projections from a set point are kept projective: the image of q under
projection from p is the direction of the line pq, as a point of the rational
projective plane. No image plane is ever chosen, which makes the projection
exact and canonical while preserving exactly the collinearity structure a
generic image plane would show. A line of the image is a plane through p, so
the projection hunt (``kelly_trace``) reads the image lines as the bundles of
p's direction classes, and each hunted plane's ordinary lines as the pair keys
counted once.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from math import comb, gcd

from .errors import DegenerateInputError, InvariantViolationError, UsageError
from .geometry import (
    CanonLine2,
    CanonLine3,
    CanonPlane,
    Kind,
    Point,
    _plucker_incident,
    _require_same,
    canon_line,
    cross_row,
    direction2_row,
    direction_row,
    int_hom,
    plucker_row,
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
    "max_coplanar",
    "point_degrees",
    "project_from",
    "kelly_trace",
]

# Above this many pairs the line histogram and the degrees run in worker
# processes (``_run_stripes``). On a 2-core VM (CPython 3.11) a pool costs about
# 10-14 ms to start and stop, and keying about 0.45 us per pair, so at this
# count two workers save about twice what the pool costs; below about 50,000
# pairs they save nothing.
_POOL_MIN_PAIRS = 100_000


@dataclass(frozen=True)
class PointSet:
    """A nonempty tuple of pairwise distinct points, all of one kind and field.

    The label is one line of text with no whitespace at either end, so that a
    point-set file carries it unchanged."""

    points: tuple[Point, ...]
    label: str = ""

    def __init__(self, points, label: str = ""):
        pts = tuple(points)
        if not pts:
            raise UsageError("point set must be nonempty")
        _require_same(pts, tuple(Kind), "point set")
        if len(set(pts)) != len(pts):
            raise UsageError("point set has duplicate points")
        if not isinstance(label, str) or "\n" in label or "\r" in label or label != label.strip():
            raise UsageError(f"label {label!r} is not one line without edge whitespace")
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

    @cached_property
    def homs(self) -> tuple[tuple[int, ...], ...]:
        """The integer homogeneous coordinates (``int_hom``) of a rational set's
        points, indexed like the set and computed once. Not a field: equality,
        hashing and output see only the points and the label."""
        if self.field_name != "Q":
            raise UsageError("integer coordinates need a rational point set")
        return tuple(map(int_hom, self.points))


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
    """Every spanned plane of a 3D set with the number of the set's points on it,
    in plane order (``CanonPlane.sort_key``)."""

    plane_counts: dict[CanonPlane, int]
    max_coplanar: int


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


def _canon_line_row(p: Point, qs) -> list:
    return list(map(canon_line, repeat(p), qs))


def _pair_keys(P: PointSet, lines: bool):
    """The items of P and a row key: ``row(items[i], items[i + 1:])`` keys each
    later item by the line it spans with item i, or, unless ``lines``, only by
    that line through item i (a direction, in a rational affine set). The one
    place a kernel is chosen, by the kind of P."""
    if P.field_name != "Q":
        return P.points, _canon_line_row
    if P.kind is Kind.AFFINE3:
        return P.homs, plucker_row if lines else direction_row
    if P.kind is Kind.AFFINE2 and not lines:
        return P.homs, direction2_row
    return P.homs, cross_row


def _run_stripes(stripe, items, row) -> list:
    """``stripe(items, row, s, S)`` for each stripe s < S (see the module
    docstring). Above ``_POOL_MIN_PAIRS`` pairs the stripes run in a fork pool,
    one per usable CPU, unless there is only one CPU, fork is unavailable, or the
    process is a daemon (a pool worker, which may have no children) or runs
    other threads (which fork does not copy); otherwise the items are one
    stripe, run in-process. A stripe's exception is raised here, and no worker
    outlives the call."""
    n = len(items)
    if n * (n - 1) // 2 > _POOL_MIN_PAIRS and hasattr(os, "sched_getaffinity"):
        import multiprocessing
        import threading

        cpus = len(os.sched_getaffinity(0))
        if (
            cpus > 1
            and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
            and threading.active_count() == 1
        ):
            with multiprocessing.get_context("fork").Pool(cpus) as pool:
                return pool.starmap(stripe, [(items, row, s, cpus) for s in range(cpus)])
    return [stripe(items, row, 0, 1)]


def _pair_counts(items, row) -> Counter:
    """Count the item pairs on each spanned line's key, with ``row`` a row key as
    ``_pair_keys`` gives it (naming whole lines): C(k, 2) on a k-point line."""
    rows = (row(items[i], items[i + 1 :]) for i in range(len(items) - 1))
    return Counter(chain.from_iterable(rows))


def _histogram_stripe(items, row, stripe: int, stripes: int) -> Counter:
    """The class sizes h (see the module docstring) of the anchors i of the items
    with i % stripes == stripe, as a Counter of size -> (anchor, class) pairs."""
    h: Counter = Counter()
    for i in range(stripe, len(items) - 1, stripes):
        h.update(Counter(row(items[i], items[i + 1 :])).values())
    return h


def _line_histogram(items, row) -> SpanSummary:
    """The span summary of the items, with ``row`` a row key as ``_pair_keys``
    gives it, as t[k] = h[k-1] - h[k] over the anchors' class sizes h (see the
    module docstring)."""
    n = len(items)
    h: Counter = Counter()
    for part in _run_stripes(_histogram_stripe, items, row):
        h.update(part)
    t = {k: h[k - 1] - h[k] for k in range(2, max(h) + 2) if h[k - 1] != h[k]}
    if min(t.values()) < 0:
        raise InvariantViolationError("class-size histogram increases with size")
    if sum(comb(k, 2) * c for k, c in t.items()) != comb(n, 2):
        raise InvariantViolationError("line histogram does not account for every point pair")
    return SpanSummary(t=t, num_lines=h[1], ordinary=t.get(2, 0), max_collinear=max(t), n=n)


def span_summary(P: PointSet) -> SpanSummary:
    """Classify every spanned line of P by how many points of P it contains."""
    if len(P) < 2:
        raise UsageError("span_summary needs at least 2 points")
    return _line_histogram(*_pair_keys(P, lines=False))


def ordinary_lines(P: PointSet) -> list[CanonLine2 | CanonLine3]:
    """The spanned lines containing exactly two points of P, canonically sorted."""
    if len(P) < 2:
        raise UsageError("ordinary_lines needs at least 2 points")
    out = [key for key, pairs in _pair_counts(*_pair_keys(P, lines=True)).items() if pairs == 1]
    if P.field_name != "Q":  # the Qw path's keys are lines already
        return sorted(out, key=lambda line: line.sort_key())
    # Rational keys are bare integer tuples, which sort as their lines' sort_key does.
    return list(map(CanonLine3 if P.kind is Kind.AFFINE3 else CanonLine2, sorted(out)))


def max_coplanar(P: PointSet) -> int:
    """The most points of a 3D set on one spanned plane: an anchor and its largest
    bundle of later points (``_bundles``), as a plane is complete at its first point."""
    return 1 + max(
        bundle[0]
        for _, classes in _plane_anchors(P, 2, "max_coplanar")
        for bundle in _bundles(list(classes), list(map(len, classes.values()))).values()
    )


def _breaks_cap(P: PointSet, cap: int, name: str = "max_coplanar") -> bool:
    """Whether some spanned plane of a 3D set holds more than cap points, that is
    ``max_coplanar(P) > cap``, with its errors (``name`` is the caller named in a
    usage error). Such a plane holds at least cap points after its first point,
    so only anchors with that many later points are asked (``_some_plane_holds``).
    """
    return any(
        _some_plane_holds(list(classes), list(map(len, classes.values())), cap)
        for _, classes in _plane_anchors(P, cap, name)
    )


def _degree_stripe(items, row, stripe: int, stripes: int) -> list[int]:
    """The share of each item's degree that the anchors i with i % stripes ==
    stripe give it (see the module docstring), as a list indexed like the items."""
    n = len(items)
    degrees = [0] * n
    for i in range(stripe, n - 1, stripes):
        keys = row(items[i], items[i + 1 :])
        counts = Counter(keys)
        # Point i starts one class per line on which it is not the last point;
        # the last point j of a line is alone in its class at the line's
        # second-to-last point, and only there.
        degrees[i] += len(counts)
        last = dict(zip(keys, range(i + 1, n)))
        for k, c in counts.items():
            if c == 1:
                degrees[last[k]] += 1
    return degrees


def point_degrees(P: PointSet) -> list[int]:
    """Number of spanned lines through each point, indexed like P."""
    if len(P) < 2:
        raise UsageError("point_degrees needs at least 2 points")
    return list(map(sum, zip(*_run_stripes(_degree_stripe, *_pair_keys(P, lines=False)))))


def _direction_classes(homs, anchor: int, others) -> dict[tuple[int, ...], list[int]]:
    """The points ``others`` of a 3D set grouped by their direction from the
    anchor, one class per line through the anchor, in order of first member."""
    others = list(others)
    classes: dict[tuple[int, ...], list[int]] = {}
    for j, d in zip(others, direction_row(homs[anchor], [homs[j] for j in others])):
        members = classes.get(d)
        if members is None:
            classes[d] = [j]
        else:
            members.append(j)
    return classes


def _bundles(dirs: list, sizes: list[int]) -> dict[tuple[int, ...], list[int]]:
    """The planes through an anchor, from its direction classes.

    ``dirs[c]`` is a direction (any nonzero integer multiple will do) of the
    c-th line through the anchor, and ``sizes[c]`` the number of points on it
    besides the anchor. Two classes lie on the plane whose normal is their
    cross product, so a line through the anchor joins every plane that contains
    it. Maps each normal to its bundle ``[points, c0, c1, ...]``: the number of
    points on the plane besides the anchor, then its classes. Empty when there
    is only one class.
    """
    bundles: dict[tuple[int, ...], list[int]] = {}
    for a in range(len(dirs) - 1):
        sa = sizes[a]
        for b, normal in enumerate(cross_row(dirs[a], dirs[a + 1 :]), a + 1):
            bundle = bundles.get(normal)
            if bundle is None:
                bundles[normal] = [sa + sizes[b], a, b]
            elif bundle[1] == a:
                # Each class of a plane is met paired with the plane's first
                # class, so only those pairs add a class to its bundle.
                bundle[0] += sizes[b]
                bundle.append(b)
    return bundles


def _some_plane_holds(dirs: list, sizes: list[int], m: int) -> bool:
    """Whether some plane through an anchor with these direction classes (see
    ``_bundles``) holds at least m points besides the anchor, pruned by pigeonhole.

    With N points in the classes, such a plane misses at most slack = N - m of
    them. Take classes, largest first, until the prefix holds slack + s + 2
    points, s the largest class size. The plane keeps at least s + 2 of the
    prefix's points, more than any one class holds, so it contains two prefix
    classes: it is a bundle of the prefix alone with at least ``prefix total -
    slack`` points. Only those bundles are completed with the other classes, by
    the exact dot product of the normal with each direction. A margin of s + 1
    would be enough; s + 2 keeps the prefix's 3-point planes from all being
    candidates when s is 1. When the prefix is every class, this is the full
    enumeration.
    """
    if m <= 0:
        return True
    slack = sum(sizes) - m
    if slack < 0:
        return False
    order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    need = slack + sizes[order[0]] + 2
    prefix, total = [], 0
    for c in order:
        if total >= need:
            break
        prefix.append(c)
        total += sizes[c]
    rest = order[len(prefix) :]
    bundles = _bundles([dirs[c] for c in prefix], [sizes[c] for c in prefix])
    for (n0, n1, n2), bundle in bundles.items():
        count = bundle[0]
        if count < total - slack:
            continue
        for c in rest:
            d0, d1, d2 = dirs[c]
            if n0 * d0 + n1 * d1 + n2 * d2 == 0:
                count += sizes[c]
        if count >= m:
            return True
    return False


def _plane_anchors(P: PointSet, later: int, name: str):
    """Yield (i, classes) for each anchor i of a 3D set with at least ``later``
    later points (and at least 2), its later points grouped by direction
    (``_direction_classes``). A plane is complete at its smallest-index anchor.
    Raises UsageError (naming the caller ``name``) unless P is a 3D set of at
    least 3 points, then DegenerateInputError when every point is on one line,
    both whether or not anchor 0 is yielded."""
    if P.kind is not Kind.AFFINE3:
        raise UsageError(f"{name} needs a 3D affine set")
    if len(P) < 3:
        raise UsageError(f"{name} needs at least 3 points")
    homs = P.homs
    n = len(homs)
    classes = _direction_classes(homs, 0, range(1, n))
    if len(classes) < 2:
        raise DegenerateInputError("all points are collinear; spanned planes are undefined")
    for i in range(n - max(later, 2)):
        yield i, classes if i == 0 else _direction_classes(homs, i, range(i + 1, n))


def _plane_groups(P: PointSet, min_points: int = 3) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map the key (as ``plane_key`` gives it) of each spanned plane with at least
    ``min_points`` points to the sorted indices of the points of P on it.

    Each point i anchors the planes it spans with the points after it. A plane
    is complete at its smallest-index anchor, so a key seen before is skipped,
    and a bundle with fewer points is never keyed. A bundle's normal n is
    primitive with a positive leading entry and the anchor's weight w is
    positive, so the plane's vector (w*n, d) has content gcd(w, d) and needs no
    sign change.
    """
    groups: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i, classes in _plane_anchors(P, min_points - 1, "plane_summary"):
        x0, x1, x2, w = P.homs[i]  # read after the anchors' checks
        members = list(classes.values())
        for (n0, n1, n2), bundle in _bundles(list(classes), list(map(len, members))).items():
            if bundle[0] < min_points - 1:
                continue
            d = -(n0 * x0 + n1 * x1 + n2 * x2)
            g = gcd(w, d)
            f = w // g
            key = (f * n0, f * n1, f * n2, d // g)
            if key not in groups:
                on_plane = members[bundle[1]] + members[bundle[2]]
                for c in bundle[3:]:
                    on_plane += members[c]
                on_plane.sort()
                groups[key] = (i, *on_plane)
    return groups


def plane_summary(P: PointSet) -> PlaneSummary:
    """Classify every spanned plane of a 3D set by the points of P it contains."""
    groups = _plane_groups(P)
    # Bare integer tuples sort as their planes' sort_key does.
    counts = {CanonPlane(k): len(groups[k]) for k in sorted(groups)}
    return PlaneSummary(counts, max(counts.values()))


def _center_classes(P: PointSet, center_index: int) -> dict[tuple[int, ...], list[int]]:
    """The other points of a 3D set grouped by their direction from the center
    (``_direction_classes``): the preimages of the projection's image points."""
    if P.kind is not Kind.AFFINE3:
        raise UsageError("project_from needs a 3D affine set")
    if len(P) < 2:
        raise UsageError("project_from needs at least 2 points")
    if not 0 <= center_index < len(P):
        raise UsageError(f"center index {center_index} out of range for {len(P)} points")
    others = chain(range(center_index), range(center_index + 1, len(P)))
    return _direction_classes(P.homs, center_index, others)


def project_from(P: PointSet, center_index: int) -> ProjectionImage:
    """Project a 3D set from one of its points, grouping the rest by direction."""
    by_dir = _center_classes(P, center_index)
    groups = [(projective2(*d), tuple(idxs)) for d, idxs in by_dir.items()]
    groups.sort(key=lambda g: g[0].sort_key())
    return ProjectionImage(center=center_index, groups=groups, source=P)


def kelly_trace(P: PointSet, center_index: int) -> KellyTraceReport:
    """Hunt for ordinary lines of P avoiding one point, via the projection from it.

    The image points are the center's direction classes, and a class of one
    point is a unique-preimage point. An image line is a plane through the
    center, so the image lines with at least two image points are the bundles
    of those classes (``_bundles``). In each bundle with no unique-preimage
    point, the plane's lines through the center hold a whole class of at least
    two points besides the center, so the plane's ordinary lines are those that
    avoid the center: its pair keys counted once. Over the rationals every such
    plane has one; an empty-handed search is reported as an invariant violation
    rather than papered over.
    """
    if P.field_name != "Q":
        raise UsageError("kelly_trace needs a rational point set")
    classes = _center_classes(P, center_index)
    members = list(classes.values())
    sizes = list(map(len, members))
    homs = P.homs
    center = homs[center_index]
    l1_size = 0
    found: set[tuple[int, ...]] = set()
    for bundle in _bundles(list(classes), sizes).values():
        if any(sizes[c] == 1 for c in bundle[1:]):
            continue
        l1_size += 1
        # The plane meets P exactly in the center and the bundle's classes.
        local = [center] + [homs[i] for c in bundle[1:] for i in members[c]]
        ordinary = [key for key, pairs in _pair_counts(local, plucker_row).items() if pairs == 1]
        if not ordinary:
            raise InvariantViolationError(
                "no ordinary line avoiding the center in a plane where one is guaranteed"
            )
        found.update(ordinary)

    for plucker in found:
        on_line = sum(1 for h in homs if _plucker_incident(plucker, h))
        if on_line != 2 or _plucker_incident(plucker, center):
            raise InvariantViolationError("recorded line is not ordinary or hits the center")
    if len(found) < l1_size:
        raise InvariantViolationError("fewer ordinary lines than hunted planes")
    # Bare Plücker tuples sort as their lines' sort_key does.
    return KellyTraceReport(
        q1_size=len(sizes),
        q2_size=sizes.count(1),
        l1_size=l1_size,
        found_ordinary=list(map(CanonLine3, sorted(found))),
    )
