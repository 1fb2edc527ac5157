"""Generators for the named configurations and seeded random sets.

Deterministic: the same parameters and seed always produce the identical point
set, point for point and in the same order. Seeds are 64-bit unsigned
integers fed to the standard Mersenne Twister.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, gcd

from .errors import GenerationError, InvariantViolationError, UsageError
from .fields import Eisenstein, W
from .geometry import Point, affine2, affine3, projective2
from .incidence import PointSet, _breaks_cap

__all__ = [
    "BoroczkyModelSummary",
    "gen_two_skew",
    "gen_near_coplanar",
    "gen_coplanar_heavy",
    "gen_random",
    "gen_hesse",
    "gen_grid2d",
    "boroczky_model",
]

RETRY_LIMIT = 100


def _rng(seed: int) -> random.Random:
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise UsageError("seed must be an unsigned 64-bit integer")
    return random.Random(seed)


def _rand_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _random_points(rng: random.Random, n: int, dim: int, bound: int) -> list[Point]:
    """n distinct affine points of dimension dim (2 or 3) with coordinates drawn
    by ``_rand_fraction``, sorted. Refused before any draw when fewer than n such
    points exist. A coordinate takes the values 0 and ±a/b for coprime
    1 <= a, b <= bound; those include the 2*bound + 1 integers, so the coprime
    pairs are counted only when n exceeds (2*bound + 1)^dim."""
    if n > (2 * bound + 1) ** dim:
        coprime = sum(gcd(a, b) == 1 for a in range(1, bound + 1) for b in range(1, bound + 1))
        room = (1 + 2 * coprime) ** dim
        if n > room:
            raise UsageError(f"bound {bound} allows only {room} distinct {dim}D points, not n = {n}")
    coords: set[tuple[Fraction, ...]] = set()
    while len(coords) < n:
        coords.add(tuple(_rand_fraction(rng, bound) for _ in range(dim)))
    make = affine2 if dim == 2 else affine3
    return [make(*c) for c in sorted(coords)]


def gen_two_skew(m: int) -> PointSet:
    """m points on each of two skew lines: (t,0,0) and (0,t,1) for t = 1..m."""
    if m < 2:
        raise UsageError("gen_two_skew needs m >= 2")
    pts = [affine3(t, 0, 0) for t in range(1, m + 1)]
    pts += [affine3(0, t, 1) for t in range(1, m + 1)]
    return PointSet(pts, label=f"two-skew-{m}")


def gen_near_coplanar(n: int, k: int, seed: int = 0) -> PointSet:
    """n−k random points in the plane z=0 (one of them the origin) plus k points
    stacked on the z-axis at (0,0,1)..(0,0,k).

    Regenerates until z=0, with exactly n−k points, is a heaviest plane. A
    plane through the z-axis and a planar point holds at least k+2 points, so
    when n−k = k+2 those planes tie with z=0, and n−k < k+2 is refused up
    front. No planar point other than the origin touches the z-axis. Since the
    stacked points all sit on the z-axis and every line through two planar
    points stays inside z=0, those two conditions already rule out any stray
    collinearity through a stacked point.

    The resulting set has ordinary count k(n−k) + ord_planar − k for k ≥ 2,
    where ord_planar is the ordinary count of the planar part on its own; for
    k = 1 the z-axis itself is ordinary and the count is one higher.
    """
    if k < 1:
        raise UsageError("gen_near_coplanar needs k >= 1")
    if n - k < 4:
        raise UsageError("gen_near_coplanar needs n - k >= 4")
    if n - k < k + 2:  # the plane through the z-axis and any planar point holds k + 2
        raise UsageError("gen_near_coplanar needs n - k >= k + 2")
    rng = _rng(seed)
    for _ in range(RETRY_LIMIT):
        planar: set[tuple[Fraction, Fraction]] = set()
        while len(planar) < n - k - 1:
            x, y = _rand_fraction(rng, 50), _rand_fraction(rng, 50)
            if x == 0 and y == 0:
                continue
            planar.add((x, y))
        pts = [affine3(0, 0, 0)]
        pts += [affine3(x, y, 0) for x, y in sorted(planar)]
        pts += [affine3(0, 0, t) for t in range(1, k + 1)]
        ps = PointSet(pts, label=f"near-coplanar-{n}-{k}-seed{seed}")
        if not _breaks_cap(ps, n - k):  # z = 0 holds n - k points
            return ps
    raise GenerationError(
        f"no admissible near-coplanar set for n={n}, k={k} after {RETRY_LIMIT} tries"
    )


def gen_coplanar_heavy(n: int, alpha: Fraction, seed: int = 0) -> PointSet:
    """A set whose heaviest plane carries exactly floor(alpha*n) points.

    floor(alpha*n) random rational points go into z=0, the rest into a box off
    the plane (z shifted by 60, so never on it), ordered by (z, x, y);
    regenerates until the heaviest-plane count lands exactly.
    """
    alpha = Fraction(alpha)
    m = floor(alpha * n)
    if not 3 <= m <= n:
        raise UsageError(f"floor(alpha*n) = {m} must be between 3 and n = {n}")
    rng = _rng(seed)
    for _ in range(RETRY_LIMIT):
        pts = [affine3(*p.coords, 0) for p in _random_points(rng, m, 2, 50)]
        off = [p.coords for p in _random_points(rng, n - m, 3, 50)]
        pts += [affine3(x, y, z + 60) for x, y, z in off]
        pts.sort(key=lambda p: (p.coords[2], p.coords[0], p.coords[1]))
        ps = PointSet(pts, label=f"coplanar-heavy-{n}-{alpha}-seed{seed}")
        if not _breaks_cap(ps, m):  # z = 0 holds m points
            return ps
    raise GenerationError(
        f"no admissible coplanar-heavy set for n={n}, alpha={alpha} after {RETRY_LIMIT} tries"
    )


def gen_random(n: int, dim: int, bound: int = 50, seed: int = 0) -> PointSet:
    """n distinct random rational points with numerators and denominators up to bound."""
    if n < 1:
        raise UsageError("gen_random needs n >= 1")
    if dim not in (2, 3):
        raise UsageError("gen_random supports dim 2 or 3")
    if bound < 1:
        raise UsageError("gen_random needs bound >= 1")
    pts = _random_points(_rng(seed), n, dim, bound)
    return PointSet(pts, label=f"random-{n}-{dim}d-seed{seed}")


def gen_hesse() -> PointSet:
    """The nine inflection points of a cubic, over the rationals extended by a
    primitive cube root of unity. Spans twelve 3-point lines and no ordinary line."""
    w2 = -1 - W
    triples = [
        (0, 1, -1),
        (0, 1, -W),
        (0, 1, -w2),
        (1, 0, -1),
        (1, 0, -W),
        (1, 0, -w2),
        (1, -1, 0),
        (1, -W, 0),
        (1, -w2, 0),
    ]
    # Points with no w term still live in the extension field; lift uniformly.
    pts = [
        projective2(*(c if isinstance(c, Eisenstein) else Eisenstein(c, 0) for c in t))
        for t in triples
    ]
    return PointSet(pts, label="hesse")


def gen_grid2d(a: int, b: int) -> PointSet:
    """The integer grid {1..a} x {1..b} in the affine plane."""
    if a < 2 or b < 2:
        raise UsageError("gen_grid2d needs a, b >= 2")
    pts = [affine2(x, y) for x in range(1, a + 1) for y in range(1, b + 1)]
    return PointSet(pts, label=f"grid-{a}x{b}")


@dataclass
class BoroczkyModelSummary:
    """Line histogram of the conic-plus-line configuration with m points on each."""

    m: int
    n: int
    ordinary: int
    t: dict[int, int]

    @property
    def num_lines(self) -> int:
        return sum(self.t.values())


def boroczky_model(m: int) -> BoroczkyModelSummary:
    """Count the lines of the conic-plus-line configuration by its incidence rules.

    m conic points C_j and m line points D_i (indices mod m), with the lines:

    * the line at infinity, carrying exactly the D_i;
    * for each pair j < k, the chord through C_j and C_k, which meets the
      line at infinity in D_{(j+k+m/2) mod m} and nothing else;
    * for each j, the tangent at C_j, meeting infinity in D_{(2j+m/2) mod m}.

    The histogram is computed by enumerating these lines, and the rules are
    re-validated on every call: each pair of model points must lie on exactly
    one line. Ordinary lines are the m tangents, so the count is n/2.
    """
    if m % 2 != 0 or m < 4:
        raise UsageError("boroczky_model needs an even m >= 4")
    half = m // 2
    conic = [("C", j) for j in range(m)]
    infty = [("D", i) for i in range(m)]
    lines: list[frozenset] = [frozenset(infty)]
    for j in range(m):
        for k in range(j + 1, m):
            lines.append(frozenset({conic[j], conic[k], infty[(j + k + half) % m]}))
    for j in range(m):
        lines.append(frozenset({conic[j], infty[(2 * j + half) % m]}))

    pair_cover: dict[frozenset, int] = {}
    for line in lines:
        pts = sorted(line)
        for a in range(len(pts) - 1):
            for b in range(a + 1, len(pts)):
                key = frozenset({pts[a], pts[b]})
                pair_cover[key] = pair_cover.get(key, 0) + 1
    if len(pair_cover) != comb(2 * m, 2) or any(c != 1 for c in pair_cover.values()):
        raise InvariantViolationError("model lines do not cover each point pair exactly once")

    t: dict[int, int] = {}
    for line in lines:
        t[len(line)] = t.get(len(line), 0) + 1
    return BoroczkyModelSummary(m=m, n=2 * m, ordinary=t.get(2, 0), t=dict(sorted(t.items())))
