"""Shared test helpers: naive oracles, random rational affine maps, and
hypothesis strategies for large rational coordinates.

The oracles classify lines and planes by direct predicate testing over raw
point triples and quadruples, with no canonical hashing, so they are slow and
independent of the implementation under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from ordlines import PointSet, affine3, canon_plane, collinear, coplanar

# Rationals whose numerators and denominators reach about 200 bits.
_BIG = 1 << 200
big_rational = st.builds(
    Fraction, st.integers(min_value=-_BIG, max_value=_BIG), st.integers(min_value=1, max_value=_BIG)
)
big_vec = st.tuples(big_rational, big_rational, big_rational)
small_int = st.integers(min_value=-3, max_value=3)

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def integer_box(a: int, b: int, c: int) -> tuple[PointSet, int]:
    """The integer box {1..a} x {1..b} x {1..c}, x slowest, and the index of its
    centre point ((a + 1) // 2, (b + 1) // 2, (c + 1) // 2)."""
    pts = [affine3(x, y, z) for x in range(1, a + 1) for y in range(1, b + 1) for z in range(1, c + 1)]
    centre = affine3((a + 1) // 2, (b + 1) // 2, (c + 1) // 2)
    return PointSet(pts, label=f"box-{a}x{b}x{c}"), pts.index(centre)


def naive_line_sets(P: PointSet) -> set[frozenset[int]]:
    """Index sets of all spanned lines, by direct collinearity tests per pair."""
    n = len(P)
    lines = set()
    for i in range(n - 1):
        for j in range(i + 1, n):
            members = frozenset(k for k in range(n) if collinear(P[i], P[j], P[k]))
            lines.add(members)
    return lines


def naive_span(P: PointSet) -> dict[int, int]:
    """Line histogram t from the naive classifier."""
    t: dict[int, int] = {}
    for members in naive_line_sets(P):
        t[len(members)] = t.get(len(members), 0) + 1
    return t


def naive_plane_sets(P: PointSet) -> set[frozenset[int]]:
    """Index sets of all spanned planes, by direct coplanarity tests per triple."""
    n = len(P)
    planes = set()
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                if collinear(P[i], P[j], P[k]):
                    continue
                members = frozenset(
                    m for m in range(n) if coplanar(P[i], P[j], P[k], P[m])
                )
                planes.add(members)
    return planes


def naive_plane_counts(P: PointSet) -> dict:
    """Map CanonPlane -> point count, built from the naive triple classifier."""
    counts = {}
    for members in naive_plane_sets(P):
        idx = sorted(members)
        # find a non-collinear triple inside the plane to name it canonically
        named = None
        for a in range(len(idx) - 2):
            for b in range(a + 1, len(idx) - 1):
                for c in range(b + 1, len(idx)):
                    if not collinear(P[idx[a]], P[idx[b]], P[idx[c]]):
                        named = canon_plane(P[idx[a]], P[idx[b]], P[idx[c]])
                        break
                if named:
                    break
            if named:
                break
        counts[named] = len(members)
    return counts


def naive_kelly_found(P: PointSet, center: int) -> tuple[set[frozenset[int]], int]:
    """What the projection from P[center] must reveal, by direct predicate tests.

    A plane through the center qualifies when every line through the center in
    it holds at least two further points of P (no unique-preimage image point).
    Returns the index pairs spanning an ordinary line of P that misses the
    center and lies in a qualifying plane, and the number of qualifying planes.
    """
    c = P[center]
    others = [k for k in range(len(P)) if k != center]
    planes = {
        frozenset(k for k in others if coplanar(c, P[i], P[j], P[k]))
        for i, j in combinations(others, 2)
        if not collinear(c, P[i], P[j])
    }
    qualifying = [
        plane
        for plane in planes
        if all(sum(1 for m in plane if collinear(c, P[k], P[m])) >= 2 for k in plane)
    ]
    found = set()
    for plane in qualifying:
        for i, j in combinations(sorted(plane), 2):
            if collinear(c, P[i], P[j]):
                continue
            if not any(collinear(P[i], P[j], P[k]) for k in range(len(P)) if k not in (i, j)):
                found.add(frozenset((i, j)))
    return found, len(qualifying)


def rand_fraction(rng: random.Random, bound: int = 10) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_affine_map(rng: random.Random):
    """A random invertible rational affine map of 3-space, as a callable on points."""
    while True:
        m = [[rand_fraction(rng, 5) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det != 0:
            break
    shift = [rand_fraction(rng, 5) for _ in range(3)]

    def apply(point):
        x, y, z = point.coords
        return affine3(
            m[0][0] * x + m[0][1] * y + m[0][2] * z + shift[0],
            m[1][0] * x + m[1][1] * y + m[1][2] * z + shift[1],
            m[2][0] * x + m[2][1] * y + m[2][2] * z + shift[2],
        )

    return apply


def apply_map(P: PointSet, mapping) -> PointSet:
    return PointSet([mapping(p) for p in P], label=P.label + "/mapped")
