"""Spanned-line/plane summaries against naive oracles, plus projection and the
center-avoiding ordinary-line hunt."""

import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from ordlines import (
    DegenerateInputError,
    PointSet,
    UsageError,
    affine2,
    affine3,
    canon_line,
    collinear,
    coplanar,
    gen_coplanar_heavy,
    gen_grid2d,
    gen_hesse,
    gen_near_coplanar,
    gen_random,
    gen_two_skew,
    incident,
    kelly_trace,
    max_coplanar,
    ordinary_lines,
    plane_ordinary_profile,
    plane_summary,
    point_degrees,
    project_from,
    projective2,
    span_summary,
    verify_sylvester_gallai,
    write_pointset,
)
from ordlines import incidence
from ordlines.geometry import CanonPlane, Kind, direction2_row, int_hom, plane_key
from ordlines.incidence import _first_planes, _pair_counts, _pair_keys, _plane_members
from conftest import (
    big_rational,
    big_vec,
    integer_box,
    naive_kelly_found,
    naive_line_sets,
    naive_plane_counts,
    naive_plane_key_counts,
    naive_plane_sets,
    naive_span,
    random_affine_map,
    small_int,
)


def axes_seven() -> PointSet:
    pts = [affine3(0, 0, 0)]
    pts += [affine3(1, 0, 0), affine3(2, 0, 0)]
    pts += [affine3(0, 1, 0), affine3(0, 2, 0)]
    pts += [affine3(0, 0, 1), affine3(0, 0, 2)]
    return PointSet(pts, label="three-axes")


# --- point set validation -----------------------------------------------


def test_pointset_rejects_empty():
    with pytest.raises(UsageError):
        PointSet([])


def test_pointset_rejects_duplicates():
    with pytest.raises(UsageError):
        PointSet([affine2(1, 1), affine2(1, 1)])


def test_pointset_rejects_mixed_kinds():
    with pytest.raises(UsageError):
        PointSet([affine2(0, 0), affine3(0, 0, 0)])


def test_pointset_homs_are_int_hom_and_leave_the_set_unchanged():
    at_infinity = [projective2(1, Fraction(2, 3), 0), projective2(0, 1, Fraction(-5, 7))]
    sets = [gen_random(12, 3, 50, 1), gen_random(12, 2, 50, 2), PointSet(at_infinity)]
    for P in sets:
        twin = PointSet(P.points, label=P.label)
        text, digest = write_pointset(P), hash(P)
        assert P.homs == tuple(int_hom(p) for p in P)
        assert P.homs is P.homs
        assert P == twin and hash(P) == digest == hash(twin)
        assert write_pointset(P) == text
    with pytest.raises(UsageError):
        gen_hesse().homs


# --- span summaries ------------------------------------------------------


def test_triangle():
    s = span_summary(PointSet([affine2(0, 0), affine2(1, 0), affine2(0, 1)]))
    assert s.t == {2: 3}
    assert s.ordinary == 3
    assert s.num_lines == 3
    assert point_degrees(PointSet([affine2(0, 0), affine2(1, 0), affine2(0, 1)])) == [2, 2, 2]


def test_four_collinear():
    P = PointSet([affine2(t, t) for t in range(4)])
    s = span_summary(P)
    assert s.t == {4: 1}
    assert s.ordinary == 0
    assert s.max_collinear == 4
    assert ordinary_lines(PointSet([affine2(t, 0) for t in range(3)])) == []
    assert point_degrees(P) == [1, 1, 1, 1]


def test_two_skew_three():
    s = span_summary(gen_two_skew(3))
    assert s.ordinary == 9
    assert s.t[3] == 2
    assert s.num_lines == 11


def test_two_skew_ten_ordinary_lines_join_the_two_lines():
    P = gen_two_skew(10)
    lines = ordinary_lines(P)
    assert len(lines) == 100
    for line in lines:
        members = [p for p in P if incident(line, p)]
        assert len(members) == 2
        # one endpoint on each supporting line: y == 0 on the first, z == 1 on the second
        kinds = sorted(p.coords[1] == 0 and p.coords[2] == 0 for p in members)
        assert kinds == [False, True]


def test_singleton_rejected():
    with pytest.raises(UsageError):
        span_summary(PointSet([affine2(0, 0)]))
    with pytest.raises(UsageError):
        ordinary_lines(PointSet([affine2(0, 0)]))


def test_pair_identity_on_random_sets():
    for seed in range(10):
        P = gen_random(9, 2 if seed % 2 else 3, seed=seed)
        s = span_summary(P)
        assert sum(comb(k, 2) * c for k, c in s.t.items()) == comb(s.n, 2)
        assert s.num_lines == sum(s.t.values())
        assert s.ordinary == s.t.get(2, 0)


def test_span_oracle_equivalence_small_sets():
    sets = [gen_random(n, dim, seed=n * 10 + dim) for n in (5, 8, 10) for dim in (2, 3)]
    sets += [gen_two_skew(3), gen_two_skew(4), gen_hesse()]
    for P in sets:
        s = span_summary(P)
        assert s.t == naive_span(P), P.label
        assert s.num_lines == len(naive_line_sets(P)), P.label


def test_degrees_sum_equals_incidence_sum():
    P = gen_random(8, 2, seed=3)
    degrees = point_degrees(P)
    total_incidences = sum(k * c for k, c in span_summary(P).t.items())
    assert sum(degrees) == total_incidences


def test_general_position_degrees():
    P = gen_random(7, 2, seed=12)
    if span_summary(P).max_collinear == 2:
        assert point_degrees(P) == [6] * 7


# --- plane summaries -----------------------------------------------------


def test_simplex_planes():
    P = PointSet([affine3(0, 0, 0), affine3(1, 0, 0), affine3(0, 1, 0), affine3(0, 0, 1)])
    ps = plane_summary(P)
    assert len(ps.plane_counts) == 4
    assert set(ps.plane_counts.values()) == {3}
    assert ps.max_coplanar == 3


def test_two_skew_plane_summary():
    ps = plane_summary(gen_two_skew(3))
    assert ps.max_coplanar == 4
    assert len(ps.plane_counts) == 6
    assert set(ps.plane_counts.values()) == {4}


def test_near_coplanar_max():
    ps = plane_summary(gen_near_coplanar(10, 2, seed=1))
    assert ps.max_coplanar == 8


def test_plane_summary_rejects_collinear_and_2d():
    with pytest.raises(DegenerateInputError):
        plane_summary(PointSet([affine3(t, 0, 0) for t in range(4)]))
    with pytest.raises(UsageError):
        plane_summary(PointSet([affine2(0, 0), affine2(1, 0), affine2(0, 1)]))


def test_plane_oracle_equivalence_small_sets():
    sets = [gen_random(n, 3, seed=n) for n in (5, 7, 9, 10)]
    sets += [gen_two_skew(3), gen_two_skew(4), gen_near_coplanar(9, 2, seed=4)]
    for P in sets:
        ps = plane_summary(P)
        assert ps.plane_counts == naive_plane_counts(P), P.label


def test_plane_key_oracle_matches_the_predicate_oracle():
    sets = [gen_random(9, 3, seed=3), integer_box(3, 2, 2)[0], gen_near_coplanar(9, 2, seed=4)]
    for P in sets + [gen_two_skew(4), axes_seven()]:
        naive = {plane.vector: count for plane, count in naive_plane_counts(P).items()}
        assert naive_plane_key_counts(P) == naive, P.label


_MANY_POINT_PLANE_SETS = {
    "box-5x3x3": lambda: integer_box(5, 3, 3)[0],
    "box-7x7x1": lambda: integer_box(7, 7, 1)[0],  # one plane holds all 49 points
    "coplanar-heavy-60-seed0": lambda: gen_coplanar_heavy(60, Fraction(1, 2), 0),
    "coplanar-heavy-60-seed1": lambda: gen_coplanar_heavy(60, Fraction(1, 2), 1),
    "near-coplanar-30-5": lambda: gen_near_coplanar(30, 5, seed=2),
    "random-40": lambda: gen_random(40, 3, seed=7),  # general position: every plane has 3 points
}


@pytest.mark.parametrize("name", sorted(_MANY_POINT_PLANE_SETS))
def test_plane_summary_counts_are_the_member_counts(name):
    # plane_summary reads each count from the plane's bundle at its first point;
    # _plane_members lists the members from the same bundle. They agree key for
    # key and, sorted, in plane order, and both agree with the naive planes.
    P = _MANY_POINT_PLANE_SETS[name]()
    groups = _first_planes(P, 3, _plane_members)
    ps = plane_summary(P)
    assert list(ps.plane_counts.items()) == [(CanonPlane(k), len(groups[k])) for k in sorted(groups)]
    assert {plane.vector: count for plane, count in ps.plane_counts.items()} == naive_plane_key_counts(P)
    assert ps.max_coplanar == max(ps.plane_counts.values())


@st.composite
def planted_sets(draw, max_n=16, run_through_first=False):
    """3D sets of up to max_n points: a planted coplanar cluster of 4-8 points, a
    collinear run that may start on the cluster (always through point 0 when
    ``run_through_first``), and free points, all at large coordinates."""
    coords: list = []

    def add(c):
        if c not in coords and len(coords) < max_n:
            coords.append(c)

    o, u, v = draw(big_vec), draw(big_vec), draw(big_vec)
    offsets = st.lists(st.tuples(small_int, small_int), min_size=4, max_size=8, unique=True)
    for s, t in draw(offsets):
        add(tuple(a + s * du + t * dv for a, du, dv in zip(o, u, v)))
    on_cluster = run_through_first or draw(st.booleans())
    start = coords[0] if coords and on_cluster else draw(big_vec)
    w = draw(big_vec)
    for t in draw(st.lists(small_int, min_size=0, max_size=6, unique=True)):
        add(tuple(a + t * dw for a, dw in zip(start, w)))
    for c in draw(st.lists(big_vec, min_size=0, max_size=6)):
        add(c)
    while len(coords) < 3:  # degenerate draws (zero spanning vectors) can collapse the set
        add(draw(big_vec))
    return PointSet([affine3(*c) for c in coords], label="planted")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_sets())
def test_plane_kernel_matches_naive_oracle(P):
    naive = naive_plane_sets(P)
    if not naive:
        with pytest.raises(DegenerateInputError):
            _first_planes(P, 3, _plane_members)
        with pytest.raises(DegenerateInputError):
            plane_summary(P)
        return
    groups = _first_planes(P, 3, _plane_members)
    assert {frozenset(members) for members in groups.values()} == naive
    for key, members in groups.items():
        assert list(members) == sorted(members)
        a, b = members[:2]
        c = next(c for c in members[2:] if not collinear(P[a], P[b], P[c]))
        assert key == plane_key(int_hom(P[a]), int_hom(P[b]), int_hom(P[c]))
        assert members == tuple(i for i in range(len(P)) if incident(CanonPlane(key), P[i]))
    ps = plane_summary(P)
    assert ps.plane_counts == naive_plane_counts(P)
    assert ps.max_coplanar == max(len(m) for m in naive)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_sets())
def test_plane_profile_matches_naive_oracle(P):
    naive = naive_plane_sets(P)
    if not naive:
        with pytest.raises(DegenerateInputError):
            plane_ordinary_profile(P)
        return
    expected = [
        (len(plane), naive_span(PointSet([P[i] for i in sorted(plane)])).get(2, 0))
        for plane in naive
        if len(plane) >= 4
    ]
    expected.sort(key=lambda entry: (-entry[0], entry[1]))
    assert plane_ordinary_profile(P) == expected


@settings(max_examples=15, deadline=None)
@given(big_vec, big_vec, st.lists(small_int, min_size=3, max_size=8, unique=True))
def test_plane_kernel_rejects_collinear_large_coordinates(o, w, ts):
    if not any(w):
        w = (Fraction(1), Fraction(0), Fraction(0))
    P = PointSet([affine3(*(a + t * d for a, d in zip(o, w))) for t in ts])
    with pytest.raises(DegenerateInputError):
        plane_summary(P)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_sets())
def test_max_coplanar_matches_naive_oracle(P):
    naive = naive_plane_sets(P)
    if not naive:
        with pytest.raises(DegenerateInputError):
            max_coplanar(P)
        return
    assert max_coplanar(P) == max(map(len, naive))


@settings(max_examples=15, deadline=None)
@given(big_vec, big_vec, st.lists(small_int, min_size=3, max_size=8, unique=True))
def test_max_coplanar_rejects_collinear_2d_and_small_sets(o, w, ts):
    if not any(w):
        w = (Fraction(1), Fraction(0), Fraction(0))
    run = [tuple(a + t * d for a, d in zip(o, w)) for t in ts]
    with pytest.raises(DegenerateInputError):
        max_coplanar(PointSet([affine3(*c) for c in run]))
    with pytest.raises(UsageError):
        max_coplanar(PointSet([affine3(*c) for c in run[:2]]))
    with pytest.raises(UsageError):
        max_coplanar(PointSet([affine2(0, 0), affine2(1, 0), affine2(0, 1), affine2(*o[:2])]))


def _conic(ts, lift):
    """Points (t, t^2, lift(t, t^2)) for t in ts: on the plane z = lift(x, y) when
    lift is linear, no three on one line."""
    return [(t, t * t, lift(t, t * t)) for t in ts]


def _max_coplanar_case(coords, seed):
    """The set of ``coords`` under a random invertible affine map, its naive
    planes, and the sizes of those planes, largest first."""
    mapping = random_affine_map(random.Random(seed))
    P = PointSet([mapping(affine3(*c)) for c in coords])
    naive = naive_plane_sets(P)
    return P, naive, sorted(map(len, naive), reverse=True)


_map_seeds = st.integers(min_value=0, max_value=2**32)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=4, max_value=5), st.integers(min_value=1, max_value=3), _map_seeds)
def test_max_coplanar_finds_a_heaviest_plane_that_starts_late(light, extra, seed):
    """Two free points and a lighter plane come first, so the early anchors set a
    low best, and the heaviest plane starts after them."""
    free = [(0, 0, 7), (3, -5, 11)]
    lighter = _conic(range(light), lambda x, y: 0)
    heavy = _conic(range(20, 20 + light + extra), lambda x, y: x + 2 * y - 50)
    P, naive, sizes = _max_coplanar_case(free + lighter + heavy, seed)
    heaviest = max(naive, key=len)
    assert sizes[:2] == [light + extra, light] and min(heaviest) == len(free) + light
    assert max_coplanar(P) == light + extra


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=5, max_value=7), st.permutations(range(14)), _map_seeds)
def test_max_coplanar_with_two_heaviest_planes(size, order, seed):
    """Two planes of the same size, their points interleaved in a drawn order."""
    coords = _conic(range(size), lambda x, y: 0) + _conic(range(1, size + 1), lambda x, y: 9)
    coords = [coords[k] for k in order if k < len(coords)]
    P, naive, sizes = _max_coplanar_case(coords, seed)
    assert sizes[:3] == [size, size, 4]
    assert max_coplanar(P) == size


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=7, max_value=9), st.integers(min_value=2, max_value=4), _map_seeds)
def test_max_coplanar_prunes_every_anchor_after_the_heaviest_plane(size, free, seed):
    """The heaviest plane starts at anchor 0, so every later anchor asks only for
    planes heavier than it."""
    coords = _conic(range(size), lambda x, y: 0) + [(t, t**3, 1 + t) for t in range(free)]
    P, naive, sizes = _max_coplanar_case(coords, seed)
    assert sizes[0] == size > sizes[1] and min(max(naive, key=len)) == 0
    asked = []
    kernel = incidence._heavy_planes

    def spy(dirs, sizes, m):
        asked.append(m)
        return kernel(dirs, sizes, m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incidence, "_heavy_planes", spy)
        assert max_coplanar(P) == size
    assert asked == [2] + [size] * (len(P) - 3)


@settings(max_examples=15, deadline=None)
@given(big_vec, big_vec, st.lists(small_int, min_size=3, max_size=8, unique=True))
def test_cap_check_rejects_collinear_2d_and_small_sets(o, w, ts):
    """The member table at cap + 1, ``_first_planes(P, cap + 1, _plane_members)``,
    raises what ``max_coplanar`` raises, at any cap, naming ``plane_summary``."""
    if not any(w):
        w = (Fraction(1), Fraction(0), Fraction(0))
    run = PointSet([affine3(*(a + t * d for a, d in zip(o, w))) for t in ts])
    flat = PointSet([affine2(0, 0), affine2(1, 0), affine2(0, 1), affine2(1, 1)])
    for cap in (2, 3, len(ts), len(ts) + 1):
        with pytest.raises(DegenerateInputError, match="all points are collinear"):
            _first_planes(run, cap + 1, _plane_members)
        with pytest.raises(UsageError, match="plane_summary needs at least 3 points"):
            _first_planes(PointSet(run.points[:2]), cap + 1, _plane_members)
        with pytest.raises(UsageError, match="plane_summary needs a 3D affine set"):
            _first_planes(flat, cap + 1, _plane_members)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_sets())
def test_cap_check_and_filtered_planes_match_the_full_kernel(P):
    """The member table at cap + 1, ``_first_planes(P, cap + 1, _plane_members)``,
    is nonempty exactly when ``max_coplanar(P) > cap``, at every cap, and the
    planes of at least m points are the unfiltered planes restricted to them.
    The count table, ``_first_planes(P, m)``, which the cap checks and the
    almost-coplanar offender read, maps the same keys to the member counts."""
    if not naive_plane_sets(P):
        for cap in range(2, len(P) + 1):
            with pytest.raises(DegenerateInputError):
                _first_planes(P, cap + 1, _plane_members)
        for m in range(3, 7):
            with pytest.raises(DegenerateInputError):
                _first_planes(P, m, _plane_members)
        return
    heaviest = max_coplanar(P)
    for cap in range(2, len(P) + 1):
        over = _first_planes(P, cap + 1, _plane_members)
        assert bool(over) == (heaviest > cap), cap
        assert _first_planes(P, cap + 1) == {key: len(members) for key, members in over.items()}, cap
    groups = _first_planes(P, 3, _plane_members)
    for m in range(3, 7):
        expected = {key: members for key, members in groups.items() if len(members) >= m}
        assert _first_planes(P, m, _plane_members) == expected, m
        assert _first_planes(P, m) == {key: len(members) for key, members in expected.items()}, m


def test_filtered_planes_without_a_heavy_plane():
    """A set whose heaviest plane is below min_points has no such planes but is
    not degenerate; an all-collinear set still raises at every min_points."""
    P = gen_random(6, 3, seed=1)
    assert max_coplanar(P) == 3
    assert _first_planes(P, 4, _plane_members) == {}
    run = PointSet([affine3(t, 2 * t, 3 * t) for t in range(6)])
    for m in (3, 4, 7):
        with pytest.raises(DegenerateInputError):
            _first_planes(run, m, _plane_members)


@st.composite
def planted_plane_sets(draw, projective=False, max_n=16):
    """2D sets of up to max_n points at large coordinates: two collinear runs
    through one point, and free points. Projective sets also get points at
    infinity (z = 0): three fixed ones, those of both runs, and free ones."""
    pairs = st.tuples(big_rational, big_rational)
    coords: list = [(1, 0, 0), (0, 1, 0), (1, 1, 0)] if projective else []

    def add(c):
        if any(c) and c not in coords and len(coords) < max_n:
            coords.append(c)

    o = draw(pairs)
    for w in (draw(pairs), draw(pairs)):
        for t in draw(st.lists(small_int, min_size=2, max_size=6, unique=True)):
            add((o[0] + t * w[0], o[1] + t * w[1], 1))
        add((*w, 0))
    for c in draw(st.lists(pairs, min_size=1, max_size=4)):
        add((*c, 0))
    for c in draw(st.lists(pairs, min_size=0, max_size=4)):
        add((*c, 1))
    if projective:
        pts = {projective2(*c) for c in coords}  # proportional draws collapse here
        return PointSet(sorted(pts, key=lambda p: p.sort_key()), label="planted-projective")
    return PointSet([affine2(x, y) for x, y, z in coords if z], label="planted-2d")


def _assert_line_kernel_matches_naive(P):
    naive = naive_line_sets(P)
    s = span_summary(P)
    assert s.t == naive_span(P)
    assert (s.num_lines, s.max_collinear) == (len(naive), max(map(len, naive)))
    assert point_degrees(P) == [sum(i in members for members in naive) for i in range(len(P))]
    expected = {}
    for members in naive:
        a, b = sorted(members)[:2]
        line = canon_line(P[a], P[b])
        expected[line.plucker if P.kind is Kind.AFFINE3 else line.vector] = comb(len(members), 2)
    assert _pair_counts(*_pair_keys(P, lines=True)) == expected


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_sets())
def test_line_kernel_matches_naive_oracle_3d(P):
    _assert_line_kernel_matches_naive(P)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_plane_sets().filter(lambda P: len(P) >= 2))
def test_line_kernel_matches_naive_oracle_2d(P):
    _assert_line_kernel_matches_naive(P)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_plane_sets(projective=True))
def test_line_kernel_matches_naive_oracle_projective(P):
    assert sum(1 for p in P if p.coords[2] == 0) >= 3
    _assert_line_kernel_matches_naive(P)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(planted_plane_sets(), planted_plane_sets(projective=True)).filter(
    lambda P: len(P) >= 2
))
def test_ordinary_lines_2d_in_sort_key_order(P):
    lines = ordinary_lines(P)
    assert lines == sorted(lines, key=lambda line: line.sort_key())
    ordinary = [sorted(m) for m in naive_line_sets(P) if len(m) == 2]
    assert {line.vector for line in lines} == {canon_line(P[a], P[b]).vector for a, b in ordinary}



@pytest.mark.parametrize("removed", [(0,), (4,), (8,), (0, 1), (2, 7), (3, 5)])
def test_ordinary_lines_qw_match_naive_on_hesse_minus_points(removed):
    # Each of the 4 Hesse lines through a removed point keeps 2 points; two
    # removed points share one line, which is left with 1 point and no span.
    H = gen_hesse()
    P = PointSet([p for i, p in enumerate(H) if i not in removed])
    lines = ordinary_lines(P)
    assert len(lines) == (4 if len(removed) == 1 else 6)
    assert lines == sorted(lines, key=lambda line: line.sort_key())
    ordinary = [sorted(m) for m in naive_line_sets(P) if len(m) == 2]
    assert set(lines) == {canon_line(P[a], P[b]) for a, b in ordinary}


# --- the stripes in worker processes -------------------------------------

_PARENT = os.getpid()
_HISTOGRAM_STRIPE, _DEGREE_STRIPE = incidence._histogram_stripe, incidence._degree_stripe


def _histogram_stripe_in_worker(*args):
    assert os.getpid() != _PARENT, "the histogram stripe ran in-process"
    return _HISTOGRAM_STRIPE(*args)


def _degree_stripe_in_worker(*args):
    assert os.getpid() != _PARENT, "the degree stripe ran in-process"
    return _DEGREE_STRIPE(*args)


def _row_failing_at_the_last_anchor(anchor, qs):
    if len(qs) == 1:
        raise ZeroDivisionError("planted failure")
    return direction2_row(anchor, qs)


def _pooled(mp, call):
    """``call()`` with every set above the pool threshold and each stripe
    asserting that it runs in a worker; no worker may outlive the call."""
    mp.setattr(incidence, "_POOL_MIN_PAIRS", 0)
    mp.setattr(incidence, "_histogram_stripe", _histogram_stripe_in_worker)
    mp.setattr(incidence, "_degree_stripe", _degree_stripe_in_worker)
    try:
        return call()
    finally:
        assert multiprocessing.active_children() == []


def _assert_pool_matches_in_process_and_naive(P):
    s, degrees = span_summary(P), point_degrees(P)
    with pytest.MonkeyPatch.context() as mp:
        assert _pooled(mp, lambda: span_summary(P)) == s
        assert _pooled(mp, lambda: point_degrees(P)) == degrees
    naive = naive_line_sets(P)
    assert s.t == naive_span(P)
    assert degrees == [sum(i in members for members in naive) for i in range(len(P))]


@pytest.mark.parametrize("sets", [
    planted_sets(),
    planted_plane_sets().filter(lambda P: len(P) >= 2),
    planted_plane_sets(projective=True),
], ids=["affine-3d", "affine-2d", "projective"])
# No shrinking: each example starts pools, so shrinking a failure took minutes.
@settings(max_examples=6, deadline=None, phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_pool_path_matches_in_process_and_naive_oracle(sets, data):
    _assert_pool_matches_in_process_and_naive(data.draw(sets))


@pytest.mark.parametrize("removed", [(), (4,), (2, 7)])
def test_pool_path_matches_in_process_and_naive_oracle_qw(removed):
    H = gen_hesse()
    _assert_pool_matches_in_process_and_naive(PointSet([p for i, p in enumerate(H) if i not in removed]))


@pytest.mark.parametrize("kernel", [span_summary, point_degrees])
def test_pool_path_reraises_a_stripe_failure_and_leaves_no_worker(kernel, monkeypatch):
    P = gen_random(12, 2, seed=4)
    monkeypatch.setattr(incidence, "direction2_row", _row_failing_at_the_last_anchor)
    with pytest.raises(ZeroDivisionError, match="planted failure"):
        kernel(P)
    with pytest.raises(ZeroDivisionError, match="planted failure"):
        _pooled(monkeypatch, lambda: kernel(P))
    assert multiprocessing.active_children() == []


def test_small_sets_never_import_multiprocessing():
    # The CLI's start-up and the annealer's recounts (n <= 50) stay in-process.
    code = (
        "import sys, ordlines.cli\n"
        "from ordlines import gen_random, point_degrees, span_summary\n"
        "P = gen_random(60, 2, seed=1)\n"
        "span_summary(P), point_degrees(P)\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    src = str(Path(incidence.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# --- projection ----------------------------------------------------------


def test_project_two_skew_from_first_point():
    P = gen_two_skew(4)
    img = project_from(P, 0)
    sizes = sorted(len(idxs) for _, idxs in img.groups)
    assert sizes == [1, 1, 1, 1, 3]
    assert len(img.groups) == 5
    assert sum(len(idxs) == 1 for _, idxs in img.groups) == 4


def test_project_three_collinear_from_middle():
    P = PointSet([affine3(0, 0, 0), affine3(1, 1, 1), affine3(2, 2, 2)])
    img = project_from(P, 1)
    assert len(img.groups) == 1
    assert len(img.groups[0][1]) == 2
    assert [len(idxs) == 1 for _, idxs in img.groups] == [False]


def test_project_simplex():
    P = PointSet([affine3(0, 0, 0), affine3(1, 0, 0), affine3(0, 1, 0), affine3(0, 0, 1)])
    img = project_from(P, 0)
    assert [len(idxs) for _, idxs in img.groups] == [1, 1, 1]
    assert sum(len(idxs) == 1 for _, idxs in img.groups) == 3
    a, b, c = (image_point for image_point, _ in img.groups)
    assert not collinear(a, b, c)


def test_projection_group_membership_is_collinearity_with_center():
    for seed in (3, 5, 8):
        P = gen_random(8, 3, seed=seed)
        center = seed % len(P)
        img = project_from(P, center)
        for _, idxs in img.groups:
            for i in idxs:
                assert collinear(P[center], P[idxs[0]], P[i])
        reps = [idxs[0] for _, idxs in img.groups]
        for a in range(len(reps) - 1):
            for b in range(a + 1, len(reps)):
                assert not collinear(P[center], P[reps[a]], P[reps[b]])


def test_image_collinearity_iff_coplanar_with_center():
    rng = random.Random(99)
    P = gen_random(9, 3, seed=17)
    img = project_from(P, 0)
    points_by_index = {}
    for image_point, idxs in img.groups:
        for i in idxs:
            points_by_index[i] = image_point
    others = sorted(points_by_index)
    for _ in range(200):
        i, j, k = rng.sample(others, 3)
        lhs = collinear(points_by_index[i], points_by_index[j], points_by_index[k])
        rhs = coplanar(P[0], P[i], P[j], P[k])
        assert lhs == rhs


def test_project_bad_center():
    with pytest.raises(UsageError):
        project_from(gen_two_skew(3), 17)
    with pytest.raises(UsageError):
        project_from(PointSet([affine2(0, 0), affine2(1, 1)]), 0)


# --- the ordinary-line hunt ----------------------------------------------


def test_kelly_axes_example():
    rep = kelly_trace(axes_seven(), 0)
    assert rep.q1_size == 3
    assert rep.q2_size == 0
    assert rep.l1_size == 3
    assert len(rep.found_ordinary) >= 3
    assert len(set(rep.found_ordinary)) == len(rep.found_ordinary)
    P = axes_seven()
    for line in rep.found_ordinary:
        assert sum(1 for p in P if incident(line, p)) == 2
        assert not incident(line, P[0])


def test_kelly_simplex_is_empty():
    P = PointSet([affine3(0, 0, 0), affine3(1, 0, 0), affine3(0, 1, 0), affine3(0, 0, 1)])
    rep = kelly_trace(P, 0)
    assert rep.q1_size == 3
    assert rep.q2_size == 3
    assert rep.l1_size == 0
    assert rep.found_ordinary == []


def test_kelly_two_skew_from_line_point():
    # every image line mixing the two families passes through a unique-preimage
    # point, so no plane qualifies for the hunt from a point of the first line
    rep = kelly_trace(gen_two_skew(4), 0)
    assert rep.q1_size == 5
    assert rep.q2_size == 4
    assert rep.l1_size == 0
    assert rep.found_ordinary == []


def test_kelly_random_inputs_keep_invariants():
    for seed in range(15):
        P = gen_random(7 + seed % 3, 3, seed=seed)
        for center in range(0, len(P), 3):
            rep = kelly_trace(P, center)
            assert len(set(rep.found_ordinary)) == len(rep.found_ordinary)
            assert len(rep.found_ordinary) >= rep.l1_size
            for line in rep.found_ordinary:
                assert sum(1 for p in P if incident(line, p)) == 2
                assert not incident(line, P[center])


def test_kelly_needs_rational_input():
    with pytest.raises(UsageError):
        kelly_trace(gen_hesse(), 0)


def _assert_kelly_matches_naive(P: PointSet, center: int) -> int:
    """Assert that kelly_trace from the center finds exactly what the naive
    oracle does, and return the number of hunted planes."""
    found, l1_size = naive_kelly_found(P, center)
    rep = kelly_trace(P, center)
    assert rep.l1_size == l1_size
    assert rep.found_ordinary == sorted(
        (canon_line(P[i], P[j]) for i, j in map(sorted, found)), key=lambda line: line.sort_key()
    )
    return l1_size


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_sets(run_through_first=True))
def test_kelly_trace_matches_naive_oracle(P):
    _assert_kelly_matches_naive(P, 0)


@pytest.mark.parametrize("center", [4, 13])  # a face centre, the box centre
def test_kelly_trace_matches_naive_oracle_on_a_box(center):
    # The hunted planes of a 3x3x3 box hold lines with three points, none of
    # which may be recorded as ordinary.
    P = PointSet([affine3(x, y, z) for x in range(3) for y in range(3) for z in range(3)])
    assert _assert_kelly_matches_naive(P, center) > 0


def _symmetric_set(seed: int) -> PointSet:
    """The origin (index 0) and ±v for three to six random small integer vectors v."""
    rng = random.Random(seed)
    vs: set[tuple[int, int, int]] = set()
    pairs = rng.randint(3, 6)
    while len(vs) < 2 * pairs:
        v = tuple(rng.randint(-2, 2) for _ in range(3))
        if any(v):
            vs |= {v, tuple(-c for c in v)}
    return PointSet([affine3(0, 0, 0)] + [affine3(*v) for v in sorted(vs)], label=f"pm-{seed}")


@pytest.mark.parametrize("seed", range(8))
def test_kelly_trace_matches_naive_oracle_on_symmetric_sets(seed):
    # From the center of symmetry (the origin) every class has two points, so
    # every plane through it is hunted; the 3x3x3 box is checked above.
    P = _symmetric_set(seed)
    l1_sizes = [_assert_kelly_matches_naive(P, center) for center in range(len(P))]
    assert l1_sizes[0] > 0


# --- golden hunts -------------------------------------------------------------
#
# Recorded once and never re-pinned (kelly_pins.json): for every center of each
# set, (q1_size, q2_size, l1_size) and the sha256 of the sorted Plücker vectors
# of found_ordinary.

_KELLY_PINS = json.loads((Path(__file__).parent / "kelly_pins.json").read_text(encoding="utf-8"))

_KELLY_SETS = {
    "box533": lambda: integer_box(5, 3, 3)[0],
    "box771": lambda: integer_box(7, 7, 1)[0],
    "two-skew6": lambda: gen_two_skew(6),
    "saddle5x8": lambda: PointSet([affine3(i, j, i * j) for i in range(5) for j in range(8)]),
    "near-coplanar20": lambda: gen_near_coplanar(20, 3, 1),
}


def _kelly_pins(P: PointSet) -> dict[str, list]:
    pins = {}
    for center in range(len(P)):
        rep = kelly_trace(P, center)
        pluckers = sorted(line.plucker for line in rep.found_ordinary)
        pins[str(center)] = [rep.q1_size, rep.q2_size, rep.l1_size, _sha256_of(pluckers)]
    return pins


@pytest.mark.parametrize("name", sorted(_KELLY_SETS))
def test_golden_kelly_trace_from_every_center(name):
    assert _kelly_pins(_KELLY_SETS[name]()) == _KELLY_PINS["trace"][name]


# --- golden line counts -----------------------------------------------------
#
# Recorded once and never re-pinned: a line-kernel change that moves any of
# these values has changed a count, which is a bug.


def _sha256_of(values) -> str:
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()


def test_golden_grid_span_summary():
    s = span_summary(gen_grid2d(20, 20))
    assert s.t == {
        2: 29732, 3: 4332, 4: 1396, 5: 476, 6: 168, 7: 196, 8: 20, 9: 20, 10: 92,
        11: 4, 12: 4, 13: 4, 14: 4, 15: 4, 16: 4, 17: 4, 18: 4, 19: 4, 20: 42,
    }
    assert (s.num_lines, s.ordinary, s.max_collinear, s.n) == (36510, 29732, 20, 400)


def test_golden_random_3d_lines():
    P = gen_random(200, 3, 50, seed=7)
    s = span_summary(P)
    assert (s.t, s.num_lines, s.max_collinear) == ({2: 19900}, 19900, 2)
    lines = ordinary_lines(P)
    assert len(lines) == 19900
    assert _sha256_of([line.plucker for line in lines]) == (
        "4cfc80b9480b3eca9c820a19bb96b670ba91677487e306a6c4ac365ba8c30be1"
    )


def test_golden_random_2d_degrees():
    degrees = point_degrees(gen_random(200, 2, 50, seed=7))
    assert (len(degrees), sum(degrees), max(degrees)) == (200, 39788, 199)
    assert _sha256_of(degrees) == (
        "49b4a2da08f0979a9fdda550bd10c3a2eca218c9b20a3143220f3825cfc1f4b5"
    )


def _projective_box() -> PointSet:
    """Every projective point (x : y : z) with |x|, |y| <= 2 and z in {0, 1}:
    25 affine points and 8 points at infinity."""
    pts = {
        projective2(x, y, z)
        for x in range(-2, 3)
        for y in range(-2, 3)
        for z in (0, 1)
        if (x, y, z) != (0, 0, 0)
    }
    return PointSet(sorted(pts, key=lambda p: p.sort_key()), label="projective-box")


@pytest.mark.parametrize(
    "make, total, top, digest",
    [
        (
            lambda: gen_grid2d(12, 12), 11116, 87,
            "300026504b55178e67495e704dc6dc96cc7489c66ca1781799d507bb67cc4a43",
        ),
        (  # rational coordinates, so integer weights other than 1
            lambda: gen_random(60, 2, 50, seed=5), 3540, 59,
            "bd6ed6341d44745bf7edd57ce2c0691aab446904ac0528ef9473baff3385a804",
        ),
        (
            _projective_box, 448, 16,
            "e9e9a0170f94c702f20b50c0d53df4d90d6b129e2b81f819abc46f5cf3d1537f",
        ),
    ],
    ids=["grid12", "random60", "projective-box"],
)
def test_golden_point_degrees(make, total, top, digest):
    degrees = point_degrees(make())
    assert (sum(degrees), max(degrees)) == (total, top)
    assert _sha256_of(degrees) == digest


def test_golden_coplanar_heavy_planes():
    P = gen_coplanar_heavy(30, Fraction(1, 2), 0)
    assert any(h[3] != 1 for h in P.homs)  # plane keys take the weighted path
    s = plane_summary(P)
    assert (len(s.plane_counts), s.max_coplanar) == (3606, 15)
    groups = _first_planes(P, 3, _plane_members)
    assert _sha256_of([(k, groups[k]) for k in sorted(groups)]) == (
        "69e324e6eefe297196b2804ac684120afaed3474c6def5418adbcf21ff67e570"
    )


@pytest.mark.parametrize(
    "make, count, digest",
    [
        (
            lambda: gen_grid2d(12, 12), 3824,
            "d5af6729454d63899cac073cf01057a49d7c729468823aaed57ae7274b431aa1",
        ),
        (
            _projective_box, 100,
            "49ba1faac636d3d8eff2f78b2f59fda64a7553243699394b7b551b44dd6cb478",
        ),
    ],
    ids=["grid12", "projective-box"],
)
def test_golden_ordinary_lines_2d(make, count, digest):
    lines = ordinary_lines(make())
    assert len(lines) == count
    assert _sha256_of([line.vector for line in lines]) == digest


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_grid2d(12, 12),
        lambda: gen_random(40, 2, 50, seed=4),
        _projective_box,
        lambda: PointSet(gen_hesse().points[1:]),
    ],
    ids=["grid12", "random40", "projective-box", "hesse-minus-one"],
)
def test_sylvester_gallai_witness_is_the_first_ordinary_line(make):
    P = make()
    report = verify_sylvester_gallai(P)
    assert report.holds and report.witness == ordinary_lines(P)[0]


def test_golden_two_skew_ordinary_lines():
    lines = ordinary_lines(gen_two_skew(10))
    assert len(lines) == 100
    assert _sha256_of([line.plucker for line in lines]) == (
        "856470f8497c1fe297d8bca929bf868e0a91d8c894b59e235968b3f5ee4fba39"
    )


@pytest.mark.parametrize(
    "make, count, top, digest",
    [
        (
            lambda: gen_random(40, 3, 50, seed=3), 9880, 3,
            "7afb11847b3d32108a7e911e24b462b6e980f4a1ec02bd422500d5cecc1b9974",
        ),
        (
            lambda: gen_coplanar_heavy(30, Fraction(1, 2), 0), 3606, 15,
            "24ed13aee140f27b93d631d495f4e1d6ec3d7d5dc1caaf527d2d26a69e68983d",
        ),
    ],
    ids=["random40", "coplanar-heavy30"],
)
def test_golden_plane_counts(make, count, top, digest):
    s = plane_summary(make())
    assert (len(s.plane_counts), s.max_coplanar) == (count, top)
    assert _sha256_of([(plane.vector, c) for plane, c in s.plane_counts.items()]) == digest


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_sets())
def test_plane_summary_counts_the_kernel_groups_in_sorted_order(P):
    try:
        s = plane_summary(P)
    except DegenerateInputError:  # every point on one line
        return
    planes = list(s.plane_counts)
    groups = _first_planes(P, 3, _plane_members)
    assert [plane.vector for plane in planes] == sorted(groups)
    assert planes == sorted(planes, key=lambda plane: plane.sort_key())
    assert [s.plane_counts[p] for p in planes] == [len(groups[p.vector]) for p in planes]
