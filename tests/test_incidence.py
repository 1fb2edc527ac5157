"""Spanned-line/plane summaries against naive oracles, plus projection and the
center-avoiding ordinary-line hunt."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ordlines import (
    DegenerateInputError,
    PointSet,
    UsageError,
    affine2,
    affine3,
    collinear,
    coplanar,
    gen_hesse,
    gen_near_coplanar,
    gen_random,
    gen_two_skew,
    image_point_set,
    incident,
    kelly_trace,
    max_collinear,
    ordinary_lines,
    plane_summary,
    point_degrees,
    project_from,
    span_summary,
)
from ordlines.geometry import int_hom, plane_key
from ordlines.incidence import _plane_groups
from conftest import naive_line_sets, naive_plane_counts, naive_plane_sets, naive_span


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
    if max_collinear(P) == 2:
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


# Coordinates whose numerators and denominators reach about 200 bits.
_BIG = 1 << 200
_big_q = st.builds(
    Fraction, st.integers(min_value=-_BIG, max_value=_BIG), st.integers(min_value=1, max_value=_BIG)
)
_big_vec = st.tuples(_big_q, _big_q, _big_q)
_small = st.integers(min_value=-3, max_value=3)


@st.composite
def planted_sets(draw, max_n=16):
    """3D sets of up to max_n points: a planted coplanar cluster of 4-8 points, a
    collinear run that may start on the cluster, and free points, all at large
    coordinates."""
    coords: list = []

    def add(c):
        if c not in coords and len(coords) < max_n:
            coords.append(c)

    o, u, v = draw(_big_vec), draw(_big_vec), draw(_big_vec)
    for s, t in draw(st.lists(st.tuples(_small, _small), min_size=4, max_size=8, unique=True)):
        add(tuple(a + s * du + t * dv for a, du, dv in zip(o, u, v)))
    start = coords[0] if coords and draw(st.booleans()) else draw(_big_vec)
    w = draw(_big_vec)
    for t in draw(st.lists(_small, min_size=0, max_size=6, unique=True)):
        add(tuple(a + t * dw for a, dw in zip(start, w)))
    for c in draw(st.lists(_big_vec, min_size=0, max_size=6)):
        add(c)
    while len(coords) < 3:  # degenerate draws (zero spanning vectors) can collapse the set
        add(draw(_big_vec))
    return PointSet([affine3(*c) for c in coords], label="planted")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_sets())
def test_plane_kernel_matches_naive_oracle(P):
    naive = naive_plane_sets(P)
    if not naive:
        with pytest.raises(DegenerateInputError):
            _plane_groups(P)
        with pytest.raises(DegenerateInputError):
            plane_summary(P)
        return
    groups = _plane_groups(P)
    assert {frozenset(members) for members in groups.values()} == naive
    for key, members in groups.items():
        assert list(members) == sorted(members)
        a, b = members[:2]
        c = next(c for c in members[2:] if not collinear(P[a], P[b], P[c]))
        assert key == plane_key(int_hom(P[a]), int_hom(P[b]), int_hom(P[c]))
    ps = plane_summary(P)
    assert ps.plane_counts == naive_plane_counts(P)
    assert ps.max_coplanar == max(len(m) for m in naive)
    for plane, members in ps.plane_points.items():
        assert members == tuple(i for i in range(len(P)) if incident(plane, P[i]))


@settings(max_examples=15, deadline=None)
@given(_big_vec, _big_vec, st.lists(_small, min_size=3, max_size=8, unique=True))
def test_plane_kernel_rejects_collinear_large_coordinates(o, w, ts):
    if not any(w):
        w = (Fraction(1), Fraction(0), Fraction(0))
    P = PointSet([affine3(*(a + t * d for a, d in zip(o, w))) for t in ts])
    with pytest.raises(DegenerateInputError):
        plane_summary(P)


# --- projection ----------------------------------------------------------


def test_project_two_skew_from_first_point():
    P = gen_two_skew(4)
    img = project_from(P, 0)
    sizes = sorted(len(idxs) for _, idxs in img.groups)
    assert sizes == [1, 1, 1, 1, 3]
    q1, flags = image_point_set(img)
    assert len(q1) == 5
    assert sum(flags) == 4


def test_project_three_collinear_from_middle():
    P = PointSet([affine3(0, 0, 0), affine3(1, 1, 1), affine3(2, 2, 2)])
    img = project_from(P, 1)
    assert len(img.groups) == 1
    assert len(img.groups[0][1]) == 2
    q1, flags = image_point_set(img)
    assert len(q1) == 1
    assert flags == (False,)


def test_project_simplex():
    P = PointSet([affine3(0, 0, 0), affine3(1, 0, 0), affine3(0, 1, 0), affine3(0, 0, 1)])
    img = project_from(P, 0)
    assert [len(idxs) for _, idxs in img.groups] == [1, 1, 1]
    q1, flags = image_point_set(img)
    assert sum(flags) == 3
    a, b, c = q1.points
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
