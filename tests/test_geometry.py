"""Predicates and canonical representatives: the exact core everything rests on."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordlines import (
    CanonLine3,
    DegenerateInputError,
    InvariantViolationError,
    Kind,
    UsageError,
    W,
    affine2,
    affine3,
    canon_line,
    canon_plane,
    collinear,
    coplanar,
    incident,
    make_point,
    projective2,
    skew,
)
from ordlines.geometry import (
    cross_key,
    cross_row,
    direction2_row,
    direction_key,
    direction_row,
    int_hom,
    plucker_key,
    plucker_row,
    primitive_signed,
)
from conftest import big_vec, rand_fraction


def _rand_affine(rng, dim):
    make = affine2 if dim == 2 else affine3
    return make(*(rand_fraction(rng) for _ in range(dim)))


@pytest.mark.parametrize("dim", [2, 3])
def test_collinear_matches_parametric_construction(dim):
    rng = random.Random(20240 + dim)
    make = affine2 if dim == 2 else affine3
    built = 0
    while built < 500:
        p, q = _rand_affine(rng, dim), _rand_affine(rng, dim)
        if p == q:
            continue
        t = rand_fraction(rng)
        on = tuple(a + t * (b - a) for a, b in zip(p.coords, q.coords))
        assert collinear(p, q, make(*on))
        assert collinear(make(*on), p, q)
        # nudging one coordinate leaves the line unless the line runs along
        # exactly that axis
        axis = rng.randrange(dim)
        direction = tuple(b - a for a, b in zip(p.coords, q.coords))
        if any(d != 0 for i, d in enumerate(direction) if i != axis):
            off = list(on)
            off[axis] += Fraction(1, 7919)
            assert not collinear(p, q, make(*off))
        built += 1


def test_collinear_rejects_generic_triples():
    rng = random.Random(7)
    rejected = 0
    for _ in range(500):
        pts = [_rand_affine(rng, 3) for _ in range(3)]
        if len(set(pts)) < 3:
            continue
        if not collinear(*pts):
            rejected += 1
    assert rejected > 450


def test_projective_collinear_scaling_invariance():
    p = projective2(2, 4, 6)
    assert p == projective2(1, 2, 3)
    q = projective2(1, 0, 1)
    r = projective2(3, 4, 7)
    assert collinear(p, q, r) == collinear(projective2(-2, -4, -6), q, r)


def test_projective_zero_vector_rejected():
    with pytest.raises(DegenerateInputError):
        projective2(0, 0, 0)


def test_coplanar_basic():
    a, b, c = affine3(0, 0, 0), affine3(1, 0, 0), affine3(0, 1, 0)
    assert coplanar(a, b, c, affine3(5, -3, 0))
    assert not coplanar(a, b, c, affine3(0, 0, 1))


def test_coplanar_requires_affine3():
    a, b, c = affine2(0, 0), affine2(1, 0), affine2(0, 1)
    with pytest.raises(UsageError):
        coplanar(a, b, c, affine2(1, 1))


def test_mixed_kind_rejected():
    with pytest.raises(UsageError):
        collinear(affine2(0, 0), affine2(1, 1), affine3(1, 1, 1))


def test_mixed_field_rejected():
    with pytest.raises(UsageError):
        collinear(projective2(1, 0, 0), projective2(0, 1, 0), projective2(W, 1, 0))


def test_affine3_rejects_extension_field():
    with pytest.raises(UsageError):
        affine3(W, 0, 0)


@pytest.mark.parametrize("dim", [2, 3])
def test_canon_line_independent_of_spanning_pair(dim):
    rng = random.Random(100 + dim)
    for _ in range(50):
        p = _rand_affine(rng, dim)
        q = _rand_affine(rng, dim)
        if p == q:
            continue
        pts = []
        for _ in range(6):
            t = rand_fraction(rng)
            coords = tuple(a + t * (b - a) for a, b in zip(p.coords, q.coords))
            pts.append(affine2(*coords) if dim == 2 else affine3(*coords))
        pts = list(dict.fromkeys(pts))
        if len(pts) < 2:
            continue
        keys = {
            canon_line(pts[i], pts[j])
            for i in range(len(pts) - 1)
            for j in range(i + 1, len(pts))
        }
        assert len(keys) == 1
        assert canon_line(pts[0], pts[1]) == canon_line(pts[1], pts[0])


def test_canon_line_eisenstein_leading_one():
    p = projective2(W, 1, 0)
    q = projective2(1, W, 0)
    line = canon_line(p, q)
    lead = next(c for c in line.vector if c != 0)
    assert lead == 1
    assert incident(line, p) and incident(line, q)


def test_plucker_quadric_holds_and_is_enforced():
    rng = random.Random(5)
    for _ in range(100):
        p, q = _rand_affine(rng, 3), _rand_affine(rng, 3)
        if p == q:
            continue
        line = canon_line(p, q)
        p01, p02, p03, p12, p13, p23 = line.plucker
        assert p01 * p23 - p02 * p13 + p03 * p12 == 0
    with pytest.raises(InvariantViolationError):
        CanonLine3(plucker=(1, 0, 0, 0, 0, 1))


# Entries of about 200 bits, often zero, so that leading entries vary in place and sign.
_entry = st.one_of(st.just(0), st.integers(min_value=-(1 << 200), max_value=1 << 200))
_vec4 = st.tuples(_entry, _entry, _entry, _entry)

_RAW = {
    cross_key: lambda a, b: (
        a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]
    ),
    direction_key: lambda a, b: tuple(b[k] * a[3] - a[k] * b[3] for k in range(3)),
    plucker_key: lambda a, b: tuple(
        a[i] * b[j] - a[j] * b[i] for i in range(4) for j in range(i + 1, 4)
    ),
}

# Each row form, with the length of the tuples it takes and its raw vector.
_ROWS = {
    cross_row: (3, _RAW[cross_key]),
    direction_row: (4, _RAW[direction_key]),
    plucker_row: (4, _RAW[plucker_key]),
    direction2_row: (3, lambda a, b: (b[0] * a[2] - a[0] * b[2], b[1] * a[2] - a[1] * b[2])),
}


@settings(max_examples=200, deadline=None)
@given(_vec4, st.lists(_vec4, min_size=1, max_size=4), st.integers(min_value=2, max_value=1 << 64))
def test_keys_normalize_like_primitive_signed(a, bs, content):
    """Each key is primitive_signed of its raw vector, and each row form is the
    list of those keys from one anchor. Scaling the inputs by content multiplies
    every raw entry by content squared, so the raw vector has content > 1; a
    zero raw vector raises, in a pair or anywhere in a row."""
    a, *bs = (tuple(content * x for x in v) for v in (a, *bs))
    for row, (size, raw) in _ROWS.items():
        anchor, rest = a[:size], [q[:size] for q in bs]
        vs = [raw(anchor, q) for q in rest]
        if all(map(any, vs)):
            assert row(anchor, rest) == list(map(primitive_signed, vs))
        else:
            with pytest.raises(DegenerateInputError):
                row(anchor, rest)
        with pytest.raises(DegenerateInputError):
            row(anchor, [*rest, anchor])  # a point equal to the anchor
        assert row(anchor, []) == []
    b = bs[0]
    for key, raw in _RAW.items():
        args = (a[:3], b[:3]) if key is cross_key else (a, b)
        v = raw(*args)
        if any(v):
            assert key(*args) == primitive_signed(v)
        else:
            with pytest.raises(DegenerateInputError):
                key(*args)
        with pytest.raises(DegenerateInputError):
            key(args[0], args[0])  # a zero raw vector, whatever the point


def test_canon_line_duplicate_points_rejected():
    p = affine3(1, 2, 3)
    with pytest.raises(DegenerateInputError):
        canon_line(p, affine3(1, 2, 3))


def test_canon_plane_independent_of_spanning_triple():
    rng = random.Random(11)
    a, b, c = affine3(0, 0, 1), affine3(1, 0, 1), affine3(0, 1, 1)
    pts = [a, b, c]
    for _ in range(3):
        s, t = rand_fraction(rng), rand_fraction(rng)
        pts.append(
            affine3(
                *(
                    pa + s * (pb - pa) + t * (pc - pa)
                    for pa, pb, pc in zip(a.coords, b.coords, c.coords)
                )
            )
        )
    pts = list(dict.fromkeys(pts))
    keys = set()
    for i in range(len(pts) - 2):
        for j in range(i + 1, len(pts) - 1):
            for k in range(j + 1, len(pts)):
                if not collinear(pts[i], pts[j], pts[k]):
                    keys.add(canon_plane(pts[i], pts[j], pts[k]))
    assert len(keys) == 1


def test_canon_plane_collinear_triple_rejected():
    with pytest.raises(DegenerateInputError):
        canon_plane(affine3(0, 0, 0), affine3(1, 0, 0), affine3(2, 0, 0))


def test_incident_agrees_with_predicates():
    rng = random.Random(21)
    for _ in range(50):
        p, q, r = (_rand_affine(rng, 3) for _ in range(3))
        if p == q or collinear(p, q, r):
            continue
        line = canon_line(p, q)
        plane = canon_plane(p, q, r)
        for probe in (p, q, r, _rand_affine(rng, 3)):
            assert incident(line, probe) == collinear(p, q, probe)
            assert incident(plane, probe) == coplanar(p, q, r, probe)


_nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])


@settings(max_examples=200, deadline=None)
@given(
    big_vec,
    big_vec,
    big_vec,
    big_vec,
    st.booleans(),
    st.sampled_from([None, 0, 1, 2]),
    st.sampled_from(["free", "meeting", "parallel"]),
    _nonzero,
    _nonzero,
)
def test_plucker_incidence_and_skew_match_fraction_predicates(
    a, b, c, d, through_origin, axis, relation, s, t
):
    """A line is only its Plücker key: incidence and skewness from a bare key agree
    with the Fraction predicates at about 200-bit coordinates.

    Lines through the origin or parallel to an axis zero some Plücker
    coordinates, so that single incidence identities vanish identically; the
    probes off the line lie in the planes through it that each identity
    describes (through the origin, or parallel to an axis)."""
    if through_origin:
        a = (Fraction(0),) * 3
    if axis is not None:
        b = tuple(x + (s if k == axis else 0) for k, x in enumerate(a))
    p, q, r = affine3(*a), affine3(*b), affine3(*c)
    assume(p != q)
    line = CanonLine3(plucker_key(int_hom(p), int_hom(q)))
    on = tuple(x + s * (y - x) for x, y in zip(a, b))
    probes = [p, q, r, affine3(*d), affine3(*on), affine3(*(2 * x for x in on))]
    probes += [affine3(*(x + (k == j) for j, x in enumerate(on))) for k in range(3)]
    for probe in probes:
        assert incident(line, probe) == collinear(p, q, probe)
    if relation == "meeting":  # through a point of the first line
        d = tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c))
    elif relation == "parallel":
        d = tuple(z + s * (y - x) for x, y, z in zip(a, b, c))
    u = affine3(*d)
    assume(r != u)
    other = CanonLine3(plucker_key(int_hom(r), int_hom(u)))
    assert skew(line, other) == (not coplanar(p, q, r, u))
    assert skew(other, line) == skew(line, other)
    assert not skew(line, line)


def test_skew_needs_spatial_lines():
    line2 = canon_line(affine2(0, 0), affine2(1, 1))
    line3 = canon_line(affine3(0, 0, 0), affine3(1, 1, 1))
    with pytest.raises(UsageError):
        skew(line2, line3)


def test_incident_2d_line():
    p, q = affine2(0, 0), affine2(2, 2)
    line = canon_line(p, q)
    assert incident(line, affine2(7, 7))
    assert not incident(line, affine2(1, 0))


def test_kind_checks_in_incident():
    line2 = canon_line(affine2(0, 0), affine2(1, 1))
    with pytest.raises(UsageError):
        incident(line2, affine3(0, 0, 0))


def test_make_point_dispatch_and_errors():
    assert make_point([1, 2], Kind.AFFINE2) == affine2(1, 2)
    assert make_point([1, 2, 3], Kind.AFFINE3) == affine3(1, 2, 3)
    assert make_point([2, 4, 6], Kind.PROJECTIVE2) == projective2(1, 2, 3)
    with pytest.raises(UsageError):
        make_point([1, 2, 3], Kind.AFFINE2)


def test_point_ordering_key_is_deterministic():
    pts = [affine2(3, 1), affine2(1, 3), affine2(1, 2)]
    assert sorted(pts, key=lambda p: p.sort_key())[0] == affine2(1, 2)
