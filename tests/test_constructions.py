"""Generators: determinism, advertised counts, and the conic-plus-line model."""

import hashlib
import json
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest

from ordlines import (
    GenerationError,
    Kind,
    PointSet,
    SpanSummary,
    UsageError,
    boroczky_model,
    gen_coplanar_heavy,
    gen_grid2d,
    gen_hesse,
    gen_near_coplanar,
    gen_random,
    gen_two_skew,
    max_coplanar,
    plane_summary,
    point_degrees,
    span_summary,
    write_pointset,
)
from ordlines.constructions import _rand_fraction, _rng


def test_two_skew_small_counts():
    assert span_summary(gen_two_skew(2)).ordinary == 6
    assert span_summary(gen_two_skew(3)).ordinary == 9
    assert span_summary(gen_two_skew(10)).ordinary == 100


def test_two_skew_structure():
    for m in (3, 5, 8):
        P = gen_two_skew(m)
        assert len(P) == 2 * m
        assert span_summary(P).max_collinear == m
        assert plane_summary(P).max_coplanar == m + 1


def test_two_skew_rejects_small_m():
    with pytest.raises(UsageError):
        gen_two_skew(1)


def test_near_coplanar_layout_and_counts():
    P = gen_near_coplanar(10, 2, seed=5)
    assert len(P) == 10
    assert P.kind is Kind.AFFINE3
    # planar block first (origin leading), then the stacked points
    assert P[0].coords == (0, 0, 0)
    assert all(p.coords[2] == 0 for p in P.points[:8])
    assert [p.coords[:2] for p in P.points[8:]] == [(0, 0), (0, 0)]
    assert plane_summary(P).max_coplanar == 8
    planar = PointSet(P.points[:8])
    expected = 2 * 8 + span_summary(planar).ordinary - 2
    assert span_summary(P).ordinary == expected


def test_near_coplanar_k1_has_one_extra_ordinary_line():
    # the stack of one point makes the vertical axis itself ordinary
    P = gen_near_coplanar(10, 1, seed=3)
    planar = PointSet(P.points[:9])
    expected = 1 * 9 + span_summary(planar).ordinary - 1 + 1
    assert span_summary(P).ordinary == expected


def test_near_coplanar_determinism_and_pre():
    a = gen_near_coplanar(12, 3, seed=9)
    b = gen_near_coplanar(12, 3, seed=9)
    assert a.points == b.points
    assert a.points != gen_near_coplanar(12, 3, seed=10).points
    with pytest.raises(UsageError):
        gen_near_coplanar(6, 3)
    with pytest.raises(UsageError):
        gen_near_coplanar(10, 0)


def test_near_coplanar_rejects_too_few_planar_points():
    """The plane through the z-axis and a planar point holds k + 2 points, so
    n - k < k + 2 can never make z = 0 the heaviest plane; it fails up front."""
    for n, k in ((7, 3), (9, 4), (60, 30)):
        with pytest.raises(UsageError, match="n - k >= k \\+ 2"):
            gen_near_coplanar(n, k)
    P = gen_near_coplanar(30, 14)  # a tie: the axis planes hold 16 points too
    assert max_coplanar(P) == 16


def test_coplanar_heavy_counts():
    P = gen_coplanar_heavy(12, Fraction(1, 2), seed=2)
    assert len(P) == 12
    assert plane_summary(P).max_coplanar == 6


def test_coplanar_heavy_full_plane():
    P = gen_coplanar_heavy(12, Fraction(1), seed=2)
    assert plane_summary(P).max_coplanar == 12


def test_coplanar_heavy_seeds_differ():
    a = gen_coplanar_heavy(10, Fraction(1, 2), seed=1)
    b = gen_coplanar_heavy(10, Fraction(1, 2), seed=2)
    assert a.points != b.points
    assert plane_summary(a).max_coplanar == plane_summary(b).max_coplanar == 5


def test_coplanar_heavy_pre():
    with pytest.raises(UsageError):
        gen_coplanar_heavy(5, Fraction(1, 3))  # floor = 1 < 3


def test_gen_random_refuses_more_points_than_the_bound_allows():
    # A coordinate with bound 1 is -1, 0 or 1; bound 2 adds ±2 and ±1/2.
    everything = sorted(product((-1, 0, 1), repeat=2))
    assert sorted(p.coords for p in gen_random(9, 2, 1)) == everything
    assert len(gen_random(30, 2, 2)) == 30  # past (2*2 + 1)^2, within 7^2
    assert len(gen_random(49, 2, 2)) == 49
    for n, dim, bound in ((10, 2, 1), (28, 3, 1), (50, 2, 2), (344, 3, 2)):
        with pytest.raises(UsageError, match="allows only"):
            gen_random(n, dim, bound)


def test_gen_random_contract():
    a = gen_random(5, 2, seed=1)
    assert a.points == gen_random(5, 2, seed=1).points
    big = gen_random(100, 3, seed=0)
    assert len(set(big.points)) == 100
    for p in gen_random(30, 2, bound=7, seed=4):
        for c in p.coords:
            assert abs(c.numerator) <= 7 * 7  # value bound: |num/den| <= 7
            assert abs(c) <= 7
    with pytest.raises(UsageError):
        gen_random(3, 4)
    with pytest.raises(UsageError):
        gen_random(0, 2)


def test_sizes_that_are_not_ints_are_refused():
    # A draw loop would round 10.5 up to 11 points.
    with pytest.raises(TypeError, match=r"^cannot interpret 10\.5 as a number of points$"):
        gen_random(10.5, 2)
    # Refused as given, not as the 10.5 - 5 points it would draw off the plane.
    with pytest.raises(TypeError, match=r"^cannot interpret 10\.5 as a number of points$"):
        gen_coplanar_heavy(10.5, Fraction(1, 2))
    # A bool is an int to isinstance, and True would draw one point.
    with pytest.raises(TypeError, match=r"^cannot interpret True as a number of points$"):
        gen_random(True, 2)
    # Each size is refused before any draw: True would stack one point on the
    # z-axis or reach the plane-count check, 10.5 would draw 8 planar points,
    # and 3.0 would reach a range.
    for make, text in [
        (lambda: gen_near_coplanar(10, True), "True"),
        (lambda: gen_near_coplanar(10.5, 2), r"10\.5"),
        (lambda: gen_two_skew(3.0), r"3\.0"),
        (lambda: gen_grid2d(3.0, 3), r"3\.0"),
        (lambda: gen_grid2d(3, 3.0), r"3\.0"),
        (lambda: boroczky_model(6.0), r"6\.0"),
        (lambda: gen_coplanar_heavy(True, 3), "True"),
    ]:
        with pytest.raises(TypeError, match=rf"^cannot interpret {text} as a number of points$"):
            make()
    # A coordinate bound of 2.5 would reach randrange, and True would run as 1.
    for bound, text in [(2.5, r"2\.5"), (True, "True")]:
        with pytest.raises(TypeError, match=rf"^cannot interpret {text} as a coordinate bound$"):
            gen_random(5, 2, bound)
    # A dimension of 2.0 or 3.0 is in (2, 3) and would reach a range.
    for dim, text in [(2.0, r"2\.0"), (3.0, r"3\.0")]:
        with pytest.raises(TypeError, match=rf"^cannot interpret {text} as a dimension$"):
            gen_random(5, dim)


def test_seed_validation():
    with pytest.raises(UsageError):
        gen_random(3, 2, seed=-1)
    with pytest.raises(UsageError):
        gen_random(3, 2, seed=2**64)
    gen_random(3, 2, seed=2**64 - 1)


def test_bool_seed_is_refused():
    # A bool is an int to isinstance; True would run as seed 1 under another label.
    for seed in (True, False):
        with pytest.raises(UsageError, match="^seed must be an unsigned 64-bit integer$"):
            gen_random(3, 2, seed=seed)


def test_hesse_configuration():
    P = gen_hesse()
    assert len(P) == 9
    assert P.kind is Kind.PROJECTIVE2
    assert P.field_name == "Qw"
    s = span_summary(P)
    assert s.ordinary == 0
    assert s.t == {3: 12}
    assert s.num_lines == 12
    assert point_degrees(P) == [4] * 9
    assert 12 * comb(3, 2) == comb(9, 2)


def test_grid_counts():
    assert span_summary(gen_grid2d(2, 2)).ordinary == 6
    s = span_summary(gen_grid2d(3, 3))
    assert s.max_collinear == 3
    assert s.t[3] == 8
    assert s.ordinary == comb(9, 2) - 8 * 3
    assert s.num_lines == 20
    with pytest.raises(UsageError):
        gen_grid2d(1, 5)


def test_boroczky_counts_and_identity():
    for m in (4, 6, 10):
        s = boroczky_model(m)
        assert s.ordinary == m
        assert s.n == 2 * m
        assert s.t[3] == comb(m, 2)
        assert s.t[m] >= 1
        assert sum(comb(k, 2) * c for k, c in s.t.items()) == comb(2 * m, 2)
        assert s.num_lines == 1 + comb(m, 2) + m


def test_boroczky_model_is_a_span_summary():
    """The model reports its lines as span_summary reports a point set's."""
    for m in (4, 6, 50):
        s = boroczky_model(m)
        assert isinstance(s, SpanSummary)
        assert s.max_collinear == m == max(s.t)


def test_boroczky_model_is_pinned():
    """(n, ordinary, num_lines, max collinear, t) for every even m in 4..50."""
    pins = json.loads((Path(__file__).parent / "boroczky_pins.json").read_text(encoding="utf-8"))
    assert sorted(map(int, pins["model"])) == list(range(4, 51, 2))
    for m, (n, ordinary, num_lines, max_collinear, t) in pins["model"].items():
        s = boroczky_model(int(m))
        assert (s.n, s.ordinary, s.num_lines, max(s.t)) == (n, ordinary, num_lines, max_collinear)
        assert s.t == {int(k): c for k, c in t.items()}
        assert list(s.t) == sorted(s.t)


def test_boroczky_rejects_odd_and_small():
    with pytest.raises(UsageError):
        boroczky_model(5)
    with pytest.raises(UsageError):
        boroczky_model(2)


# --- golden generator outputs ----------------------------------------------
#
# Recorded once and never re-pinned: a change to the heaviest-plane check that
# moves any of these hashes has changed which draw a retry loop accepts.


def _sha256_of(P: PointSet) -> str:
    return hashlib.sha256(write_pointset(P).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "a875a84749639c7025eafe0398db02b8e6ab59a66147f9e32dd4e02a30fb5c86"),
        (1, "61abcd0ae8037760d6ed62d21a0041cb48b323e857e8f4d3f732476f84b74dea"),
    ],
)
def test_golden_near_coplanar(seed, digest):
    assert _sha256_of(gen_near_coplanar(60, 5, seed)) == digest


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "fe1a09d1003f172c58a40a8245e13b9a924bdf9bb1620f54159fcb5aad552da3"),
        (1, "1c976b65ee69f38a74a8f7a71a8afe00d4174c92d9c95a33345eaf7f8e9bfa4a"),
    ],
)
def test_golden_coplanar_heavy(seed, digest):
    assert _sha256_of(gen_coplanar_heavy(60, Fraction(1, 2), seed)) == digest


def test_coplanar_heavy_alpha_is_exact():
    with pytest.raises(TypeError, match="exact rational"):
        gen_coplanar_heavy(12, 0.5)
    assert gen_coplanar_heavy(12, "1/2") == gen_coplanar_heavy(12, Fraction(1, 2))
    assert gen_coplanar_heavy(4, 1) == gen_coplanar_heavy(4, Fraction(1))


@pytest.mark.parametrize(
    "n, alpha, digest",
    [
        # m = n: every point is planar and no off-plane point is drawn.
        (12, Fraction(1), "42b3d700817486ebf2607a302c8a2410160e722ac57154b42e279fafc7075f8b"),
        # m = 3 planar points, then 4 off-plane points ordered by height.
        (7, Fraction(3, 7), "40e824fb3ab8b4dee2f798ca71e9a819adf812f61daf3e3779986739a1082da5"),
    ],
)
def test_golden_coplanar_heavy_small(n, alpha, digest):
    assert _sha256_of(gen_coplanar_heavy(n, alpha)) == digest


def test_golden_near_coplanar_after_a_rejected_draw():
    # The first draw of seed 302 puts two planar points on the y-axis, so the
    # plane x = 0 holds the origin, both of them and the three stacked points:
    # 6 > n - k = 5. The loop rejects it and keeps the second draw.
    P = gen_near_coplanar(8, 3, 302)
    assert not any(p.coords[0] == 0 and p.coords[1] != 0 for p in P)
    assert _sha256_of(P) == "728cf295acce867f7733dbcd20ad79d8c685aee6382986aec529667ba0eff9a2"


def test_golden_near_coplanar_skips_a_draw_at_the_origin():
    # The fifth planar draw of seed 494 is (0, 0), the set's first point; the
    # loop skips it, and the eighth draw completes the plane.
    rng = _rng(494)
    draws = [(_rand_fraction(rng, 50), _rand_fraction(rng, 50)) for _ in range(8)]
    assert draws[4] == (0, 0)
    P = gen_near_coplanar(10, 2, 494)
    planar = [p.coords[:2] for p in P if p.coords[2] == 0 and p.coords != (0, 0, 0)]
    assert planar == sorted(draws[:4] + draws[5:])
    assert _sha256_of(P) == "06d4f05f2fe4c00feaec470000871608605f050068ceb5cf59b5bbd516a21118"
