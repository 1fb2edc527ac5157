"""Bound constants and the concrete verifiers."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlines import (
    DegenerateInputError,
    DomainError,
    Eisenstein,
    PointSet,
    W,
    UsageError,
    affine2,
    affine3,
    bound_constants,
    canon_line,
    concurrent_lines_probe,
    gamma_prime,
    gen_coplanar_heavy,
    gen_grid2d,
    gen_hesse,
    gen_near_coplanar,
    gen_random,
    gen_two_skew,
    incident,
    plane_ordinary_profile,
    projective2,
    verify_almost_coplanar,
    verify_skew_bound,
    verify_sylvester_gallai,
)

BETA = Fraction(2, 3)
GAMMA = Fraction(1, 9)


def test_constants_at_alpha0():
    bc = bound_constants(Fraction(2, 27), BETA, GAMMA)
    assert bc.alpha0 == Fraction(2, 27)
    assert bc.c_alpha0 == Fraction(1, 118098)
    assert bc.mu == Fraction(2291, 39366)
    assert bc.nu == Fraction(2708, 19683)
    assert bc.d_case1 == Fraction(9765625, 1506290861232)
    assert bc.d_alpha == bc.d_case1
    assert bc.d_alpha > 0


def test_constants_at_one_half():
    bc = bound_constants(Fraction(1, 2), BETA, GAMMA)
    assert bc.mu == Fraction(71, 144)
    assert bc.nu == Fraction(37, 72)
    assert 0 < bc.mu < bc.alpha < bc.nu
    assert bc.d_alpha > 0


def test_constants_positive_on_percent_grid():
    for k in range(1, 100):
        bc = bound_constants(Fraction(k, 100), BETA, GAMMA)
        assert 0 < bc.mu < bc.alpha < bc.nu
        assert bc.d_alpha > 0
        assert bc.d_alpha == min(bc.d_case1, bc.d_case2a, bc.d_case2b)


_unit = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda x: 0 < x < 1)


@given(_unit, _unit, _unit)
def test_nu_exceeds_alpha_for_every_parameter(alpha, beta, gamma):
    # nu - alpha = (1 - alpha)^2 (gamma - m/2) with m = min(alpha, beta, gamma)
    # <= gamma, so nu > alpha > 0 on all of (0, 1)^3: the DomainError for
    # nu <= 0 and the violation lines of `constants --grid` cannot be reached.
    bc = bound_constants(alpha, beta, gamma)
    assert bc.nu - alpha == (1 - alpha) ** 2 * (gamma - min(alpha, beta, gamma) / 2)
    assert bc.mu < alpha < bc.nu
    assert bc.d_alpha > 0


@pytest.mark.parametrize("bad", [0, 1, Fraction(-1, 2), Fraction(3, 2)])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_constants_reject_out_of_range(bad, slot):
    args = [Fraction(1, 2), BETA, GAMMA]
    args[slot] = bad
    with pytest.raises(UsageError):
        bound_constants(*args)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_constants_take_exact_inputs_only(slot):
    exact = [Fraction(1, 10), BETA, GAMMA]
    args = list(exact)
    args[slot] = float(exact[slot])
    with pytest.raises(TypeError, match="exact rational"):
        bound_constants(*args)
    args[slot] = str(exact[slot])
    assert bound_constants(*args) == bound_constants(*exact)


def test_gamma_prime_takes_the_binding_branch():
    # large beta1: the (1 - beta1)^2 branch wins
    assert gamma_prime(BETA, GAMMA, Fraction(9, 10)) == Fraction(1, 900)
    # small beta1: still the same branch, now close to gamma itself
    assert gamma_prime(BETA, GAMMA, Fraction(1, 100)) == Fraction(1089, 10000)
    # beta1 = 0 collapses the first two branches
    assert gamma_prime(BETA, GAMMA, Fraction(0)) == GAMMA


def test_sylvester_gallai_random_and_collinear():
    P = gen_random(8, 2, seed=3)
    report = verify_sylvester_gallai(P)
    assert report.holds
    assert sum(1 for p in P if incident(report.witness, p)) == 2

    collinear_set = PointSet([affine2(t, 2 * t) for t in range(5)])
    report = verify_sylvester_gallai(collinear_set)
    assert report.holds and report.witness is None


def test_sylvester_gallai_fails_over_extension():
    report = verify_sylvester_gallai(gen_hesse())
    assert not report.holds
    assert report.witness is None


E = Eisenstein


@pytest.mark.parametrize(
    "make, holds, vector",
    [
        (lambda: gen_grid2d(12, 12), True, (1, -11, 10)),
        (gen_hesse, False, None),
        (lambda: PointSet([affine2(t, 2 * t + 1) for t in range(30)]), True, None),
        (  # three points at infinity, one of them on the witness
            lambda: PointSet(
                [
                    projective2(1, 0, 0),
                    projective2(0, 1, 0),
                    projective2(1, 1, 0),
                    projective2(0, 0, 1),
                    projective2(1, 2, 1),
                    projective2(2, -1, 1),
                ]
            ),
            True,
            (0, 1, -2),
        ),
        (  # three points on y = 0 and one off it: three ordinary lines over Q(w)
            lambda: PointSet(
                [affine2(E(0), E(0)), affine2(E(1), E(0)), affine2(W, E(0)), affine2(E(0), W)]
            ),
            True,
            (E(1), E(-1, -1), E(-1)),
        ),
    ],
    ids=["grid12", "hesse", "collinear30", "projective-at-infinity", "qw-affine4"],
)
def test_golden_sylvester_gallai(make, holds, vector):
    report = verify_sylvester_gallai(make())
    assert report.holds is holds
    assert (None if report.witness is None else report.witness.vector) == vector


def test_sylvester_gallai_pre():
    with pytest.raises(UsageError):
        verify_sylvester_gallai(gen_two_skew(3))
    with pytest.raises(UsageError):
        verify_sylvester_gallai(PointSet([affine2(0, 0), affine2(1, 1)]))


def _family_lines(P):
    line1 = canon_line(P.points[0], P.points[1])
    m = len(P) // 2
    line2 = canon_line(P.points[m], P.points[m + 1])
    return line1, line2


def test_skew_bound_exact_families():
    P = gen_two_skew(5)
    report = verify_skew_bound(P, *_family_lines(P))
    assert (report.lhs, report.rhs, report.holds) == (25, 15, True)


def test_skew_bound_with_extra_point():
    P = gen_two_skew(5)
    Q = PointSet(P.points + (affine3(7, 11, 3),))
    report = verify_skew_bound(Q, *_family_lines(P))
    assert report.rhs == 25 - 11
    assert report.holds


def test_skew_bound_trivial_rhs():
    P = gen_two_skew(2)
    report = verify_skew_bound(P, *_family_lines(P))
    assert report.rhs == 0
    assert report.lhs == 6
    assert report.holds


def test_skew_bound_rejects_coplanar_lines():
    P = gen_two_skew(3)
    line1 = canon_line(affine3(1, 0, 0), affine3(2, 0, 0))
    line2 = canon_line(affine3(0, 1, 0), affine3(1, 1, 0))
    with pytest.raises(UsageError):
        verify_skew_bound(P, line1, line2)
    with pytest.raises(UsageError):
        verify_skew_bound(gen_random(5, 2, seed=0), line1, line2)


def test_almost_coplanar_on_two_skew():
    P = gen_two_skew(10)
    report = verify_almost_coplanar(P, 9)
    assert report.bound == Fraction(137, 2)
    assert report.count == 100
    assert report.holds
    assert "informational" in report.caveat


def test_almost_coplanar_rejects_heavy_plane():
    P = gen_two_skew(10)
    with pytest.raises(UsageError, match="plane"):
        verify_almost_coplanar(P, 10)
    with pytest.raises(UsageError):
        verify_almost_coplanar(P, -1)


def test_almost_coplanar_refuses_a_k_that_is_not_an_int():
    # Refused before any kernel runs: 2.5 would die in a range deep in the plane
    # kernel, and True, an int to isinstance, would run as k = 1. The planar set
    # shows the order: the plane kernel would refuse it with a UsageError.
    flat = PointSet([affine2(0, 0), affine2(1, 0), affine2(0, 1)])
    for P in (gen_random(8, 3, seed=1), flat):
        for k in (2.5, True, Fraction(2)):
            message = f"cannot interpret {k!r} as a number of points"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                verify_almost_coplanar(P, k)


def test_almost_coplanar_rejects_k_above_n_before_the_plane_check():
    P = gen_two_skew(10)
    with pytest.raises(UsageError, match=r"^k must be at most n = 20$"):
        verify_almost_coplanar(P, 21)
    with pytest.raises(UsageError, match=r"^k must be at most n = 20$"):
        verify_almost_coplanar(P, 100)
    # The offender is the heaviest plane, ties broken by the least key.
    for k in (10, 20):
        with pytest.raises(UsageError) as err:
            verify_almost_coplanar(P, k)
        assert str(err.value) == (
            f"plane (0, 1, -10, 0) contains 11 points, more than n - k = {20 - k}"
        )


_OFFENDERS = {
    "heavy-30": (lambda: gen_coplanar_heavy(30, Fraction(1, 2), 0), (16, 27, 30), (0, 0, 1, 0), 15),
    "near-20": (lambda: gen_near_coplanar(20, 3, 1), (4, 17, 20), (0, 0, 1, 0), 17),
    # Several 5-point planes tie here, so the tie rule is pinned too.
    "random-12": (lambda: gen_random(12, 3, 2, 1), (8, 9, 12), (1, 0, 0, -1), 5),
}


@pytest.mark.parametrize("name", sorted(_OFFENDERS))
def test_almost_coplanar_offender_is_pinned(name):
    """The offender is the heaviest plane, ties broken by the least key."""
    make, ks, vector, points = _OFFENDERS[name]
    P = make()
    for k in ks:
        with pytest.raises(UsageError) as err:
            verify_almost_coplanar(P, k)
        assert str(err.value) == (
            f"plane {vector} contains {points} points, more than n - k = {len(P) - k}"
        ), k


def test_almost_coplanar_offender_past_the_digit_limit_is_a_usage_error():
    """Five of seven points with 1,601-digit coordinates on one plane, whose key
    has about 4,800 digits: at k = 3 it is the offender, and naming it would pass
    the interpreter's default digit limit."""
    big = 10**1600
    o, u, v = (big + 11, 13, 2 * big + 17), (big + 1, 2 * big + 3, 5), (7, big - 1, 3 * big + 2)
    steps = ((0, 0), (1, 0), (0, 1), (1, 1), (2, -1))
    on = [tuple(a + s * b + t * c for a, b, c in zip(o, u, v)) for s, t in steps]
    P = PointSet([affine3(*c) for c in on + [(0, 0, 0), (1, 2, 3)]])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        with pytest.raises(UsageError, match="^cannot write the plane with 5 points, more than n - k = 4: "):
            verify_almost_coplanar(P, 3)
    finally:
        sys.set_int_max_str_digits(limit)


def test_almost_coplanar_usage_errors_name_plane_summary():
    """The cap check keeps the messages of the plane listing it replaced."""
    with pytest.raises(UsageError, match="^plane_summary needs a 3D affine set$"):
        verify_almost_coplanar(PointSet([affine2(0, 0), affine2(1, 0), affine2(0, 1)]), 0)
    with pytest.raises(UsageError, match="^plane_summary needs at least 3 points$"):
        verify_almost_coplanar(PointSet([affine3(0, 0, 0), affine3(1, 0, 0)]), 0)
    with pytest.raises(DegenerateInputError, match="^all points are collinear"):
        verify_almost_coplanar(PointSet([affine3(t, t, t) for t in range(4)]), 0)


def test_concurrent_probe_two_axes():
    pts = [affine2(1, 0), affine2(2, 0), affine2(-1, 0)]
    pts += [affine2(0, 1), affine2(0, 2), affine2(0, -1)]
    report = concurrent_lines_probe(PointSet(pts), affine2(0, 0))
    # every line joining an x-axis point to a y-axis point misses the origin
    assert report.contained_in == 2
    assert report.ordinary_avoiding_apex == 9


def test_concurrent_probe_three_pencil_lines():
    pts = [affine2(1, 0), affine2(2, 0), affine2(1, 1), affine2(2, 2)]
    pts += [affine2(1, -1), affine2(2, -2)]
    report = concurrent_lines_probe(PointSet(pts), affine2(0, 0))
    assert report.contained_in == 3
    assert report.ordinary_avoiding_apex >= 1


def test_concurrent_probe_pre():
    on_line = PointSet([affine2(1, 0), affine2(2, 0), affine2(3, 0)])
    with pytest.raises(UsageError):
        concurrent_lines_probe(on_line, affine2(0, 0))
    with pytest.raises(UsageError):
        concurrent_lines_probe(on_line, affine3(0, 0, 0))


def test_plane_profile_two_skew():
    profile = plane_ordinary_profile(gen_two_skew(3))
    assert profile == [(4, 3)] * 6

