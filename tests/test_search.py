"""Annealing engine: configuration contract, determinism, and exactness."""

import hashlib
import math
import random
from collections import Counter
from itertools import combinations, product
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlines import (
    GenerationError,
    PointSet,
    SearchConfig,
    UsageError,
    affine3,
    collinear,
    coplanar,
    gen_near_coplanar,
    gen_random,
    gen_two_skew,
    minimize_ordinary,
    plane_summary,
    span_summary,
    write_pointset,
)
from ordlines.geometry import int_hom, plucker_key
from ordlines.incidence import (
    _direction_classes,
    _heaviest_of_classes,
    _some_plane_holds,
)
from ordlines.constructions import _rand_fraction
from ordlines.search import (
    _DRAW_DEN,
    _EXP_MILLIONTHS,
    _MOVES,
    _TEMP_DEN_LIMIT,
    _accepts,
    _hom_point,
    _limit_denominator,
    _LineCounts,
    _propose,
)
from conftest import big_vec, naive_plane_sets, small_int


def test_config_validation():
    with pytest.raises(UsageError):
        SearchConfig(n=3, alpha=Fraction(1), iterations=0)
    with pytest.raises(UsageError):
        SearchConfig(n=8, alpha=Fraction(1, 4), iterations=0)  # cap 2
    with pytest.raises(UsageError):
        SearchConfig(n=8, alpha=Fraction(1, 2), iterations=-1)
    with pytest.raises(UsageError):
        SearchConfig(n=8, alpha=Fraction(1, 2), iterations=0, coordinate_bound=0)


def test_config_cap_and_weight_fill():
    cfg = SearchConfig(n=10, alpha=Fraction(3, 5), iterations=0)
    assert cfg.cap == 6


def test_seed_validation():
    with pytest.raises(UsageError):
        minimize_ordinary(SearchConfig(n=6, alpha=Fraction(1), iterations=0, seed=-1))
    with pytest.raises(UsageError):
        minimize_ordinary(SearchConfig(n=6, alpha=Fraction(1), iterations=0, seed=2**64))


def test_zero_iterations_is_identity():
    initial = gen_two_skew(4)
    cfg = SearchConfig(n=8, alpha=Fraction(3, 4), iterations=0, initial=initial)
    result = minimize_ordinary(cfg)
    assert result.best.points == initial.points
    assert result.best_count == span_summary(initial).ordinary == 16
    assert result.trace == [(0, 16)]
    assert result.accepted_moves == 0
    assert result.ratio == Fraction(16, 64)


def test_initial_set_rejections():
    with pytest.raises(UsageError, match="cap"):
        cfg_initial = gen_near_coplanar(10, 2, seed=1)  # 8 coplanar
        minimize_ordinary(
            SearchConfig(n=10, alpha=Fraction(1, 2), iterations=0, initial=cfg_initial)
        )
    with pytest.raises(UsageError):
        minimize_ordinary(
            SearchConfig(n=8, alpha=Fraction(1), iterations=0, initial=gen_random(8, 2, seed=0))
        )
    with pytest.raises(UsageError):
        minimize_ordinary(
            SearchConfig(n=8, alpha=Fraction(1), iterations=0, initial=gen_random(9, 3, seed=0))
        )


def test_short_run_contract():
    cfg = SearchConfig(n=8, alpha=Fraction(1, 2), iterations=300, seed=11)
    result = minimize_ordinary(cfg)
    assert result.best_count == span_summary(result.best).ordinary
    assert plane_summary(result.best).max_coplanar <= cfg.cap == 4
    assert len(result.best) == 8
    assert result.best_count <= result.trace[0][1]
    counts = [c for _, c in result.trace]
    assert counts == sorted(counts, reverse=True)
    assert all(a < b for (a, _), (b, _) in zip(result.trace, result.trace[1:]))
    assert counts[-1] == result.best_count


def test_determinism():
    cfg = dict(n=8, alpha=Fraction(1, 2), iterations=200, seed=7)
    a = minimize_ordinary(SearchConfig(**cfg))
    b = minimize_ordinary(SearchConfig(**cfg))
    assert a.best.points == b.best.points
    assert a.trace == b.trace
    assert a.accepted_moves == b.accepted_moves
    c = minimize_ordinary(SearchConfig(**{**cfg, "seed": 8}))
    assert (c.best.points, c.trace) != (a.best.points, a.trace)


def test_seeded_start_improves_or_holds():
    initial = gen_two_skew(4)
    cfg = SearchConfig(n=8, alpha=Fraction(3, 4), iterations=400, seed=2, initial=initial)
    result = minimize_ordinary(cfg)
    assert result.best_count <= 16
    assert result.trace[0] == (0, 16)


# --- the integer loop against Fraction oracles ----------------------------


def _exp_neg(x: Fraction) -> Fraction:
    """Oracle: the piecewise-linear surrogate for exp(-x) over the table's nodes."""
    if x <= 0:
        return Fraction(1)
    if x >= 8:
        return Fraction(0)
    k = math.floor(2 * x)
    lo, hi = (Fraction(e, 10**6) for e in _EXP_MILLIONTHS[k : k + 2])
    return lo + (2 * x - k) * (hi - lo)


def _propose_fraction(points, rng, move, bound):
    """Oracle: the same proposal formed in Fraction coordinates."""
    n = len(points)
    i = rng.randrange(n)
    if move == "perturb":
        axis = rng.randrange(3)
        cs = list(points[i].coords)
        cs[axis] = _rand_fraction(rng, bound)
        return i, affine3(*cs)
    if move == "restart_point":
        return i, affine3(*(_rand_fraction(rng, bound) for _ in range(3)))
    others = list(range(n))
    others.remove(i)
    if move == "snap_to_line":
        j, k = rng.sample(others, 2)
        t = _rand_fraction(rng, bound)
        pj, pk = points[j].coords, points[k].coords
        return i, affine3(*(a + t * (b - a) for a, b in zip(pj, pk)))
    j, k, m = rng.sample(others, 3)
    pj, pk, pm = points[j].coords, points[k].coords, points[m].coords
    u = tuple(b - a for a, b in zip(pj, pk))
    v = tuple(b - a for a, b in zip(pj, pm))
    s, t = _rand_fraction(rng, bound), _rand_fraction(rng, bound)
    return i, affine3(*(a + s * du + t * dv for a, du, dv in zip(pj, u, v)))


def _schedule(steps: int):
    """The Fraction temperatures after 1..steps iterations."""
    temp = Fraction(2)
    for _ in range(steps):
        temp = (temp * Fraction(999, 1000)).limit_denominator(_TEMP_DEN_LIMIT)
        yield temp


def test_temperature_step_matches_fraction_schedule():
    """Past the fixed point 1/2^20, reached at iteration 14,549, and never 0."""
    tn, td = 2, 1
    for it, temp in enumerate(_schedule(20_000), 1):
        tn, td = _limit_denominator(tn * 999, td * 1000, _TEMP_DEN_LIMIT)
        assert (tn, td) == (temp.numerator, temp.denominator), it
    assert (tn, td) == (1, _TEMP_DEN_LIMIT)


def test_limit_denominator_matches_fraction():
    rng = random.Random(11)
    cases = [(3, 2, 1), (5, 2, 1), (-3, 2, 1), (1, 3, 1), (7, 1, 1), (0, 5, 2), (10, 4, 2)]
    for _ in range(2000):
        limit = rng.choice([1, 2, 3, 7, 100, 2**20])
        cases.append((rng.randint(-(10**9), 10**9), rng.randint(1, 10**9), limit))
    # a value midway between its two best approximations with denominator <= 4
    cases.append((7, 24, 4))
    for n, d, limit in cases:
        q = Fraction(n, d).limit_denominator(limit)
        assert _limit_denominator(n, d, limit) == (q.numerator, q.denominator), (n, d, limit)


def _accepts_fraction(delta: int, temp: Fraction, r: int) -> bool:
    return Fraction(r, _DRAW_DEN) < _exp_neg(Fraction(delta) / temp)


def test_acceptance_matches_fraction_decision():
    rng = random.Random(5)
    temps = list(_schedule(15_000))[::97] + [Fraction(2), Fraction(1, 3), Fraction(5, 7)]
    cases = []
    for temp in temps:
        for delta in (0, 1, 2, 3, 5, 8, 17, 40):
            for r in (0, _DRAW_DEN - 1, rng.randrange(_DRAW_DEN), rng.randrange(_DRAW_DEN)):
                cases.append((delta, temp, r))
    # 2x on every node, x = 8 and past it
    for delta in range(0, 10):
        for r in (0, 1, 2**31, _DRAW_DEN - 1):
            cases.append((delta, Fraction(1), r))
            cases.append((delta, Fraction(2), r))
    # exp_neg(x) = 1/2 exactly between the nodes 1/2 and 1, so r = 2^31 is on the threshold
    half = Fraction(477304, 345183)
    assert _exp_neg(1 / half) == Fraction(1, 2)
    cases += [(1, half, 2**31 - 1), (1, half, 2**31), (1, half, 2**31 + 1)]
    for delta, temp, r in cases:
        got = _accepts(delta, temp.numerator, temp.denominator, r)
        assert got == _accepts_fraction(delta, temp, r), (delta, temp, r)
    assert _accepts(1, 477304, 345183, 2**31 - 1) and not _accepts(1, 477304, 345183, 2**31)
    assert not _accepts(8, 1, 1, 0) and _accepts(0, 1, _TEMP_DEN_LIMIT, _DRAW_DEN - 1)


def test_integer_proposals_match_fraction_oracle():
    """Every move kind on random sets, small and large coordinates: the same
    index, the int_hom of the oracle's point, and the same RNG state after."""
    for seed, move, n, bound in product(
        range(8), sorted(set(_MOVES)), (4, 9, 23), (1, 30, 10**6)
    ):
        points = list(gen_random(n, 3, 10**4 if seed % 2 else 5, seed=seed))
        homs = [int_hom(p) for p in points]
        rng_int, rng_frac = random.Random(seed * 7 + n), random.Random(seed * 7 + n)
        for _ in range(3):
            i, hom = _propose(homs, rng_int, move, bound)
            j, point = _propose_fraction(points, rng_frac, move, bound)
            assert (i, hom) == (j, int_hom(point)), (seed, move, n, bound)
            assert _hom_point(hom) == point
            assert rng_int.getstate() == rng_frac.getstate()
            if hom not in homs:
                points[i], homs[i] = point, hom


def _within_bound(c: Fraction, bound: int) -> bool:
    return abs(c.numerator) <= bound and c.denominator <= bound


def test_propose_each_move_kind():
    """Points in general position, so a snapped point meets two (three) others on a
    line (plane) only by construction, and a fresh draw does so only by chance."""
    moves = ("perturb", "snap_to_line", "snap_to_plane", "restart_point")
    for seed, move in product(range(6), moves):
        points = list(gen_random(8, 3, 1000, seed=seed))
        i, hom = _propose([int_hom(p) for p in points], random.Random(seed), move, 30)
        new = _hom_point(hom)
        assert 0 <= i < len(points) and new.kind is points[i].kind
        others = points[:i] + points[i + 1 :]
        if move == "perturb":
            changed = [c for c, old in zip(new.coords, points[i].coords) if c != old]
            assert len(changed) <= 1 and all(_within_bound(c, 30) for c in changed)
        elif move == "restart_point":
            assert all(_within_bound(c, 30) for c in new.coords)
        elif move == "snap_to_line":
            assert any(collinear(a, b, new) for a, b in combinations(others, 2))
        else:
            assert any(coplanar(a, b, c, new) for a, b, c in combinations(others, 3))


def test_exp_surrogate_tracks_exp():
    assert _exp_neg(Fraction(0)) == 1
    assert _exp_neg(Fraction(-3)) == 1
    assert _exp_neg(Fraction(8)) == 0
    assert _exp_neg(Fraction(9)) == 0
    prev = Fraction(1)
    for k in range(0, 161):
        x = Fraction(k, 20)
        value = _exp_neg(x)
        assert value <= prev  # monotone on the table
        # chords over a convex curve overshoot by at most h^2/8 ~ 0.032
        assert abs(float(value) - math.exp(-k / 20)) < 0.035
        prev = value


# --- incremental line counts and the cap check ----------------------------

_grid = st.integers(min_value=-2, max_value=2)
_grid_point = st.tuples(_grid, _grid, _grid)


def _line_state(points) -> tuple[int, int, dict[int, int]]:
    """(ordinary, lines, t) of a point list, from span_summary."""
    s = span_summary(PointSet([affine3(*c) for c in points]))
    return s.ordinary, s.num_lines, s.t


def _state_of(lines: _LineCounts) -> tuple[int, int, dict[int, int]]:
    """The same triple from the incremental state: a key hit by C(k,2) pairs is a k-point line."""
    t: dict[int, int] = {}
    for c in lines.pairs.values():
        k = next(k for k in range(2, 200) if k * (k - 1) // 2 == c)
        t[k] = t.get(k, 0) + 1
    return lines.ordinary, lines.num_lines, dict(sorted(t.items()))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_incremental_line_counts_match_span_summary(data):
    """Points on the 5x5x5 grid, so moves often make and break lines of 3 or more.
    Each step moves a point to a grid point or snaps it onto the line through two
    others; an undo step then moves it back, as a rejected proposal does."""
    points = data.draw(st.lists(_grid_point, min_size=4, max_size=12, unique=True))
    homs = [int_hom(affine3(*c)) for c in points]
    lines = _LineCounts(homs)
    assert _state_of(lines) == _line_state(points)
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        i = data.draw(st.integers(min_value=0, max_value=len(points) - 1))
        kind = data.draw(st.sampled_from(["random", "snap", "undo"]))
        if kind == "snap":
            j, k = data.draw(st.lists(
                st.sampled_from([x for x in range(len(points)) if x != i]),
                min_size=2, max_size=2, unique=True,
            ))
            t = data.draw(st.sampled_from([-1, 2, Fraction(1, 2), 3]))
            new = tuple(Fraction(a) + t * (b - a) for a, b in zip(points[j], points[k]))
        else:
            new = data.draw(_grid_point)
        if new in points:
            continue
        before = (dict(lines.pairs), lines.ordinary, [list(row) for row in lines.keys])
        old_point, old_hom = points[i], homs[i]
        points[i], homs[i] = new, int_hom(affine3(*new))
        new_keys = [None if j == i else plucker_key(homs[i], h) for j, h in enumerate(homs)]
        old_row = lines.replace(i, new_keys)
        assert _state_of(lines) == _line_state(points)
        if kind == "undo":
            points[i], homs[i] = old_point, old_hom
            lines.replace(i, old_row)
            assert (lines.pairs, lines.ordinary, lines.keys) == before
            assert _state_of(lines) == _line_state(points)


@settings(max_examples=40, deadline=None)
@given(st.lists(_grid_point, min_size=4, max_size=12, unique=True), st.data())
def test_cap_check_matches_naive_heaviest_plane(coords, data):
    P = PointSet([affine3(*c) for c in coords])
    planes = naive_plane_sets(P)
    if not planes:
        return  # all collinear: no plane, and the annealer never asks
    moved = data.draw(st.integers(min_value=0, max_value=len(P) - 1))
    heaviest = max(len(s) for s in planes if moved in s)
    homs = [int_hom(p) for p in P]
    classes = _direction_classes(homs, moved, [j for j in range(len(P)) if j != moved])
    assert _heaviest_of_classes(list(classes), list(map(len, classes.values()))) == heaviest


@st.composite
def _runs_through_a_point(draw, max_n=14):
    """A 3D set of up to max_n points at large coordinates and the index of one
    of them, o: one to three collinear runs through o, a coplanar cluster
    through o, and free points, in a drawn order."""
    o = draw(big_vec)
    coords = [o]

    def add(c):
        if c not in coords and len(coords) < max_n:
            coords.append(c)

    u, v = draw(big_vec), draw(big_vec)
    for s, t in draw(st.lists(st.tuples(small_int, small_int), max_size=6, unique=True)):
        add(tuple(a + s * du + t * dv for a, du, dv in zip(o, u, v)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        w = draw(big_vec)
        for t in draw(st.lists(small_int, min_size=1, max_size=4, unique=True)):
            add(tuple(a + t * dw for a, dw in zip(o, w)))
    for c in draw(st.lists(big_vec, max_size=4)):
        add(c)
    order = draw(st.permutations(range(len(coords))))
    return [coords[k] for k in order], order.index(0)


@settings(max_examples=40, deadline=None)
@given(_runs_through_a_point(), big_vec)
def test_cap_check_through_the_row_matches_naive(case, start):
    """The annealer's cap check: the moved point's classes, read from its row of
    the line counts after the move, give the naive heaviest plane through it."""
    coords, moved = case
    P = PointSet([affine3(*c) for c in coords])
    planes = naive_plane_sets(P)
    if not planes:
        return  # all collinear: no plane, and the annealer never asks
    heaviest = max(len(s) for s in planes if moved in s)
    homs = [int_hom(p) for p in P]
    if start not in coords:  # the point arrives from elsewhere, as in a move
        homs[moved] = int_hom(affine3(*start))
    lines = _LineCounts(homs)
    homs[moved] = int_hom(P[moved])
    lines.replace(
        moved, [None if j == moved else plucker_key(homs[moved], h) for j, h in enumerate(homs)]
    )
    assert _heaviest_of_classes(*lines.classes(moved)) == heaviest



@settings(max_examples=40, deadline=None)
@given(_runs_through_a_point(), big_vec)
def test_pruned_plane_check_matches_naive(case, start):
    """The pigeonhole-pruned check answers "does some plane through the point hold
    at least m other points" as the naive heaviest plane does, for every m, on
    the point's direction classes and on the classes read from its row of the
    line counts after a move."""
    coords, moved = case
    P = PointSet([affine3(*c) for c in coords])
    planes = naive_plane_sets(P)
    if not planes:
        return  # all collinear: no plane, and the annealer never asks
    others_heaviest = max(len(s) for s in planes if moved in s) - 1
    homs = [int_hom(p) for p in P]
    classes = _direction_classes(homs, moved, [j for j in range(len(P)) if j != moved])
    direct = list(classes), list(map(len, classes.values()))
    if start not in coords:
        homs[moved] = int_hom(affine3(*start))
    lines = _LineCounts(homs)
    homs[moved] = int_hom(P[moved])
    lines.replace(
        moved, [None if j == moved else plucker_key(homs[moved], h) for j, h in enumerate(homs)]
    )
    row = lines.classes(moved)
    for m in range(len(P) + 2):
        assert _some_plane_holds(*direct, m) == (others_heaviest >= m), m
        assert _some_plane_holds(*row, m) == (others_heaviest >= m), m


# --- golden runs ------------------------------------------------------------
#
# Recorded once and never re-pinned: a kernel change that moves any of these
# values has changed a seeded trajectory, which is a bug.


def _sha256_of(points) -> str:
    return hashlib.sha256(write_pointset(points).encode("utf-8")).hexdigest()


def test_golden_criterion_11_run():
    config = SearchConfig(
        n=20, alpha=Fraction(3, 5), iterations=10_000, seed=424242, initial=gen_two_skew(10)
    )
    result = minimize_ordinary(config)
    assert result.best_count == 99
    assert result.trace == [(0, 100), (7, 99)]
    assert result.accepted_moves == 1776
    assert _sha256_of(result.best) == (
        "b73ea8a52251409f00dc002ab128c7b8e69b2f69def196c33ad886a92c70a049"
    )
    assert result.plane_profile == [(12, 11)] * 9 + [(10, 9)] * 11


def test_golden_random_start_run():
    result = minimize_ordinary(SearchConfig(n=50, alpha=Fraction(1, 2), iterations=200, seed=2024))
    assert result.best_count == 1186
    assert result.trace == [
        (0, 1225), (3, 1222), (11, 1219), (17, 1216), (21, 1213), (27, 1210), (28, 1207),
        (42, 1204), (56, 1201), (69, 1198), (80, 1195), (86, 1192), (114, 1189), (115, 1186),
    ]
    assert result.accepted_moves == 141
    assert _sha256_of(result.best) == (
        "8dde6e15267c5ba177d15a49a70af9e5561dd81a24ba862ae3846df42eff2fa2"
    )
    assert len(result.plane_profile) == 567
    assert Counter(result.plane_profile) == {(5, 4): 14, (5, 7): 2, (4, 3): 551}
    assert result.plane_profile[:16] == [(5, 4)] * 14 + [(5, 7)] * 2


def test_golden_tight_cap_run():
    """A cap of 3 on 8 points in a small box: the start check rejects five
    random starts, and the cap rejects 191 of the 246 proposals it checks."""
    result = minimize_ordinary(
        SearchConfig(n=8, alpha=Fraction(3, 8), iterations=300, seed=7, coordinate_bound=2)
    )
    assert result.best_count == 28
    assert result.trace == [(0, 28)]
    assert result.accepted_moves == 55
    assert _sha256_of(result.best) == (
        "3894bea556870d46b5a4c0dcddf42e270d6f3756c8e9276cd6ddea8b4ba7a025"
    )
    assert result.plane_profile == []


def test_golden_no_start_under_the_cap():
    """Ten points in the same box always put four on some plane."""
    config = SearchConfig(n=10, alpha=Fraction(3, 10), iterations=300, seed=7, coordinate_bound=2)
    with pytest.raises(GenerationError, match="after 100 tries"):
        minimize_ordinary(config)


def test_golden_large_coordinates_run():
    """Snaps at a coordinate bound of 10^6 compound: the best set's integer
    coordinates reach 1,836 bits."""
    result = minimize_ordinary(
        SearchConfig(
            n=12, alpha=Fraction(1, 2), iterations=1000, seed=5, coordinate_bound=10**6
        )
    )
    assert result.best_count == 45
    assert result.trace == [
        (0, 66), (4, 63), (10, 60), (24, 57), (175, 54), (176, 51), (437, 48), (474, 45),
    ]
    assert result.accepted_moves == 379
    assert _sha256_of(result.best) == (
        "1607a1db2957869d3b58d286a54b394f8d36254d29fc90f094627aa2d888c40a"
    )
    assert result.plane_profile == [(6, 6)] * 2 + [(5, 4)] * 5 + [(4, 3)] * 25


def test_golden_run_past_the_temperature_fixed_point():
    """The temperature schedule reaches its fixed point 1/2^20 at iteration
    14,549 and stays there."""
    result = minimize_ordinary(SearchConfig(n=8, alpha=Fraction(1, 2), iterations=15_000, seed=3))
    assert result.best_count == 22
    assert result.trace == [(0, 28), (12, 25), (72, 22)]
    assert result.accepted_moves == 3399
    assert _sha256_of(result.best) == (
        "0d58e0bfcf4282b2b3aee3782db7e584269f6f4cd1c84ce73ef3afe75b331ff0"
    )
    assert result.plane_profile == [(4, 3)] * 10
