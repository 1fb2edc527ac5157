"""Simulated annealing over rational 3D point sets, minimizing ordinary lines.

The chase is for configurations with few ordinary lines under a coplanarity
cap: no plane may carry more than floor(alpha * n) points. The engine is
entirely float-free. Acceptance probabilities come from a fixed rational
piecewise-linear table of exp(-x), the temperature is a rational with a
bounded denominator, and random draws are integers, so a seed fully
determines the run on every platform. The move mix is fixed at 5:2:2:1:
redraw one coordinate, snap to the line through two other points, snap to
the plane through three, or restart the point; the temperature after t
iterations is 2 * (999/1000)^t.

Proposals are scored incrementally. The state keeps the canonical line key
of every point pair and how many pairs map to each key; a line with k points
receives C(k,2) pairs, so it is ordinary exactly when one pair maps to its
key. Moving one point retracts its n-1 old pairs and adds its n-1 new ones,
and a rejected move is undone the same way. The coplanarity cap is only
checked once a proposal would otherwise be accepted, and only through the
moved point: a move can create an overweight plane only through the point it
placed. The lines through that point are read from its new row of keys, so
the check keys no direction, and it counts points per plane instead of
listing them. It only asks whether some plane through the point holds cap or
more of the other points, so it crosses only the largest lines through the
point: a pigeonhole count shows that such a plane contains two of them
(``incidence._some_plane_holds``). The start set gets the same check per
anchor (``incidence._breaks_cap``), and the best set is checked off its plane
profile, which lists every plane of 4 or more points.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .analysis import plane_ordinary_profile
from .constructions import _rand_fraction as _rand_q
from .errors import DegenerateInputError, GenerationError, InvariantViolationError, UsageError
from .geometry import Kind, Point, affine3, int_hom, plucker_row
from .incidence import PointSet, _breaks_cap, _some_plane_holds, span_summary

__all__ = ["SearchConfig", "SearchResult", "minimize_ordinary"]

_MOVES = ("perturb",) * 5 + ("snap_to_line",) * 2 + ("snap_to_plane",) * 2 + ("restart_point",)
_TEMP_INITIAL = Fraction(2)
_TEMP_DECAY = Fraction(999, 1000)

# exp(-k/2) for k = 0..16, rounded to 6 decimals; zero beyond x = 8.
_EXP_NODES = (
    Fraction(1),
    Fraction(606531, 1000000),
    Fraction(367879, 1000000),
    Fraction(223130, 1000000),
    Fraction(135335, 1000000),
    Fraction(82085, 1000000),
    Fraction(49787, 1000000),
    Fraction(30197, 1000000),
    Fraction(18316, 1000000),
    Fraction(11109, 1000000),
    Fraction(6738, 1000000),
    Fraction(4087, 1000000),
    Fraction(2479, 1000000),
    Fraction(1503, 1000000),
    Fraction(912, 1000000),
    Fraction(553, 1000000),
    Fraction(335, 1000000),
)

_TEMP_DEN_LIMIT = 1 << 20
_DRAW_DEN = 1 << 32


def _exp_neg(x: Fraction) -> Fraction:
    """Piecewise-linear rational surrogate for exp(-x), monotone on [0, 8]."""
    if x <= 0:
        return Fraction(1)
    if x >= 8:
        return Fraction(0)
    k = floor(2 * x)
    frac = 2 * x - k
    lo, hi = _EXP_NODES[k], _EXP_NODES[k + 1]
    return lo + frac * (hi - lo)


@dataclass(frozen=True)
class SearchConfig:
    n: int
    alpha: Fraction
    iterations: int
    seed: int = 0
    coordinate_bound: int = 30
    initial: PointSet | None = None

    def __post_init__(self):
        if self.n < 4:
            raise UsageError("search needs n >= 4")
        alpha = Fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if floor(alpha * self.n) < 3:
            raise UsageError(f"cap floor(alpha*n) = {floor(alpha * self.n)} below 3 is infeasible")
        if self.iterations < 0:
            raise UsageError("iterations must be nonnegative")
        if self.coordinate_bound < 1:
            raise UsageError("coordinate_bound must be positive")

    @property
    def cap(self) -> int:
        return floor(self.alpha * self.n)


@dataclass
class SearchResult:
    """Outcome of one annealing run.

    ``trace`` records (iteration, count) whenever the best count improves,
    starting from the initial state at iteration 0. ``plane_profile`` pairs
    each heavy plane's point count with the ordinary count of that coplanar
    subset on its own.
    """

    best: PointSet
    best_count: int
    ratio: Fraction
    accepted_moves: int
    trace: list[tuple[int, int]]
    plane_profile: list[tuple[int, int]]


class _LineCounts:
    """Pair counts per spanned line of a 3D point set, kept up to date as points move.

    ``keys[i][j]`` is the line key of the pair {i, j}, ``pairs`` maps each
    line key to the number of pairs on it, and ``ordinary`` counts the keys
    hit by exactly one pair. Intermediate states during a move need not be
    valid configurations; ``ordinary`` tracks the keys at count 1 throughout.
    """

    def __init__(self, homs: list[tuple[int, ...]]):
        n = len(homs)
        self.keys: list[list] = [[None] * n for _ in range(n)]
        self.pairs: dict[tuple[int, ...], int] = {}
        self.ordinary = 0
        for i in range(n - 1):
            for j, key in enumerate(plucker_row(homs[i], homs[i + 1 :]), i + 1):
                self.keys[i][j] = self.keys[j][i] = key
                self._add(key)

    @property
    def num_lines(self) -> int:
        return len(self.pairs)

    def _add(self, key) -> None:
        c = self.pairs.get(key, 0)
        self.pairs[key] = c + 1
        if c == 0:
            self.ordinary += 1
        elif c == 1:
            self.ordinary -= 1

    def _remove(self, key) -> None:
        c = self.pairs[key]
        if c == 1:
            del self.pairs[key]
            self.ordinary -= 1
        else:
            self.pairs[key] = c - 1
            if c == 2:
                self.ordinary += 1

    def replace(self, i: int, new_keys: list) -> list:
        """Give point i the pair keys ``new_keys`` (indexed like the points, entry i
        ignored) and return its previous row, which undoes the move when replaced back."""
        row = self.keys[i]
        for j, key in enumerate(row):
            if j != i:
                self._remove(key)
        for j, key in enumerate(new_keys):
            if j != i:
                self._add(key)
                self.keys[j][i] = key
        self.keys[i] = new_keys
        return row

    def classes(self, i: int) -> tuple[list[tuple[int, ...]], list[int]]:
        """The lines through point i as ``_some_plane_holds`` takes them: a
        direction of each and the number of other points on it. Equal keys in row
        i are the same line through i, and entries (p03, p13, p23) of a Plücker
        key are a nonzero multiple of its direction."""
        counts = Counter(self.keys[i])
        del counts[None]
        return [(k[2], k[4], k[5]) for k in counts], list(counts.values())


def _random_start(config: SearchConfig, rng: random.Random) -> PointSet:
    for _ in range(100):
        coords: set[tuple[Fraction, Fraction, Fraction]] = set()
        while len(coords) < config.n:
            coords.add(tuple(_rand_q(rng, config.coordinate_bound) for _ in range(3)))
        start = PointSet([affine3(*c) for c in sorted(coords)])
        try:
            if not _breaks_cap(start, config.cap):
                return start
        except DegenerateInputError:  # all collinear
            continue
    raise GenerationError("no random start satisfied the coplanarity cap after 100 tries")


def _propose(points: list[Point], rng: random.Random, move: str, bound: int) -> tuple[int, Point]:
    n = len(points)
    i = rng.randrange(n)
    if move == "perturb":
        axis = rng.randrange(3)
        cs = list(points[i].coords)
        cs[axis] = _rand_q(rng, bound)
        return i, affine3(*cs)
    if move == "restart_point":
        return i, affine3(_rand_q(rng, bound), _rand_q(rng, bound), _rand_q(rng, bound))
    others = list(range(n))
    others.remove(i)
    if move == "snap_to_line":
        j, k = rng.sample(others, 2)
        t = _rand_q(rng, bound)
        pj, pk = points[j].coords, points[k].coords
        return i, affine3(*(a + t * (b - a) for a, b in zip(pj, pk)))
    j, k, m = rng.sample(others, 3)
    pj, pk, pm = points[j].coords, points[k].coords, points[m].coords
    u = tuple(b - a for a, b in zip(pj, pk))
    v = tuple(b - a for a, b in zip(pj, pm))
    s, t = _rand_q(rng, bound), _rand_q(rng, bound)
    return i, affine3(*(a + s * du + t * dv for a, du, dv in zip(pj, u, v)))


def minimize_ordinary(config: SearchConfig) -> SearchResult:
    """Anneal toward a rational 3D set with few ordinary lines under the cap.

    Deterministic given the config (seed included). The returned best set is
    re-verified from scratch: an independent recount must reproduce
    ``best_count`` and no plane of its profile may exceed the cap.
    """
    if not isinstance(config.seed, int) or not 0 <= config.seed < 2**64:
        raise UsageError("seed must be an unsigned 64-bit integer")
    rng = random.Random(config.seed)

    if config.initial is not None:
        if config.initial.kind is not Kind.AFFINE3 or config.initial.field_name != "Q":
            raise UsageError("initial set must be rational and 3D")
        if len(config.initial) != config.n:
            raise UsageError(
                f"initial set has {len(config.initial)} points, config says n={config.n}"
            )
        if _breaks_cap(config.initial, config.cap):
            raise UsageError("initial set violates the coplanarity cap")
        start = config.initial
    else:
        start = _random_start(config, rng)

    points, homs = list(start.points), list(start.homs)
    occupied = set(points)
    lines = _LineCounts(homs)
    current = lines.ordinary

    best_points = list(points)
    best_count = current
    trace = [(0, current)]
    accepted = 0

    temp = _TEMP_INITIAL
    for it in range(1, config.iterations + 1):
        move = _MOVES[rng.randrange(len(_MOVES))]
        i, new_point = _propose(points, rng, move, config.coordinate_bound)
        temp = (temp * _TEMP_DECAY).limit_denominator(_TEMP_DEN_LIMIT)
        if temp <= 0:
            temp = Fraction(1, _TEMP_DEN_LIMIT)
        if new_point in occupied:
            continue
        old_point, old_hom = points[i], homs[i]
        new_hom = int_hom(new_point)
        points[i], homs[i] = new_point, new_hom
        new_keys = plucker_row(new_hom, homs[:i] + homs[i + 1 :])
        new_keys.insert(i, None)
        old_keys = lines.replace(i, new_keys)
        candidate = lines.ordinary
        ok = lines.num_lines > 1
        if ok and candidate >= current:
            p = _exp_neg(Fraction(candidate - current) / temp)
            ok = Fraction(rng.randrange(_DRAW_DEN), _DRAW_DEN) < p
        if ok:
            ok = not _some_plane_holds(*lines.classes(i), config.cap)
        if not ok:
            points[i], homs[i] = old_point, old_hom
            lines.replace(i, old_keys)
            continue
        occupied.discard(old_point)
        occupied.add(new_point)
        current = candidate
        accepted += 1
        if current < best_count:
            best_count = current
            best_points = list(points)
            trace.append((it, current))

    best = PointSet(best_points, label=f"search-n{config.n}-seed{config.seed}")
    recount = span_summary(best).ordinary
    if recount != best_count:
        raise InvariantViolationError(f"recount {recount} disagrees with best_count {best_count}")
    # The cap is at least 3, so a plane over it has 4 or more points and is in
    # the profile, heaviest first.
    profile = plane_ordinary_profile(best)
    if profile and profile[0][0] > config.cap:
        raise InvariantViolationError("best set violates the coplanarity cap")
    return SearchResult(
        best=best,
        best_count=best_count,
        ratio=Fraction(best_count, config.n**2),
        accepted_moves=accepted,
        trace=trace,
        plane_profile=profile,
    )
