"""Simulated annealing over rational 3D point sets, minimizing ordinary lines.

The chase is for configurations with few ordinary lines under a coplanarity
cap: no plane may carry more than floor(alpha * n) points. The engine is
entirely float-free, and its loop runs on integers alone. Acceptance
probabilities come from a fixed piecewise-linear table of exp(-x) in
millionths, the temperature is a pair of integers tn / td, and a uniform
draw r / 2^32 is compared with the table by cross-multiplication, so a seed
fully determines the run on every platform. The move mix is fixed at
5:2:2:1: redraw one coordinate, snap to the line through two other points,
snap to the plane through three, or restart the point. The temperature
starts at 2 and each iteration multiplies it by 999/1000 and limits its
denominator to 2^20 (as ``Fraction.limit_denominator`` does); it reaches
1/2^20 at iteration 14,549 and stays there.

Points are held as their integer homogeneous coordinates (``int_hom``: a
primitive 4-tuple with a positive weight). A proposal forms the new tuple
from the drawn numerators and denominators and reduces it with one gcd, so a
proposal onto an occupied place is found by comparing these canonical tuples,
and ``Point``s are built only for the best set.

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
from math import floor, gcd

from .analysis import plane_ordinary_profile
from .constructions import RETRY_LIMIT, _random_points, _require_count, _rng
from .errors import DegenerateInputError, GenerationError, InvariantViolationError, UsageError
from .fields import _to_fraction
from .geometry import Kind, Point, affine3, plucker_row
from .incidence import PointSet, _breaks_cap, _some_plane_holds, span_summary

__all__ = ["SearchConfig", "SearchResult", "minimize_ordinary"]

_MOVES = ("perturb",) * 5 + ("snap_to_line",) * 2 + ("snap_to_plane",) * 2 + ("restart_point",)

# exp(-k/2) for k = 0..16 in millionths, rounded; zero beyond x = 8.
_EXP_MILLIONTHS = (
    1000000, 606531, 367879, 223130, 135335, 82085, 49787, 30197, 18316,
    11109, 6738, 4087, 2479, 1503, 912, 553, 335,
)

_TEMP_DEN_LIMIT = 1 << 20
_DRAW_DEN = 1 << 32


def _limit_denominator(n: int, d: int, limit: int) -> tuple[int, int]:
    """``Fraction(n, d).limit_denominator(limit)`` for d > 0, as a reduced pair
    (the CPython algorithm: the closer of the two best approximations, the
    smaller denominator on a tie)."""
    g = gcd(n, d)
    n, d = n // g, d // g
    if d <= limit:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > limit:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (limit - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _accepts(delta: int, tn: int, td: int, r: int) -> bool:
    """Whether r / 2^32 < exp_neg(delta * td / tn) for delta >= 0, where exp_neg
    interpolates ``_EXP_MILLIONTHS`` linearly at the nodes x = k/2 and is 0 from
    x = 8 on. Decided by cross-multiplication, with 2x = num / tn."""
    num = 2 * delta * td
    if num >= 16 * tn:
        return False
    k = num // tn
    lo, hi = _EXP_MILLIONTHS[k], _EXP_MILLIONTHS[k + 1]
    return r * tn * 1000000 < _DRAW_DEN * (lo * tn + (num - k * tn) * (hi - lo))


@dataclass(frozen=True)
class SearchConfig:
    n: int
    alpha: Fraction
    iterations: int
    seed: int = 0
    coordinate_bound: int = 30
    initial: PointSet | None = None

    def __post_init__(self):
        _require_count(self.n)
        if self.n < 4:
            raise UsageError("search needs n >= 4")
        object.__setattr__(self, "alpha", _to_fraction(self.alpha))
        if self.cap < 3:
            raise UsageError(f"cap floor(alpha*n) = {self.cap} below 3 is infeasible")
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
    for _ in range(RETRY_LIMIT):
        start = PointSet(_random_points(rng, config.n, 3, config.coordinate_bound))
        try:
            if not _breaks_cap(start, config.cap):
                return start
        except DegenerateInputError:  # all collinear
            continue
    raise GenerationError(
        f"no random start satisfied the coplanarity cap after {RETRY_LIMIT} tries"
    )


def _primitive_hom(h) -> tuple[int, ...]:
    """The primitive form of an integer homogeneous 4-tuple with a positive
    weight, which is ``int_hom`` of the point it names."""
    g = gcd(*h)
    return tuple(h) if g == 1 else tuple([c // g for c in h])


def _hom_point(h: tuple[int, ...]) -> Point:
    return affine3(*(Fraction(c, h[3]) for c in h[:3]))


def _propose(homs: list[tuple[int, ...]], rng: random.Random, move: str, bound: int):
    """Pick a point and a new place for it by ``move``: its index and the new
    place's ``int_hom``. Each rational drawn is randint(-bound, bound) over
    randint(1, bound), in the order ``_rand_fraction`` draws it, and the new
    coordinates are formed over the product of the drawn denominators."""
    n = len(homs)
    i = rng.randrange(n)
    randint = rng.randint
    if move == "perturb":
        axis = rng.randrange(3)
        a, d = randint(-bound, bound), randint(1, bound)
        h = [c * d for c in homs[i]]
        h[axis] = a * homs[i][3]
        return i, _primitive_hom(h)
    if move == "restart_point":
        a, d = randint(-bound, bound), randint(1, bound)
        b, e = randint(-bound, bound), randint(1, bound)
        c, f = randint(-bound, bound), randint(1, bound)
        return i, _primitive_hom((a * e * f, b * d * f, c * d * e, d * e * f))
    # The others are range(n) without i, sampled by position.
    if move == "snap_to_line":
        j, k = (x + (x >= i) for x in rng.sample(range(n - 1), 2))
        a, d = randint(-bound, bound), randint(1, bound)
        hj, hk = homs[j], homs[k]
        # pj + (a/d)(pk - pj), with weight d * wj * wk
        cj, ck = (d - a) * hk[3], a * hj[3]
        return i, _primitive_hom([cj * x + ck * y for x, y in zip(hj, hk)])
    j, k, m = (x + (x >= i) for x in rng.sample(range(n - 1), 3))
    a, d = randint(-bound, bound), randint(1, bound)
    b, e = randint(-bound, bound), randint(1, bound)
    hj, hk, hm = homs[j], homs[k], homs[m]
    wj, wk, wm = hj[3], hk[3], hm[3]
    # pj + (a/d)(pk - pj) + (b/e)(pm - pj), with weight d * e * wj * wk * wm
    cj = (d * e - a * e - b * d) * wk * wm
    ck, cm = a * e * wj * wm, b * d * wj * wk
    return i, _primitive_hom([cj * x + ck * y + cm * z for x, y, z in zip(hj, hk, hm)])


def minimize_ordinary(config: SearchConfig) -> SearchResult:
    """Anneal toward a rational 3D set with few ordinary lines under the cap.

    Deterministic given the config (seed included). The returned best set is
    re-verified from scratch: an independent recount must reproduce
    ``best_count`` and no plane of its profile may exceed the cap.
    """
    rng = _rng(config.seed)

    if config.initial is not None:
        if config.initial.kind is not Kind.AFFINE3:  # every 3D set is rational
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

    homs = list(start.homs)
    lines = _LineCounts(homs)
    current = lines.ordinary

    best_homs = list(homs)
    best_count = current
    trace = [(0, current)]
    accepted = 0

    tn, td = 2, 1  # the temperature tn / td
    for it in range(1, config.iterations + 1):
        move = _MOVES[rng.randrange(len(_MOVES))]
        i, new_hom = _propose(homs, rng, move, config.coordinate_bound)
        tn, td = _limit_denominator(tn * 999, td * 1000, _TEMP_DEN_LIMIT)
        if new_hom in homs:
            continue
        old_hom = homs[i]
        homs[i] = new_hom
        new_keys = plucker_row(new_hom, homs[:i] + homs[i + 1 :])
        new_keys.insert(i, None)
        old_keys = lines.replace(i, new_keys)
        candidate = lines.ordinary
        ok = lines.num_lines > 1
        if ok and candidate >= current:
            ok = _accepts(candidate - current, tn, td, rng.randrange(_DRAW_DEN))
        if ok:
            ok = not _some_plane_holds(*lines.classes(i), config.cap)
        if not ok:
            homs[i] = old_hom
            lines.replace(i, old_keys)
            continue
        current = candidate
        accepted += 1
        if current < best_count:
            best_count = current
            best_homs = list(homs)
            trace.append((it, current))

    best = PointSet(map(_hom_point, best_homs), label=f"search-n{config.n}-seed{config.seed}")
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
