"""Time per call of the geometry key functions on fixed batches from a workload's sets.

Runs in the traced run only, after the wrappers are removed, so neither the
wrappers nor these loops touch any end-to-end metric.
"""

from __future__ import annotations

import gc
import random
import time
from statistics import median

from ordlines import geometry as G
from ordlines.errors import OrdlinesError

BATCH = 2000
REPEATS = 5


def _raw_plucker(a, b):
    return tuple(a[i] * b[j] - a[j] * b[i] for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def _batches(pts3: list, pts2: list) -> dict:
    """Argument tuples per function; indices come from a fixed generator."""
    rng = random.Random(20180326)
    h3 = [G.int_hom(p) for p in pts3]
    n3 = len(pts3)
    pairs = [rng.sample(range(n3), 2) for _ in range(BATCH)]
    triples = []
    while len(triples) < BATCH:
        i, j, k = rng.sample(range(n3), 3)
        if not G.collinear(pts3[i], pts3[j], pts3[k]):
            triples.append((i, j, k))
    if pts2:
        h2 = [G.int_hom(p) for p in pts2]
        pairs2 = [rng.sample(range(len(pts2)), 2) for _ in range(BATCH)]
        cross_args = [(h2[i], h2[j]) for i, j in pairs2]
    else:
        # Direction pairs from one anchor, as the annealer's cap check forms them.
        cross_args = []
        while len(cross_args) < BATCH:
            a, i, j = rng.sample(range(n3), 3)
            d1, d2 = G.direction_key(h3[a], h3[i]), G.direction_key(h3[a], h3[j])
            if d1 != d2:
                cross_args.append((d1, d2))
    return {
        "plucker_key": [(h3[i], h3[j]) for i, j in pairs],
        "cross_key": cross_args,
        "plane_key": [(h3[i], h3[j], h3[k]) for i, j, k in triples],
        "direction_key": [(h3[i], h3[j]) for i, j in pairs],
        "primitive_signed": [(_raw_plucker(h3[i], h3[j]),) for i, j in pairs],
        "int_hom": [(pts3[i],) for i, _ in pairs],
        "canon_line": [(pts3[i], pts3[j]) for i, j in pairs],
        "collinear": [(pts3[i], pts3[j], pts3[k]) for i, j, k in triples],
    }


def geometry_ns(pts3: list, pts2: list) -> dict[str, float | None]:
    """Median nanoseconds per call for each key function; None where it no longer exists."""
    try:
        batches = _batches(list(dict.fromkeys(pts3)), list(dict.fromkeys(pts2)))
    except (AttributeError, OrdlinesError):
        return {}
    out: dict[str, float | None] = {}
    for name, args in batches.items():
        fn = getattr(G, name, None)
        if fn is None:
            out[name] = None
            continue
        samples = []
        try:
            for _ in range(REPEATS):
                gc.collect()
                t0 = time.perf_counter()
                for a in args:
                    fn(*a)
                samples.append((time.perf_counter() - t0) / len(args))
        except (TypeError, OrdlinesError):
            out[name] = None
            continue
        out[name] = median(samples) * 1e9
    return out
