"""Benchmark inputs, generated from the workload seed and written as point-set files.

Run as a script, this is the set-up step that ``setup_s`` times in a fresh
interpreter: start, import ordlines, generate the workload's inputs, write them.

    python3 bench/inputs.py <workload> <seed> <output-dir>
"""

from __future__ import annotations

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import ordlines as O  # noqa: E402

MALFORMED = "dim=3 kind=affine field=Q\n1 2 3\n1 2 x\n"


def sub_seed(seed: int, k: int) -> int:
    """Independent generator seed number k for one workload seed."""
    return (seed * 1009 + k) % 2**64


def _box(a: int, b: int, c: int) -> tuple[O.PointSet, int]:
    """The integer box {1..a} x {1..b} x {1..c} and the index of its centre."""
    pts = [O.affine3(x, y, z) for x in range(1, a + 1) for y in range(1, b + 1) for z in range(1, c + 1)]
    centre = O.affine3((a + 1) // 2, (b + 1) // 2, (c + 1) // 2)
    return O.PointSet(pts, label=f"box-{a}x{b}x{c}"), pts.index(centre)


def _pencil(seed: int) -> O.PointSet:
    """Four points on each of three lines through the origin (the origin excluded)."""
    rng = random.Random(sub_seed(seed, 5))
    ts = rng.sample([t for t in range(-20, 21) if t != 0], 12)
    pts = [O.affine2(t, 0) for t in ts[:4]]
    pts += [O.affine2(0, t) for t in ts[4:8]]
    pts += [O.affine2(t, t) for t in ts[8:]]
    return O.PointSet(pts, label=f"pencil-3x4-seed{seed}")


def make_inputs(workload: str, seed: int) -> dict:
    """Point sets by name; cli also gets the projection centres and a malformed file."""
    if workload == "census":
        return {
            "grid40": O.gen_grid2d(40, 40),
            "r2d400": O.gen_random(400, 2, 50, sub_seed(seed, 1)),
            "r3d400": O.gen_random(400, 3, 50, sub_seed(seed, 2)),
            "r3d80": O.gen_random(80, 3, 50, sub_seed(seed, 3)),
        }
    if workload == "anneal":
        return {"skew10": O.gen_two_skew(10)}
    if workload == "cli":
        box533, c533 = _box(5, 3, 3)
        box771, c771 = _box(7, 7, 1)
        return {
            "grid12": O.gen_grid2d(12, 12),
            "hesse": O.gen_hesse(),
            "box533": box533,
            "box771": box771,
            "flat2d": O.gen_random(30, 2, 50, sub_seed(seed, 4)),
            "pencil": _pencil(seed),
            "centres": {"box533": c533, "box771": c771},
            "malformed": MALFORMED,
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(inputs: dict, outdir: str) -> dict[str, str]:
    """Write every point set (and the malformed text) to ``<name>.txt``; return the paths."""
    paths = {}
    for name, value in inputs.items():
        if isinstance(value, O.PointSet):
            text = O.write_pointset(value)
        elif isinstance(value, str):
            text = value
        else:
            continue
        paths[name] = os.path.join(outdir, f"{name}.txt")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


if __name__ == "__main__":
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    write_inputs(make_inputs(workload, seed), outdir)
