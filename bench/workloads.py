"""The three benchmark workloads: what one pass runs, and how its results are checked.

A pass is the workload's fixed work. Each operation in it is timed on its own
(after ``gc.collect()``, GC left on, between calibration loops) and returns
a raw result. After the pass, every result is reduced to a fingerprint (exact
counts and digests) and checked twice: against the pinned fingerprint where
``expected.json`` has one for this seed, and against structural identities
that hold for any seed.
A problem is either a ``crash`` (the operation raised, or a command broke its
exit contract) or a ``mismatch`` (it returned something other than the exact
answer); both make the operation a failed one.

Why each workload exists, and which layer each metric is meant to expose, is
written down in README.md next to this file.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from statistics import median

import ordlines as O

from inputs import make_inputs, sub_seed, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "cli_launcher.py")
CLI_TIMEOUT_S = 120


def digest(obj) -> str:
    """Short stable digest of a JSON-able value or of text."""
    data = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


@dataclass
class Op:
    name: str
    seconds: float
    host: float  # the calibration loop's time around the operation
    value: object = None
    error: str | None = None


# On a shared VM the host's speed swings by tens of percent for minutes at a
# time, so every timed sample is bracketed by a fixed loop, timed three times
# before it and three times after, and reported as seconds / loop * CAL_REF_S
# ("reference seconds"), with the median of the six loop times. The loop is
# the benchmark's own code: a change to ordlines moves the metric in full,
# while a slow host slows the loop and the sample together. Neither the loop
# nor CAL_REF_S may change once results are recorded.
CAL_REF_S = 0.0042  # about the loop's fastest time on the 2-core VM the benchmark was written on
CAL_LOOPS = 3


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop (integers, tuples, a dict), now."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(13000):
        k = (i * 2654435761) % 100003
        d[(k, k & 7)] = d.get((k, k & 7), 0) + i * i
    return time.perf_counter() - t0


def calibrated(fn):
    """Call ``fn`` (which must not raise) after ``gc.collect()``, between two
    sets of calibration loops; return its result, its seconds and the host's loop time."""
    gc.collect()
    before = [calibrate() for _ in range(CAL_LOOPS)]
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return result, seconds, median(before + [calibrate() for _ in range(CAL_LOOPS)])


def ref_seconds(ops) -> float:
    """The estimate every end-to-end time uses: the median over samples of
    seconds / loop time, in reference seconds."""
    return median(op.seconds / op.host for op in ops) * CAL_REF_S


def timed(name, thunk, tracer=None) -> Op:
    """Run one operation; an exception is recorded as the operation's failure."""

    def attempt():
        try:
            if tracer is None:
                return thunk(), None
            with tracer.span(f"op.{name}"):
                return thunk(), None
        except Exception as exc:  # an operation that raises is a failed operation, not a dead run
            return None, f"{type(exc).__name__}: {exc}"

    (value, error), seconds, host = calibrated(attempt)
    return Op(name, seconds, host, value, error)


def read_back(inputs: dict, paths: dict[str, str]) -> tuple[dict, list[str]]:
    """Read every written point set back; the round trip must be exact."""
    sets, problems = dict(inputs), []
    for name, path in paths.items():
        if not isinstance(inputs[name], O.PointSet):
            continue
        back = O.read_pointset_file(path)
        if back.points != inputs[name].points or back.label != inputs[name].label:
            problems.append(f"{name}: read-back differs from the written set")
        sets[name] = back
    return sets, problems


def _t_identity(t: dict, n: int) -> bool:
    return sum(comb(int(k), 2) * c for k, c in t.items()) == comb(n, 2)


# --- census -------------------------------------------------------------------


def _span_fp(s) -> dict:
    return {
        "n": s.n,
        "t": {str(k): c for k, c in s.t.items()},
        "num_lines": s.num_lines,
        "ordinary": s.ordinary,
        "max_collinear": s.max_collinear,
    }


class Census:
    """Static analysis of large sets: the key functions and the grouping kernel."""

    name = "census"
    FIXED = ("span.grid40",)

    def __init__(self, seed: int, sets: dict, workdir: str):
        self.seed, self.sets = seed, sets

    def ops(self):
        s = self.sets
        return [
            ("span.grid40", lambda: O.span_summary(s["grid40"])),
            ("span.r2d400", lambda: O.span_summary(s["r2d400"])),
            ("span.r3d400", lambda: O.span_summary(s["r3d400"])),
            ("planes.r3d80", lambda: O.plane_summary(s["r3d80"])),
            ("ordinary_lines.r3d400", lambda: O.ordinary_lines(s["r3d400"])),
            ("degrees.r2d400", lambda: O.point_degrees(s["r2d400"])),
        ]

    def fingerprint(self, name: str, value) -> dict:
        if name.startswith("span."):
            return _span_fp(value)
        if name.startswith("planes."):
            sizes = Counter(value.plane_counts.values())
            return {
                "num_planes": len(value.plane_counts),
                "max_coplanar": value.max_coplanar,
                "sizes": {str(k): c for k, c in sorted(sizes.items())},
                "planes": digest([[list(p.vector), c] for p, c in value.plane_counts.items()]),
            }
        if name.startswith("ordinary_lines."):
            return {"count": len(value), "lines": digest([list(line.plucker) for line in value])}
        return {"n": len(value), "sum": sum(value), "max": max(value), "degrees": digest(value)}

    def check(self, fps: dict, values: dict) -> list[tuple[str, str]]:
        bad = []
        for name in ("span.grid40", "span.r2d400", "span.r3d400"):
            fp = fps.get(name)
            if fp is None:
                continue
            t = fp["t"]
            ok = (
                fp["n"] == len(self.sets[name.split(".")[1]])
                and _t_identity(t, fp["n"])
                and fp["ordinary"] == t.get("2", 0)
                and fp["num_lines"] == sum(t.values())
                and fp["max_collinear"] == max(int(k) for k in t)
            )
            if not ok:
                bad.append((name, "line histogram breaks the pair identity"))
        planes = fps.get("planes.r3d80")
        if planes is not None:
            sizes = {int(k): c for k, c in planes["sizes"].items()}
            if min(sizes) < 3 or max(sizes) != planes["max_coplanar"] or sum(sizes.values()) != planes["num_planes"]:
                bad.append(("planes.r3d80", "plane sizes inconsistent"))
        lines, span3 = fps.get("ordinary_lines.r3d400"), fps.get("span.r3d400")
        if lines is not None and span3 is not None and lines["count"] != span3["ordinary"]:
            bad.append(("ordinary_lines.r3d400", "count differs from span_summary"))
        degrees, span2 = fps.get("degrees.r2d400"), fps.get("span.r2d400")
        if degrees is not None and span2 is not None:
            incidences = sum(int(k) * c for k, c in span2["t"].items())
            if degrees["n"] != span2["n"] or degrees["sum"] != incidences:
                bad.append(("degrees.r2d400", "degrees do not sum to the incidences"))
        return bad

    @staticmethod
    def e2e(passes) -> dict:
        return {
            "span2d_s": (ref_seconds(p["span.grid40"] for p in passes), "s"),
            "span3d_s": (ref_seconds(p["span.r3d400"] for p in passes), "s"),
            "planes3d_s": (ref_seconds(p["planes.r3d80"] for p in passes), "s"),
        }

    def key_sets(self, values: dict) -> tuple[list, list]:
        """3D and 2D point lists the geometry microbenchmarks draw from."""
        s = self.sets
        return list(s["r3d400"].points), list(s["r2d400"].points) + list(s["grid40"].points)


# --- anneal -------------------------------------------------------------------

# Two lengths of one seeded run per size; the shorter is a prefix of the longer,
# so their time difference is loop time with the start and the final
# verification cancelled out.
ANNEAL_RUNS = {"n20": (500, 2000), "n50": (50, 200)}
N20_SEED = 424242  # the annealer seed of acceptance criterion 11, the same at every workload seed


class Anneal:
    """The annealer's write path: move, recount, accept or revert."""

    name = "anneal"
    FIXED = ("search.n20.short", "search.n20.long")

    def __init__(self, seed: int, sets: dict, workdir: str):
        self.seed, self.sets = seed, sets

    def config(self, size: str, iterations: int):
        if size == "n20":
            return O.SearchConfig(
                n=20,
                alpha=Fraction(3, 5),
                iterations=iterations,
                seed=N20_SEED,
                initial=self.sets["skew10"],
            )
        return O.SearchConfig(n=50, alpha=Fraction(1, 2), iterations=iterations, seed=sub_seed(self.seed, 6))

    def ops(self):
        out = []
        for size, lengths in ANNEAL_RUNS.items():
            for label, iters in zip(("short", "long"), lengths):
                cfg = self.config(size, iters)
                out.append((f"search.{size}.{label}", lambda cfg=cfg: O.minimize_ordinary(cfg)))
        return out

    def fingerprint(self, name: str, value) -> dict:
        return {
            "best_count": value.best_count,
            "accepted_moves": value.accepted_moves,
            "ratio": str(value.ratio),
            "trace": [list(e) for e in value.trace],
            "plane_profile": digest([list(e) for e in value.plane_profile]),
            "best": digest(O.write_pointset(value.best)),
        }

    def check(self, fps: dict, values: dict) -> list[tuple[str, str]]:
        bad = []
        skew_ordinary = O.span_summary(self.sets["skew10"]).ordinary
        for size, (short_n, _) in ANNEAL_RUNS.items():
            for label in ("short", "long"):
                name = f"search.{size}.{label}"
                fp, res = fps.get(name), values.get(name)
                if fp is None:
                    continue
                cfg = self.config(size, 0)
                trace = fp["trace"]
                its, counts = [e[0] for e in trace], [e[1] for e in trace]
                ok = (
                    its[0] == 0
                    and its == sorted(set(its))
                    and all(a > b for a, b in zip(counts, counts[1:]))
                    and counts[-1] == fp["best_count"]
                    and Fraction(fp["ratio"]) == Fraction(fp["best_count"], cfg.n**2)
                    and len(res.best) == cfg.n
                    and (size != "n20" or counts[0] == skew_ordinary)
                )
                if not ok:
                    bad.append((name, "trace or best count inconsistent"))
                elif O.span_summary(res.best).ordinary != fp["best_count"]:
                    bad.append((name, "independent recount differs from best_count"))
                elif O.plane_summary(res.best).max_coplanar > cfg.cap:
                    bad.append((name, "best set breaks the coplanarity cap"))
            short, long_ = fps.get(f"search.{size}.short"), fps.get(f"search.{size}.long")
            if short is not None and long_ is not None:
                prefix = [e for e in long_["trace"] if e[0] <= short_n]
                if short["trace"] != prefix or short["accepted_moves"] > long_["accepted_moves"]:
                    bad.append((f"search.{size}.short", "not a prefix of the longer run"))
        return bad

    @staticmethod
    def e2e(passes) -> dict:
        out = {}
        for size, (short_n, long_n) in ANNEAL_RUNS.items():
            gap = ref_seconds(p[f"search.{size}.long"] for p in passes) - ref_seconds(
                p[f"search.{size}.short"] for p in passes
            )
            out[f"iters_per_s.{size}"] = ((long_n - short_n) / gap if gap > 0 else None, "1/s")
        out["search_s"] = (ref_seconds(p["search.n50.long"] for p in passes), "s")
        return out

    def key_sets(self, values: dict) -> tuple[list, list]:
        pts3 = list(self.sets["skew10"].points)
        for name in ("search.n20.long", "search.n50.long"):
            if values.get(name) is not None:
                pts3 += list(values[name].best.points)
        return pts3, []


# --- cli ----------------------------------------------------------------------

ERROR_OPS = ("error.malformed", "error.skew-bound-2d")


class Cli:
    """Many small ``ordlines`` commands, one child process at a time."""

    name = "cli"
    FIXED = (
        "help.1",
        "help.2",
        "help.3",
        "verify.sylvester-gallai.grid",
        "verify.sylvester-gallai.hesse",
        "project.trace.box533",
        "project.trace.box771",
        "boroczky",
        "constants.grid",
    )

    def __init__(self, seed: int, sets: dict, workdir: str):
        self.seed, self.sets, self.workdir = seed, sets, workdir
        self.trace_dir: str | None = None

    def commands(self) -> list[tuple[str, list[str], tuple[str, ...]]]:
        """(op name, ordlines arguments, files the command writes)."""
        c = self.sets["centres"]
        return [
            ("help.1", ["--help"], ()),
            ("help.2", ["--help"], ()),
            ("help.3", ["--help"], ()),
            ("gen.near-coplanar", ["gen", "near-coplanar", "--n", "60", "--k", "5", "--seed", str(sub_seed(self.seed, 7)), "-o", "nc.txt"], ("nc.txt",)),
            ("gen.coplanar-heavy", ["gen", "coplanar-heavy", "--n", "60", "--alpha", "1/2", "--seed", str(sub_seed(self.seed, 8)), "-o", "ch.txt"], ("ch.txt",)),
            ("stats.planes", ["stats", "--planes", "ch.txt"], ()),
            ("verify.almost-coplanar", ["verify", "almost-coplanar", "nc.txt", "--k", "5"], ()),
            ("verify.skew-bound", ["verify", "skew-bound", "nc.txt"], ()),
            ("verify.sylvester-gallai.grid", ["verify", "sylvester-gallai", "grid12.txt"], ()),
            ("verify.sylvester-gallai.hesse", ["verify", "sylvester-gallai", "hesse.txt"], ()),
            ("verify.concurrent", ["verify", "concurrent", "pencil.txt", "--apex", "0,0"], ()),
            ("project.trace.box533", ["project", "box533.txt", "--center", str(c["box533"]), "--trace"], ()),
            ("project.trace.box771", ["project", "box771.txt", "--center", str(c["box771"]), "--trace"], ()),
            ("boroczky", ["boroczky", "--m", "50"], ()),
            ("constants.grid", ["constants", "--grid", "--beta", "2/3", "--gamma", "1/9"], ()),
            ("search", ["search", "--n", "12", "--alpha", "1/2", "--iters", "300", "--seed", str(sub_seed(self.seed, 9)), "-o", "best.txt"], ("best.txt", "best.txt.json")),
            ("error.malformed", ["stats", "malformed.txt"], ()),
            ("error.skew-bound-2d", ["verify", "skew-bound", "flat2d.txt"], ()),
        ]

    def _command(self, index: int, args: list[str], files: tuple[str, ...]) -> dict:
        env = dict(os.environ)
        env.pop("BENCH_TRACE_FILE", None)
        if self.trace_dir is not None:
            env["BENCH_TRACE_FILE"] = os.path.join(self.trace_dir, f"{index:02d}.json")
        proc = subprocess.run(
            [sys.executable, LAUNCHER, *args],
            cwd=self.workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        written = {}
        for f in files:
            path = os.path.join(self.workdir, f)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    written[f] = fh.read()
        return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": written}

    def ops(self):
        return [
            (name, lambda i=i, a=args, f=files: self._command(i, a, f))
            for i, (name, args, files) in enumerate(self.commands())
        ]

    def fingerprint(self, name: str, value) -> dict:
        return {
            "exit": value["exit"],
            "stdout": digest(value["stdout"]),
            "files": {f: digest(text) for f, text in sorted(value["files"].items())},
        }

    def check(self, fps: dict, values: dict) -> list[tuple[str, str]]:
        bad = []
        for name, v in values.items():
            if v is None:
                continue
            if name in ERROR_OPS:
                if v["exit"] != 1 or not v["stderr"].startswith("Error:") or "Traceback" in v["stderr"]:
                    first = v["stderr"].strip().splitlines()[-1:] or [""]
                    bad.append((name, f"crash: exit {v['exit']}, expected exit 1 with 'Error:' ({first[0][:100]})"))
                continue
            if v["exit"] != 0 or "Traceback" in v["stderr"]:
                bad.append((name, f"crash: exit {v['exit']}: {v['stderr'].strip()[-200:]}"))
                continue
            try:
                problem = self._check_output(name, v)
            except (AttributeError, ValueError, KeyError, TypeError, O.OrdlinesError) as exc:
                problem = f"unreadable output ({type(exc).__name__}: {exc})"
            if problem:
                bad.append((name, problem))
        return bad

    def _check_output(self, name: str, v: dict) -> str | None:
        out = v["stdout"]
        if name.startswith("help."):
            return None if out.startswith("Usage: ordlines") else "unexpected help text"
        if name.startswith("gen."):
            written = O.parse_pointset(next(iter(v["files"].values()), ""))
            return None if len(written) == 60 and out.startswith("wrote 60 points") else "generated file wrong"
        if name == "stats.planes":
            t = dict(tok.split(":") for tok in re.search(r"^t: (.*)$", out, re.M).group(1).split())
            ok = _t_identity({k: int(c) for k, c in t.items()}, 60) and "max coplanar: 30" in out
            return None if ok else "stats breaks the pair identity or the plane cap"
        if name in ("verify.almost-coplanar", "verify.skew-bound"):
            pattern = (
                r"ordinary: (\d+)\s+threshold: 585/2 \(~292\.5\)\s+holds: (True|False)"
                if name == "verify.almost-coplanar"
                else r"ordinary: (\d+)\s+bound: -?\d+\s+holds: True$"
            )
            m = re.match(pattern, out)
            ordinary = O.span_summary(O.read_pointset_file(os.path.join(self.workdir, "nc.txt"))).ordinary
            return None if m and int(m.group(1)) == ordinary else "verifier report wrong"
        if name == "verify.sylvester-gallai.grid":
            return None if out.startswith("holds: ordinary line") else "no ordinary line reported"
        if name == "verify.sylvester-gallai.hesse":
            return None if out == "fails: no ordinary line spanned\n" else "Hesse configuration misreported"
        if name == "verify.concurrent":
            m = re.match(r"pencil lines through apex: 3\s+ordinary lines avoiding apex: (\d+)", out)
            return None if m and int(m.group(1)) > 0 else "pencil probe wrong"
        if name.startswith("project."):
            m = re.search(r"without unique-preimage points: (\d+); ordinary lines avoiding the center: (\d+)", out)
            return None if m and int(m.group(2)) >= int(m.group(1)) else "projection trace wrong"
        if name == "boroczky":
            return None if out.startswith("m=50 n=100 ordinary=50 (= n/2)") else "model count wrong"
        if name == "constants.grid":
            return None if out.startswith("grid: min d_alpha = ") and "violation" not in out else "constant grid wrong"
        if name == "search":
            m = re.match(r"best ordinary count (\d+) ", out)
            report = json.loads(v["files"].get("best.txt.json", "null") or "null")
            best = O.parse_pointset(v["files"].get("best.txt", ""))
            ok = (
                m is not None
                and report is not None
                and report["best_count"] == int(m.group(1))
                and len(best) == 12
                and O.span_summary(best).ordinary == int(m.group(1))
            )
            return None if ok else "search output inconsistent"
        return None

    @staticmethod
    def e2e(passes) -> dict:
        return {
            "startup_s": (ref_seconds(p[n] for p in passes for n in ("help.1", "help.2", "help.3")), "s"),
            "trace_s": (
                ref_seconds(p["project.trace.box533"] for p in passes)
                + ref_seconds(p["project.trace.box771"] for p in passes),
                "s",
            ),
        }

    def key_sets(self, values: dict) -> tuple[list, list]:
        s = self.sets
        return list(s["box533"].points) + list(s["box771"].points), list(s["grid12"].points) + list(s["pencil"].points)


WORKLOADS = {"census": Census, "anneal": Anneal, "cli": Cli}


def prepare(workload: str, seed: int, workdir: str):
    """Generate, write and read back the inputs; return the workload and any round-trip problems."""
    inputs = make_inputs(workload, seed)
    sets, problems = read_back(inputs, write_inputs(inputs, workdir))
    return WORKLOADS[workload](seed, sets, workdir), problems
