"""Spans and call counts recorded from outside the ordlines package.

``install`` rebinds, in every loaded ``ordlines`` module, each global name that
refers to a traced function, so calls between modules and calls inside the
defining module are both seen; ``uninstall`` puts the originals back. Nothing
under ``src/`` is edited. A function that a later refactor removes or renames
is simply not wrapped and shows up as absent in the report.

Key functions are called millions of times per pass, so they only get a
counter. The public incidence, analysis, search, construction and I/O
functions get a span each: name, start, end, parent, and a snapshot of the
key-function counters at both ends, which lets a span's own calls be told
apart from its children's.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

COUNTED = {
    "geometry": (
        "plucker_key",
        "cross_key",
        "plane_key",
        "direction_key",
        "primitive_signed",
        "int_hom",
        "canon_line",
        "collinear",
    ),
}
SPANNED = {
    "incidence": (
        "span_summary",
        "plane_summary",
        "ordinary_lines",
        "point_degrees",
        "project_from",
        "kelly_trace",
    ),
    "analysis": (
        "plane_ordinary_profile",
        "verify_almost_coplanar",
        "verify_skew_bound",
        "verify_sylvester_gallai",
        "concurrent_lines_probe",
        "bound_constants",
    ),
    "search": ("minimize_ordinary",),
    "constructions": (
        "gen_near_coplanar",
        "gen_coplanar_heavy",
        "gen_random",
        "gen_grid2d",
        "gen_two_skew",
        "gen_hesse",
        "boroczky_model",
    ),
    "pointset_io": ("read_pointset_file", "write_pointset"),
}
COUNTER_NAMES = tuple(f"{m}.{f}" for m, names in COUNTED.items() for f in names)


def _note_span_summary(args, result):
    return {"field": args[0].field_name}


def _note_plane_summary(args, result):
    return {"planes": len(result.plane_counts)}


def _note_search(args, result):
    return {
        "n": args[0].n,
        "iterations": args[0].iterations,
        "best_count": result.best_count,
        "accepted_moves": result.accepted_moves,
    }


def _note_write(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def _note_read(args, result):
    return {"bytes": os.path.getsize(args[0])}


# Extra facts a span keeps about its call; a failing note is dropped, never raised.
NOTES = {
    "incidence.span_summary": _note_span_summary,
    "incidence.plane_summary": _note_plane_summary,
    "search.minimize_ordinary": _note_search,
    "pointset_io.write_pointset": _note_write,
    "pointset_io.read_pointset_file": _note_read,
}


class Tracer:
    """In-memory spans and counters; one per traced pass or traced process."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.spans: list[dict] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def snapshot(self) -> list[int]:
        return list(self.counts.values())

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; yields the span record for notes."""
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "counts0": self.snapshot(),
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["counts1"] = self.snapshot()
            self._stack.pop()

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, key, fn):
        note = NOTES.get(key)

        def spanned(*args, **kwargs):
            with self.span(key) as rec:
                result = fn(*args, **kwargs)
                if note is not None:
                    try:
                        rec["note"] = note(args, result)
                    except (AttributeError, TypeError, IndexError, KeyError, OSError):
                        pass
                return result

        return spanned

    def install(self) -> None:
        """Wrap every traced function that exists, under every name bound to it."""
        import ordlines  # noqa: F401  (loads every submodule)

        wrappers: dict[int, tuple[object, object]] = {}
        for table, make in ((COUNTED, self._counter), (SPANNED, self._spanner)):
            for layer, names in table.items():
                mod = sys.modules.get(f"ordlines.{layer}")
                for name in names:
                    fn = getattr(mod, name, None)
                    if callable(fn):
                        key = f"{layer}.{name}"
                        wrappers[id(fn)] = (fn, make(key, fn))
                        self.installed.add(key)
        for modname, mod in list(sys.modules.items()):
            if modname != "ordlines" and not modname.startswith("ordlines."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def dump(self) -> dict:
        return {
            "counter_names": list(COUNTER_NAMES),
            "counts": self.counts,
            "spans": self.spans,
            "installed": sorted(self.installed),
        }


def merge(dumps: list[dict]) -> dict:
    """One dump from several processes' dumps (parent indices re-based)."""
    spans: list[dict] = []
    counts = dict.fromkeys(COUNTER_NAMES, 0)
    installed: set[str] = set()
    for d in dumps:
        offset = len(spans)
        for s in d["spans"]:
            s = dict(s)
            if s["parent"] is not None:
                s["parent"] += offset
            spans.append(s)
        for name, c in d["counts"].items():
            if name in counts:
                counts[name] += c
        installed |= set(d["installed"])
    return {"counter_names": list(COUNTER_NAMES), "counts": counts, "spans": spans, "installed": sorted(installed)}


def layer_metrics(dump: dict) -> dict[str, tuple[float | None, str]]:
    """Per-layer numbers from one traced pass, as name -> (value, unit);
    a value of None marks a boundary that is absent."""
    spans, installed = dump["spans"], set(dump["installed"])
    children: dict[int, list[int]] = {}
    for idx, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(idx)
    pk = COUNTER_NAMES.index("geometry.plucker_key")
    plk = COUNTER_NAMES.index("geometry.plane_key")

    def dur(s):
        return s["end"] - s["start"]

    def calls(s, k):
        return s["counts1"][k] - s["counts0"][k]

    def named(name):
        return [s for s in spans if s["name"] == name]

    # Numbers a workload may have no spans for are listed as absent, not left out.
    m: dict[str, tuple[float | None, str]] = {
        name: (None, unit)
        for name, unit in (
            ("search.loop_s", "s"),
            ("search.start_s", "s"),
            ("search.finish_s", "s"),
            ("search.best_count", "count"),
            ("search.accepted_moves", "count"),
            ("constructions.attempts_per_set", "count"),
            ("fields.hesse.span_summary.s", "s"),
        )
    }
    for name in COUNTER_NAMES:
        m[f"{name}.calls"] = (dump["counts"][name] if name in installed else None, "count")
    for layer, names in SPANNED.items():
        for fn in names:
            key = f"{layer}.{fn}"
            m[f"{key}.s"] = (sum(dur(s) for s in named(key)) if key in installed else None, "s")

    for s in spans:  # per input, where the benchmark called the kernel directly
        parent = spans[s["parent"]] if s["parent"] is not None else None
        if parent and parent["name"].startswith("op.") and s["name"] in ("incidence.span_summary", "incidence.plane_summary"):
            key = f"{s['name']}.s.{parent['name'].rsplit('.', 1)[-1]}"
            m[key] = ((m.get(key) or (0.0,))[0] + dur(s), "s")

    plane_spans = [s for s in named("incidence.plane_summary") if "note" in s]
    planes = sum(s["note"]["planes"] for s in plane_spans)
    m["incidence.plane_summary.keys_per_plane"] = (
        sum(calls(s, plk) for s in plane_spans) / planes if planes else None,
        "count",
    )

    searches = [(i, s) for i, s in enumerate(spans) if s["name"] == "search.minimize_ordinary"]
    if searches:
        loop = start = finish = 0.0
        best = accepted = 0
        by_size: dict[int, list[tuple[int, int]]] = {}  # n -> [(iterations, own plucker_key calls)]
        for idx, s in searches:
            # The annealing loop calls no traced boundary, so it is the widest
            # stretch of the search span that no child span covers.
            cursor, gap = s["start"], (s["start"], s["start"])
            for a, b in sorted((spans[c]["start"], spans[c]["end"]) for c in children.get(idx, ())):
                if a - cursor > gap[1] - gap[0]:
                    gap = (cursor, a)
                cursor = max(cursor, b)
            if s["end"] - cursor > gap[1] - gap[0]:
                gap = (cursor, s["end"])
            loop += gap[1] - gap[0]
            start += gap[0] - s["start"]
            finish += s["end"] - gap[1]
            note = s.get("note", {})
            best += note.get("best_count", 0)
            accepted += note.get("accepted_moves", 0)
            if "n" in note:
                own_pk = calls(s, pk) - sum(calls(spans[c], pk) for c in children.get(idx, ()))
                by_size.setdefault(note["n"], []).append((note["iterations"], own_pk))
        m.update({
            "search.loop_s": (loop, "s"),
            "search.start_s": (start, "s"),
            "search.finish_s": (finish, "s"),
            "search.best_count": (best, "count"),
            "search.accepted_moves": (accepted, "count"),
        })
        # Loop calls per iteration, per size: the difference between the longest
        # and the shortest search of one size, whose seeded starts are the same,
        # so the untraced start and final recounts cancel.
        for n, runs in sorted(by_size.items()):
            (short_it, short_pk), (long_it, long_pk) = min(runs), max(runs)
            if long_it > short_it:
                m[f"search.plucker_key.calls_per_iter.n{n}"] = ((long_pk - short_pk) / (long_it - short_it), "count")

    gens = [i for i, s in enumerate(spans) if s["name"] in ("constructions.gen_near_coplanar", "constructions.gen_coplanar_heavy")]
    if gens:
        attempts = sum(1 for c in gens for k in children.get(c, ()) if spans[k]["name"] == "incidence.plane_summary")
        m["constructions.attempts_per_set"] = (attempts / len(gens), "count")
    m["constructions.s"] = (sum(dur(s) for s in spans if s["name"].startswith("constructions.")), "s")
    m["pointset_io.bytes"] = (
        sum(s.get("note", {}).get("bytes", 0) for s in spans if s["name"].startswith("pointset_io.")),
        "B",
    )
    qw = [s for s in named("incidence.span_summary") if s.get("note", {}).get("field") == "Qw"]
    if qw:
        m["fields.hesse.span_summary.s"] = (sum(dur(s) for s in qw), "s")
    return m
