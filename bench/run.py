"""ordlines benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload {census,anneal,cli} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory, so nothing needs installing. With --trace 0
the run times whole passes of the workload and reports the end-to-end
metrics; with --trace 1 it times untraced passes for half the budget, then
traced passes, and reports the per-layer metrics. Every line but the last is
a human-readable report; the last line is one JSON object with the keys
correct, attempted, failed and metrics. A full record (per-operation times,
problems, spans) is written to .bench_out/ at the checkout root.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from statistics import median, median_low

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PER_PASS = 8  # set-ups timed before each pass, so they sample the whole run, not one moment of it
SETUP_TIMEOUT_S = 60
MICROBENCH_S = 3  # kept free at the end of a traced run for the geometry microbenchmarks
RUN_LIMIT_S = 150  # stop starting passes past this, whatever the budget, to exit well within 180 s


def contract() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def metadata(args, samples: int) -> dict:
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "ordlines")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src_hash.update(fname.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "samples": samples,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(runner: "Runner", workdir: str) -> list:
    """Timed fresh interpreters that import ordlines and write the inputs, as Ops.
    Each is an operation of the run; one that fails is a crash and gives no time."""
    from workloads import Op, calibrated

    def child() -> str | None:
        target = tempfile.mkdtemp(dir=workdir)
        cmd = [sys.executable, os.path.join(HERE, "inputs.py"), runner.workload, str(runner.seed), target]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"

    setups = []
    for _ in range(SETUP_PER_PASS):
        crash, seconds, host = calibrated(child)
        runner.judge_setup([], crash)
        if crash is None:
            setups.append(Op("setup", seconds, host))
    return setups


class Runner:
    """Runs passes of one workload and keeps every operation's outcome."""

    def __init__(self, workload: str, seed: int, expected: dict):
        self.workload, self.seed = workload, seed
        self.wl = None
        pins = expected.get(workload, {})
        self.pins = {**pins.get("any", {}), **pins.get(str(seed), {})}
        self.reference: dict[str, dict] = {}
        self.attempted = self.failed = 0
        self.mismatch = False
        self.problems: list[str] = []

    def setup(self, workdir: str) -> bool:
        """Generate, write and read back the inputs; False if that raised."""
        import workloads as W

        try:
            wl, problems = W.prepare(self.workload, self.seed, workdir)
        except Exception as exc:  # a set-up that raises is a failed operation, not a dead run
            self.judge_setup([], f"{type(exc).__name__}: {exc}")
            return False
        self.wl = wl
        self.judge_setup(problems)
        return True

    def judge_setup(self, problems: list[str], crash: str | None = None) -> None:
        """A set-up (the input round trip, or a timed set-up child) counts as one operation of the run."""
        self.attempted += 1
        if crash is not None:
            self.failed += 1
            self.problems.append(f"setup: crash: {crash}")
        elif problems:
            self.failed += 1
            self.mismatch = True
            self.problems += [f"setup: mismatch: {p}" for p in problems]

    def one_pass(self, tracer=None, keep_values: bool = False) -> dict:
        """Time every operation once and judge the results; values are dropped
        unless asked for, so memory does not grow with the number of passes."""
        from workloads import timed

        ops = {name: timed(name, thunk, tracer) for name, thunk in self.wl.ops()}
        if tracer is not None:
            tracer.uninstall()
        self._judge(ops)
        if not keep_values:
            for op in ops.values():
                op.value = None
        return ops

    def _judge(self, ops: dict) -> None:
        bad: dict[str, list[str]] = {}
        fps, values = {}, {}
        for name, op in ops.items():
            if op.error is not None:
                bad.setdefault(name, []).append(f"crash: {op.error}")
                continue
            values[name] = op.value
            try:
                fps[name] = self.wl.fingerprint(name, op.value)
            except Exception as exc:  # a result of the wrong shape is a wrong result
                bad.setdefault(name, []).append(f"mismatch: unreadable result ({type(exc).__name__}: {exc})")
        try:
            structural = self.wl.check(fps, values)
        except Exception as exc:  # a check that cannot even read the results fails them all
            structural = [(name, f"unreadable results ({type(exc).__name__}: {exc})") for name in fps]
        for name, msg in structural:
            kind = "" if msg.startswith("crash:") else "mismatch: "
            bad.setdefault(name, []).append(kind + msg)
        for name, fp in fps.items():
            if name in self.pins and fp != self.pins[name]:
                bad.setdefault(name, []).append("mismatch: differs from the pinned exact result")
            ref = self.reference.setdefault(name, fp)
            if fp != ref:
                bad.setdefault(name, []).append("mismatch: differs between passes of one run")
        self.attempted += len(ops)
        self.failed += len(bad)
        for name, msgs in bad.items():
            self.mismatch |= any(m.startswith("mismatch") for m in msgs)
            for m in msgs:
                self.problems.append(f"{name}: {m}")

    def digest(self) -> str:
        from workloads import digest

        return digest(self.reference)


def run_passes(runner: Runner, budget: float, started: float, before_each=None) -> list[dict]:
    """Whole passes until the next one would overrun the budget; at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        if before_each is not None:
            before_each()
        passes.append(runner.one_pass())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > budget or time.perf_counter() - started > RUN_LIMIT_S:
            return passes


def run_seconds(passes: list[dict]) -> float:
    """One pass of the fixed work, in reference seconds: each operation's estimate, summed."""
    from workloads import ref_seconds

    return sum(ref_seconds(p[name] for p in passes) for name in passes[0])


def traced_passes(runner: Runner, args, work: str, started: float) -> tuple[list[dict], list[dict]]:
    """Traced set-up plus one pass, repeated while the rest of the budget allows."""
    from tracing import Tracer, merge

    traced, dumps = [], []
    t0 = time.perf_counter()
    remaining = args.seconds - (t0 - started) - MICROBENCH_S
    while True:
        tracer = Tracer()
        tracer.install()
        with tracer.span("setup"):
            ok = runner.setup(work)
        if not ok:
            tracer.uninstall()
            return traced, dumps
        if args.workload == "cli":
            # The parent only sets up; each command traces itself through the launcher.
            tracer.uninstall()
            runner.wl.trace_dir = tempfile.mkdtemp(dir=work)
            traced.append(runner.one_pass(keep_values=True))
            children = []
            for fname in sorted(os.listdir(runner.wl.trace_dir)):
                with open(os.path.join(runner.wl.trace_dir, fname), encoding="utf-8") as fh:
                    children.append(json.load(fh))
            dumps.append(merge([tracer.dump(), *children]))
        else:
            traced.append(runner.one_pass(tracer, keep_values=True))
            dumps.append(tracer.dump())
        spent = time.perf_counter() - t0
        if spent + spent / len(traced) > remaining or time.perf_counter() - started > RUN_LIMIT_S:
            return traced, dumps


def layer_report(runner: Runner, passes: list[dict], traced: list[dict], dumps: list[dict]) -> dict:
    """Every per-layer number, as name -> (value, unit); the value is None where the boundary is absent."""
    from microbench import geometry_ns
    from tracing import layer_metrics

    per_pass = [layer_metrics(d) for d in dumps]
    layers = {}
    for key in {k for pm in per_pass for k in pm}:
        vals = [pm[key][0] for pm in per_pass if key in pm and pm[key][0] is not None]
        unit = next(pm[key][1] for pm in per_pass if key in pm)
        # median_low returns one pass's own value, so exact counts stay integers.
        layers[key] = (median_low(vals) if vals else None, unit)
    if not traced:
        return layers
    values = {n: op.value for n, op in traced[-1].items()}
    for fn, ns in geometry_ns(*runner.wl.key_sets(values)).items():
        layers[f"geometry.{fn}.ns"] = (ns, "ns")
    if runner.wl.name == "cli":
        by_command: dict[str, list[str]] = {}
        for name, cmd_args, _ in runner.wl.commands():
            by_command.setdefault(cmd_args[0].lstrip("-"), []).append(name)
        for cmd, names in by_command.items():
            layers[f"cli.{cmd}.s"] = (median(sum(p[n].seconds for n in names) for p in traced), "s")
        layers["cli.startup_s"] = (median(p[n].seconds for p in traced for n in ("help.1", "help.2", "help.3")), "s")
    layers["trace.overhead_s"] = (run_seconds(traced) - run_seconds(passes), "s")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "anneal", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "ordlines", "__init__.py")):
        print(f"error: no ordlines sources at {SRC}; run inside a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import ref_seconds

    end_to_end, per_layer = contract()
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args.workload, args.seed, expected)
    passes: list[dict] = []
    traced: list[dict] = []
    setups: list = []
    report: dict[str, tuple[float | None, str]] = {}
    record: dict = {}
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        if runner.setup(work):
            if args.trace:
                passes = run_passes(runner, args.seconds / 2, started)
            else:
                passes = run_passes(runner, args.seconds, started, lambda: setups.extend(measure_setup(runner, work)))
            record["passes"] = [{n: op.seconds for n, op in p.items()} for p in passes]
            if args.trace:
                traced, dumps = traced_passes(runner, args, work, started)
                report = layer_report(runner, passes, traced, dumps)
                record.update(traced_passes=[{n: op.seconds for n, op in p.items()} for p in traced], spans=dumps)
            else:
                rss_kb = max(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                )
                report = {
                    "setup_s": (ref_seconds(setups) if setups else None, "s"),
                    "run_s": (run_seconds(passes), "s"),
                    "run_wall_s": (sum(median(p[n].seconds for p in passes) for n in passes[0]), "s"),
                    "host_calibration_s": (median(op.host for p in passes for op in p.values()), "s"),
                    "peak_rss_mb": (rss_kb / 1024, "MB"),
                    **runner.wl.e2e(passes),
                }
                record["setup"] = [(op.seconds, op.host) for op in setups]
    report["error_rate"] = (runner.failed / runner.attempted, "ratio")
    gated = per_layer if args.trace else end_to_end
    for name, unit in gated.items():
        report.setdefault(name, (None, unit))

    meta = metadata(args, len(traced) if args.trace else len(passes))
    print("meta " + json.dumps(meta, sort_keys=True))
    for name in passes[0] if passes else ():
        print(f"op {name} {ref_seconds(p[name] for p in passes)!r} s")
    for name, (value, unit) in sorted(report.items()):
        print(f"{'metric' if name in gated else 'info'} {name} {'absent' if value is None else repr(value)} {unit}")
    for problem in runner.problems:
        print(f"problem {problem}")
    print(f"result_digest {runner.digest()}")

    record.update(meta=meta, report=report, problems=runner.problems, digest=runner.digest())
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    metrics = {}
    for name, unit in gated.items():
        value = report.get(name, (None,))[0]
        metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    # With no pass, no output was checked, so the run cannot count as correct.
    correct = bool(passes) and not runner.mismatch
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
