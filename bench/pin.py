"""Record the exact fingerprints of one pass in expected.json.

    python3 bench/pin.py <workload> <seed> [<seed> ...]

Use it to pin a new seed or a new operation, never to make a run pass: a
pinned value that changes is a defect in the program. Operations whose input
does not depend on the seed are stored under "any". The error-path commands
are judged by their exit contract alone and are never pinned. A pass with a
wrong result is refused.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import HERE, OUT, SRC, Runner

sys.path.insert(0, SRC)
import workloads as W  # noqa: E402

PINS = os.path.join(HERE, "expected.json")


def pin(workload: str, seed: int, expected: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        runner = Runner(workload, seed, expected)
        if runner.setup(work):
            runner.one_pass()
    if runner.wl is None or runner.mismatch:
        raise SystemExit(f"{workload} seed {seed}: refusing to pin: {runner.problems}")
    entry = expected.setdefault(workload, {})
    for name, fp in runner.reference.items():
        if name in W.ERROR_OPS:
            continue
        key = "any" if name in runner.wl.FIXED else str(seed)
        entry.setdefault(key, {})[name] = fp


def dumps(expected: dict) -> str:
    """Nested JSON with one operation's fingerprint per line."""
    lines = ["{"]
    for i, (workload, seeds) in enumerate(sorted(expected.items())):
        lines.append(f" {json.dumps(workload)}: {{")
        for j, (seed, ops) in enumerate(sorted(seeds.items())):
            lines.append(f"  {json.dumps(seed)}: {{")
            items = sorted(ops.items())
            for k, (name, fp) in enumerate(items):
                comma = "," if k < len(items) - 1 else ""
                lines.append(f"   {json.dumps(name)}: {json.dumps(fp, sort_keys=True)}{comma}")
            lines.append("  }" + ("," if j < len(seeds) - 1 else ""))
        lines.append(" }" + ("," if i < len(expected) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    with open(PINS, encoding="utf-8") as fh:
        expected = json.load(fh)
    for seed in sys.argv[2:]:
        pin(sys.argv[1], int(seed), expected)
    with open(PINS, "w", encoding="utf-8") as fh:
        fh.write(dumps(expected))
