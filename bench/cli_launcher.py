"""Run the ``ordlines`` command from a source checkout, optionally traced.

    python3 bench/cli_launcher.py <ordlines arguments...>

Equivalent to the installed ``ordlines`` console script. When the environment
variable BENCH_TRACE_FILE names a file, the same wrappers as the in-process
traced run are installed first and the spans and counters are written there
as JSON when the command ends, whether it exits cleanly or not.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _run() -> None:
    from ordlines.cli import main

    main(prog_name="ordlines")


if __name__ == "__main__":
    trace_file = os.environ.get("BENCH_TRACE_FILE")
    if not trace_file:
        _run()
    else:
        from tracing import Tracer  # bench/ is on sys.path as the script's directory

        tracer = Tracer()
        tracer.install()
        try:
            _run()
        finally:
            tracer.uninstall()
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
