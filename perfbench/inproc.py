"""One in-process pass: every subcommand of a workload through
``coupledsk.cli.main`` in this one process, with the tracer installed.

Usage: python3 perfbench/inproc.py PLAN.json

The package is imported from PYTHONPATH.  PLAN.json holds ``mode`` ("full" wraps
every target in tracer.TARGETS, "pmap" only ``parallel.pmap``), ``threads``,
``invocations`` as [label, command, config, out] lists, and ``dump``, where
the spans are written when the pass ends.  ``wall_s`` in the dump runs from
this script's start (before the package import) to the last subcommand's
return, so it excludes writing the dump.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main(plan_path: str) -> None:
    start = time.perf_counter()
    with open(plan_path) as fh:
        plan = json.load(fh)
    from tracer import ENVELOPE, Tracer

    from coupledsk import cli

    tracer = Tracer()
    tracer.install(None if plan["mode"] == "full" else ("parallel.pmap",))
    codes, errors = {}, {}
    for label, command, config, out in plan["invocations"]:
        tracer.context = label
        argv = [command, "--config", config, "--threads", str(plan["threads"]), "--out", out]
        try:
            codes[label] = tracer.run(f"{ENVELOPE}.{label}", cli.main, argv)
        except Exception:  # an uncaught library error is a failed operation, not a crash
            codes[label] = "exception"
            errors[label] = traceback.format_exc()
    wall = time.perf_counter() - start
    tracer.dump(plan["dump"], wall_s=wall, codes=codes, errors=errors)


if __name__ == "__main__":
    main(sys.argv[1])
