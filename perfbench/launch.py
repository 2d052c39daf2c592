"""Run one sdflow CLI command in a fresh interpreter and record its cost.

Usage: python3 launch.py RECORD TRACE ARGS...

Runs ``sdflow ARGS...`` the way the console script does (import
``sdflow.cli``, call ``main``) and exits with its exit code.  RECORD is
a JSON file written when ``main`` returns.  It holds the monotonic
clock reading at which ``import sdflow.cli`` returned, the seconds
spent inside ``main``, the exit code, the peak resident set of this
process and of its reaped children (pool workers), and, with TRACE=1,
the spans of every call into a layer.
"""

import sys
import time

import sdflow.cli

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import layers  # noqa: E402


def main(record, traced, argv):
    tracer = layers.Tracer() if traced == "1" else None
    missing = tracer.install() if tracer else []
    entry = tracer.wrap("cli.main", sdflow.cli.main) if tracer else sdflow.cli.main
    start = time.perf_counter()
    code = entry(argv)
    main_s = time.perf_counter() - start
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(record, "w") as fh:
        json.dump(
            {
                "imported": IMPORTED,
                "main_s": main_s,
                "code": code,
                "peak_rss_kb": peak_kb,
                "sdflow_file": sdflow.cli.__file__,
                "missing_wrap_points": missing,
                "spans": tracer.spans if tracer else [],
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
