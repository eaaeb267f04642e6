"""Run one ``siltkit`` CLI invocation in this fresh interpreter and record it.

Usage: ``python child.py RESULT TRACE -- ARGV...``

The CLI writes its report to stdout as usual.  ``RESULT`` receives a JSON
record: the clock reading once ``siltkit.cli`` is imported, the wall time
of ``main()``, its exit code (or the traceback it raised), and the peak
resident set size of this process.  With ``TRACE`` = 1 the layer tracer is
installed around ``main()`` and its spans are written to ``RESULT.spans``.
With no ARGV the child only imports siltkit: a set-up probe.
"""

import time

import siltkit.cli

IMPORTED = time.perf_counter()

# Imported after the clock reading, so that setup_s stops once siltkit is ready.
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run(result_path: str, trace: bool, argv: list[str]) -> int:
    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    code, error = 0, None
    start = time.perf_counter()
    if argv:
        try:
            code = siltkit.cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(result_path + ".spans")
    record = {
        "imported": IMPORTED,
        "wall_s": wall,
        "code": code,
        "error": error,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": siltkit.cli.__file__,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 1 if code is None else code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT TRACE -- ARGV...")
    raise SystemExit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[4:]))
