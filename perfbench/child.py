"""One `precodesim run` in a fresh process, with timing marks.

Usage: python3 child.py <src dir> run <precodesim run flags>

Does what the `precodesim` console script does (import
``precodesim.cli`` and call ``main``), and adds two lines on stderr:
``PERFBENCH-READY <t>`` just before ``main`` starts and a final
``PERFBENCH {json}`` with the end time, the process CPU spent inside
``main`` (user + sys, all threads) and the peak resident set size.
Times are ``time.monotonic()`` values, which share one clock with the
parent process on Linux.
"""

import sys
import time

READY_TAG = "PERFBENCH-READY "
SUMMARY_TAG = "PERFBENCH "


def _main():
    sys.path.insert(0, sys.argv[1])
    from precodesim.cli import main

    import json
    import resource

    ready = time.monotonic()
    cpu0 = time.process_time()
    print(f"{READY_TAG}{ready!r}", file=sys.stderr, flush=True)
    code = main(sys.argv[2:])
    end = time.monotonic()
    cpu = time.process_time() - cpu0
    summary = {
        "exit": code,
        "ready": ready,
        "end": end,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(SUMMARY_TAG + json.dumps(summary), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(_main())
