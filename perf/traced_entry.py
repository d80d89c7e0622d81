"""``python -m repro`` with spans: install the probes, then run the CLI.

Used for the traced pass of the workloads whose program is a process
(``run_cold``, ``serve_*``, ``recover``).  The spans are written to
``$PERF_TRACE_OUT`` when the CLI returns — a server is stopped with
SIGINT, which ``repro.cli.cmd_serve`` turns into a normal return.
"""

import os
import sys
import threading
import time

from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    started = time.monotonic_ns()
    import repro.cli

    tracer.spans.append(
        (0, None, "import.repro", started, time.monotonic_ns(),
         threading.get_ident(), None)
    )
    tracer.install()
    try:
        sys.exit(repro.cli.main(sys.argv[1:]))
    finally:
        tracer.dump(os.environ["PERF_TRACE_OUT"])
