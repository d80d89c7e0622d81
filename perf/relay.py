"""Spawn relay: starts one program process per request and reports its exit
code, output, CPU and peak RSS.

Why not spawn from the harness itself: ``wait4`` reports a child's
``ru_maxrss`` as at least the *spawning* process's RSS at the time (the
kernel folds the pre-``exec`` address space into it; measured: ``python -c
pass`` reads 310 MB under a 300 MB parent).  The harness holds inputs and
oracles, tens of MB that depend on the seed.  This relay imports nothing
beyond the standard library and stays near 10 MB, below any program
process, so what it reports is the program's.

Protocol (spoken by ``procs.Relay``), as for ``host.py``: one JSON request
per line on stdin — ``{"argv": [...], "env": {...}}`` — and each reply is
``<length>\\n`` followed by that many bytes of pickle.  The clock runs from
just before the spawn to the child's exit.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time


def main() -> int:
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        request = json.loads(line)
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            request["argv"], env=request["env"], stdout=subprocess.PIPE
        )
        stdout = proc.stdout.read()
        _pid, status, ru = os.wait4(proc.pid, 0)
        end_ns = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: no second wait
        proc.stdout.close()
        payload = pickle.dumps({
            "window": (start_ns, end_ns),
            "returncode": proc.returncode,
            "stdout": stdout,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0,
        }, protocol=pickle.HIGHEST_PROTOCOL)
        out.write(b"%d\n" % len(payload))
        out.write(payload)
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
