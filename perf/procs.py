"""Program processes as the benchmark sees them: spawn, talk, account.

Everything here stays on the stable surface: ``python -m repro run|serve``
with documented flags and the HTTP routes.  CPU and peak RSS are read per
process (CPU from ``wait4`` once it has ended, ``/proc`` while it lives;
peak RSS from ``VmHWM``, or from ``wait4`` in the small spawn relay), so
they are the program's and never the harness's.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
SRC = os.path.join(ROOT, "src")

_TICK = os.sysconf("SC_CLK_TCK")
_SERVING = re.compile(rb"# serving on http://[^:]+:(\d+) \(seq (\d+)\)")


class Usage(NamedTuple):
    cpu_s: float
    rss_mb: float


def child_env(seed: int, trace_out: Optional[str] = None) -> Dict[str, str]:
    """``src/`` on the path, string hashing pinned to the seed (set and
    dict orders — and so join orders — repeat for a given seed) and
    unbuffered output (``serve`` prints its port, then blocks)."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = str(seed % 4294967295)
    env["PYTHONUNBUFFERED"] = "1"
    if trace_out is not None:
        env["PERF_TRACE_OUT"] = trace_out
    else:
        env.pop("PERF_TRACE_OUT", None)
    return env


def repro_argv(traced: bool) -> List[str]:
    """``python -m repro``, or the entry that installs spans first."""
    if traced:
        return [sys.executable, os.path.join(PERF, "traced_entry.py")]
    return [sys.executable, "-m", "repro"]


def reap(proc: subprocess.Popen, rss_mb: float = 0.0) -> Usage:
    """Wait for an exiting child and return its own CPU, with the peak RSS
    the caller read while it lived: ``wait4``'s ``ru_maxrss`` is never
    less than the RSS of the process that spawned the child (the harness,
    see ``relay.py``), ``VmHWM`` is the child's own."""
    _pid, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()
    return Usage(ru.ru_utime + ru.ru_stime, rss_mb)


def _cpu_s(pid: int) -> float:
    """CPU a running process has used: the scheduler's per-thread
    nanosecond counters where the kernel keeps them (every thread that
    works during a loop is still alive when it is read), else the 10 ms
    ticks of ``/proc/<pid>/stat``."""
    try:
        total_ns = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total_ns += int(handle.read().split()[0])
        return total_ns / 1e9
    except (OSError, ValueError, IndexError):
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK


def live_usage(pid: int) -> Usage:
    """CPU so far and high-water RSS of a running process."""
    cpu = _cpu_s(pid)
    rss = 0.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                rss = int(line.split()[1]) / 1024.0
    return Usage(cpu, rss)


def _read_line(pipe, timeout_s: float) -> bytes:
    """One line from a child's pipe, or ``b""`` on timeout/EOF."""
    deadline = time.monotonic() + timeout_s
    buf = b""
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([pipe], [], [], left)[0]:
            return b""
        chunk = os.read(pipe.fileno(), 1)
        if not chunk:
            return b""
        buf += chunk
    return buf


class Client:
    """One keep-alive HTTP connection to the service."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(
        self, method: str, path: str, body: Any = None
    ) -> Tuple[int, Any]:
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if payload is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, body=payload, headers=headers)
        reply = self.conn.getresponse()
        return reply.status, json.loads(reply.read())

    def get(self, path: str) -> Tuple[int, Any]:
        return self.request("GET", path)

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``python -m repro serve`` subprocess."""

    def __init__(
        self,
        program: str,
        data_dir: str,
        seed: int,
        edb: Optional[str] = None,
        checkpoint_every: int = 16,
        trace_out: Optional[str] = None,
    ):
        argv = repro_argv(trace_out is not None) + [
            "serve", program, "--pops", "trop", "--data-dir", data_dir,
            "--port", "0", "--checkpoint-every", str(checkpoint_every),
        ]
        if edb is not None:
            argv += ["--edb", edb]
        self.proc = subprocess.Popen(
            argv,
            env=child_env(seed, trace_out),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        match = _SERVING.search(_read_line(self.proc.stdout, 120.0))
        if match is None:
            self.stop(kill=True)
            raise RuntimeError("serve did not come up: " + " ".join(argv))
        self.port = int(match.group(1))
        self.boot_seq = int(match.group(2))

    def client(self) -> Client:
        return Client(self.port)

    def usage(self) -> Usage:
        return live_usage(self.proc.pid)

    def stop(self, kill: bool = False) -> Usage:
        """``kill`` is the crash (SIGKILL); otherwise SIGINT, which lets a
        traced server unwind and write its spans.  Stopping twice is a
        no-op, so a ``finally`` may always call it."""
        if self.proc.returncode is not None:
            return Usage(0.0, 0.0)
        try:
            rss_mb = self.usage().rss_mb
        except OSError:  # it is gone already
            rss_mb = 0.0
        self.proc.send_signal(signal.SIGKILL if kill else signal.SIGINT)
        return reap(self.proc, rss_mb)


class HostError(RuntimeError):
    """The solver host answered with an error; ``reply`` is what it sent
    (for a ``solve`` that raised: its window, CPU and spans)."""

    def __init__(self, reply: Dict[str, Any]):
        super().__init__(f"solver host: {reply['error']}")
        self.reply = reply


class Helper:
    """A child that is part of the benchmark (``perf/<script>``), spoken to
    over its pipes: one JSON request per line in, ``<length>\\n`` + pickle
    out — a pickle only this benchmark's own child wrote."""

    script = ""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(PERF, self.script)],
            env=child_env(seed),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def request(self, **request: Any) -> Dict[str, Any]:
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
            self.proc.stdin.flush()
            header = self.proc.stdout.readline()
        except OSError:
            header = b""
        if not header:
            # Not a refused op: with the child gone nothing more can be
            # measured, so the run ends here (and reaps it).
            raise RuntimeError(f"{self.script} died during {request!r}")
        return pickle.loads(self.proc.stdout.read(int(header)))

    def usage(self) -> Usage:
        return live_usage(self.proc.pid)

    def stop(self, kill: bool = False) -> Usage:
        """End of input tells the child to leave (or kill it); a no-op the
        second time."""
        if self.proc.returncode is not None:
            return Usage(0.0, 0.0)
        if kill:
            self.proc.kill()
        else:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        return reap(self.proc)


class Host(Helper):
    """The solver host child (``perf/host.py``): in-process ``solve`` calls
    in a process of their own."""

    script = "host.py"

    def __init__(self, seed: int, **init: Any):
        super().__init__(seed)
        try:
            #: probe targets that did not resolve in the child (traced only)
            self.missing: List[str] = self.call("init", **init)["missing"]
        except BaseException:
            self.stop(kill=True)
            raise

    def call(self, cmd: str, **args: Any) -> Dict[str, Any]:
        reply = self.request(cmd=cmd, **args)
        if "error" in reply:
            raise HostError(reply)
        return reply


class Relay(Helper):
    """The spawn relay (``perf/relay.py``): starts one program process per
    request from a process small enough not to leak its own RSS into the
    child's ``ru_maxrss``."""

    script = "relay.py"

    def run(self, argv: List[str], env: Dict[str, str]) -> Dict[str, Any]:
        """``{window, returncode, stdout, cpu_s, rss_mb}`` of one run."""
        return self.request(argv=argv, env=env)
