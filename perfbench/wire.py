"""The server under test.

The server is ``repro-fap net-serve`` in a child process (through
``tracer.py`` for a traced run).  Load comes from this one process over
one ``NetClient`` connection: ``ping``/``stats`` and the closed-loop
bursts.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from common import PERF, WORK, BenchError, child_pids, peak_rss_mb, program_env

#: ``net-serve`` settings of the wire workload (burst-hot adds its cache size).
SERVER_ARGS = ["--port", "0", "--workers", "2", "--routing", "affinity", "--codec", "binary"]
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One ``net-serve`` process: launch, readiness, memory, stop."""

    def __init__(self, extra_args: Sequence[str] = (), *, trace_dir: Optional[Path] = None):
        self.args = SERVER_ARGS + list(extra_args)
        self.trace_dir = trace_dir
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self.port = 0
        self.setup_s = float("nan")

    def start(self) -> "Server":
        from repro.net import NetClient, NetError

        env = program_env()
        if self.trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
            cmd = [sys.executable, str(PERF / "tracer.py"), "net-serve", *self.args]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "net-serve", *self.args]
        WORK.mkdir(exist_ok=True)
        self._log = open(WORK / "server.log", "ab")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._log, env=env)
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(f"net-serve exited before announcing (see {WORK / 'server.log'})")
            self.port = int(json.loads(line)["port"])
            self.client = NetClient("127.0.0.1", self.port, pool_size=1, timeout_s=60.0)
            while True:
                try:
                    if self.client.ping(timeout_s=1.0):
                        break
                except NetError:
                    pass
                if time.monotonic() - t0 > START_TIMEOUT_S:
                    raise BenchError("net-serve never answered ping")
                time.sleep(0.005)
            self.setup_s = time.monotonic() - t0
            self._pin_workers()
        except BaseException:
            self.stop()
            raise
        return self

    def _pin_workers(self) -> None:
        """Pin worker i to CPU i (mod the CPUs this process may use).

        Left to the scheduler, where the workers land differs from launch
        to launch, and on a 2-core machine that placement moved the
        light-load latency by a third between launches; pinned, launches
        agree.  The server process and the generator stay unpinned.
        """
        cpus = sorted(os.sched_getaffinity(0))
        for i, pid in enumerate(sorted(child_pids(self.proc.pid))):
            try:
                os.sched_setaffinity(pid, {cpus[i % len(cpus)]})
            except OSError:
                pass  # the worker exited; nothing to pin

    def pids(self) -> List[int]:
        return [self.proc.pid] + child_pids(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids())

    def stats(self) -> Dict:
        return self.client.stats(timeout_s=60.0)

    def stop(self) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL; returns once the
        server and every worker it forked have exited."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is None:
            return
        workers = child_pids(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                # Forked workers hold copies of the server's pipe ends, so
                # they would not see EOF once it is gone: kill them too.
                for pid in workers:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.proc.kill()
                self.proc.wait()
        # A drained server has joined its workers; killed ones are
        # re-parented, not ours to wait for, so poll until they are gone.
        _await_exit(workers, STOP_TIMEOUT_S)
        self.proc.stdout.close()
        self._log.close()
        self.proc = None


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _await_exit(pids: Sequence[int], timeout_s: float) -> bool:
    """Poll until none of ``pids`` is running; False on timeout."""
    deadline = time.monotonic() + timeout_s
    while any(_running(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True
