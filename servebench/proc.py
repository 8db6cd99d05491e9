"""A ``repro serve`` subprocess, spawned, measured and stopped from outside.

The port comes from the serve banner, as ``repro.cluster``'s
``SubprocessNode`` reads it; set-up time runs from the spawn to the
first answered ``hello``; peak memory and CPU time come from
``/proc/<pid>``.  SIGINT is the clean stop: ``repro serve`` answers it
with exit code 130.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import signal
import subprocess
import sys
import time
from typing import Iterator, List, Optional, Sequence

_BANNER = re.compile(r"serving N=\d+ on (\S+):(\d+)")
#: Exit code of ``repro serve`` after SIGINT (128 + SIGINT).
CLEAN_EXIT = 130
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
_TICKS = os.sysconf("SC_CLK_TCK")


#: A busy loop that ends when its parent does.
_SPIN = "import os\nparent = os.getppid()\nwhile os.getppid() == parent:\n    pass\n"


@contextlib.contextmanager
def cpu_awake() -> Iterator[None]:
    """Keep this process's CPU from halting, with one ``SCHED_IDLE`` busy loop.

    The loop inherits the CPU affinity.  ``SCHED_IDLE`` has the smallest
    scheduler weight (3 against 1024 for a normal task), and a normal
    task that wakes preempts it at once, so it runs while the client and
    the server wait and takes a small share, not none, of the CPU while
    they work.  Its use is that waking a halted vCPU is the host's
    business, which on a contended host took milliseconds, more than a
    single word's round trip.  Only the open-loop workload leaves the
    CPU idle between requests, so only it uses this.
    """
    spinner = subprocess.Popen(
        [sys.executable, "-c", _SPIN],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        try:
            os.sched_setscheduler(spinner.pid, os.SCHED_IDLE, os.sched_param(0))
        except OSError:
            # At normal priority the loop would take half the CPU from
            # the measured processes; better no loop at all.
            spinner.kill()
        yield
    finally:
        spinner.kill()
        spinner.wait()


class ServerError(RuntimeError):
    """The served program failed to start, misbehaved or exited badly."""


class ServerProcess:
    """One spawned server; ``traced_out`` runs it under the span wrapper."""

    def __init__(
        self, root: str, serve_args: Sequence[str], traced_out: Optional[str] = None
    ) -> None:
        self.root = root
        self.serve_args = list(serve_args)
        self.traced_out = traced_out
        self.process: Optional[asyncio.subprocess.Process] = None
        self.output: List[str] = []
        self.port = 0
        self.spawned_at = 0.0

    def argv(self) -> List[str]:
        serve = ["serve", *self.serve_args, "--port", "0"]
        if self.traced_out is None:
            return [sys.executable, "-m", "repro", *serve]
        wrapper = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_server.py")
        return [sys.executable, wrapper, self.traced_out, *serve]

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    async def spawn(self) -> int:
        """Start the process and return the port its banner names."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.spawned_at = time.perf_counter()
        self.process = await asyncio.create_subprocess_exec(
            *self.argv(),
            cwd=self.root,
            env=env,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
        )
        try:
            self.port = await asyncio.wait_for(self._read_banner(), BOOT_TIMEOUT_S)
        except asyncio.TimeoutError:
            await self.kill()
            raise ServerError(f"no serve banner within {BOOT_TIMEOUT_S:.0f}s: {self.tail()}")
        return self.port

    async def _read_banner(self) -> int:
        assert self.process is not None and self.process.stdout is not None
        while True:
            line = await self.process.stdout.readline()
            if not line:
                code = await self.process.wait()
                raise ServerError(f"server exited with code {code} before serving: {self.tail()}")
            text = line.decode("utf-8", "replace").rstrip()
            self.output.append(text)
            match = _BANNER.search(text)
            if match:
                return int(match.group(2))

    def tail(self, lines: int = 20) -> str:
        return " | ".join(self.output[-lines:])

    # ------------------------------------------------------------------
    # /proc readings
    # ------------------------------------------------------------------
    def cpu_seconds(self) -> float:
        """User + system CPU time the server has used so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mib(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM line in /proc status")

    # ------------------------------------------------------------------
    # Stopping
    # ------------------------------------------------------------------
    async def stop(self) -> int:
        """SIGINT, wait, and insist on the clean exit code."""
        process = self.process
        if process is None:
            return CLEAN_EXIT
        if process.returncode is None:
            process.send_signal(signal.SIGINT)
        try:
            rest = await asyncio.wait_for(process.stdout.read(), STOP_TIMEOUT_S)
            code = await asyncio.wait_for(process.wait(), STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            await self.kill()
            raise ServerError(f"server ignored SIGINT for {STOP_TIMEOUT_S:.0f}s")
        self.process = None
        self.output.extend(rest.decode("utf-8", "replace").splitlines())
        if code != CLEAN_EXIT:
            raise ServerError(f"server exited with code {code}, not {CLEAN_EXIT}: {self.tail()}")
        return code

    async def kill(self) -> None:
        process, self.process = self.process, None
        if process is not None and process.returncode is None:
            process.kill()
            await process.wait()
