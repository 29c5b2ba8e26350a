"""Start, measure and stop one ``repro serve`` process.

A server is ready when it prints ``serving ... on http://host:port``:
``repro serve`` prints that line after the engine is built and the socket
is bound.  The benchmark blocks on that line (with a deadline, never a
poll loop) and runs the interpreter with ``-u``, because through a pipe
``print`` is block-buffered and the line would otherwise arrive only at
exit.  Memory and CPU are read from ``/proc`` for the server's own pid.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

_READY = re.compile(r"^serving .* on (http://\S+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """One ``repro serve`` child; ``traced`` starts it through the tracing launcher."""

    def __init__(self, root: Path, serve_args: list[str], log_path: Path,
                 trace_out: Path | None = None, trace_mode: str = "") -> None:
        if trace_out is None:
            entry = ["-m", "repro.cli"]
        else:
            entry = [str(root / "e2e_bench" / "launcher.py"), trace_mode, str(trace_out)]
        self.argv = [sys.executable, "-u", *entry, "serve", "--port", "0", *serve_args]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self, timeout: float = 120.0) -> str:
        """Launch and block until the ready line; returns the base URL."""
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stderr=self._log, env=self.env
        )
        deadline = time.monotonic() + timeout
        buffered = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise ServerError(f"no ready line within {timeout:.0f}s: {self._tail()}")
                chunk = os.read(self.proc.stdout.fileno(), 65536)
                if not chunk:
                    raise ServerError(f"server exited before it was ready: {self._tail()}")
                buffered += chunk
                for line in buffered.decode(errors="replace").splitlines():
                    match = _READY.match(line)
                    if match:
                        self.url = match.group(1)
                        return self.url

    def _tail(self) -> str:
        self._log.flush()
        return self.log_path.read_text(errors="replace")[-2000:]

    def _status(self, field: str) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError(f"no {field} in /proc/{self.proc.pid}/status")

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``), in MiB."""
        return self._status("VmHWM")

    def cpu_seconds(self) -> float:
        """User plus system CPU the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        self.proc = None
