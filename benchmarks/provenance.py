"""Where a benchmark number came from, stamped into every ``BENCH_*.json``.

A committed headline is only comparable with another one measured from
the same source on a similar host, so each writer records the commit
(plus a hash of ``src/repro``, which also covers uncommitted edits), the
CPU count and the Python and numpy versions next to its numbers::

    from benchmarks.provenance import provenance
    json.dump({"benchmark": ..., "provenance": provenance(), ...}, fh)
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def provenance() -> dict:
    """``commit``, ``source_sha256``, ``nproc``, ``python`` and ``numpy``.

    ``commit`` is ``None`` outside a git checkout (or without git).
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=False,
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
