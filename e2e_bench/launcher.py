"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python -u launcher.py MODE TRACE_OUT serve ARGS...`` where MODE
is ``dashboard`` (read path) or ``ingest`` (read and write paths).  The
wrappers go in before the CLI builds the engine; the spans are written
to TRACE_OUT as JSON when the process exits (``repro serve`` returns
cleanly on SIGINT).
"""

import atexit
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder, install_server  # noqa: E402


def main() -> int:
    mode, out, *argv = sys.argv[1:]
    recorder = Recorder()
    install_server(recorder, mode)
    atexit.register(recorder.dump, Path(out))
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
