"""Run ``repro serve`` in this process with the benchmark tracer installed.

Usage (from the repository root)::

    python3 bench/serve_launcher.py SPANS.json --host 127.0.0.1 --port 0

Every argument after the span path is passed to ``repro serve``.  The
server stops on SIGINT; the recorded spans are then written to
``SPANS.json`` and the process exits.
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv):
    from repro.cli import main as cli_main
    from tracing import Tracer

    spans_path, serve_args = argv[0], argv[1:]
    try:
        tracer = Tracer(run_id=1).install()
    except RuntimeError as exc:
        # the first output line is what the benchmark reports as the
        # reason the server failed to boot
        print(f"tracer: {exc}", flush=True)
        return 3
    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
