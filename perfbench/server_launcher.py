"""Start ``edb-server`` on stdio, optionally with the layer probes installed.

    python3 perfbench/server_launcher.py [--trace-out PATH]

Without ``--trace-out`` this is exactly ``python -m repro.debug.server``.
With it, the probes of ``layers.py`` wrap the server's functions, and
when stdin closes the probe statistics, spans and per-request
``handle_line`` durations are written to PATH as JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    from repro.debug import server

    if args.trace_out is None:
        server.main([])
        return
    import layers
    from tracer import Tracer, write_json

    tracer = Tracer()
    handled = layers.install(tracer)
    server.main([])
    write_json(args.trace_out, {**tracer.export(), "handle_line_s": handled})


if __name__ == "__main__":
    main()
