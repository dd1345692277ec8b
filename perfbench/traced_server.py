"""Traced entry point of the ``control_mix`` server.

    python3 perfbench/traced_server.py OUT.json <python -m repro.netserver args>

Wraps every layer (``layers.install``) before serving, then runs the
stock ``repro.netserver`` main.  When SIGTERM drains the server, it
writes the per-layer metrics and the server-side time per request
(decode + ``handle_dict`` + encode) to ``OUT.json`` and dumps the spans
beside it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    layers.install(tracer)
    from repro.netserver.__main__ import main as serve

    code = serve(argv)
    merged = tracer.merged()
    durations = merged["durations"]
    window = tracer.last_end - (tracer.first_start or tracer.last_end)
    busy = sum(float(durations[name].sum())
               for name in ("service.decode", "service.handle_dict", "service.encode")
               if name in durations)
    handled = durations.get("service.handle_dict")
    requests = 0 if handled is None else int(handled.size)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": layers.per_layer_metrics(merged, 1, window),
                   "busy_s": busy, "requests": requests}, fh)
    tracer.dump(os.path.splitext(out_path)[0] + ".spans.jsonl")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
