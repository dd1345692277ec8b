"""JSON-lines driver / REPL: ``python -m repro.service``.

Reads one :class:`~repro.service.envelopes.Request` envelope per input
line, writes one :class:`~repro.service.envelopes.Response` envelope per
output line — the scriptable transport any real server front-end would
replicate over a socket::

    printf '%s\n' \
      '{"op":"session.open","args":{"tenant":"acme","role":"resource_manager"}}' \
      '{"op":"power.set_caps","session":"s0001-acme","args":{"indices":[0,1],"watts":300}}' \
      | python -m repro.service --nodes 4

Blank lines and ``#`` comments are skipped.  On a TTY a prompt and a
banner are shown (``exit`` / ``quit`` leave the REPL).  Envelope errors
(bad JSON, unknown fields) come back as structured error responses on
stdout like every other failure — the driver never crashes on input.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Optional, Sequence

from repro.service.envelopes import PROTOCOL_VERSION
from repro.service.service import StackService

__all__ = ["main", "run_stream"]


def run_stream(service: StackService, lines: IO[str], out: IO[str], prompt: str = "") -> int:
    """Drive the service with JSON lines; returns the number of commands."""
    handled = 0
    while True:
        if prompt:
            out.write(prompt)
            out.flush()
        line = lines.readline()
        if not line:
            break
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if prompt and line in ("exit", "quit"):
            break
        try:
            response = service.handle_wire(line)
        except Exception as error:  # the REPL loop must outlive any request
            response = (
                '{"ok": false, "code": "SVC_RET_INTERNAL", '
                f'"error": "unhandled {type(error).__name__} in transport"}}'
            )
        out.write(response + "\n")
        out.flush()
        handled += 1
    return handled


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Control-plane service: JSON-lines requests on stdin, "
        "responses on stdout.",
    )
    parser.add_argument("--nodes", type=int, default=8, help="cluster size")
    parser.add_argument("--seed", type=int, default=0, help="service RNG seed")
    parser.add_argument("--shards", type=int, default=4, help="performance DB shards")
    parser.add_argument(
        "--quota", type=int, default=None, help="default per-session evaluation quota"
    )
    args = parser.parse_args(argv)

    service = StackService(
        n_nodes=args.nodes,
        seed=args.seed,
        n_shards=args.shards,
        default_quota=args.quota,
    )
    interactive = sys.stdin.isatty()
    if interactive:
        print(
            f"repro.service protocol {PROTOCOL_VERSION} — "
            f"{args.nodes} nodes, {args.shards} shards. One JSON request "
            'per line, e.g. {"op":"service.describe"}; exit with "quit".',
            file=sys.stderr,
        )
    try:
        run_stream(service, sys.stdin, sys.stdout, prompt="> " if interactive else "")
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
