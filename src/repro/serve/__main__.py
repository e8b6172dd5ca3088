"""``python -m repro.serve`` / ``spl serve`` — run the server.

Examples::

    spl serve --port 7462 --warm fft:64 fft:1024
    spl serve --wisdom wisdom.json --warm fft:64 --max-batch 16
    spl serve --port 7462 --workers 4 --warm fft:64

``--warm`` prebuilds routes at boot; with ``--wisdom`` pointing at a
store produced by ``spl-compile --search --wisdom ...`` the warmed
plans replay the search winners (hot boot) instead of the default
factorization.

Batching is work-conserving: a plan's worker takes every pending
request, up to ``--max-batch``, the moment it is free, so an unloaded
request runs at once and batches grow only under load.

``--workers N`` (N >= 2) runs a supervised fleet: N forked worker
processes share the port via ``SO_REUSEPORT``, crashed workers are
restarted under backoff and a restart budget, SIGTERM drains the
fleet gracefully and SIGHUP performs a rolling restart.  See
``docs/serving.md`` ("Running a fleet").  In every mode SIGTERM and
SIGINT trigger a graceful drain: stop accepting, answer everything
already admitted, then exit.
"""

from __future__ import annotations

import argparse
import sys

from repro.serve.plans import PlanKey
from repro.serve.protocol import DTYPES
from repro.serve.supervisor import (
    BackoffPolicy,
    RestartBudget,
    ServeConfig,
    Supervisor,
    fork_supported,
    run_worker,
)


def _parse_warm_spec(spec: str) -> PlanKey:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"bad warm spec {spec!r} (want transform:n[:dtype])")
    transform, n_text = parts[0], parts[1]
    try:
        n = int(n_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad size in warm spec {spec!r}") from None
    if len(parts) == 3:
        dtype = parts[2]
    else:
        dtype = "float64" if transform == "wht" else "complex128"
    if dtype not in DTYPES:
        raise argparse.ArgumentTypeError(
            f"bad dtype in warm spec {spec!r}")
    return PlanKey(transform=transform, n=n, dtype=dtype)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spl serve",
        description="Serve SPL transforms over the batch dispatcher.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7462,
                        help="0 picks an ephemeral port")
    parser.add_argument("--warm", nargs="*", type=_parse_warm_spec,
                        default=[], metavar="TRANSFORM:N[:DTYPE]",
                        help="routes to prebuild before accepting "
                             "connections, e.g. fft:64 wht:256")
    parser.add_argument("--wisdom", default=None, metavar="PATH",
                        help="wisdom store to boot plans from")
    parser.add_argument("--pack", default=None, metavar="PATH",
                        help="read-only wisdom pack (spl pack build) "
                             "to boot plans from; preferred over "
                             "--wisdom, degrades gracefully when the "
                             "pack is corrupt or foreign")
    parser.add_argument("--prefer", default=None,
                        choices=["cjit", "c", "numpy", "python"],
                        help="backend chain head (default: cjit when "
                             "the in-process JIT is available, else c "
                             "if a compiler is available)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="most pending requests one batch takes "
                             "(batching is work-conserving: no timer)")
    parser.add_argument("--queue-limit", type=int, default=256,
                        help="per-plan in-flight bound (overload "
                             "rejections beyond it)")
    parser.add_argument("--threads", type=int, default=None,
                        help="OpenMP threads per batch call")
    fleet = parser.add_argument_group("fleet (supervised serving)")
    fleet.add_argument("--workers", type=int, default=1,
                       help="worker processes; >= 2 runs the "
                            "supervisor with SO_REUSEPORT workers "
                            "(default: 1, single process)")
    fleet.add_argument("--drain-grace-s", type=float, default=30.0,
                       help="seconds a draining worker may spend "
                            "finishing admitted requests")
    fleet.add_argument("--restart-budget", type=int, default=6,
                       help="max worker restarts per window before "
                            "the supervisor degrades the fleet")
    fleet.add_argument("--restart-window-s", type=float, default=30.0,
                       help="sliding window for --restart-budget")
    fleet.add_argument("--heartbeat-timeout-s", type=float,
                       default=5.0,
                       help="silent-worker threshold before a wedge "
                            "kill")
    fleet.add_argument("--port-file", default=None, metavar="PATH",
                       help="write 'host:port' here once listening "
                            "(useful with --port 0)")
    fleet.add_argument("--status-file", default=None, metavar="PATH",
                       help="atomically rewrite this file with the "
                            "supervisor's status() JSON on every "
                            "fleet state change")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print("spl serve: --workers must be >= 1", file=sys.stderr)
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        warm=tuple(args.warm),
        wisdom_path=args.wisdom,
        pack_path=args.pack,
        prefer=args.prefer,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        threads=args.threads,
        drain_grace_s=args.drain_grace_s,
    )
    try:
        if args.workers == 1:
            return run_worker(config, port_file=args.port_file)
        if not fork_supported():
            print("spl serve: --workers needs fork, SIGCHLD and "
                  "SO_REUSEPORT; falling back to a single process",
                  file=sys.stderr)
            return run_worker(config, port_file=args.port_file)
        supervisor = Supervisor(
            config,
            workers=args.workers,
            heartbeat_timeout=args.heartbeat_timeout_s,
            backoff=BackoffPolicy(),
            budget=RestartBudget(budget=args.restart_budget,
                                 window_s=args.restart_window_s),
            port_file=args.port_file,
            status_file=args.status_file,
        )
        return supervisor.run()
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
