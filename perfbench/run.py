"""The repository benchmark: one workload, one run, one JSON result.

    python3 perfbench/run.py --workload serve-sparse --seed 1 \\
        --seconds 10 --trace 0

Workloads (see README.md): ``serve-sparse``, ``serve-mixed``,
``plan-cold``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is a separate run that wraps the program's public
functions and reports the per-layer metrics.  Inputs come from
``--seed``; every output is checked against the oracle.  The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("serve-sparse", "serve-mixed", "plan-cold")

#: (name, unit, better) of every end-to-end metric, reported by every
#: workload with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("compile_s", "s", "lower"),
    ("build_s", "s", "lower"),
    ("search_s", "s", "lower"),
    ("kernel_mflops", "MFlops", "higher"),
)

#: Programs named in per-program metrics: the plan-cold set, which
#: every workload compiles, and the routes ``serve-sparse`` serves
#: (``serve-mixed`` serves a subset of both).
COMPILED = ("fft16", "fft64", "fft256", "fft1024", "fft4096", "wht1024",
            "dct2_32")
SERVED = ("fft64", "wht64")
PROGRAMS = COMPILED + ("wht64",)
PASSES = ("unroll", "scalarize", "intrinsics", "typetrans", "optimize",
          "fuse-copies", "fuse-loops", "post-fuse", "reuse-scratch")


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = [
        ("protocol.ping_rtt_us_p50", "us", "lower"),
        ("protocol.decode_us_p50", "us", "lower"),
        ("protocol.encode_us_p50", "us", "lower"),
        ("server.unattributed_us_p50", "us", "lower"),
        ("admission.try_admit_us_p50", "us", "lower"),
        ("admission.rejected_frac", "frac", "lower"),
        ("admission.shed_frac", "frac", "lower"),
        ("admission.peak_inflight", "count", "lower"),
        ("dispatcher.wait_us_p50", "us", "lower"),
        ("dispatcher.wait_us_p99", "us", "lower"),
        ("dispatcher.batch_mean", "count", "higher"),
        ("dispatcher.size_flush_frac", "frac", "higher"),
        ("dispatcher.deadline_flush_frac", "frac", "lower"),
        ("runner.apply_many_us_p50", "us", "lower"),
        ("runner.busy_frac", "frac", "lower"),
        ("runner.breaker_trips", "count", "lower"),
    ]
    rows += [(f"runner.us_per_vector.{p}", "us", "lower") for p in PROGRAMS]
    rows += [(f"plans.get_ms.{p}", "ms", "lower") for p in SERVED]
    rows += [("jit.compile_ms", "ms", "lower"),
             ("compiler.parse_ms", "ms", "lower"),
             ("compiler.icodegen_ms", "ms", "lower")]
    rows += [(f"compiler.pass_ms.{p}", "ms", "lower") for p in PASSES]
    rows += [("compiler.emit_ms", "ms", "lower")]
    rows += [(f"compiler.icode_out.{p}", "count", "lower") for p in COMPILED]
    rows += [(f"compiler.scratch_bytes.{p}", "bytes", "lower")
             for p in COMPILED]
    rows += [(f"compiler.source_bytes.{p}", "bytes", "lower")
             for p in COMPILED]
    rows += [
        ("ccompile.gcc_ms", "ms", "lower"),
        ("ccompile.calls", "count", "lower"),
        ("ccompile.cache_hit_frac", "frac", "higher"),
        ("search.compile_ms", "ms", "lower"),
        ("search.gcc_ms", "ms", "lower"),
        ("search.timing_ms", "ms", "lower"),
        ("search.isolation_ms", "ms", "lower"),
        ("search.validate_ms", "ms", "lower"),
        ("search.candidates", "count", "lower"),
        ("search.failed", "count", "lower"),
    ]
    rows += [(f"kernel.mflops.{p}", "MFlops", "higher") for p in PROGRAMS]
    rows += [("loadgen.max_rate_rps", "req/s", "higher"),
             ("loadgen.late_p99_ms", "ms", "lower"),
             ("loadgen.latency_p50_ms", "ms", "lower"),
             ("loadgen.latency_p99_ms", "ms", "lower"),
             ("trace.overhead_frac", "frac", "lower")]
    return tuple(rows)


PER_LAYER = _per_layer()


class Counts:
    """Operations attempted and failed, plus notes on what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.detail: dict = {}

    def attempt(self, count: int, failed: int | bool = 0) -> None:
        self.attempted += int(count)
        self.failed += int(failed)

    def note(self, text: str) -> None:
        self.notes.append(text)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args) -> tuple[dict[str, float], Counts]:
    """Run one workload; returns (metric name -> value, counts)."""
    import plan_bench
    import serve_bench

    metrics: dict[str, float] = {}
    counts = Counts()
    scratch = common.Scratch(args.workload)
    # Temporary files of this process, the program's processes and gcc
    # stay inside the checkout too.
    os.environ["TMPDIR"] = str(scratch.fresh("tmp"))
    tempfile.tempdir = None
    try:
        if args.workload == "plan-cold":
            plan_bench.run(args, scratch, metrics, counts)
        else:
            serve_bench.run(args, scratch, metrics, counts)
    finally:
        scratch.close()
    return metrics, counts


def result_line(metrics: dict[str, float], counts: Counts,
                trace: bool) -> dict:
    table = PER_LAYER if trace else END_TO_END
    out = {}
    for name, unit, _ in table:
        # A layer a workload never exercises (no gcc in a route it does
        # not serve, no queue in plan-cold) reads 0; every end-to-end
        # metric is always measured.
        value = metrics.get(name, 0.0) if trace else metrics[name]
        out[name] = {"value": float(value), "unit": unit}
    return {"correct": counts.failed == 0, "attempted": counts.attempted,
            "failed": counts.failed, "metrics": out}


def _terminate(signum, frame) -> None:
    # Unwind through every ``finally`` so child servers are stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    common.require_sources()
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    started = time.perf_counter()
    steal = common.steal_seconds()
    try:
        metrics, counts = measure(args)
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 1
    result = result_line(metrics, counts, bool(args.trace))
    for note in counts.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "wall_s": round(time.perf_counter() - started, 3),
                      "host_steal_s": round(common.steal_seconds() - steal,
                                            2),
                      "provenance": common.provenance(),
                      **counts.detail}))
    for name, entry in result["metrics"].items():
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
