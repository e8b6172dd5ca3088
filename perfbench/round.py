"""One compile round in a fresh interpreter.

Run by ``plan_bench.measure_rounds``: a process's memory layout can
make all of its compiles fast or slow together, so each round gets its
own process.  Reads ``{"programs", "seed", "search_seed", "kernels",
"dir"}`` as JSON on stdin; compiles and gcc-builds every program in a
fresh session with a fresh shared-object cache, runs each once against
the oracle, times the kernels at B=64 when ``kernels`` is true and,
unless ``search_seed`` is null, runs the capped search; prints one
JSON line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_sources()

import plan_bench  # noqa: E402


def main() -> int:
    job = json.loads(sys.stdin.read())
    programs = [tuple(p) for p in job["programs"]]
    root = Path(job["dir"])
    inputs = plan_bench.make_inputs(programs, job["seed"])
    plan_bench.warm_process(root / "warm")
    records = plan_bench.compile_pass(root / "build", programs, inputs, None)
    kernel = plan_bench.kernel_times(records, inputs) \
        if job["kernels"] else {}
    for record in records.values():
        record["breaker_trips"] = len(record.pop("executable")
                                      .backend_failures)
    search = None
    if job["search_seed"] is not None:
        search = plan_bench.run_search(root / "search", None,
                                       job["search_seed"])
    print(json.dumps({"programs": records, "kernel_s": kernel,
                      "search": search, "rss_mb": common.peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
