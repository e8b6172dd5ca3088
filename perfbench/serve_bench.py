"""The ``serve-sparse`` and ``serve-mixed`` workloads.

Each boots ``server.py`` in its own process (a fresh ``SPL_BUILD_DIR``,
no wisdom) and drives it open-loop from this process through
``loadgen.LoadGenerator``:

1. set-up: spawn to ready, every warmed route on its final backend;
   repeated, and the median reported;
2. while the server idles, a compile round (``plan_bench.run_round``)
   over plan-cold's program set: compile, build and the capped search;
   one more follows the latency window and two end the run;
3. kernels: ``apply_many`` at B=64 on every route, oracle-checked
   (again after each later round; the best time is kept);
4. ping round trips over ``SplClient`` (closed loop, one connection);
5. a short warm-up phase at the reference rate;
6. the latency window: Poisson arrivals at the reference rate;
7. in the traced run only, a step-up search over fixed Poisson rates
   for the highest rate whose due-time p99 stays under ``P99_LIMIT_S``
   (refusals count as misses, so a growing backlog fails a step).  On
   a shared host that capacity swings 40% with the host's load, too
   far for a regression bound, so it is a per-layer number.
"""

from __future__ import annotations

import json
import math
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import common
import loadgen
import plan_bench
from tracing import Tracer

from repro.serve.client import SplClient

perf_counter = time.perf_counter

P99_LIMIT_S = 0.100  # the latency limit of the rate search
LATE_LIMIT_S = 0.005  # generator lateness that invalidates a step
STEP_MIN_S = 1.0  # shortest rate step...
STEP_SAMPLES = 1500  # ...and enough requests for a p99 with 15 beyond it
RATE_GROWTH = 1.5
BISECTIONS = 3
WARMUP_S = 0.5
PINGS = 200
SETUPS = 5
#: Compile rounds at the end of an untraced run, each followed by a
#: kernel timing (one more round runs after boot and one after the
#: latency window).
ROUNDS_AFTER = 2


@dataclass(frozen=True)
class ServeWorkload:
    routes: tuple[str, ...]
    weights: tuple[float, ...]
    conns: int
    reference_rps: float  # the fixed rate of the latency window
    search_from_rps: float  # first step of the rate search


WORKLOADS = {
    # Tiny requests at a low rate: every request finds its dispatcher
    # idle, so latency is the fixed per-request cost.
    "serve-sparse": ServeWorkload(
        routes=("fft:64:complex128", "wht:64:float64"),
        weights=(1.0, 1.0), conns=1,
        reference_rps=100.0, search_from_rps=4000.0),
    # Small and large sizes over two connections: batching coalesces
    # and kernels carry real work (n=4096 is 64 KiB each way).
    "serve-mixed": ServeWorkload(
        routes=("fft:64:complex128", "fft:1024:complex128",
                "fft:4096:complex128", "wht:1024:float64"),
        weights=(1.0, 1.0, 1.0, 1.0), conns=2,
        reference_rps=1000.0, search_from_rps=2000.0),
}


class ServerProcess:
    """``server.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, routes, *, trace: bool, seed: int, build_dir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("server.py")),
             "--routes", ",".join(routes), "--trace", str(int(trace)),
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=common.child_env(build_dir))
        try:
            self.ready = self._read(150.0)
            if not self.ready.get("ready"):
                raise RuntimeError(f"server did not start: {self.ready}")
        except BaseException:
            self.proc.kill()  # not serving yet: nothing to drain
            self.stop()
            raise
        self.host, self.port = self.ready["host"], self.ready["port"]

    def _read(self, timeout: float) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError(
                f"server process gave no answer (exit {self.proc.poll()})")
        return json.loads(line)

    def command(self, text: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def stop(self) -> None:
        """Ask the server to close; kill it if it does not; reap it."""
        try:
            if self.proc.poll() is None:
                self.command("quit", timeout=30.0)
                self.proc.wait(timeout=30.0)
        except (RuntimeError, OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            for stream in (self.proc.stdin, self.proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass


def boot(spec: ServeWorkload, args, scratch) -> tuple[ServerProcess, float]:
    start = perf_counter()
    server = ServerProcess(spec.routes, trace=bool(args.trace),
                           seed=args.seed, build_dir=scratch.fresh("build"))
    return server, perf_counter() - start


def ping_rtts(server: ServerProcess) -> list[float]:
    with SplClient(server.host, server.port) as client:
        client.ping()
        rtts = []
        for _ in range(PINGS):
            start = perf_counter()
            client.ping()
            rtts.append(perf_counter() - start)
    return rtts


def phase(generator, spec, rng, rate: float, seconds: float):
    schedule = loadgen.Schedule.poisson(
        rng, rate, seconds, list(spec.weights), len(
            generator.routes[0].payloads), spec.conns)
    return generator.run(schedule, rate)


def count_window(result, counts) -> None:
    """Below capacity every request must be answered correctly."""
    counts.attempt(result.attempted,
                   failed=result.attempted - result.count(loadgen.OK))


def step_verdict(result) -> dict:
    """Pass or fail for one rate step, and whether it was valid.

    A step passes when every request was answered correctly and the
    due-time p99 is within ``P99_LIMIT_S``; a refused or failed request
    counts as missing the limit.  A failed step is *invalid* — the
    generator, not the server, fell behind — when nothing was refused,
    issues ran late and the server still answered within the limit
    once a request was issued.
    """
    misses = result.attempted - result.count(loadgen.OK)
    latency = np.concatenate([result.latency, np.full(misses, np.inf)])
    p99 = float(np.percentile(latency, 99, method="higher"))
    late99 = float(np.percentile(result.late, 99))
    served = result.latency_from_issue
    issue99 = float(np.percentile(served, 99)) if served.size else math.inf
    passed = (result.count(loadgen.WRONG) + result.count(loadgen.ERROR) == 0
              and p99 <= P99_LIMIT_S)
    valid = passed or misses > 0 or not (late99 > LATE_LIMIT_S
                                         and issue99 <= P99_LIMIT_S)

    def ms(seconds: float) -> float | None:
        return round(seconds * 1e3, 3) if math.isfinite(seconds) else None

    return {"rate": result.rate, "passed": passed, "valid": valid,
            "p99_ms": ms(p99), "late_p99_ms": ms(late99),
            "issue_p99_ms": ms(issue99), "errors": result.errors}


def rate_search(generator, spec, rng, counts) -> dict:
    """Step up by ``RATE_GROWTH`` until a step fails, then bisect.

    A step that does not pass is run once more and the second verdict
    stands, so one stall on a shared host does not end the search.  An
    invalid step cannot show that the server sustains its rate, so it
    bounds the search like a failed one; every step is reported.
    """
    steps = []

    def run_step(rate: float) -> bool:
        duration = max(STEP_MIN_S, STEP_SAMPLES / rate)
        result = phase(generator, spec, rng, rate, duration)
        # Refusals past the knee are what the search measures; only
        # wrong answers and other errors are failed operations here.
        counts.attempt(result.attempted,
                       failed=result.count(loadgen.WRONG)
                       + result.count(loadgen.ERROR))
        steps.append(step_verdict(result))
        return steps[-1]["passed"]

    def step(rate: float) -> bool:
        return run_step(rate) or run_step(rate)

    rate = spec.search_from_rps
    while not step(rate):
        if len(steps) >= 8:
            counts.note(f"no rate passed down to {rate:g} req/s")
            counts.attempt(1, failed=True)
            return {"max_rate_rps": rate, "steps": steps}
        rate /= 2
    best = rate
    while step(rate * RATE_GROWTH):
        best = rate = rate * RATE_GROWTH
    ceiling = rate * RATE_GROWTH
    for _ in range(BISECTIONS):
        mid = math.sqrt(best * ceiling)
        if step(mid):
            best = mid
        else:
            ceiling = mid
    return {"max_rate_rps": best, "steps": steps}


def best_slice_median(result, slice_s: float = 1.0) -> float:
    """The lowest of the per-second median latencies of a window.

    Host stalls on a shared machine come in bursts that lift whole
    seconds of a window; the quietest second's median tracks the
    program's own per-request cost (best-of, like ``time_callable``),
    while the pooled percentiles are reported per layer.
    """
    mask = result.state == loadgen.OK
    when = result.due[mask] - result.due[0]
    latency = result.latency
    medians = [float(np.median(latency[(when >= t) & (when < t + slice_s)]))
               for t in np.arange(0.0, when.max() + 1e-9, slice_s)
               if ((when >= t) & (when < t + slice_s)).sum() >= 20]
    return min(medians) if medians else float(np.median(latency))


def sample(report: dict, name: str, key: str = "p50") -> float:
    entry = report["samples"].get(name)
    if not entry or not entry["count"]:
        return 0.0
    value = entry[key]
    return 0.0 if value != value else float(value)  # NaN -> 0


def delta(after: dict, before: dict, section: str, field: str) -> float:
    return float(sum(after[p][section][field] - before.get(p, {}).get(
        section, {}).get(field, 0) for p in after))


def run(args, scratch, metrics, counts) -> None:
    spec = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    routes = [loadgen.Route.build(s, rng) for s in spec.routes]
    setups = []
    server = None
    try:
        for _ in range(1 if args.trace else SETUPS):
            if server is not None:
                server.stop()
            server, seconds = boot(spec, args, scratch)
            setups.append(seconds)
        # compile_s, build_s and search_s describe the compiler, not
        # the traffic: every workload measures them with plan-cold's
        # rounds over its program set (one served route compiles in a
        # tenth of a second, too little to time on a shared host).  The
        # rounds are spread over the run while the server idles: one
        # now, one after the latency window, two at the end.
        programs = plan_bench.program_set()
        rounds = [plan_bench.run_round(programs, scratch, args.seed,
                                       None if args.trace else args.seed,
                                       kernels=False)]
        kernels = [server.command("kernel")["kernel"]]
        rtts = ping_rtts(server)
        counts.attempt(len(rtts) + 1)
        generator = loadgen.LoadGenerator(server.host, server.port,
                                          spec.conns, routes)
        try:
            count_window(phase(generator, spec, rng, spec.reference_rps,
                               WARMUP_S), counts)
            if args.trace:
                untraced = phase(generator, spec, rng, spec.reference_rps,
                                 args.seconds / 2)
                count_window(untraced, counts)
                before = server.command("trace on")["plans"]
                traced = phase(generator, spec, rng, spec.reference_rps,
                               args.seconds / 2)
                count_window(traced, counts)
                snap = server.command("snap")
                server.command("trace off")
            else:
                window = phase(generator, spec, rng, spec.reference_rps,
                               args.seconds)
                count_window(window, counts)
                rounds.append(plan_bench.run_round(
                    programs, scratch, args.seed, args.seed + 1,
                    kernels=False))
            search_before = server.command("snap")
            serving_rss = search_before["rss_mb"]
            search_before = search_before["plans"]
            if args.trace:
                rates = rate_search(generator, spec, rng, counts)
                counts.detail["rate_steps"] = rates["steps"]
            final = server.command("snap")
            kernels.append(server.command("kernel")["kernel"])
            for i in range(0 if args.trace else ROUNDS_AFTER):
                rounds.append(plan_bench.run_round(
                    programs, scratch, args.seed, args.seed + 2 + i,
                    kernels=False))
                kernels.append(server.command("kernel")["kernel"])
        finally:
            generator.close()
    finally:
        if server is not None:
            server.stop()
    tracer = Tracer() if args.trace else None
    search_tracer = Tracer() if args.trace else None
    compiled = plan_bench.summarize_rounds(programs, rounds, scratch,
                                           args.seed, counts, tracer,
                                           search_tracer)
    # Kernels are timed after each round, some ten seconds apart, and
    # the best time kept: host slowdowns last seconds.
    for report in kernels:
        for record in report.values():
            counts.attempt(1, failed=not record["ok"])
    kernel = {name: max((report[name] for report in kernels),
                        key=lambda record: record["mflops"])
              for name in kernels[0]}
    search = compiled["search"]
    counts.detail["rounds"] = compiled["rounds"]
    counts.detail["host_slowdown"] = round(compiled["slowdown"], 4)
    if not args.trace:
        metrics.update({
            "setup_s": common.median(setups),
            "latency_p50_ms": best_slice_median(window) * 1e3,
            "peak_rss_mb": serving_rss,
            "compile_s": compiled["compile_s"],
            "build_s": compiled["build_s"],
            "search_s": search["search_s"],
            "kernel_mflops": common.geomean(
                r["mflops"] for r in kernel.values()),
        })
        return

    setup = server.ready["setup"]
    report = snap["trace"]
    plans = snap["plans"]
    ping = common.median(rtts) * 1e6
    decode = sample(report, "protocol.decode_header") \
        + sample(report, "protocol.bytes_to_vector")
    encode = sample(report, "protocol.encode_frame") \
        + sample(report, "protocol.vector_to_bytes")
    admit = sample(report, "admission.try_admit")
    dispatch = sample(report, "dispatcher.request")
    end_to_end = common.percentile(traced.latency_from_issue, 50) * 1e6
    batches = delta(plans, before, "dispatch", "batches")
    requests = delta(plans, before, "dispatch", "requests")
    offered = sum(
        delta(final["plans"], search_before, "admission", f)
        for f in ("admitted", "rejected_overload", "shed_deadline"))
    metrics.update({
        "protocol.ping_rtt_us_p50": ping,
        "protocol.decode_us_p50": decode,
        "protocol.encode_us_p50": encode,
        "server.unattributed_us_p50":
            end_to_end - decode - admit - dispatch - encode - ping,
        "admission.try_admit_us_p50": admit,
        "admission.rejected_frac": delta(
            final["plans"], search_before, "admission",
            "rejected_overload") / max(1.0, offered),
        "admission.shed_frac": delta(
            final["plans"], search_before, "admission",
            "shed_deadline") / max(1.0, offered),
        "admission.peak_inflight": float(max(
            p["admission"]["peak_inflight"] for p in final["plans"].values())),
        "dispatcher.wait_us_p50": sample(report, "dispatcher.wait"),
        "dispatcher.wait_us_p99": sample(report, "dispatcher.wait", "p99"),
        "dispatcher.batch_mean": requests / max(1.0, batches),
        "dispatcher.size_flush_frac": delta(
            plans, before, "dispatch", "size_flushes") / max(1.0, batches),
        "dispatcher.deadline_flush_frac": delta(
            plans, before, "dispatch", "deadline_flushes") / max(1.0, batches),
        "runner.apply_many_us_p50": sample(report, "runner.apply_many"),
        "runner.busy_frac": sample(report, "runner.apply_many", "sum")
        / 1e6 / traced.wall_s,
        "runner.breaker_trips": float(sum(
            p["breaker_trips"] for p in final["plans"].values())),
        "loadgen.max_rate_rps": rates["max_rate_rps"],
        "loadgen.late_p99_ms": common.percentile(traced.late, 99) * 1e3,
        "loadgen.latency_p50_ms": common.percentile(traced.latency, 50) * 1e3,
        "loadgen.latency_p99_ms": common.percentile(traced.latency, 99) * 1e3,
        "trace.overhead_frac": best_slice_median(traced)
        / best_slice_median(untraced) - 1.0,
    })
    counts.detail["wait_share_of_latency_p50"] = (
        metrics["dispatcher.wait_us_p50"]
        / (common.percentile(traced.latency, 50) * 1e6))
    build = setup["trace"]
    for name in plans:
        metrics[f"runner.us_per_vector.{name}"] = sample(
            report, f"runner.per_vector:{name}")
        metrics[f"plans.get_ms.{name}"] = setup["get_s"][name] * 1e3
        metrics[f"kernel.mflops.{name}"] = kernel[name]["mflops"]
    metrics["jit.compile_ms"] = sample(build, "jit.compile", "sum") / 1e3
    metrics.update(plan_bench.compile_layers(tracer, compiled["passes"][-1]))
    gcc = {label: build["samples"].get(f"ccompile.gcc:{label}",
                                       {"count": 0, "sum": 0.0})
           for label in ("hit", "miss")}
    metrics.update(plan_bench.gcc_layers(
        [tracer, search_tracer],
        extra_calls=gcc["hit"]["count"] + gcc["miss"]["count"],
        extra_hits=gcc["hit"]["count"], extra_miss_s=gcc["miss"]["sum"] / 1e6))
    metrics.update(plan_bench.search_layers(search_tracer, search))
    server_violations = report["violations"] + build["violations"]
    counts.attempt(1, failed=bool(server_violations))
    if server_violations:
        counts.note("server span nesting: " + "; ".join(server_violations[:3]))
    plan_bench.check_nesting([tracer, search_tracer], counts)
