"""The serving process a ``serve-*`` workload measures.

Built through the public ``repro.serve`` API only — a ``PlanRegistry``
with no wisdom, a ``Router`` and an ``SplServer`` with the defaults of
``spl serve`` — and run in its own process, so the load generator's
interpreter lock never sits in the server's numbers.

Start-up warms every route and waits until each executable is on its
final backend (the background cjit -> gcc promotion included), then
prints one ``ready`` JSON line.  After that the process answers one
JSON line per command read from stdin:

``kernel``      time ``apply_many`` at B=64 on each route, oracle-checked
``trace on``    wrap the request path (protocol, admission, dispatcher,
                runner); ``trace off`` restores every original
``snap``        counters, compile records, trace aggregates, peak RSS
``quit``        close the server and exit

Run by ``perfbench/run.py``; by hand:
``PYTHONPATH=src python3 perfbench/server.py --routes fft:64:complex128``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from collections import deque
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_sources()

import oracle  # noqa: E402
from plan_bench import KERNEL_BATCH, KERNEL_TIME_S, wrap_gcc  # noqa: E402
from tracing import Tracer  # noqa: E402

import numpy as np  # noqa: E402

from repro.core import compiler as compiler_mod  # noqa: E402
from repro.core.codegen import CodeGenerator  # noqa: E402
from repro.perfeval import ccompile, jit  # noqa: E402
from repro.perfeval.runner import ExecutableRoutine  # noqa: E402
from repro.runtime.dispatcher import BatchDispatcher  # noqa: E402
from repro.serve import plans as plans_mod  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.serve import server as server_mod  # noqa: E402
from repro.serve.admission import AdmissionController  # noqa: E402
from repro.serve.plans import PlanKey, PlanRegistry  # noqa: E402
from repro.serve.server import Router, SplServer  # noqa: E402

perf_counter = time.perf_counter


def program_name(name: str) -> str:
    """``serve_fft64`` / ``fft:64:complex128`` -> ``fft64``."""
    if ":" in name:
        transform, n = name.split(":")[:2]
        return f"{transform}{n}"
    return name.removeprefix("serve_")


def final_backend() -> str:
    return "c" if ccompile.have_c_compiler() else ""


def install_build_tracing(tracer: Tracer) -> None:
    """Spans over plan building: registry, compiler phases, JIT, gcc."""
    tracer.wrap(PlanRegistry, "get", "plans.get",
                label=lambda a, k: program_name(a[1].describe()))
    tracer.wrap(plans_mod, "parse_formula_text", "compiler.parse")
    tracer.wrap(CodeGenerator, "generate", "compiler.icodegen")
    tracer.wrap(compiler_mod, "emit_c", "compiler.emit")
    tracer.wrap(jit, "compile_jit", "jit.compile")
    wrap_gcc(tracer, "ccompile.gcc")


class RequestPathTracing:
    """Wrappers on the request path, plus the queue-wait bookkeeping.

    A dispatcher takes requests FIFO and its one worker calls
    ``apply_many`` with the oldest ``B`` of them, so each executable's
    submit stamps form a queue: ``apply_many`` of batch size B pops B
    stamps, and the wait of each request is the batch start minus its
    stamp.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.stamps: dict[int, deque] = {}

    def install(self) -> None:
        tracer = self.tracer
        tracer.wrap(protocol, "decode_header", "protocol.decode_header")
        tracer.wrap(server_mod, "bytes_to_vector", "protocol.bytes_to_vector")
        tracer.wrap(server_mod, "vector_to_bytes", "protocol.vector_to_bytes")
        tracer.wrap(server_mod, "encode_frame", "protocol.encode_frame")
        tracer.wrap(AdmissionController, "try_admit", "admission.try_admit")
        tracer.wrap(BatchDispatcher, "submit", "dispatcher.submit",
                    before=self._before_submit)
        tracer.wrap(ExecutableRoutine, "apply_many", "runner.apply_many",
                    label=lambda a, k: program_name(a[0].name),
                    before=self._before_apply, after=self._after_apply)

    def _before_submit(self, args, kwargs):
        dispatcher = args[0]
        stamps = self.stamps.setdefault(id(dispatcher.target), deque())
        submitted = perf_counter()
        stamps.append(submitted)
        on_done = args[2] if len(args) > 2 else kwargs.pop("on_done", None)
        tracer = self.tracer

        def traced_done(request):
            tracer.interval("dispatcher.request", perf_counter() - submitted)
            if on_done is not None:
                on_done(request)

        return (args[0], args[1], traced_done), {}

    def _before_apply(self, args, kwargs):
        executable, X = args[0], args[1]
        stamps = self.stamps.get(id(executable))
        if stamps:
            start = perf_counter()
            for _ in range(min(len(X), len(stamps))):
                self.tracer.interval("dispatcher.wait",
                                     start - stamps.popleft())
        return args, kwargs

    def _after_apply(self, args, kwargs, result, start, end) -> None:
        executable, X = args[0], args[1]
        self.tracer.interval(
            f"runner.per_vector:{program_name(executable.name)}",
            (end - start) / max(1, len(X)))


def kernel_report(router: Router, seed: int) -> dict:
    """``apply_many`` at B=64 per route: best-of time per vector and the
    oracle verdict."""
    rng = np.random.default_rng(seed)
    batches, verdicts = {}, {}
    for service in router.services():
        executable = service.plan.executable
        n = executable.n
        X = rng.standard_normal((KERNEL_BATCH, n))
        if executable.dtype == np.complex128:
            X = X + 1j * rng.standard_normal((KERNEL_BATCH, n))
        name = program_name(service.plan.key.describe())
        batches[name] = (executable, X)
        verdicts[name] = bool(oracle.rows_ok(
            executable.apply_many(X),
            oracle.reference(service.plan.key.transform, X)).all())
    best = common.best_of_rounds(
        {name: (lambda e=e, X=X: e.apply_many(X))
         for name, (e, X) in batches.items()}, KERNEL_TIME_S)
    out = {}
    for name, (executable, _) in batches.items():
        per_vector = best[name] / KERNEL_BATCH
        out[name] = {"n": executable.n, "ok": verdicts[name],
                     "us_per_vector": per_vector * 1e6,
                     "mflops": common.pseudo_mflops(executable.n, per_vector)}
    return out


def plan_report(router: Router) -> dict:
    out = {}
    for service in router.services():
        executable = service.plan.executable
        out[program_name(service.plan.key.describe())] = {
            "backend": executable.backend,
            "breaker_trips": len(executable.backend_failures),
            "dispatch": asdict(service.dispatcher.stats),
            "admission": asdict(service.admission.stats()),
        }
    return out


def summarize(samples_us: list[float]) -> dict:
    return {"count": len(samples_us), "sum": float(sum(samples_us)),
            "p50": common.percentile(samples_us, 50),
            "p99": common.percentile(samples_us, 99)}


def trace_report(tracer: Tracer) -> dict:
    """count/sum/p50/p99 (µs) of every span name and interval; spans
    labelled ``name:label`` also count under ``name``."""
    samples: dict[str, list[float]] = {}
    for _, name, start, end, _ in tracer.spans:
        value = (end - start) * 1e6
        samples.setdefault(name, []).append(value)
        if ":" in name:
            samples.setdefault(name.split(":")[0], []).append(value)
    for name, values in tracer.intervals.items():
        samples[name] = [v * 1e6 for v in values]
        if ":" in name:
            samples.setdefault(name.split(":")[0], []).extend(
                v * 1e6 for v in values)
    return {"samples": {name: summarize(values)
                        for name, values in samples.items()},
            "violations": tracer.nesting_violations()}


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--routes", required=True,
                        help="comma-separated transform:n:dtype routes")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    keys = []
    for spec in args.routes.split(","):
        transform, n, dtype = spec.split(":")
        keys.append(PlanKey(transform, int(n), dtype))

    build_tracer = Tracer()
    if args.trace:
        install_build_tracing(build_tracer)
    router = Router(PlanRegistry())
    get_s = {}
    for key in keys:
        start = perf_counter()
        router.service(key)
        get_s[program_name(key.describe())] = perf_counter() - start
    warmed = perf_counter()
    target = final_backend()
    deadline = warmed + 120.0
    while target and perf_counter() < deadline and any(
            s.plan.executable.backend != target
            for s in router.services()):
        time.sleep(0.001)
    promoted = perf_counter()
    build_tracer.restore()
    setup = {
        "compile_s": sum(get_s.values()),
        "build_s": promoted - warmed,
        "get_s": get_s,
        "backends": {program_name(s.plan.key.describe()):
                     s.plan.executable.backend for s in router.services()},
    }
    if args.trace:
        setup["trace"] = trace_report(build_tracer)
    return asyncio.run(serve(router, setup, args))


async def serve(router: Router, setup: dict, args) -> int:
    loop = asyncio.get_running_loop()
    server = SplServer(router, port=0)
    host, port = await server.start()
    serving = asyncio.ensure_future(server.serve_forever())
    stop = asyncio.Event()
    tracer = Tracer()
    request_tracing = RequestPathTracing(tracer)

    def control() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "kernel":
                emit({"kernel": kernel_report(router, args.seed)})
            elif command == "trace on":
                tracer.clear()
                request_tracing.install()
                emit({"trace": "on", "plans": plan_report(router)})
            elif command == "trace off":
                tracer.restore()
                emit({"trace": "off"})
            elif command == "snap":
                emit({"rss_mb": common.peak_rss_mb(),
                      "plans": plan_report(router),
                      "trace": trace_report(tracer)})
            elif command == "quit":
                break
        tracer.restore()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=control, name="perfbench-control",
                     daemon=True).start()
    emit({"ready": True, "host": host, "port": port, "setup": setup})
    await stop.wait()
    serving.cancel()
    try:
        await serving
    except asyncio.CancelledError:
        pass
    await server.close()
    emit({"closed": True})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
