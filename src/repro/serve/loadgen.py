"""An open-loop load generator for the transform service.

Open-loop means arrivals follow a schedule fixed *before* the run —
they never slow down because the server is slow.  Closed-loop drivers
(issue, wait, issue) self-throttle under overload and report
flattering latencies; an open-loop driver keeps offering work at the
configured rate, which is exactly what exposes queue growth, deadline
misses, and the bounded-queue rejections the admission controller
exists to produce.

Three arrival processes (``pattern``):

* ``uniform`` — evenly spaced, rate vectors/sec;
* ``poisson`` — exponential inter-arrivals at the same mean rate;
* ``burst`` — Poisson arrivals whose rate multiplies by
  ``burst_factor`` during periodic bursts (``burst_every`` /
  ``burst_duration`` seconds), stressing batch coalescing.

``mix`` maps transform specs to weights, so one run can interleave
sizes (e.g. 64-point and 1024-point FFTs) against the same router.
Outcomes are counted by wire code; latencies are recorded only for
completed requests.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.client import AsyncSplClient
from repro.serve.errors import ServeError
from repro.serve.protocol import resolve_dtype


@dataclass(frozen=True)
class WorkloadSpec:
    """One request shape in the traffic mix."""

    transform: str
    n: int
    dtype: str = "complex128"

    def describe(self) -> str:
        return f"{self.transform}:{self.n}:{self.dtype}"


@dataclass
class LoadReport:
    """Everything the benchmark needs from one load run."""

    offered: int = 0  # scheduled arrivals actually issued
    completed: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    duration_s: float = 0.0
    target_rate: float = 0.0

    @property
    def achieved_rate(self) -> float:
        """Completed vectors/sec over the issuing window."""
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def offered_rate(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.offered / self.duration_s

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_s:
            return float("nan")
        return float(np.percentile(self.latencies_s, q) * 1e3)

    def summary(self) -> dict:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "errors": dict(sorted(self.errors.items())),
            "duration_s": self.duration_s,
            "target_rate": self.target_rate,
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "p50_ms": self.percentile_ms(50),
            "p90_ms": self.percentile_ms(90),
            "p99_ms": self.percentile_ms(99),
        }


def _interarrivals(pattern: str, rate: float, duration: float,
                   rng: random.Random, *, burst_factor: float,
                   burst_every: float,
                   burst_duration: float) -> list[float]:
    """Arrival times (seconds from start) for one run, precomputed so
    issuing is schedule-driven, not completion-driven."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    arrivals: list[float] = []
    t = 0.0
    while t < duration:
        if pattern == "uniform":
            gap = 1.0 / rate
        elif pattern == "poisson":
            gap = rng.expovariate(rate)
        elif pattern == "burst":
            in_burst = (t % burst_every) < burst_duration
            gap = rng.expovariate(
                rate * burst_factor if in_burst else rate)
        else:
            raise ValueError(f"unknown arrival pattern {pattern!r}")
        t += gap
        if t < duration:
            arrivals.append(t)
    return arrivals


def _payload_pool(spec: WorkloadSpec, rng: random.Random,
                  pool_size: int = 16) -> list[bytes]:
    """Pre-encoded request payloads for one spec.

    Vectors are generated (and serialized) *before* the run so the
    issue path does no numerical work — an open-loop generator that
    pauses to build each vector under-offers at high rates.
    """
    dtype = resolve_dtype(spec.dtype)
    nprng = np.random.default_rng(rng.randrange(2 ** 31))
    pool = []
    for _ in range(pool_size):
        x = nprng.standard_normal(spec.n)
        if dtype == np.dtype(np.complex128):
            x = x + 1j * nprng.standard_normal(spec.n)
        pool.append(np.ascontiguousarray(x.astype(dtype)).tobytes())
    return pool


async def run_load(host: str, port: int, *,
                   mix: dict[WorkloadSpec, float],
                   rate: float,
                   duration: float,
                   pattern: str = "poisson",
                   deadline_ms: float | None = None,
                   request_timeout: float | None = None,
                   connections: int = 4,
                   seed: int = 0,
                   burst_factor: float = 4.0,
                   burst_every: float = 1.0,
                   burst_duration: float = 0.2) -> LoadReport:
    """Drive the server open-loop and report outcomes.

    ``rate`` is total offered vectors/sec across the whole mix;
    requests round-robin over ``connections`` pipelined clients.
    ``request_timeout`` bounds each in-flight request client-side:
    responses slower than it count as ``timeout`` errors (the wire
    code of :class:`~repro.serve.errors.SplTimeout`) instead of
    stalling the report forever on a wedged server.
    """
    if not mix:
        raise ValueError("mix must not be empty")
    specs = list(mix)
    weights = [mix[s] for s in specs]
    rng = random.Random(seed)
    arrivals = _interarrivals(
        pattern, rate, duration, rng, burst_factor=burst_factor,
        burst_every=burst_every, burst_duration=burst_duration)

    pools = {spec: _payload_pool(spec, rng) for spec in specs}
    headers = {}
    for spec in specs:
        header = {
            "op": "transform",
            "transform": spec.transform,
            "n": spec.n,
            "dtype": spec.dtype,
        }
        if deadline_ms is not None:
            header["deadline_ms"] = deadline_ms
        headers[spec] = header

    clients = [await AsyncSplClient.connect(host, port)
               for _ in range(max(1, connections))]
    report = LoadReport(target_rate=rate)
    outstanding: list[asyncio.Future] = []
    start = time.monotonic()
    try:
        for i, offset in enumerate(arrivals):
            now = time.monotonic()
            wait = start + offset - now
            if wait > 0:
                await asyncio.sleep(wait)
            spec = rng.choices(specs, weights=weights, k=1)[0]
            pool = pools[spec]
            client = clients[i % len(clients)]
            issued_at = time.monotonic()
            future = client.submit(headers[spec],
                                   pool[i % len(pool)],
                                   timeout=request_timeout)
            report.offered += 1

            def account(fut: asyncio.Future,
                        issued_at: float = issued_at) -> None:
                try:
                    fut.result()
                except ServeError as exc:
                    report.errors[exc.code] = \
                        report.errors.get(exc.code, 0) + 1
                except Exception:  # noqa: BLE001 - transport loss
                    report.errors["transport"] = \
                        report.errors.get("transport", 0) + 1
                else:
                    report.completed += 1
                    report.latencies_s.append(
                        time.monotonic() - issued_at)

            future.add_done_callback(account)
            outstanding.append(future)
        for client in clients:
            await client.drain()
        if outstanding:
            await asyncio.gather(*outstanding, return_exceptions=True)
        # Let the done-callbacks run before the report is read.
        await asyncio.sleep(0)
        report.duration_s = time.monotonic() - start
    finally:
        for client in clients:
            await client.close()
    return report


def run_load_sync(host: str, port: int, **kwargs) -> LoadReport:
    """Blocking wrapper around :func:`run_load` (own event loop)."""
    return asyncio.run(run_load(host, port, **kwargs))


def mixed_fft_specs(sizes: list[int]) -> dict[WorkloadSpec, float]:
    """An equal-weight complex FFT mix over ``sizes`` — small sizes
    weighted up slightly so big transforms do not dominate wall time."""
    mix: dict[WorkloadSpec, float] = {}
    for n in sizes:
        weight = 1.0 + 1.0 / max(1.0, math.log2(n))
        mix[WorkloadSpec("fft", n, "complex128")] = weight
    return mix
