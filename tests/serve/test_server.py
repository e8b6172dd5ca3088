"""End-to-end tests for the transform service.

Each test boots a real :class:`SplServer` on an ephemeral port (in a
background thread running its own event loop) and talks to it over
actual sockets, so the full path — framing, routing, admission,
dispatch, breaker-guarded execution — is exercised, not mocked.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serve import (
    AsyncSplClient,
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    PlanKey,
    PlanRegistry,
    Router,
    ServeError,
    SplClient,
    SplServer,
)
from repro.serve.loadgen import WorkloadSpec, run_load
from repro.serve.protocol import dtype_name
from repro.wisdom.store import WisdomStore

FFT16 = PlanKey("fft", 16, "complex128")
WHT8 = PlanKey("wht", 8, "float64")


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def _complex_vec(n: int, seed: int = 0) -> np.ndarray:
    rng = _rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _wht_matrix(n: int) -> np.ndarray:
    matrix = np.array([[1.0]])
    while matrix.shape[0] < n:
        matrix = np.block([[matrix, matrix], [matrix, -matrix]])
    return matrix


class ServerHarness:
    """A live server on an ephemeral port, run in its own thread."""

    def __init__(self, router: Router | None = None,
                 warm: list[PlanKey] | None = None):
        self._router = router
        self._warm = warm or []
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None
        self._thread = threading.Thread(target=self._thread_main,
                                        daemon=True)
        self.server: SplServer | None = None
        self.host = ""
        self.port = 0

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            self._boot_error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = SplServer(self._router, warm=self._warm)
        self.host, self.port = await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.close()

    def __enter__(self) -> "ServerHarness":
        self._thread.start()
        assert self._ready.wait(60), "server did not boot"
        if self._boot_error is not None:
            raise self._boot_error
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "server did not shut down"

    def client(self) -> SplClient:
        return SplClient(self.host, self.port)


def numpy_router(**kwargs) -> Router:
    """A router on the NumPy backend: fast to build, CI-safe."""
    return Router(PlanRegistry(prefer="numpy"), **kwargs)


class TestRoundtrips:
    def test_fft_matches_numpy(self):
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness, \
                harness.client() as client:
            x = _complex_vec(16, seed=3)
            y = client.transform("fft", x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)

    def test_wht_matches_dense_semantics(self):
        with ServerHarness(numpy_router(), warm=[WHT8]) as harness, \
                harness.client() as client:
            x = _rng(4).standard_normal(8)
            y = client.transform("wht", x)
            np.testing.assert_allclose(y, _wht_matrix(8) @ x,
                                       atol=1e-9)

    def test_cold_route_builds_on_first_request(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            x = _complex_vec(32, seed=5)
            y = client.transform("fft", x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)
            assert client.stats()["registry"]["plans"] == 1

    def test_ping_and_stats(self):
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness, \
                harness.client() as client:
            client.ping()
            stats = client.stats()
            assert stats["registry"]["plans"] == 1
            (plan,) = stats["plans"]
            assert plan["plan"] == "fft:16:complex128"
            assert plan["admission"]["admitted"] == 0

    def test_pipelined_responses_match_their_requests(self):
        # Many concurrent requests on one connection; each response is
        # matched back by id, so every caller must get *its own* row.
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness:
            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                try:
                    vecs = [_complex_vec(16, seed=s)
                            for s in range(24)]
                    results = await asyncio.gather(*[
                        client.transform("fft", x) for x in vecs])
                    for x, y in zip(vecs, results):
                        np.testing.assert_allclose(
                            y, np.fft.fft(x), atol=1e-9)
                finally:
                    await client.close()

            asyncio.run(drive())


class TestUnloadedLatency:
    def test_lone_request_is_not_held_for_companions(self):
        """Sequential requests each find their dispatcher idle.  A
        work-conserving worker runs each one at once, so the server-
        side time is the fixed per-request cost, well under 1 ms; a
        batching timer would add its whole delay to every request."""
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness:
            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                try:
                    x = _complex_vec(16)
                    header = {"op": "transform", "transform": "fft",
                              "n": 16, "dtype": dtype_name(x.dtype)}
                    server_ms = []
                    for _ in range(50):
                        response, _ = await client.submit(header,
                                                          x.tobytes())
                        server_ms.append(response["server_ms"])
                    return server_ms
                finally:
                    await client.close()

            server_ms = asyncio.run(drive())
        assert float(np.median(server_ms)) < 1.0, server_ms


class TestTypedErrors:
    def test_unknown_transform(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            with pytest.raises(BadRequest, match="unknown transform"):
                client.transform("dct", _complex_vec(16))

    def test_wht_rejects_complex_dtype_route(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            with pytest.raises(BadRequest, match="float64"):
                client.transform("wht", _complex_vec(8))

    def test_unplannable_size(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            # 3 * 257: not smooth, larger than the direct-DFT cap.
            with pytest.raises(BadRequest, match="not plannable"):
                client.transform("fft", _complex_vec(771))

    def test_payload_length_mismatch(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            x = _complex_vec(16)
            header = {"op": "transform", "transform": "fft", "n": 16,
                      "dtype": dtype_name(x.dtype)}
            with pytest.raises(BadRequest, match="expected"):
                client._roundtrip(header, x.tobytes()[:-8])

    def test_unknown_op(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            with pytest.raises(BadRequest, match="unknown op"):
                client._roundtrip({"op": "frobnicate"})

    def test_expired_deadline_is_shed(self):
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness, \
                harness.client() as client:
            # A 1ns budget has always expired by admission time; the
            # request must be shed, not executed.
            with pytest.raises(DeadlineExceeded):
                client.transform("fft", _complex_vec(16),
                                 deadline_ms=1e-6)
            stats = client.stats()
            (plan,) = stats["plans"]
            assert plan["admission"]["shed_deadline"] == 1
            assert plan["admission"]["admitted"] == 0


class _GatedTarget:
    """Wrap a plan executable; hold every batch until released."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.dtype = inner.dtype
        self.release = threading.Event()

    def apply_many(self, X, **kwargs):
        assert self.release.wait(60), "gate never released"
        return self.inner.apply_many(X, **kwargs)


class _PoisonDetector:
    """Wrap a plan executable; refuse any batch containing NaN."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.dtype = inner.dtype

    def apply_many(self, X, **kwargs):
        if np.isnan(np.asarray(X).real).any():
            raise ValueError("poisoned batch")
        return self.inner.apply_many(X, **kwargs)


class TestOverloadAndIsolation:
    def test_bounded_queue_rejects_with_typed_overload(self):
        queue_limit = 4
        extra = 3
        router = numpy_router(queue_limit=queue_limit, max_batch=64)
        with ServerHarness(router, warm=[FFT16]) as harness:
            service = router.try_service(FFT16)
            gate = _GatedTarget(service.dispatcher.target)
            service.dispatcher.target = gate

            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                try:
                    x = _complex_vec(16)
                    header = {"op": "transform", "transform": "fft",
                              "n": 16, "dtype": dtype_name(x.dtype)}
                    futures = [client.submit(header, x.tobytes())
                               for _ in range(queue_limit + extra)]
                    await client.drain()
                    # Nothing completes while the gate is held, so
                    # admission fills to exactly queue_limit and every
                    # request past it is rejected.  Release once the
                    # rejections have come back.
                    done = 0
                    while done < extra:
                        done = sum(f.done() for f in futures)
                        await asyncio.sleep(0.01)
                    gate.release.set()
                    return await asyncio.gather(
                        *futures, return_exceptions=True)
                finally:
                    await client.close()

            outcomes = asyncio.run(drive())
            overloads = [o for o in outcomes
                         if isinstance(o, Overloaded)]
            served = [o for o in outcomes if not isinstance(
                o, BaseException)]
            assert len(overloads) == extra
            assert len(served) == queue_limit
            assert overloads[0].queue_limit == queue_limit
            stats = service.admission.stats()
            assert stats.rejected_overload == extra
            assert stats.admitted == queue_limit

    def test_poisoned_request_fails_alone(self):
        batch = 5
        router = numpy_router(max_batch=batch)
        with ServerHarness(router, warm=[WHT8]) as harness:
            service = router.try_service(WHT8)
            service.dispatcher.target = _PoisonDetector(
                service.dispatcher.target)

            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                try:
                    clean = [_rng(s).standard_normal(8)
                             for s in range(batch - 1)]
                    poison = np.full(8, np.nan)
                    futures = [client.transform("wht", x)
                               for x in clean]
                    futures.append(client.transform("wht", poison))
                    results = await asyncio.gather(
                        *futures, return_exceptions=True)
                    return clean, results
                finally:
                    await client.close()

            clean, results = asyncio.run(drive())
            *served, poisoned = results
            assert isinstance(poisoned, ServeError)
            assert poisoned.code == "internal"
            assert "poisoned" in str(poisoned)
            for x, y in zip(clean, served):
                assert not isinstance(y, BaseException)
                np.testing.assert_allclose(y, _wht_matrix(8) @ x,
                                           atol=1e-9)

    def test_open_loop_overload_run_reports_typed_outcomes(self):
        router = numpy_router(queue_limit=2, max_batch=4)
        with ServerHarness(router, warm=[FFT16]) as harness:
            async def drive():
                return await run_load(
                    harness.host, harness.port,
                    mix={WorkloadSpec("fft", 16): 1.0},
                    rate=4000, duration=0.4, pattern="burst",
                    connections=4, seed=11)

            report = asyncio.run(drive())
            assert report.offered > 100
            assert report.completed > 0
            # Open-loop at far beyond capacity with queue_limit=2:
            # the bounded queue must shed, and only with the typed
            # overload code — never a transport error or a crash.
            assert report.errors.get("overload", 0) > 0
            assert set(report.errors) <= {"overload"}
            assert (report.completed
                    + sum(report.errors.values())) == report.offered


class TestDrain:
    """Graceful drain: stop accepting, answer everything admitted."""

    def test_admitted_requests_complete_and_new_ones_are_refused(self):
        router = numpy_router(max_batch=64)
        with ServerHarness(router, warm=[FFT16]) as harness:
            service = router.try_service(FFT16)
            gate = _GatedTarget(service.dispatcher.target)
            service.dispatcher.target = gate

            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                xs = [_complex_vec(16, seed=s) for s in range(4)]
                try:
                    futures = [asyncio.ensure_future(
                        client.transform("fft", x)) for x in xs]
                    await client.drain()
                    # Admit everything before the drain begins.
                    while harness.server._inflight < len(xs):
                        await asyncio.sleep(0.005)
                    drain_task = asyncio.ensure_future(
                        harness.server.drain(grace=30.0))
                    await asyncio.sleep(0.05)
                    # Connections already established get the typed
                    # rejection for *new* work...
                    with pytest.raises(ServeError) as excinfo:
                        await client.transform("fft", xs[0])
                    assert excinfo.value.code == "unavailable"
                    # ...while fresh connections are refused outright
                    # (the listener is closed).
                    with pytest.raises((ConnectionError, OSError)):
                        await asyncio.wait_for(
                            AsyncSplClient.connect(harness.host,
                                                   harness.port), 5)
                    assert not drain_task.done()
                    gate.release.set()
                    drained = await drain_task
                    results = await asyncio.gather(*futures)
                    return drained, xs, results
                finally:
                    await client.close()

            drained, xs, results = asyncio.run(
                asyncio.wait_for(_run_on(harness, drive), 60))
            assert drained is True
            # Zero admitted requests lost: every one answered, right.
            for x, y in zip(xs, results):
                np.testing.assert_allclose(y, np.fft.fft(x),
                                           atol=1e-9)

    def test_drain_times_out_when_requests_never_finish(self):
        router = numpy_router(max_batch=64)
        with ServerHarness(router, warm=[FFT16]) as harness:
            service = router.try_service(FFT16)
            gate = _GatedTarget(service.dispatcher.target)
            service.dispatcher.target = gate

            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                try:
                    future = asyncio.ensure_future(
                        client.transform("fft", _complex_vec(16)))
                    await client.drain()
                    while harness.server._inflight < 1:
                        await asyncio.sleep(0.005)
                    drained = await harness.server.drain(grace=0.2)
                    gate.release.set()  # let the harness shut down
                    await future
                    return drained
                finally:
                    await client.close()

            drained = asyncio.run(
                asyncio.wait_for(_run_on(harness, drive), 60))
            assert drained is False

    def test_stats_expose_pid_and_drain_state(self):
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness, \
                harness.client() as client:
            stats = client.stats()
            assert stats["pid"] > 0
            assert stats["draining"] is False
            assert stats["inflight"] == 0


async def _run_on(harness: ServerHarness, coro_fn):
    """Run ``coro_fn()`` on the harness server's own event loop."""
    loop = asyncio.get_running_loop()
    future = asyncio.run_coroutine_threadsafe(coro_fn(),
                                              harness._loop)
    return await loop.run_in_executor(None, future.result, 55)


class TestWisdomHotBoot:
    def test_warmed_plan_replays_the_search_winner(self, tmp_path):
        from repro.search.dp import search_small_sizes

        store = WisdomStore(tmp_path / "wisdom.json")
        results = search_small_sizes(
            (4, 8), max_candidates=2, min_time=0.0005, wisdom=store)
        assert set(results) == {4, 8}

        registry = PlanRegistry(prefer="numpy", wisdom=store)
        router = Router(registry)
        keys = [PlanKey("fft", 4, "complex128"),
                PlanKey("fft", 8, "complex128")]
        with ServerHarness(router, warm=keys) as harness, \
                harness.client() as client:
            stats = client.stats()
            assert stats["registry"]["wisdom_boots"] == 2
            assert all(plan["from_wisdom"]
                       for plan in stats["plans"])
            for n, seed in ((4, 1), (8, 2)):
                x = _complex_vec(n, seed=seed)
                np.testing.assert_allclose(
                    client.transform("fft", x), np.fft.fft(x),
                    atol=1e-9)

    def test_tampered_wisdom_degrades_to_cold_build(self, tmp_path):
        from repro.search.dp import search_small_sizes

        store = WisdomStore(tmp_path / "wisdom.json")
        search_small_sizes((4,), max_candidates=2, min_time=0.0005,
                           wisdom=store)
        # Corrupt the stored formula: it must be re-validated at boot
        # and evicted, never served.
        for entry in store.entries.values():
            entry.formula = "(I 4)"

        registry = PlanRegistry(prefer="numpy", wisdom=store)
        with ServerHarness(Router(registry),
                           warm=[PlanKey("fft", 4, "complex128")]) \
                as harness, harness.client() as client:
            stats = client.stats()
            assert stats["registry"]["wisdom_boots"] == 0
            x = _complex_vec(4, seed=9)
            np.testing.assert_allclose(
                client.transform("fft", x), np.fft.fft(x), atol=1e-9)
