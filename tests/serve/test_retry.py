"""Client resilience: timeouts, retry policy, and retry budget.

Unit tests pin the pure policy logic (classification, backoff shape,
budget accounting) with injected RNG/sleep so nothing is timing
dependent; integration tests run a real server and verify that
``SplClient`` raises a typed ``SplTimeout``, that retries survive a
dropped connection, and that the budget actually stops retry storms.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    Overloaded,
    ResilientAsyncClient,
    RetryBudget,
    RetryPolicy,
    SplClient,
    SplTimeout,
    Unavailable,
    call_with_retry,
)
from repro.serve.errors import BadRequest, DeadlineExceeded

from tests.serve.test_server import (
    FFT16,
    ServerHarness,
    _complex_vec,
    _GatedTarget,
    numpy_router,
)


class TestRetryPolicyClassification:
    def test_overload_and_unavailable_are_retryable(self):
        policy = RetryPolicy()
        assert policy.retryable(Overloaded("queue full"))
        assert policy.retryable(Unavailable("draining"))

    def test_timeout_and_connection_loss_are_retryable(self):
        policy = RetryPolicy()
        assert policy.retryable(SplTimeout("slow"))
        assert policy.retryable(ConnectionError("gone"))
        assert policy.retryable(ConnectionRefusedError("restarting"))

    def test_caller_errors_are_not_retryable(self):
        policy = RetryPolicy()
        assert not policy.retryable(BadRequest("bad dtype"))
        assert not policy.retryable(DeadlineExceeded("missed"))
        assert not policy.retryable(ValueError("not a wire error"))

    def test_overload_retry_can_be_disabled(self):
        policy = RetryPolicy(retry_overload=False)
        assert not policy.retryable(Overloaded("queue full"))
        assert policy.retryable(SplTimeout("slow"))

    def test_connection_retry_can_be_disabled(self):
        policy = RetryPolicy(retry_connection=False)
        assert not policy.retryable(ConnectionError("gone"))
        assert policy.retryable(Overloaded("queue full"))


class TestBackoff:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_backoff_s=0.01, multiplier=2.0,
                             max_backoff_s=0.05)
        rng = random.Random(7)
        # Full jitter: each draw is uniform in (0, cap of that retry].
        for retry_index, cap in ((0, 0.01), (1, 0.02), (2, 0.04),
                                 (3, 0.05), (10, 0.05)):
            for _ in range(50):
                delay = policy.backoff_s(retry_index, rng)
                assert 0.0 <= delay <= cap + 1e-12

    def test_jitter_actually_varies(self):
        policy = RetryPolicy(base_backoff_s=0.01)
        rng = random.Random(3)
        draws = {policy.backoff_s(2, rng) for _ in range(16)}
        assert len(draws) > 1


class TestRetryBudget:
    def test_budget_spends_down_and_denies(self):
        budget = RetryBudget(ratio=0.0, max_tokens=2.0,
                             min_reserve=0.0)
        budget._tokens = 2.0
        assert budget.allow_retry()
        assert budget.allow_retry()
        assert not budget.allow_retry()
        assert budget.denied == 1
        assert budget.spent == 2

    def test_attempts_replenish_tokens(self):
        budget = RetryBudget(ratio=0.5, max_tokens=8.0,
                             min_reserve=0.0)
        budget._tokens = 0.0
        assert not budget.allow_retry()
        for _ in range(4):
            budget.record_attempt()
        # 4 attempts * 0.5 = 2 tokens.
        assert budget.allow_retry()
        assert budget.allow_retry()
        assert not budget.allow_retry()

    def test_min_reserve_seeds_a_cold_bucket(self):
        # A cold client has never deposited, yet its first failures
        # may still retry: the reserve seeds exactly three tokens.
        budget = RetryBudget(ratio=0.0, max_tokens=8.0,
                             min_reserve=3.0)
        assert [budget.allow_retry() for _ in range(4)] == \
            [True, True, True, False]

    def test_budget_is_thread_safe_under_contention(self):
        budget = RetryBudget(ratio=0.0, max_tokens=100.0,
                             min_reserve=0.0)
        budget._tokens = 100.0
        granted = []

        def spin():
            got = sum(1 for _ in range(50) if budget.allow_retry())
            granted.append(got)

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(granted) == 100  # never over-grants

    def test_concurrent_deposits_and_withdrawals_conserve_tokens(self):
        # Threads racing record_attempt against allow_retry: the
        # bucket must never go negative, never exceed capacity, and
        # the final level must account for every deposit and every
        # granted withdrawal exactly — no lost updates either way.
        workers, rounds, ratio = 8, 200, 0.25
        # Capacity chosen so the cap never binds: accounting is exact.
        budget = RetryBudget(ratio=ratio,
                             max_tokens=workers * rounds * ratio + 10,
                             min_reserve=4.0)
        start = threading.Barrier(workers)
        observed = []

        def churn():
            start.wait()
            for i in range(rounds):
                budget.record_attempt()
                if i % 2:
                    budget.allow_retry()
                observed.append(budget.tokens)

        threads = [threading.Thread(target=churn)
                   for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(0.0 <= level <= budget.max_tokens
                   for level in observed)
        retry_calls = workers * (rounds // 2)
        assert budget.spent + budget.denied == retry_calls
        expected = 4.0 + workers * rounds * ratio - budget.spent
        assert budget.tokens == pytest.approx(expected)
        assert budget.tokens >= 0.0


class TestCallWithRetry:
    def test_retries_until_success(self):
        calls = []

        def attempt():
            calls.append(1)
            if len(calls) < 3:
                raise Overloaded("busy")
            return "ok"

        slept = []
        result = call_with_retry(
            attempt, RetryPolicy(attempts=4, base_backoff_s=0.01),
            rng=random.Random(0), sleep=slept.append)
        assert result == "ok"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_non_retryable_raises_immediately(self):
        calls = []

        def attempt():
            calls.append(1)
            raise BadRequest("no")

        with pytest.raises(BadRequest):
            call_with_retry(attempt, RetryPolicy(attempts=5),
                            sleep=lambda _: None)
        assert len(calls) == 1

    def test_attempt_bound_is_respected(self):
        calls = []

        def attempt():
            calls.append(1)
            raise Unavailable("down")

        with pytest.raises(Unavailable):
            call_with_retry(attempt, RetryPolicy(attempts=3),
                            sleep=lambda _: None)
        assert len(calls) == 3

    def test_exhausted_budget_stops_retries(self):
        budget = RetryBudget(ratio=0.0, max_tokens=1.0,
                             min_reserve=0.0)
        budget._tokens = 1.0
        calls = []

        def attempt():
            calls.append(1)
            raise Overloaded("busy")

        with pytest.raises(Overloaded):
            call_with_retry(
                attempt,
                RetryPolicy(attempts=10, budget=budget),
                sleep=lambda _: None)
        assert len(calls) == 2  # first try + the single budgeted retry
        assert budget.denied >= 1


@contextlib.contextmanager
def stalled_server(router):
    """A server whose FFT16 batches hold until the block exits — far
    longer than any client timeout below."""
    with ServerHarness(router, warm=[FFT16]) as harness:
        service = router.try_service(FFT16)
        gate = _GatedTarget(service.dispatcher.target)
        service.dispatcher.target = gate
        try:
            yield harness
        finally:
            gate.release.set()


class TestClientTimeout:
    def test_slow_response_raises_typed_timeout(self):
        router = numpy_router(max_batch=64)
        with stalled_server(router) as harness:
            client = SplClient(harness.host, harness.port,
                               request_timeout=0.2)
            with client:
                start = time.monotonic()
                with pytest.raises(SplTimeout) as excinfo:
                    client.transform("fft", _complex_vec(16))
                elapsed = time.monotonic() - start
            assert excinfo.value.code == "timeout"
            assert elapsed < 2.0

    def test_per_call_timeout_overrides_default(self):
        router = numpy_router(max_batch=64)
        with stalled_server(router) as harness:
            client = SplClient(harness.host, harness.port,
                               request_timeout=60.0)
            with client:
                with pytest.raises(SplTimeout):
                    client.transform("fft", _complex_vec(16),
                                     timeout=0.2, retry=None)

    def test_timeout_poisons_the_connection_but_client_redials(self):
        router = numpy_router(max_batch=64)
        with stalled_server(router) as harness:
            client = SplClient(harness.host, harness.port,
                               request_timeout=0.2)
            with client:
                with pytest.raises(SplTimeout):
                    client.transform("fft", _complex_vec(16),
                                     retry=None)
                # The next op re-dials lazily and works: pings bypass
                # the dispatcher so they answer immediately.
                client.ping()

    def test_async_client_timeout_keeps_stream_usable(self):
        async def scenario(host, port):
            from repro.serve import AsyncSplClient

            client = await AsyncSplClient.connect(host, port)
            try:
                with pytest.raises(SplTimeout):
                    await client.transform("fft", _complex_vec(16),
                                           timeout=0.2)
                # Pipelined client: a timed-out id is just abandoned;
                # the stream itself is still healthy.
                await client.ping()
            finally:
                await client.close()

        router = numpy_router(max_batch=64)
        with stalled_server(router) as harness:
            asyncio.run(scenario(harness.host, harness.port))


class TestClientRetryIntegration:
    def test_sync_client_survives_server_restart(self):
        """Connection loss mid-session is retried transparently."""
        x = _complex_vec(16, seed=5)
        policy = RetryPolicy(attempts=8, base_backoff_s=0.05,
                             max_backoff_s=0.2)
        first = ServerHarness(numpy_router(), warm=[FFT16])
        first.__enter__()
        client = None
        try:
            client = SplClient(first.host, first.port, retry=policy)
            np.testing.assert_allclose(
                client.transform("fft", x), np.fft.fft(x), atol=1e-9)
        finally:
            first.__exit__(None, None, None)

        # A replacement server comes up; point the dead client at it.
        # What matters is the dropped-then-redialed retry path.
        with ServerHarness(numpy_router(), warm=[FFT16]) as second:
            client.host, client.port = second.host, second.port
            try:
                np.testing.assert_allclose(
                    client.transform("fft", x), np.fft.fft(x),
                    atol=1e-9)
            finally:
                client.close()

    def test_resilient_async_client_retries_unavailable(self):
        async def scenario(host, port):
            client = ResilientAsyncClient(
                host, port,
                policy=RetryPolicy(attempts=4, base_backoff_s=0.01))
            try:
                x = _complex_vec(16, seed=9)
                y = await client.transform("fft", x)
                np.testing.assert_allclose(y, np.fft.fft(x),
                                           atol=1e-9)
            finally:
                await client.close()

        with ServerHarness(numpy_router(), warm=[FFT16]) as harness:
            asyncio.run(scenario(harness.host, harness.port))

    def test_resilient_client_shares_one_redial_across_waiters(self):
        """Concurrent requests that lose the connection must not each
        open their own socket (the leak is a file-descriptor storm)."""

        async def scenario(host, port):
            client = ResilientAsyncClient(
                host, port,
                policy=RetryPolicy(attempts=4, base_backoff_s=0.01))
            try:
                xs = [_complex_vec(16, seed=s) for s in range(8)]
                results = await asyncio.gather(*[
                    client.transform("fft", x) for x in xs])
                for x, y in zip(xs, results):
                    np.testing.assert_allclose(y, np.fft.fft(x),
                                               atol=1e-9)
            finally:
                await client.close()
            return client.reconnects

        with ServerHarness(numpy_router(), warm=[FFT16]) as harness:
            reconnects = asyncio.run(
                scenario(harness.host, harness.port))
        assert reconnects == 1  # the initial dial, shared by all 8


class TestConstructorDial:
    """The constructor's dial runs under the client's retry policy."""

    @staticmethod
    def reset_first_dial(monkeypatch):
        """Make the first connection attempt fail the way a draining
        worker's listener fails it: reset by the peer.  Later dials
        reach the real server."""
        dials = []
        real_dial = socket.create_connection

        def dial(address, *args, **kwargs):
            dials.append(address)
            if len(dials) == 1:
                raise ConnectionResetError(104, "Connection reset by peer")
            return real_dial(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", dial)
        return dials

    def test_reset_first_dial_is_retried_under_a_policy(self, monkeypatch):
        x = _complex_vec(16, seed=3)
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness:
            dials = self.reset_first_dial(monkeypatch)
            policy = RetryPolicy(attempts=3, base_backoff_s=0.0)
            with SplClient(harness.host, harness.port,
                           retry=policy) as client:
                np.testing.assert_allclose(
                    client.transform("fft", x), np.fft.fft(x), atol=1e-9)
        assert len(dials) == 2

    def test_without_a_policy_the_reset_surfaces(self, monkeypatch):
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness:
            dials = self.reset_first_dial(monkeypatch)
            with pytest.raises(ConnectionResetError):
                SplClient(harness.host, harness.port)
        assert len(dials) == 1
