"""Tests for the dynamic request batcher (BatchDispatcher)."""

import threading
import time

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval.runner import build_executable
from repro.runtime import BatchDispatcher


def _executable(n=8, prefer="numpy"):
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    routine = compiler.compile_formula(f"(F {n})", f"disp{n}{prefer[0]}",
                                       language=prefer)
    return build_executable(routine, prefer=prefer)


def _vectors(n, count, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((count, n))
            + 1j * rng.standard_normal((count, n)))


class _GateTarget:
    """Wraps a target; holds every batch until released.

    ``entered`` fires when the worker first enters ``apply_many``, and
    ``calls`` records each batch size.  Submitting one request and
    waiting on ``entered`` parks the worker inside a batch, so the
    requests submitted next all queue up for the following batch.
    """

    def __init__(self, inner):
        self._inner = inner
        self.n = inner.n
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = []

    def apply_many(self, X, threads=None):
        self.calls.append(X.shape[0])
        self.entered.set()
        assert self.release.wait(60), "gate never released"
        return self._inner.apply_many(X)


def _park_worker(d, gate, x):
    """Submit ``x`` and return once the worker is blocked running it."""
    request = d.submit(x)
    assert gate.entered.wait(10)
    return request


class TestCoalescing:
    def test_concurrent_requests_share_one_batch(self):
        executable = _executable()
        gate = _GateTarget(executable)
        X = _vectors(8, 7)
        with BatchDispatcher(gate, max_batch=6) as d:
            requests = [_park_worker(d, gate, X[0])]
            # Six requests arrive while the first batch runs.
            requests += [d.submit(x) for x in X[1:]]
            gate.release.set()
            assert d.wait_idle(timeout=30.0)
            stats = d.stats
        assert gate.calls == [1, 6]
        assert stats.requests == 7
        assert stats.batches == 2
        assert stats.max_batch == 6
        assert stats.coalesced_requests == 6
        for x, request in zip(X, requests):
            np.testing.assert_array_equal(request.result,
                                          executable.apply(x))

    def test_bit_identical_to_serial_apply(self):
        for prefer in ("python", "numpy"):
            executable = _executable(prefer=prefer)
            X = _vectors(8, 16, seed=3)
            with BatchDispatcher(executable, max_batch=4) as d:
                outs = [None] * 16

                def client(i):
                    outs[i] = d.apply(X[i])

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(16)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            for i in range(16):
                np.testing.assert_array_equal(
                    outs[i], executable.apply(X[i]))

    def test_size_flush_at_max_batch(self):
        executable = _executable()
        gate = _GateTarget(executable)
        X = _vectors(8, 5)
        with BatchDispatcher(gate, max_batch=2) as d:
            requests = [_park_worker(d, gate, X[0])]
            requests += [d.submit(x) for x in X[1:]]
            gate.release.set()
            assert d.wait_idle(timeout=30.0)
            stats = d.stats
        # The lone first request ran short of max_batch; the four
        # queued behind it drained as two full batches.
        assert gate.calls == [1, 2, 2]
        assert stats.size_flushes == 2
        assert stats.deadline_flushes == 1
        for x, request in zip(X, requests):
            np.testing.assert_array_equal(request.result,
                                          executable.apply(x))


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_new_requests(self):
        executable = _executable()
        d = BatchDispatcher(executable)
        d.close()
        d.close()
        with pytest.raises(RuntimeError):
            d.apply(_vectors(8, 1)[0])

    def test_wrong_shape_rejected_without_enqueue(self):
        executable = _executable()
        with BatchDispatcher(executable) as d:
            with pytest.raises(ValueError):
                d.apply(np.zeros(5))
            assert d.stats.requests == 0

    def test_execution_error_propagates_to_caller(self):
        class Exploding:
            n = 8

            def apply_many(self, X):
                raise RuntimeError("backend exploded")

        with BatchDispatcher(Exploding()) as d:
            with pytest.raises(RuntimeError, match="backend exploded"):
                d.apply(np.zeros(8))
        # The worker survives an erroring batch until close().

    def test_invalid_parameters_rejected(self):
        executable = _executable()
        with pytest.raises(ValueError):
            BatchDispatcher(executable, max_batch=0)

    def test_threads_forwarded_to_apply_many(self):
        executable = _executable()
        seen = []

        class Recording:
            n = executable.n

            def apply_many(self, X, threads=None):
                seen.append(threads)
                return executable.apply_many(X)

        with BatchDispatcher(Recording(), threads=2) as d:
            d.apply(_vectors(8, 1)[0])
        assert seen == [2]


class TestShutdownSemantics:
    def test_submit_after_close_raises_dispatcher_closed(self):
        from repro.runtime import DispatcherClosed

        executable = _executable()
        d = BatchDispatcher(executable)
        d.close()
        with pytest.raises(DispatcherClosed):
            d.apply(_vectors(8, 1)[0])

    def test_close_drains_pending_requests(self):
        executable = _executable()
        gate = _GateTarget(executable)
        X = _vectors(8, 4)
        d = BatchDispatcher(gate, max_batch=64)
        requests = [_park_worker(d, gate, X[0])]
        requests += [d.submit(x) for x in X[1:]]  # pending behind it
        # drain=True: the pending requests execute as a final batch.
        closer = threading.Thread(target=d.close)
        closer.start()
        while not d._closed:
            time.sleep(0.001)
        gate.release.set()
        closer.join(30)
        assert not closer.is_alive()
        assert gate.calls == [1, 3]
        assert d.stats.close_flushes == 1
        for x, request in zip(X, requests):
            np.testing.assert_array_equal(request.result,
                                          executable.apply(x))

    def test_close_without_drain_cancels_with_dispatcher_closed(self):
        from repro.runtime import DispatcherClosed

        executable = _executable()

        class Gated:
            """Blocks the worker inside the first batch until released."""

            n = executable.n

            def __init__(self):
                self.started = threading.Event()
                self.release = threading.Event()

            def apply_many(self, X):
                self.started.set()
                assert self.release.wait(30)
                return executable.apply_many(X)

        target = Gated()
        d = BatchDispatcher(target, max_batch=1)
        X = _vectors(8, 3)
        outcomes = [None] * 3

        def client(i):
            try:
                outcomes[i] = ("ok", d.apply(X[i]))
            except DispatcherClosed as exc:
                outcomes[i] = ("closed", exc)

        first = threading.Thread(target=client, args=(0,))
        first.start()
        assert target.started.wait(10)  # worker now stuck in batch 0
        rest = [threading.Thread(target=client, args=(i,))
                for i in (1, 2)]
        for t in rest:
            t.start()
        while d.stats.requests < 3:
            time.sleep(0.001)
        closer = threading.Thread(target=d.close, args=(False,))
        closer.start()
        # The pending (never-executed) requests resolve immediately
        # with DispatcherClosed even while the worker is still blocked.
        for t in rest:
            t.join(10)
            assert not t.is_alive()
        assert outcomes[1][0] == "closed"
        assert outcomes[2][0] == "closed"
        target.release.set()  # let the in-flight batch finish
        first.join(10)
        closer.join(10)
        assert not first.is_alive() and not closer.is_alive()
        assert outcomes[0][0] == "ok"
        np.testing.assert_array_equal(outcomes[0][1], executable.apply(X[0]))
        assert d.stats.cancelled_requests == 2

    def test_no_request_outlives_a_dead_worker(self):
        from repro.runtime import DispatcherClosed
        from repro.runtime.dispatcher import _Request

        gate = _GateTarget(_executable())
        d = BatchDispatcher(gate, max_batch=64)
        running = _park_worker(d, gate, np.zeros(8, dtype=complex))
        # Simulate requests stranded when the worker exits: inject them
        # behind the busy worker's back, then close with drain=False.
        stranded = _Request(np.zeros(8, dtype=complex))
        with d._lock:
            d._pending.append(stranded)
        closer = threading.Thread(target=d.close, args=(False,))
        closer.start()
        assert stranded.done.wait(10)
        assert isinstance(stranded.error, DispatcherClosed)
        gate.release.set()
        closer.join(30)
        assert not closer.is_alive()
        assert running.error is None


class TestFaultIsolation:
    class Poisonable:
        """Raises on any vector whose first element is NaN."""

        def __init__(self, executable):
            self._inner = executable
            self.n = executable.n

        def apply_many(self, X):
            if np.isnan(X[:, 0].real).any():
                raise ValueError("poisoned vector")
            return self._inner.apply_many(X)

    def test_poisoned_request_fails_alone(self):
        executable = _executable()
        gate = _GateTarget(self.Poisonable(executable))
        X = _vectors(8, 4)
        poison = X[2].copy()
        poison[0] = np.nan
        vectors = [X[0], X[1], poison, X[3]]
        with BatchDispatcher(gate, max_batch=4) as d:
            warm = _park_worker(d, gate, X[0])
            requests = [d.submit(x) for x in vectors]  # one batch of 4
            gate.release.set()
            assert d.wait_idle(timeout=30.0)
            stats = d.stats
        assert warm.error is None
        # Exactly the poisoned caller saw the error...
        assert isinstance(requests[2].error, ValueError)
        assert "poisoned" in str(requests[2].error)
        # ... everyone else got their correct row.
        for i in (0, 1, 3):
            assert requests[i].error is None
            np.testing.assert_array_equal(requests[i].result,
                                          executable.apply(vectors[i]))
        # The coalesced batch failed, was split and retried per request.
        assert gate.calls == [1, 4, 1, 1, 1, 1]
        assert stats.failed_requests == 1
        assert stats.isolation_splits == 1

    def test_single_request_error_not_counted_as_split(self):
        executable = _executable()
        target = self.Poisonable(executable)
        poison = np.zeros(8, dtype=complex)
        poison[0] = np.nan
        with BatchDispatcher(target, max_batch=1) as d:
            with pytest.raises(ValueError, match="poisoned"):
                d.apply(poison)
            good = _vectors(8, 1)[0]
            np.testing.assert_array_equal(d.apply(good),
                                          executable.apply(good))
            stats = d.stats
        assert stats.isolation_splits == 0
        assert stats.failed_requests == 1


class TestDrainHooks:
    """wait_idle / unresolved_count — the server drain's foundation."""

    def test_idle_dispatcher_is_immediately_idle(self):
        with BatchDispatcher(_executable(), max_batch=4) as d:
            assert d.unresolved_count == 0
            assert d.wait_idle(timeout=0.1) is True

    def test_wait_idle_blocks_until_inflight_resolves(self):
        executable = _executable()
        gate = _GateTarget(executable)
        X = _vectors(8, 3, seed=5)
        with BatchDispatcher(gate, max_batch=4) as d:
            requests = [d.submit(x) for x in X]
            assert d.unresolved_count == 3
            assert d.wait_idle(timeout=0.15) is False  # gate held
            gate.release.set()
            assert d.wait_idle(timeout=30.0) is True
            assert d.unresolved_count == 0
            for x, request in zip(X, requests):
                assert request.error is None
                np.testing.assert_array_equal(request.result,
                                              executable.apply(x))

    def test_failed_requests_also_resolve_idleness(self):
        class Exploding:
            def __init__(self, executable):
                self.n = executable.n

            def apply_many(self, X, threads=None):
                raise RuntimeError("boom")

        with BatchDispatcher(Exploding(_executable()), max_batch=4) as d:
            request = d.submit(_vectors(8, 1, seed=6)[0])
            assert d.wait_idle(timeout=30.0) is True
            assert isinstance(request.error, RuntimeError)

    def test_cancelled_requests_resolve_idleness(self):
        gate = _GateTarget(_executable())
        with BatchDispatcher(gate, max_batch=1) as d:
            d.submit(_vectors(8, 1, seed=7)[0])
            gate.release.set()
            d.close(drain=False)
            assert d.wait_idle(timeout=30.0) is True
