"""Regression tests for the BatchDispatcher bug fixes.

Each test here pins one of the fixed behaviors:

* batching is work-conserving: a free worker takes everything
  pending at once, so a lone request runs alone and requests queued
  behind a running batch form exactly the next batch;
* ``close()`` reached from the worker thread itself (a fault-handling
  callback inside the target) must not self-join and deadlock;
* dtype is validated per request at submission, so one wrong-dtype
  vector cannot poison the dtype of a whole coalesced batch;
* DispatchStats semantics: ``batches`` counts flush attempts (summing
  the flush-reason counters), ``coalesced_requests`` counts requests
  actually served by a shared call, and split retries are counted in
  ``retried_requests``.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval.runner import build_executable
from repro.runtime import BatchDispatcher, DispatcherClosed


def _executable(n=8, prefer="numpy", datatype=None):
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    name = f"dreg{n}{prefer[0]}{(datatype or 'c')[0]}"
    routine = compiler.compile_formula(
        f"(F {n})", name, language=prefer, datatype=datatype
    )
    return build_executable(routine, prefer=prefer)


def _identity_real(n=8):
    """A real-datatype (float64 IO) executable: the identity."""
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    routine = compiler.compile_formula(f"(I {n})", f"dregid{n}",
                                       language="numpy", datatype="real")
    return build_executable(routine, prefer="numpy")


def _vec(n, i=0, seed=0):
    rng = np.random.default_rng(seed + i)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class _Gated:
    """Passes through to an executable; the first call blocks until
    released, and every call records (time, first-element ids)."""

    def __init__(self, executable):
        self._inner = executable
        self.n = executable.n
        self.dtype = executable.dtype
        self.first_entered = threading.Event()
        self.release_first = threading.Event()
        self.calls = []  # (monotonic time, [request ids])

    def apply_many(self, X):
        first = not self.calls
        self.calls.append(
            (time.monotonic(), [int(round(v.real)) for v in X[:, 0]])
        )
        if first:
            self.first_entered.set()
            assert self.release_first.wait(30)
        return self._inner.apply_many(X)


def _id_vector(n, i):
    """A vector tagged with ``i`` in its first element."""
    x = np.zeros(n, dtype=complex)
    x[0] = i
    return x


class TestWorkConserving:
    def test_free_worker_takes_everything_pending_at_once(self):
        """No request waits while the worker is idle: a lone request
        runs at once as a batch of one, and every request submitted
        while a batch runs lands in the single next batch."""
        executable = _executable()
        target = _Gated(executable)
        n = executable.n
        with BatchDispatcher(target, max_batch=64) as d:
            running = d.submit(_id_vector(n, 0))
            assert target.first_entered.wait(10)
            queued = [d.submit(_id_vector(n, i)) for i in (1, 2, 3)]
            target.release_first.set()
            assert d.wait_idle(timeout=30.0)
            lone = d.submit(_id_vector(n, 4))
            assert d.wait_idle(timeout=30.0)
            stats = d.stats
        assert [ids for _, ids in target.calls] == [[0], [1, 2, 3], [4]]
        assert stats.batches == 3
        assert stats.deadline_flushes == 3  # none full, none at close
        for i, request in enumerate([running, *queued, lone]):
            np.testing.assert_array_equal(
                request.result, executable.apply(_id_vector(n, i)))


class TestReentrantClose:
    def test_close_from_worker_thread_does_not_deadlock(self):
        """A fault-handling callback inside the target may close the
        dispatcher; the old unconditional join made the worker join
        itself and deadlock."""
        executable = _executable()

        class SelfCloser:
            n = executable.n
            dtype = executable.dtype
            dispatcher = None

            def apply_many(self, X):
                # e.g. "fatal backend fault -> stop accepting work"
                self.dispatcher.close(drain=False)
                return executable.apply_many(X)

        target = SelfCloser()
        d = BatchDispatcher(target)
        target.dispatcher = d
        x = _vec(executable.n)
        box = {}

        def caller():
            box["y"] = d.apply(x)

        t = threading.Thread(target=caller)
        t.start()
        t.join(10)
        assert not t.is_alive(), "re-entrant close() deadlocked"
        np.testing.assert_array_equal(box["y"], executable.apply(x))
        # The dispatcher really closed: new requests are refused and an
        # outside close() still returns (and joins the dead worker).
        with pytest.raises(DispatcherClosed):
            d.apply(x)
        d.close()
        assert not d._worker.is_alive()


class TestDtypeValidation:
    def test_unsafe_dtype_rejected_at_submit(self):
        """Complex into a float64 transform: np.stack would silently
        upcast the whole coalesced batch (discarding imaginary parts
        on assignment) — it must be rejected at the door instead."""
        executable = _identity_real()
        assert executable.dtype == np.dtype(np.float64)
        with BatchDispatcher(executable) as d:
            with pytest.raises(ValueError, match="cannot safely cast"):
                d.apply(np.zeros(8, dtype=np.complex128))
            assert d.stats.requests == 0  # rejected before enqueue

    def test_safe_upcast_is_coerced_per_request(self):
        """float64 into a complex transform is a safe upcast: coerced
        at submit, and bit-identical to applying the upcast vector."""
        executable = _executable()
        assert executable.dtype == np.dtype(np.complex128)
        x = np.arange(8, dtype=np.float64)
        with BatchDispatcher(executable) as d:
            y = d.apply(x)
        np.testing.assert_array_equal(
            y, executable.apply(x.astype(np.complex128)))

    def test_mixed_dtype_batch_stays_uniform(self):
        """A float64 request coalesced with complex ones is upcast at
        submission, so the stacked batch dtype is uniform and every
        caller gets the exact serial answer."""
        executable = _executable()
        target = _Gated(executable)
        n = executable.n
        vectors = [_vec(n, 0), np.arange(n, dtype=np.float64), _vec(n, 2)]
        with BatchDispatcher(target, max_batch=3) as d:
            d.submit(_vec(n, 9))
            assert target.first_entered.wait(10)  # worker busy
            requests = [d.submit(x) for x in vectors]
            target.release_first.set()
            assert d.wait_idle(timeout=30.0)
        assert [len(ids) for _, ids in target.calls] == [1, 3]
        for x, request in zip(vectors, requests):
            np.testing.assert_array_equal(
                request.result,
                executable.apply(np.asarray(x, dtype=np.complex128)))

    def test_explicit_dtype_parameter_overrides_target(self):
        class Bare:
            n = 4

            def apply_many(self, X):
                return X.copy()

        with BatchDispatcher(Bare(), dtype=np.float64) as d:
            with pytest.raises(ValueError):
                d.apply(np.zeros(4, dtype=np.complex128))
            np.testing.assert_array_equal(
                d.apply(np.ones(4)), np.ones(4))


class _Poisonable:
    """Raises on any batch containing a NaN-tagged vector."""

    def __init__(self, executable):
        self._inner = executable
        self.n = executable.n
        self.dtype = executable.dtype

    def apply_many(self, X):
        if np.isnan(X.real).any():
            raise ValueError("poisoned vector")
        return self._inner.apply_many(X)


class TestStatsSemantics:
    def _run_controlled_batch(self, poison_index=None):
        """Warm-up request (gated), then exactly 4 requests coalesced
        into one size-flush of 4; returns (stats, outcomes)."""
        executable = _executable()
        target = _Gated(_Poisonable(executable))
        n = executable.n
        vectors = [_id_vector(n, i + 1) for i in range(4)]
        if poison_index is not None:
            vectors[poison_index][1] = np.nan
        outcomes = [None] * 5
        d = BatchDispatcher(target, max_batch=4)
        try:

            def client(i, x):
                try:
                    outcomes[i] = ("ok", d.apply(x))
                except ValueError as exc:
                    outcomes[i] = ("error", exc)

            warm = threading.Thread(
                target=client, args=(0, _id_vector(n, 0)))
            warm.start()
            assert target.first_entered.wait(10)  # worker gated
            threads = [threading.Thread(target=client,
                                        args=(i + 1, vectors[i]))
                       for i in range(4)]
            for t in threads:
                t.start()
            while d.stats.requests < 5:
                time.sleep(0.001)
            target.release_first.set()
            for t in [warm] + threads:
                t.join(30)
                assert not t.is_alive()
            stats = d.stats
        finally:
            d.close()
        return stats, outcomes

    def test_flush_counters_sum_to_batches_on_success(self):
        stats, outcomes = self._run_controlled_batch()
        assert stats.requests == 5
        # Warm-up flush + the coalesced flush of 4: two attempts.
        assert stats.batches == 2
        assert stats.batches == (stats.size_flushes
                                 + stats.deadline_flushes
                                 + stats.close_flushes)
        assert stats.coalesced_requests == 4
        assert stats.isolation_splits == 0
        assert stats.retried_requests == 0
        assert stats.failed_requests == 0
        assert all(kind == "ok" for kind, _ in outcomes)

    def test_failed_batch_not_counted_as_coalesced(self):
        """The old code credited a failed-and-split batch with
        ``coalesced_requests`` even though nobody was served by the
        shared call, and never counted the per-request retries."""
        stats, outcomes = self._run_controlled_batch(poison_index=2)
        assert stats.requests == 5
        assert stats.batches == 2  # attempts, success or not
        assert stats.batches == (stats.size_flushes
                                 + stats.deadline_flushes
                                 + stats.close_flushes)
        # The poisoned batch was split: nobody was served coalesced,
        # four singleton retries were issued, exactly one failed.
        assert stats.coalesced_requests == 0
        assert stats.isolation_splits == 1
        assert stats.retried_requests == 4
        assert stats.failed_requests == 1
        kinds = [kind for kind, _ in outcomes]
        assert kinds.count("error") == 1
        assert kinds[3] == "error"  # vectors[2] -> outcome index 3
