"""Dynamic request batching: coalesce concurrent ``apply`` calls.

An inference-server-style batcher for transform execution.  Callers on
many threads each submit one vector; the dispatcher gathers concurrent
requests and executes them as a single ``apply_many`` batch, which is
the amortized fast path every backend provides (one ctypes crossing,
one NumPy call, OpenMP over the batch axis).  Each caller gets back
exactly the row it would have gotten from a serial ``apply``: batch
rows are computed independently with identical per-row arithmetic, so
results are bit-identical.

Batching is work-conserving — there is no timer:

* whenever the worker is free it takes everything pending, oldest
  first, up to ``max_batch`` requests;
* requests that arrive while a batch runs queue up and form the next
  batch, so batch size follows load: a lone request on an idle
  dispatcher runs at once as a batch of one, and a saturated one runs
  full batches back to back;
* ``close()`` flushes whatever is pending (``close(drain=False)``
  cancels it with :class:`DispatcherClosed` instead).

Fault isolation: a batch whose ``apply_many`` raises is split and
retried request-by-request, so one poisoned vector fails *its own*
caller while every other future in the coalesced batch resolves
normally.  Poisoning is also prevented at the door: when the target
exposes a ``dtype``, every submitted vector is checked against it —
safe upcasts (float into a complex transform) are coerced per request,
unsafe ones (complex into a real transform, which ``np.stack`` would
otherwise silently propagate to every coalesced row) are rejected at
``submit`` with a :class:`ValueError` before they can touch a batch.
The worker loop itself is crash-proofed — however it exits, every
pending request is resolved (with :class:`DispatcherClosed` if
nothing better), so callers blocked in ``apply`` can never hang on a
dead worker.

Counters (:class:`DispatchStats`) record how much coalescing actually
happened; ``stats.batches < stats.requests`` is the observable proof
that concurrent requests shared ``apply_many`` calls.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


class DispatcherClosed(RuntimeError):
    """The dispatcher is closed (or its worker died): request not run."""


@dataclass
class DispatchStats:
    """Counters accumulated over a dispatcher's lifetime.

    Semantics (pinned by tests/runtime/test_dispatcher_regressions.py):

    * ``batches`` counts *flushes* — coalesced batches taken off the
      queue and attempted, whatever their outcome.  It always equals
      ``size_flushes + deadline_flushes + close_flushes``.
    * ``size_flushes`` counts batches taken full (``max_batch``
      requests); ``deadline_flushes`` counts batches taken short of
      ``max_batch`` because the worker was free — in effect a deadline
      of zero, since batching is work-conserving and has no timer.
    * ``coalesced_requests`` counts requests actually *served* by a
      shared ``apply_many`` call of two or more — a batch that failed
      and was split request-by-request contributes nothing here.
    * ``isolation_splits`` counts failed multi-request batches that
      were split; ``retried_requests`` counts the singleton retry
      calls those splits issued, so the total number of ``apply_many``
      calls reaching the target is ``batches + retried_requests``.
    """

    requests: int = 0  # vectors submitted
    batches: int = 0  # coalesced flushes attempted (= sum of *_flushes)
    coalesced_requests: int = 0  # requests served in a shared batch >= 2
    max_batch: int = 0  # largest batch taken off the queue
    size_flushes: int = 0  # batches flushed because max_batch was hit
    deadline_flushes: int = 0  # non-full batches taken by a free worker
    close_flushes: int = 0  # batches flushed during close()
    isolation_splits: int = 0  # failed batches retried request-by-request
    retried_requests: int = 0  # singleton retries issued by those splits
    failed_requests: int = 0  # requests resolved with an error
    cancelled_requests: int = 0  # requests resolved with DispatcherClosed


class _Request:
    """One submitted vector and its (eventual) resolution.

    ``on_done`` (optional) is invoked exactly once, after ``done`` is
    set, from whichever thread resolved the request — the hook the
    asyncio front-end uses to bridge back onto its event loop without
    burning a thread per in-flight request.
    """

    __slots__ = ("x", "result", "error", "done", "on_done")

    def __init__(self, x: np.ndarray,
                 on_done: Callable[["_Request"], None] | None = None):
        self.x = x
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self.done = threading.Event()
        self.on_done = on_done

    def resolve(self, result: np.ndarray) -> None:
        self.result = result
        self._finish()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self._finish()

    def _finish(self) -> None:
        self.done.set()
        callback = self.on_done
        if callback is not None:
            try:
                callback(self)
            except Exception:  # noqa: BLE001 - a bad hook must not
                pass  # take the worker (or close()) down with it


class BatchDispatcher:
    """Coalesce concurrent single-vector requests into batched execution.

    ``target`` is anything with an ``apply_many(X)`` method over a
    ``(B, n)`` batch and an ``n`` attribute — an
    :class:`~repro.perfeval.runner.ExecutableRoutine` or an
    :class:`~repro.fftw.executor.FftwTransform`.  ``threads`` is
    forwarded to ``apply_many`` when given, composing dynamic batching
    with sharded/OpenMP execution.  ``dtype`` (default: the target's
    ``dtype`` attribute, when it has one) arms per-request dtype
    validation: safe upcasts are coerced, unsafe ones rejected at
    submission so they cannot poison a coalesced batch.

    Usable as a context manager; ``close()`` drains pending requests
    before the worker exits, and no request can outlive the worker
    unresolved — shutdown and worker death both resolve stragglers
    with :class:`DispatcherClosed` rather than leaving them blocked.
    """

    def __init__(self, target, *, max_batch: int = 64,
                 threads: int | None = None,
                 dtype: np.dtype | str | None = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.target = target
        self.max_batch = int(max_batch)
        self.threads = threads
        if dtype is None:
            dtype = getattr(target, "dtype", None)
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._pending: list[_Request] = []
        self._unresolved = 0  # submitted, not yet resolved
        self._closed = False
        self._stats = DispatchStats()
        self._worker = threading.Thread(
            target=self._run, name="spl-dispatch", daemon=True
        )
        self._worker.start()

    # -- client side ---------------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Submit one vector and block until its transform is ready.

        Bit-identical to ``target.apply(x)``; raises whatever the
        underlying execution raised for *this* vector (other requests
        coalesced into the same batch are unaffected), or
        :class:`DispatcherClosed` if the dispatcher shut down before
        the request ran.
        """
        request = self.submit(x)
        request.done.wait()
        if request.error is not None:
            raise request.error
        return request.result

    def submit(self, x: np.ndarray,
               on_done: Callable[[_Request], None] | None = None
               ) -> _Request:
        """Enqueue one vector without blocking; returns its handle.

        The handle exposes ``done`` (a :class:`threading.Event`),
        ``result`` and ``error``; exactly one of the latter two is set
        by the time ``done`` fires.  ``on_done`` is called once, after
        resolution, from an internal thread — it must be cheap and
        must not raise (the asyncio server passes
        ``loop.call_soon_threadsafe`` bridges here).

        Shape and dtype are validated *here*, before the request can
        join a batch: a wrong-shape or unsafely-typed vector raises
        :class:`ValueError` to its own caller and never poisons the
        coalesced batch it would have ridden in.
        """
        x = self._validate(x)
        request = _Request(x, on_done)
        with self._lock:
            if self._closed:
                raise DispatcherClosed("BatchDispatcher is closed")
            self._pending.append(request)
            self._unresolved += 1
            self._stats.requests += 1
            self._wakeup.notify_all()
        return request

    def _validate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        n = getattr(self.target, "n", None)
        if n is not None and x.shape != (n,):
            raise ValueError(f"expected a ({n},) vector, got shape {x.shape}")
        if self.dtype is not None and x.dtype != self.dtype:
            # np.stack would silently upcast the whole coalesced batch
            # to the widest submitted dtype (complex into a float64
            # transform corrupts *every* row via discarded imaginary
            # parts) — so coerce or reject per request, at the door.
            if not np.can_cast(x.dtype, self.dtype, casting="safe"):
                raise ValueError(
                    f"cannot safely cast a {x.dtype} vector to the "
                    f"target dtype {self.dtype}"
                )
            x = x.astype(self.dtype)
        return x

    @property
    def stats(self) -> DispatchStats:
        """A point-in-time copy of the coalescing counters."""
        with self._lock:
            return replace(self._stats)

    # -- drain hooks ---------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Requests queued but not yet taken into a batch."""
        with self._lock:
            return len(self._pending)

    @property
    def unresolved_count(self) -> int:
        """Requests submitted whose futures have not resolved yet —
        queued *or* mid-execution.  Zero means the dispatcher is
        quiescent: a drain sequencer that has stopped submissions can
        poll this (or block in :meth:`wait_idle`) to know when every
        admitted request has been answered."""
        with self._lock:
            return self._unresolved

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every submitted request has resolved.

        The drain hook: callers that have stopped submitting (a
        draining server, a test tearing down) wait here instead of
        spinning on futures.  Returns False if ``timeout`` (seconds)
        elapsed first.  Unlike ``close()`` this leaves the dispatcher
        open — new work may still be submitted afterwards.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._lock:
            while self._unresolved > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
            return True

    def _mark_resolved(self, count: int = 1) -> None:
        with self._lock:
            self._mark_resolved_locked(count)

    def _mark_resolved_locked(self, count: int = 1) -> None:
        self._unresolved -= count
        if self._unresolved <= 0:
            self._idle.notify_all()

    def close(self, drain: bool = True) -> None:
        """Stop the worker (idempotent); never leaves a caller hanging.

        ``drain=True`` (default) executes pending requests as final
        batches before the worker exits; ``drain=False`` cancels them
        — each blocked caller gets :class:`DispatcherClosed`
        immediately.  Either way, after ``close()`` returns every
        submitted request has been resolved.

        Safe to call from *any* thread, including the worker itself
        (e.g. a fault-handling callback inside the target's
        ``apply_many``): a re-entrant close skips the self-join —
        which would deadlock — and lets the worker loop observe
        ``_closed`` and wind itself down.
        """
        with self._lock:
            self._closed = True
            if not drain:
                self._cancel_locked(self._pending)
                self._pending.clear()
            self._wakeup.notify_all()
        if threading.current_thread() is not self._worker:
            self._worker.join()

    def _cancel_locked(self, requests: list[_Request]) -> None:
        """Resolve ``requests`` with DispatcherClosed (lock held)."""
        for request in requests:
            if not request.done.is_set():
                self._stats.cancelled_requests += 1
                self._mark_resolved_locked()
                request.fail(DispatcherClosed(
                    "BatchDispatcher closed before this request ran"
                ))

    def __enter__(self) -> "BatchDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker side ---------------------------------------------------------

    def _take_batch(self) -> tuple[list[_Request], str] | None:
        """Block until work is pending; None when closed and drained.

        Work-conserving: the free worker takes every pending request,
        oldest first, up to ``max_batch``, without waiting for more.
        """
        with self._lock:
            while not self._pending:
                if self._closed:
                    return None
                self._wakeup.wait()
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            if self._closed:
                return batch, "close"
            if len(batch) == self.max_batch:
                return batch, "size"
            return batch, "deadline"

    def _apply_one(self, request: _Request) -> None:
        """Run one request alone; resolve it with its own outcome."""
        with self._lock:
            self._stats.retried_requests += 1
        try:
            Y = (
                self.target.apply_many(request.x[np.newaxis, :])
                if self.threads is None
                else self.target.apply_many(request.x[np.newaxis, :],
                                            threads=self.threads)
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded
            with self._lock:
                self._stats.failed_requests += 1
            self._mark_resolved()
            request.fail(exc)
            return
        self._mark_resolved()
        request.resolve(Y[0].copy())

    def _execute(self, batch: list[_Request], reason: str) -> None:
        """Run one coalesced batch, isolating per-request failures."""
        with self._lock:
            # Flush accounting happens per *attempt* so the flush-
            # reason counters always sum to ``batches``; whether the
            # requests were actually served coalesced is recorded
            # separately below, on the success path only.
            self._stats.batches += 1
            self._stats.max_batch = max(self._stats.max_batch, len(batch))
            field = f"{reason}_flushes"
            setattr(self._stats, field, getattr(self._stats, field) + 1)
        try:
            X = np.stack([request.x for request in batch])
            if self.threads is None:
                Y = self.target.apply_many(X)
            else:
                Y = self.target.apply_many(X, threads=self.threads)
        except BaseException as exc:  # noqa: BLE001 - isolated below
            if len(batch) == 1:
                with self._lock:
                    self._stats.failed_requests += 1
                self._mark_resolved()
                batch[0].fail(exc)
            else:
                # One poisoned vector must not fail the whole batch:
                # split and retry request-by-request so only the
                # culprit's future carries an error.
                with self._lock:
                    self._stats.isolation_splits += 1
                for request in batch:
                    self._apply_one(request)
            return
        with self._lock:
            if len(batch) >= 2:
                self._stats.coalesced_requests += len(batch)
            self._mark_resolved_locked(len(batch))
        for i, request in enumerate(batch):
            request.resolve(Y[i].copy())

    def _run(self) -> None:
        try:
            while True:
                taken = self._take_batch()
                if taken is None:
                    return
                batch, reason = taken
                self._execute(batch, reason)
        finally:
            # However this thread exits — clean shutdown or an
            # unexpected error in the loop itself — no submitted
            # request may be left unresolved, and no new request may
            # queue behind a dead worker.
            with self._lock:
                self._closed = True
                leftovers = list(self._pending)
                self._pending.clear()
                self._cancel_locked(leftovers)
