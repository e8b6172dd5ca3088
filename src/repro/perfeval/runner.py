"""Build executable FFTs from compiled routines, preferring native code.

The paper times Fortran compiled by the platform's best compiler; here
the timed path is the C backend compiled by the host compiler (loaded
through ctypes with preallocated buffers so the measurement loop has no
Python allocation overhead).  Next in preference is the NumPy batch
backend (:mod:`repro.core.backend_numpy`), which vectorizes over a
batch axis and lowers affine loops to strided slices; the pure-Python
backend is the final fallback and the correctness reference in tests.

Batching: :meth:`ExecutableRoutine.apply` transforms one vector per
call and pays the full per-call crossing; :meth:`ExecutableRoutine.
apply_many` amortizes it over a ``(B, n)`` batch — through a generated
``spl_batch_<name>`` C driver (one ctypes crossing per batch), one
NumPy batch call, or a buffer-reusing Python loop.

Parallelism: ``apply_many(X, threads=N)`` splits the batch axis across
N workers.  The C backend prefers the generated OpenMP driver
(``spl_batch_omp_<name>``, one ctypes crossing, ``#pragma omp parallel
for`` over the rows); when OpenMP is unavailable — or for the NumPy
and Python backends — the batch is sharded into contiguous row chunks
on the shared thread pool (:mod:`repro.runtime.pool`; ctypes releases
the GIL, so the C path scales there too).  Tiny batches skip parallel
dispatch entirely (see ``_effective_threads``).  Row order and per-row
arithmetic are identical for every thread count, so results are
bit-identical to ``threads=1``.

Thread-safety: scratch buffers are per-thread (``threading.local``),
so one :class:`ExecutableRoutine` may be shared freely — concurrent
``apply`` and ``apply_many`` calls from many threads are safe.  Each
calling thread keeps its own single-vector and batch workspaces;
shard workers write disjoint row ranges of the caller's workspace and
allocate nothing.

Fault tolerance: each backend has a one-strike circuit breaker.  If a
backend call raises at runtime (a ``.so`` that no longer loads, a
ctypes marshalling fault, a poisoned native driver), the failure is
recorded, the breaker trips permanently for this executable, and the
call is transparently retried on the next backend down the
``c > numpy > python`` chain — callers see a slower answer, not an
exception.  Only when the last backend fails does the error surface.
Trips are visible in :meth:`ExecutableRoutine.stats`.

Degradation is race-free under concurrent callers: the swap runs
under a lock and is guarded by a generation counter, so when many
threads fault on the same backend simultaneously exactly one of them
trips the breaker and rebuilds — the others observe the generation
change, skip their own (redundant) trip, and simply retry on the
already-swapped tier.  Without the guard, concurrent faults would
double-trip the breaker and exhaust the fallback chain, surfacing an
exception even though a healthy fallback existed.  ``apply_many``
snapshots the whole callable set under the same lock, so a shard can
never mix (say) the old backend's ``batch_fn`` with the new one's
``raw_call`` mid-swap.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.backend_c import emit_c
from repro.core.backend_numpy import compile_numpy
from repro.core.compiler import CompiledRoutine
from repro.core.errors import SplSemanticError
from repro.perfeval import ccompile
from repro.runtime.pool import (
    effective_threads,
    resolve_threads,
    run_sharded,
)

#: Backend preference chains: the requested backend first, then the
#: fastest available fallback (c > numpy > python).  "cjit" is the
#: tiered native backend: instant in-process machine code for codelet
#: programs (with a background upgrade to the gcc-optimized shared
#: object), falling through to the plain C path for everything the JIT
#: cannot lower.
_PREFERENCE = {
    "cjit": ("cjit", "c", "numpy", "python"),
    "c": ("c", "numpy", "python"),
    "numpy": ("numpy", "python"),
    "python": ("python",),
}

_c_double_p = ctypes.POINTER(ctypes.c_double)


def _aligned_zeros(shape, dtype, align: int = 64) -> np.ndarray:
    """A zeroed array whose data pointer is ``align``-byte aligned.

    The codelet batch drivers check workspace alignment at runtime and
    only take their ``__builtin_assume_aligned`` + ``#pragma omp simd``
    fast path when it holds; allocating the runner's per-thread
    workspaces aligned makes that the common case.  (numpy's default
    allocator gives 16, sometimes 64 — this makes it deterministic.)
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape, dtype=np.int64))
    buf = np.zeros(count + align // dtype.itemsize, dtype=dtype)
    offset = (-buf.ctypes.data % align) // dtype.itemsize
    return buf[offset:offset + count].reshape(shape)


@dataclass
class BackendFailure:
    """One circuit-breaker trip: which backend failed doing what."""

    backend: str
    op: str  # "apply", "apply_many" or "build"
    error: str


@dataclass
class ExecutableRoutine:
    """A runnable compiled routine with per-thread preallocated buffers.

    ``fallback_chain`` lists the backends still available for runtime
    degradation; a backend whose call raises trips its breaker (one
    strike — native faults are not worth re-probing) and the routine
    rebuilds itself on the next chain entry in place, so held
    references keep working at the degraded tier.
    """

    routine: CompiledRoutine
    backend: str  # "cjit", "c", "numpy" or "python"
    raw_call: Callable  # fn(y_buffer, x_buffer) on 1-D physical buffers
    ctypes_fn: Callable | None = None  # underlying native entry (C backend)
    batch_fn: Callable | None = None  # spl_batch_* ctypes driver (C backend)
    batch_omp_fn: Callable | None = None  # spl_batch_omp_* OpenMP driver
    batch_call: Callable | None = None  # fn(Y, X) on 2-D buffers (numpy)
    threads: int = 1  # default worker count for apply_many
    fallback_chain: tuple[str, ...] = ()  # degradation targets, in order
    backend_failures: list[BackendFailure] = field(default_factory=list)
    promotions: list[str] = field(default_factory=list)  # upgrade history
    _tls: threading.local = field(default_factory=threading.local,
                                  repr=False, compare=False)
    # Serializes breaker trips and callable swaps; ``_generation``
    # increments on every swap so concurrent faulters can tell whether
    # someone else already degraded the tier they just saw fail.
    _swap_lock: threading.Lock = field(default_factory=threading.Lock,
                                       repr=False, compare=False)
    _generation: int = field(default=0, repr=False, compare=False)
    _exhausted: bool = field(default=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.routine.name

    @property
    def n(self) -> int:
        return self.routine.in_size

    def _dtype(self):
        program = self.routine.program
        if program.element_width == 1 and program.datatype == "complex":
            return np.complex128
        return np.float64

    @property
    def dtype(self) -> np.dtype:
        """The *logical* IO dtype of ``apply``/``apply_many``.

        Complex-datatype programs take and return ``complex128``
        vectors regardless of how the code type packs them physically
        (real code interleaves re/im into float64 buffers); real-
        datatype programs are ``float64`` end to end.  This is the
        dtype :class:`~repro.runtime.BatchDispatcher` and the serving
        front-end validate submitted vectors against.
        """
        program = self.routine.program
        if program.datatype == "complex":
            return np.dtype(np.complex128)
        return np.dtype(np.float64)

    def _buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """Single-vector scratch, allocated once per calling thread."""
        pair = getattr(self._tls, "single", None)
        if pair is None:
            program = self.routine.program
            width = program.element_width
            dtype = self._dtype()
            pair = (
                _aligned_zeros(program.in_size * width, dtype),
                _aligned_zeros(program.out_size * width, dtype),
            )
            self._tls.single = pair
        return pair

    def _batch_buffers(self, batch: int) -> tuple:
        """Per-thread ``(Xp, Yp, xptr, yptr)`` batch workspaces.

        ``Xp``/``Yp`` are ``(rows, len)`` physical buffers with ``rows
        >= batch``: they grow to the calling thread's largest batch and
        are never shrunk, so a batch size that changes from call to
        call (work-conserving dispatch under load) runs on the first
        ``batch`` rows instead of reallocating.  ``xptr``/``yptr`` are
        their row-0 ctypes pointers, converted once with the buffers.
        """
        cached = getattr(self._tls, "batch", None)
        if cached is None or cached[0].shape[0] < batch:
            program = self.routine.program
            width = program.element_width
            dtype = self._dtype()
            Xp = _aligned_zeros((batch, program.in_size * width), dtype)
            Yp = _aligned_zeros((batch, program.out_size * width), dtype)
            cached = (Xp, Yp, Xp.ctypes.data_as(_c_double_p),
                      Yp.ctypes.data_as(_c_double_p))
            self._tls.batch = cached
        return cached

    # -- circuit breaker ------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once any backend breaker has tripped."""
        return bool(self.backend_failures)

    def stats(self) -> dict:
        """Backend health plus the compile-time optimizer report.

        ``compile`` carries the per-pass records the compiler gathered
        (statement/temp/scratch deltas and per-pass wall time) along
        with the scratch-memory outcome, so operators can see both how
        the routine is running *and* what the optimizer did to it.
        """
        routine = self.routine
        return {
            "backend": self.backend,
            "degraded": self.degraded,
            "promotions": list(self.promotions),
            "fallbacks_left": self.fallback_chain,
            "failures": [
                {"backend": f.backend, "op": f.op, "error": f.error}
                for f in self.backend_failures
            ],
            "compile": {
                "scratch_bytes": routine.scratch_bytes,
                "scratch_bytes_before": routine.scratch_bytes_before,
                "temps_eliminated": routine.temps_eliminated,
                "passes": routine.pass_summary(),
            },
        }

    def _degrade(self, exc: BaseException, op: str,
                 generation: int) -> bool:
        """Trip the current backend and swap in the next chain entry.

        Rebuilds the fallback backend from ``routine`` and splices its
        callables into *this* object, so every held reference degrades
        together.  Returns False when the chain is exhausted (the
        caller re-raises the original error).

        ``generation`` is the value of ``_generation`` the caller saw
        when it picked up the callable that then failed.  The whole
        trip runs under ``_swap_lock``, and a stale generation means
        another thread already degraded the tier this caller faulted
        on — in that case nothing is recorded (the breaker must trip
        once per tier, not once per concurrent caller) and True is
        returned so the caller simply retries on the new tier.
        """
        with self._swap_lock:
            if generation != self._generation:
                return True  # lost the race: tier already swapped
            if self._exhausted:
                # The chain already ran dry on this tier: the trip is
                # recorded once, every subsequent concurrent faulter
                # just re-raises its own error.
                return False
            self.backend_failures.append(BackendFailure(
                backend=self.backend, op=op,
                error=f"{type(exc).__name__}: {exc}",
            ))
            while self.fallback_chain:
                target, self.fallback_chain = (
                    self.fallback_chain[0], self.fallback_chain[1:]
                )
                try:
                    if target == "numpy":
                        replacement = _build_numpy(self.routine)
                    elif target == "python":
                        replacement = _build_python(self.routine)
                    else:  # never degrade *to* the native tier
                        continue
                except Exception as build_exc:  # noqa: BLE001 - keep walking
                    self.backend_failures.append(BackendFailure(
                        backend=target, op="build",
                        error=f"{type(build_exc).__name__}: {build_exc}",
                    ))
                    continue
                self.backend = replacement.backend
                self.raw_call = replacement.raw_call
                self.ctypes_fn = replacement.ctypes_fn
                self.batch_fn = replacement.batch_fn
                self.batch_omp_fn = replacement.batch_omp_fn
                self.batch_call = replacement.batch_call
                self._generation += 1
                return True
            self._exhausted = True
            return False

    def promote(self, replacement: "ExecutableRoutine") -> bool:
        """Swap in a faster backend built in the background.

        This is the upward counterpart of :meth:`_degrade`, used by the
        JIT tier to upgrade to the gcc-optimized shared object once the
        subprocess compile finishes.  The swap runs under the same lock
        and bumps the same generation counter, so in-flight calls that
        snapshot callables see a consistent backend and the breaker
        never mis-attributes a fault across the swap.  Returns False —
        leaving the routine untouched — when a breaker already tripped
        (the degraded tier was chosen for a reason; a late upgrade must
        not resurrect the native path the breaker walked away from).

        Bit-identity across the swap is guaranteed by construction:
        the JIT and the C backend execute the same four-tuples in the
        same order with IEEE double arithmetic.
        """
        with self._swap_lock:
            if self.backend_failures or self._exhausted:
                return False
            self.promotions.append(
                f"{self.backend}->{replacement.backend}")
            self.backend = replacement.backend
            self.raw_call = replacement.raw_call
            self.ctypes_fn = replacement.ctypes_fn
            self.batch_fn = replacement.batch_fn
            self.batch_omp_fn = replacement.batch_omp_fn
            self.batch_call = replacement.batch_call
            self._generation += 1
            return True

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply to a logical input vector; complex in, complex out.

        Scratch buffers are reused across calls (no per-call
        allocation) and are per-thread, so concurrent callers never
        share them; the returned array is a fresh copy.  A backend
        that raises mid-call trips its circuit breaker and the call
        retries on the next backend down the chain.
        """
        program = self.routine.program
        width = program.element_width
        buf, y = self._buffers()
        if width == 2:
            buf[0::2] = np.real(x)
            buf[1::2] = np.imag(x)
        else:
            buf[:] = x
        while True:
            # Read the generation *before* the callable: if a swap
            # lands in between, the stale generation makes _degrade a
            # no-op retry instead of mis-attributing the new tier's
            # failure to the old one.
            generation = self._generation
            call = self.raw_call
            y.fill(0)
            try:
                call(y, buf)
                break
            except Exception as exc:  # noqa: BLE001 - breaker path
                if not self._degrade(exc, "apply", generation):
                    raise
        if width == 2:
            return y[0::2] + 1j * y[1::2]
        return y.copy()

    def _effective_threads(self, threads: int | None, batch: int) -> int:
        """The worker count actually used for one ``apply_many`` call.

        ``None`` falls back to the instance default; 0 means one per
        CPU.  The result is clamped by the shared sharding heuristic
        (:func:`repro.runtime.pool.effective_threads`) so parallel
        dispatch only happens when the batch can amortize it.
        """
        program = self.routine.program
        row_len = max(program.in_size, program.out_size) \
            * program.element_width
        return effective_threads(
            self.threads if threads is None else threads, batch, row_len
        )

    def _run_rows(self, Yp: np.ndarray, Xp: np.ndarray,
                  lo: int, hi: int, batch_fn, batch_call,
                  raw_call, pointers: tuple | None = None) -> None:
        """The serial batch path over physical rows ``lo..hi`` (the
        whole batch at ``threads=1``, one shard otherwise).

        The callables are passed in — a snapshot taken under
        ``_swap_lock`` by ``apply_many`` — so a concurrent breaker
        swap can never hand one shard a mixed backend.  ``pointers``
        are the cached ``(yptr, xptr)`` of row ``lo``, when known.
        """
        if batch_fn is not None:
            yptr, xptr = pointers or (
                Yp[lo:hi].ctypes.data_as(_c_double_p),
                Xp[lo:hi].ctypes.data_as(_c_double_p))
            batch_fn(yptr, xptr, hi - lo)
        elif batch_call is not None:
            Yp[lo:hi].fill(0)
            batch_call(Yp[lo:hi], Xp[lo:hi])
        else:
            for b in range(lo, hi):
                Yp[b].fill(0)
                raw_call(Yp[b], Xp[b])

    def apply_many(self, X: np.ndarray,
                   threads: int | None = None) -> np.ndarray:
        """Apply to a ``(B, n)`` batch of logical vectors at once.

        The whole batch crosses into the fastest available path with
        per-batch (not per-vector) overhead: a single ctypes call into
        the generated ``spl_batch_<name>`` C driver, one call of the
        NumPy batch function, or a scratch-reusing Python loop.

        ``threads`` splits the batch axis across workers (``None`` =
        the instance default, 0 = one per CPU): the OpenMP C driver
        when available, contiguous row shards on the shared thread
        pool otherwise.  Results are bit-identical for every thread
        count.  Returns a fresh ``(B, out_size)`` array.
        """
        program = self.routine.program
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != program.in_size:
            raise SplSemanticError(
                f"{self.name} expects a (B, {program.in_size}) batch, "
                f"got shape {X.shape}"
            )
        width = program.element_width
        batch = X.shape[0]
        Xp, Yp, xptr, yptr = self._batch_buffers(batch)
        Xp, Yp = Xp[:batch], Yp[:batch]
        if width == 2:
            Xp[:, 0::2] = X.real
            Xp[:, 1::2] = X.imag
        else:
            Xp[:, :] = X
        while True:
            with self._swap_lock:
                # One consistent snapshot of the active backend: a
                # breaker swap concurrent with this call can never mix
                # (say) the old C batch driver with the new tier's
                # raw_call across shards.
                generation = self._generation
                batch_fn = self.batch_fn
                batch_omp_fn = self.batch_omp_fn
                batch_call = self.batch_call
                raw_call = self.raw_call
            try:
                nthreads = self._effective_threads(threads, batch)
                if nthreads > 1 and batch_omp_fn is not None:
                    batch_omp_fn(yptr, xptr, batch, nthreads)
                else:
                    if nthreads > 1:
                        run_sharded(
                            lambda lo, hi: self._run_rows(
                                Yp, Xp, lo, hi,
                                batch_fn, batch_call, raw_call),
                            batch, nthreads,
                        )
                    else:
                        self._run_rows(Yp, Xp, 0, batch,
                                       batch_fn, batch_call, raw_call,
                                       (yptr, xptr))
                break
            except Exception as exc:  # noqa: BLE001 - breaker path
                # Partial rows are harmless: every retried path zeroes
                # each output row before writing it.
                if not self._degrade(exc, "apply_many", generation):
                    raise
        if width == 2:
            return Yp[:, 0::2] + 1j * Yp[:, 1::2]
        return Yp.copy()

    def timer_closure(self) -> Callable[[], None]:
        """A zero-argument closure suitable for tight timing loops."""
        program = self.routine.program
        width = program.element_width
        rng = np.random.default_rng(0)
        x = np.ascontiguousarray(
            rng.standard_normal(program.in_size * width),
            dtype=np.float64,
        ).astype(self._dtype())
        y = np.zeros(program.out_size * width, dtype=self._dtype())
        if self.backend in ("c", "cjit"):
            fn = self.ctypes_fn
            xp = x.ctypes.data_as(_c_double_p)
            yp = y.ctypes.data_as(_c_double_p)

            def call() -> None:
                fn(yp, xp)

            # ctypes raw function: bypass the wrapper's numpy handling.
            call._buffers = (x, y)
            return call

        fn = self.raw_call

        def call() -> None:
            fn(y, x)

        call._buffers = (x, y)
        return call

    def timer_closure_many(self, batch: int,
                           threads: int | None = None) -> Callable[[], None]:
        """A zero-argument closure timing ``apply_many`` on a fixed
        random batch (buffer filling included — that is the honest
        per-batch cost a caller pays)."""
        rng = np.random.default_rng(0)
        n = self.routine.program.in_size
        X = rng.standard_normal((batch, n))
        if self.routine.program.element_width == 2 or \
                self.routine.program.datatype == "complex":
            X = X + 1j * rng.standard_normal((batch, n))
        apply_many = self.apply_many

        def call() -> None:
            apply_many(X, threads=threads)

        call._buffers = (X,)
        return call


def _build_cjit(routine: CompiledRoutine) -> ExecutableRoutine:
    """Build the in-process JIT tier for a codelet program.

    Raises :class:`~repro.perfeval.jit.JitError` for programs the
    emitter cannot lower; ``build_executable`` pre-checks eligibility
    and falls through to the plain C path instead.
    """
    from repro.perfeval import jit

    jitted = jit.compile_jit(routine.program)
    fn = jitted.fn

    def jit_call(y: np.ndarray, x: np.ndarray) -> None:
        fn(y.ctypes.data_as(_c_double_p),
           np.ascontiguousarray(x).ctypes.data_as(_c_double_p))

    return ExecutableRoutine(routine=routine, backend="cjit",
                             raw_call=jit_call, ctypes_fn=jitted.fn,
                             batch_fn=jitted.batch_fn)


def _jit_upgrade_enabled() -> bool:
    """True unless ``SPL_JIT_UPGRADE=0`` pins executables to the JIT
    tier (used by the cold-latency benchmark and deterministic tests)."""
    import os

    return os.environ.get("SPL_JIT_UPGRADE", "").strip() != "0"


def _upgrade_in_background(executable: ExecutableRoutine,
                           routine: CompiledRoutine,
                           cflags: tuple[str, ...]) -> threading.Thread:
    """Compile the gcc-optimized tier off-thread and promote to it.

    Any failure (no compiler after all, compile error, OOM) is
    swallowed: the JIT tier keeps serving, exactly as it would have
    without the upgrade attempt.  Returns the (daemon) thread so tests
    can join it.
    """

    def work() -> None:
        try:
            executable.promote(_build_c(routine, cflags))
        except Exception:  # noqa: BLE001 - upgrade is best-effort
            pass

    thread = threading.Thread(target=work, name=f"spl-jit-upgrade-"
                              f"{routine.name}", daemon=True)
    thread.start()
    return thread


def c_build_spec(routine: CompiledRoutine,
                 cflags: tuple[str, ...] = (), *,
                 openmp: bool | None = None,
                 simd: bool | None = None,
                 ) -> tuple[str, tuple[str, ...], bool, tuple[str, ...]]:
    """The exact ``compile_shared_object`` inputs for one C routine.

    Returns ``(source, cflags, openmp, key_extra)``.  ``openmp`` /
    ``simd`` default to the host probes (what :func:`build_executable`
    does); passing ``False`` for both yields the *portable* variant —
    the build a host with no toolchain at all would ask for, since its
    probes report False — which is what wisdom packs bundle so their
    artifacts cache-hit on a gcc-less replica.
    """
    program = routine.program
    source = (
        routine.source if routine.language in ("c", "cjit")
        else emit_c(program)
    )
    use_openmp = False
    codelet = False
    if not program.strided:
        use_openmp = ccompile.have_openmp() if openmp is None else openmp
        codelet = program.is_straight_line()
        source += ccompile.batch_driver_source(
            routine.name,
            in_len=program.in_size * program.element_width,
            out_len=program.out_size * program.element_width,
            openmp=use_openmp,
            codelet=codelet,
        )
        if codelet:
            use_simd = (simd is None) or simd
            if use_simd:
                cflags = cflags + ccompile.simd_cflags()
    key_extra = (f"driver={'codelet' if codelet else 'loop'}",)
    return source, tuple(cflags), use_openmp, key_extra


def _build_c(routine: CompiledRoutine,
             cflags: tuple[str, ...]) -> ExecutableRoutine:
    program = routine.program
    source, cflags, openmp, key_extra = c_build_spec(routine, cflags)
    batch_fn = None
    batch_omp_fn = None
    so_path = ccompile.compile_shared_object(
        source, cflags=cflags, openmp=openmp, key_extra=key_extra,
    )
    fn = ccompile.load_function(so_path, routine.name,
                                strided=program.strided)
    if not program.strided:
        batch_fn = ccompile.load_batch_function(so_path, routine.name)
        if openmp:
            batch_omp_fn = ccompile.load_batch_omp_function(
                so_path, routine.name)

    def c_call(y: np.ndarray, x: np.ndarray, *args) -> None:
        fn(y.ctypes.data_as(_c_double_p),
           np.ascontiguousarray(x).ctypes.data_as(_c_double_p), *args)

    return ExecutableRoutine(routine=routine, backend="c", raw_call=c_call,
                             ctypes_fn=fn, batch_fn=batch_fn,
                             batch_omp_fn=batch_omp_fn)


def _build_numpy(routine: CompiledRoutine) -> ExecutableRoutine:
    batch_call = compile_numpy(routine.program)

    def numpy_call(y: np.ndarray, x: np.ndarray) -> None:
        # Run the batch function on a degenerate B=1 batch (reshape on
        # contiguous 1-D buffers is a view, so y is written in place).
        batch_call(y.reshape(1, -1), x.reshape(1, -1))

    return ExecutableRoutine(routine=routine, backend="numpy",
                             raw_call=numpy_call, batch_call=batch_call)


def _build_python(routine: CompiledRoutine) -> ExecutableRoutine:
    from repro.core.backend_python import compile_python

    python_fn = compile_python(routine.program)

    # The generated Python mutates any indexable in place: hand it the
    # numpy buffers directly (no per-call list round-trip).
    def numpy_call(y: np.ndarray, x: np.ndarray) -> None:
        y.fill(0)
        python_fn(y, x)

    return ExecutableRoutine(routine=routine, backend="python",
                             raw_call=numpy_call)


def build_executable(routine: CompiledRoutine,
                     prefer: str = "c",
                     cflags: tuple[str, ...] = (),
                     threads: int = 1) -> ExecutableRoutine:
    """Compile a routine to an executable, preferring the fastest path.

    ``prefer`` names the first backend to try; remaining candidates
    follow the ``cjit > c > numpy > python`` order (a missing C
    compiler, or a complex-native program the C backend cannot
    express, falls through to the NumPy batch backend, then pure
    Python).  ``prefer="cjit"`` makes codelet programs executable
    immediately — machine code emitted in-process, no subprocess — and
    then upgrades to the gcc-optimized shared object in a background
    thread once the host compiler finishes (disable with
    ``SPL_JIT_UPGRADE=0``); non-codelet programs fall through to the
    plain C path unchanged.

    ``cflags`` appends host-compiler flags (e.g. ``("-O0",)`` to model
    a weak back-end compiler in ablation experiments); ``SPL_CFLAGS``
    in the environment appends further opt-in flags such as
    ``-march=native``.  ``threads`` sets the executable's default
    ``apply_many`` worker count (0 = one per CPU); per-call
    ``threads=`` overrides it.
    """
    chain = _PREFERENCE.get(prefer)
    if chain is None:
        raise SplSemanticError(
            f"prefer must be one of {tuple(_PREFERENCE)}, got {prefer!r}"
        )
    resolve_threads(threads)  # validate early (0 and None are fine)
    last_error: Exception | None = None
    for position, backend in enumerate(chain):
        executable: ExecutableRoutine | None = None
        upgrade = False
        if backend == "cjit":
            from repro.perfeval import jit

            if not (jit.jit_supported() and jit.can_jit(routine.program)):
                continue  # not a codelet — the plain C path is next
            try:
                executable = _build_cjit(routine)
            except SplSemanticError as exc:
                last_error = exc
                continue
            upgrade = (ccompile.have_c_compiler()
                       and _jit_upgrade_enabled())
        elif backend == "c":
            # No upfront have_c_compiler() gate: the shared-object
            # cache is consulted before the toolchain, so a host
            # booting from a wisdom pack's bundled artifacts serves
            # the C tier with no compiler at all.
            try:
                executable = _build_c(routine, cflags)
            except SplSemanticError as exc:
                last_error = exc  # e.g. complex-native program
                continue
            except ccompile.CCompileError as exc:
                if ccompile.have_c_compiler():
                    raise  # a real compile failure, not a missing cc
                last_error = exc
                continue
        elif backend == "numpy":
            executable = _build_numpy(routine)
        else:
            executable = _build_python(routine)
        executable.threads = threads
        # The backends below the chosen one arm the runtime circuit
        # breaker: a backend that faults mid-call degrades onto them.
        # The JIT tier skips "c" on *degradation* (a native fault is
        # no reason to trust another native build) but upgrades to it
        # on the promote path below.
        executable.fallback_chain = tuple(
            b for b in chain[position + 1:] if b != "c"
        ) if backend == "cjit" else tuple(chain[position + 1:])
        if upgrade:
            _upgrade_in_background(executable, routine, cflags)
        return executable
    raise last_error if last_error is not None else SplSemanticError(
        f"no executable backend available for {routine.name}"
    )
