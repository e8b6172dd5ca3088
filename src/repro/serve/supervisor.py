"""Supervised multi-process serving: the ``spl serve --workers N`` fleet.

One asyncio event loop saturates around a few thousand requests/sec
and — worse — is a single point of failure: one segfaulting batch
takes the whole service down.  This module runs the service as a
*fleet*:

::

    supervisor (parent)
      |  fork x N                 SIGTERM -> graceful drain
      |  heartbeat pipes          SIGHUP  -> rolling restart
      |  exit-status watch        crash   -> backoff + restart budget
      v
    worker 0 .. worker N-1        each: SplServer on its own
                                  SO_REUSEPORT listener bound to the
                                  same (host, port); the kernel
                                  load-balances connections

**Crash recovery.**  The parent watches workers two ways: exit status
(a reaped child means a crash or a completed drain) and a heartbeat
pipe (each worker's event loop writes a byte every
``heartbeat_interval``; a silent-but-alive worker is *wedged* — its
loop is stuck even though the process lives — and is SIGKILLed).
Dead workers restart under exponential backoff with full jitter, and
a fleet-wide **restart budget** (a sliding window) breaks the
crash-restart-crash flap: once the window fills, further restarts are
refused and the fleet *degrades to fewer workers* until the window
slides clear, rather than burning CPU relaunching a doomed binary.

**Graceful drain.**  SIGTERM/SIGINT forwards SIGTERM to every worker;
each stops accepting, answers every request already admitted (via
``SplServer.drain`` over the dispatcher's drain hooks), then exits 0.
SIGHUP is a **rolling restart**: workers are drained and replaced one
at a time, so fleet capacity never drops by more than one worker.

The supervisor itself does no request work and holds no plan state —
it is a few hundred lines of fork/waitpid/select that can only fail
simple ways, which is the point: the blast radius of any serving bug
is one worker process.
"""

from __future__ import annotations

import asyncio
import collections
import errno
import os
import random
import selectors
import signal
import socket
import sys
import time
from dataclasses import dataclass, field

from repro.serve.chaos import injector_from_env
from repro.serve.plans import PlanKey, PlanRegistry

_HEARTBEAT = b"\x01"


def fork_supported() -> bool:
    """Can this host run the supervisor at all?"""
    return (hasattr(os, "fork") and hasattr(signal, "SIGCHLD")
            and hasattr(socket, "SO_REUSEPORT"))


# ---------------------------------------------------------------------------
# Shared serve configuration + the worker side.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    """Everything needed to stand up one :class:`SplServer`.

    Built once from the CLI arguments and shared by the single-process
    path and every forked worker, so a worker is guaranteed to serve
    exactly what ``spl serve`` without ``--workers`` would have.
    """

    host: str = "127.0.0.1"
    port: int = 0
    warm: tuple[PlanKey, ...] = ()
    wisdom_path: str | None = None
    pack_path: str | None = None
    prefer: str | None = None
    max_batch: int = 64
    queue_limit: int = 256
    threads: int | None = None
    drain_grace_s: float = 30.0


def _boot_wisdom(config: ServeConfig):
    """(wisdom store or None, source label) for one server boot.

    A ``--pack`` pack is preferred over ``--wisdom``: packs are the
    deployment artifact (read-only, integrity-checked, optionally
    carrying compiled ``.so`` files).  Pack problems *never* crash the
    boot — every diagnostic goes to stderr and the server degrades to
    the plain wisdom store, or to no wisdom at all (estimate /
    search-on-demand), exactly as if the pack had not been shipped.
    """
    from repro.wisdom.store import WisdomStore

    if config.pack_path:
        from repro.wisdom.pack import load_pack

        result = load_pack(config.pack_path)
        for diagnostic in result.diagnostics:
            print(f"spl serve: pack {config.pack_path}: "
                  f"{diagnostic.describe()}", file=sys.stderr,
                  flush=True)
        if result.store is not None and len(result.store):
            print(f"spl serve: booting from pack {config.pack_path} "
                  f"({result.entries_loaded} entries, "
                  f"{result.artifacts_installed} artifacts installed)",
                  file=sys.stderr, flush=True)
            return result.store, "pack"
        print(f"spl serve: pack {config.pack_path} unusable; "
              f"degrading to "
              f"{'--wisdom store' if config.wisdom_path else 'no wisdom'}",
              file=sys.stderr, flush=True)
    if config.wisdom_path:
        return WisdomStore(config.wisdom_path), "store"
    return None, "none"


def build_server(config: ServeConfig, *, reuse_port: bool = False):
    """A fresh :class:`SplServer` from one :class:`ServeConfig`."""
    from repro.serve.server import Router, SplServer

    wisdom, wisdom_source = _boot_wisdom(config)
    registry = PlanRegistry(prefer=config.prefer, wisdom=wisdom,
                            wisdom_source=wisdom_source)
    router = Router(
        registry,
        max_batch=config.max_batch,
        queue_limit=config.queue_limit,
        threads=config.threads,
    )
    return SplServer(router, host=config.host, port=config.port,
                     warm=list(config.warm), reuse_port=reuse_port,
                     chaos=injector_from_env())


def run_worker(config: ServeConfig, *, reuse_port: bool = False,
               heartbeat_fd: int | None = None,
               heartbeat_interval: float = 0.5,
               install_signals: bool = True,
               port_file: str | None = None,
               label: str = "spl serve") -> int:
    """One serving process, drained gracefully on SIGTERM/SIGINT/SIGHUP.

    This is both the supervised worker body (``heartbeat_fd`` set,
    ``reuse_port=True``) and the whole of single-process ``spl serve``
    — so Ctrl-C and orchestrator stop get the same
    stop-accepting / answer-everything-admitted / exit-0 sequence in
    both modes.
    """
    return asyncio.run(_worker_amain(
        config, reuse_port=reuse_port, heartbeat_fd=heartbeat_fd,
        heartbeat_interval=heartbeat_interval,
        install_signals=install_signals, port_file=port_file,
        label=label))


async def _worker_amain(config: ServeConfig, *, reuse_port: bool,
                        heartbeat_fd: int | None,
                        heartbeat_interval: float,
                        install_signals: bool,
                        port_file: str | None,
                        label: str) -> int:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # platform/thread without signal support

    server = build_server(config, reuse_port=reuse_port)
    host, port = await server.start()
    if port_file is not None:
        _publish_port(port_file, host, port)
    print(f"{label}: pid {os.getpid()} listening on {host}:{port} "
          f"(prefer={server.router.registry.prefer})",
          file=sys.stderr, flush=True)

    beat_task = None
    if heartbeat_fd is not None:
        async def beat() -> None:
            while True:
                try:
                    os.write(heartbeat_fd, _HEARTBEAT)
                except OSError:
                    # Supervisor is gone: orphaned workers drain and
                    # exit instead of serving forever unsupervised.
                    stop.set()
                    return
                await asyncio.sleep(heartbeat_interval)

        beat_task = asyncio.ensure_future(beat())

    try:
        await stop.wait()
        drained = await server.drain(grace=config.drain_grace_s)
        if not drained:
            print(f"{label}: pid {os.getpid()} drain grace expired "
                  f"with {server._inflight} in flight",
                  file=sys.stderr, flush=True)
        await server.close()
    finally:
        if beat_task is not None:
            beat_task.cancel()
    print(f"{label}: pid {os.getpid()} drained and stopped",
          file=sys.stderr, flush=True)
    return 0


def _publish_port(port_file: str, host: str, port: int) -> None:
    tmp = f"{port_file}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(f"{host}:{port}\n")
    os.replace(tmp, port_file)


# ---------------------------------------------------------------------------
# Restart policy primitives (pure logic, unit-testable).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with full jitter for worker restarts.

    The delay before restart attempt ``k`` (1-based consecutive
    failures) is ``min(max_s, base_s * multiplier^(k-1))`` plus a
    uniform jitter draw of up to ``jitter`` of itself.  A worker that
    stayed up at least ``stable_after_s`` before dying resets the
    failure count: one crash per hour is an incident, not a flap.
    """

    base_s: float = 0.5
    multiplier: float = 2.0
    max_s: float = 15.0
    jitter: float = 0.25
    stable_after_s: float = 10.0

    def delay(self, consecutive_failures: int,
              rng: random.Random | None = None) -> float:
        k = max(1, consecutive_failures)
        base = min(self.max_s,
                   self.base_s * (self.multiplier ** (k - 1)))
        if self.jitter <= 0:
            return base
        return base + (rng or random).uniform(0, self.jitter * base)


class RestartBudget:
    """A fleet-wide sliding window bounding restarts per interval.

    ``try_spend(now)`` records a restart if fewer than ``budget``
    happened in the trailing ``window_s`` seconds; refusing is the
    breaker: the supervisor leaves the slot down (fewer workers, but
    no flap) and retries after :meth:`retry_after`.
    """

    def __init__(self, budget: int = 6, window_s: float = 30.0):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = int(budget)
        self.window_s = float(window_s)
        self._events: collections.deque[float] = collections.deque()
        self.spent = 0
        self.refused = 0

    def _evict(self, now: float) -> None:
        while self._events and now - self._events[0] >= self.window_s:
            self._events.popleft()

    def try_spend(self, now: float) -> bool:
        self._evict(now)
        if len(self._events) >= self.budget:
            self.refused += 1
            return False
        self._events.append(now)
        self.spent += 1
        return True

    def tripped(self, now: float) -> bool:
        self._evict(now)
        return len(self._events) >= self.budget

    def retry_after(self, now: float) -> float:
        """Seconds until the oldest windowed restart slides out."""
        self._evict(now)
        if len(self._events) < self.budget:
            return 0.0
        return max(0.0, self._events[0] + self.window_s - now)

    def remaining(self, now: float) -> int:
        """Restarts still available in the current window."""
        self._evict(now)
        return max(0, self.budget - len(self._events))


# ---------------------------------------------------------------------------
# The supervisor.
# ---------------------------------------------------------------------------

# Worker slot states.
STARTING = "starting"  # forked, no heartbeat yet
READY = "ready"  # heartbeating
DRAINING = "draining"  # SIGTERM sent (rolling restart / shutdown)
DOWN = "down"  # dead, restart scheduled at slot.restart_at
STOPPED = "stopped"  # shutdown complete


@dataclass
class WorkerSlot:
    """Parent-side bookkeeping for one worker position."""

    index: int
    pid: int | None = None
    heartbeat_fd: int | None = None
    state: str = DOWN
    started_at: float = 0.0
    last_beat: float = 0.0
    restart_at: float = 0.0
    consecutive_failures: int = 0
    restarts: int = 0
    rolling: bool = field(default=False)  # mid rolling-restart


class Supervisor:
    """Fork, watch, restart, drain.  Blocks in :meth:`run`.

    Must run on the main thread of a process it owns (it installs
    signal handlers and forks); tests and the chaos harness drive it
    through the real CLI in a subprocess.
    """

    def __init__(self, config: ServeConfig, *, workers: int,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float = 5.0,
                 boot_grace_s: float = 60.0,
                 backoff: BackoffPolicy | None = None,
                 budget: RestartBudget | None = None,
                 port_file: str | None = None,
                 status_file: str | None = None,
                 rng: random.Random | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not fork_supported():
            raise RuntimeError(
                "supervised serving needs fork, SIGCHLD and "
                "SO_REUSEPORT (run with --workers 1 here)")
        self.config = config
        self.workers = workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.boot_grace_s = boot_grace_s
        self.backoff = backoff or BackoffPolicy()
        self.budget = budget or RestartBudget()
        self.port_file = port_file
        self.status_file = status_file
        self._last_status_json: str | None = None
        self._rng = rng or random.Random()
        self.slots = [WorkerSlot(index=i) for i in range(workers)]
        self._fd_slots: dict[int, WorkerSlot] = {}
        self._selector = selectors.DefaultSelector()
        self._reserve_sock: socket.socket | None = None
        self._wake_r, self._wake_w = -1, -1
        self._stop_requested = False
        self._hup_requested = False
        self._stopping = False
        self._roll_queue: collections.deque[int] = collections.deque()
        self._roll_slot: int | None = None
        self._roll_deadline = 0.0
        self.wedge_kills = 0
        self.crashes = 0

    # -- logging -------------------------------------------------------

    def _log(self, message: str) -> None:
        print(f"spl serve[supervisor]: {message}", file=sys.stderr,
              flush=True)

    # -- address reservation -------------------------------------------

    def _reserve_address(self) -> tuple[str, int]:
        """Bind a non-listening SO_REUSEPORT socket to pin the port.

        Workers each bind their own listening SO_REUSEPORT socket to
        the same address; holding this one in the parent keeps the
        port reserved across the window where every worker is dead
        (mid-restart), so no other process can steal the address.
        A bound-but-not-listening socket receives no connections —
        the kernel balances only across *listening* sockets.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.config.host, self.config.port))
        host, port = sock.getsockname()[:2]
        self._reserve_sock = sock
        return host, port

    # -- child management ----------------------------------------------

    def _spawn(self, slot: WorkerSlot) -> None:
        rfd, wfd = os.pipe()
        os.set_blocking(rfd, False)
        pid = os.fork()
        if pid == 0:
            # Child: drop every parent-side resource, restore default
            # signal dispositions (the parent's flag-setting handlers
            # reference parent state), then become a worker.
            code = 70
            try:
                for signum in (signal.SIGTERM, signal.SIGINT,
                               signal.SIGHUP, signal.SIGCHLD):
                    signal.signal(signum, signal.SIG_DFL)
                os.close(rfd)
                if self._reserve_sock is not None:
                    self._reserve_sock.close()
                for fd in (self._wake_r, self._wake_w):
                    if fd >= 0:
                        os.close(fd)
                for other in self.slots:
                    if (other.heartbeat_fd is not None
                            and other is not slot):
                        os.close(other.heartbeat_fd)
                code = run_worker(
                    self.config, reuse_port=True, heartbeat_fd=wfd,
                    heartbeat_interval=self.heartbeat_interval,
                    install_signals=True,
                    label=f"spl serve[worker {slot.index}]")
            except BaseException:  # noqa: BLE001 - report, then die
                import traceback

                traceback.print_exc()
            finally:
                os._exit(code)
        # Parent.
        os.close(wfd)
        now = time.monotonic()
        slot.pid = pid
        slot.heartbeat_fd = rfd
        slot.state = STARTING
        slot.started_at = now
        slot.last_beat = now
        self._fd_slots[rfd] = slot
        self._selector.register(rfd, selectors.EVENT_READ)
        self._log(f"worker {slot.index} started (pid {pid})")

    def _release_fd(self, slot: WorkerSlot) -> None:
        fd = slot.heartbeat_fd
        if fd is None:
            return
        try:
            self._selector.unregister(fd)
        except KeyError:
            pass
        self._fd_slots.pop(fd, None)
        try:
            os.close(fd)
        except OSError:
            pass
        slot.heartbeat_fd = None

    def _reap(self) -> None:
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            slot = next((s for s in self.slots if s.pid == pid), None)
            if slot is None:
                continue
            self._on_exit(slot, os.waitstatus_to_exitcode(status))

    def _on_exit(self, slot: WorkerSlot, code: int) -> None:
        now = time.monotonic()
        alive_s = now - slot.started_at
        self._release_fd(slot)
        slot.pid = None
        was_draining = slot.state == DRAINING
        if self._stopping:
            slot.state = STOPPED
            return
        if was_draining and slot.rolling:
            # Deliberate rolling replacement: no backoff, no budget.
            slot.rolling = False
            slot.consecutive_failures = 0
            self._log(f"worker {slot.index} drained for rolling "
                      f"restart (code {code}); replacing")
            self._spawn(slot)
            return
        # Crash, wedge-kill, or an exit nobody asked for.
        self.crashes += 1
        if alive_s >= self.backoff.stable_after_s:
            slot.consecutive_failures = 0
        slot.consecutive_failures += 1
        delay = self.backoff.delay(slot.consecutive_failures,
                                   self._rng)
        slot.state = DOWN
        slot.restart_at = now + delay
        cause = (f"signal {-code}" if code < 0 else f"code {code}")
        self._log(f"worker {slot.index} died ({cause}, up "
                  f"{alive_s:.1f}s); restart in {delay:.2f}s "
                  f"(failure #{slot.consecutive_failures})")

    def _process_restarts(self, now: float) -> None:
        for slot in self.slots:
            if slot.state != DOWN or now < slot.restart_at:
                continue
            if self.budget.try_spend(now):
                slot.restarts += 1
                self._spawn(slot)
            else:
                retry = max(1.0, self.budget.retry_after(now))
                slot.restart_at = now + retry
                alive = sum(1 for s in self.slots
                            if s.pid is not None)
                self._log(
                    f"restart budget exhausted "
                    f"({self.budget.budget}/{self.budget.window_s:g}s"
                    f"); degraded to {alive} worker(s), retrying "
                    f"slot {slot.index} in {retry:.1f}s")

    def _check_wedged(self, now: float) -> None:
        for slot in self.slots:
            if slot.pid is None:
                continue
            if slot.state == READY:
                silent = now - slot.last_beat
                if silent > self.heartbeat_timeout:
                    self.wedge_kills += 1
                    self._log(f"worker {slot.index} (pid {slot.pid}) "
                              f"silent for {silent:.1f}s: wedged, "
                              f"killing")
                    self._kill(slot)
            elif slot.state == STARTING:
                if now - slot.started_at > self.boot_grace_s:
                    self.wedge_kills += 1
                    self._log(f"worker {slot.index} (pid {slot.pid}) "
                              f"never became ready: killing")
                    self._kill(slot)

    def _kill(self, slot: WorkerSlot) -> None:
        if slot.pid is None:
            return
        try:
            os.kill(slot.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _drain_heartbeats(self, slot: WorkerSlot) -> None:
        fd = slot.heartbeat_fd
        if fd is None:
            return
        got = False
        while True:
            try:
                chunk = os.read(fd, 4096)
            except BlockingIOError:
                break
            except OSError:
                break
            if not chunk:
                break  # EOF: the reap will handle the exit
            got = True
        if got:
            slot.last_beat = time.monotonic()
            if slot.state == STARTING:
                slot.state = READY
                self._log(f"worker {slot.index} (pid {slot.pid}) "
                          f"ready")

    # -- rolling restart ----------------------------------------------

    def _begin_rolling(self) -> None:
        if self._roll_queue or self._roll_slot is not None:
            return  # a roll is already in progress
        self._roll_queue.extend(range(len(self.slots)))
        self._log(f"rolling restart of {len(self.slots)} worker(s)")

    def _advance_rolling(self, now: float) -> None:
        if self._roll_slot is None:
            while self._roll_queue:
                index = self._roll_queue.popleft()
                slot = self.slots[index]
                if slot.pid is None:
                    continue  # already down; restart path owns it
                slot.state = DRAINING
                slot.rolling = True
                self._roll_slot = index
                self._roll_deadline = (
                    now + self.config.drain_grace_s + 5.0)
                try:
                    os.kill(slot.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
                self._log(f"rolling: draining worker {index} "
                          f"(pid {slot.pid})")
                return
            return
        slot = self.slots[self._roll_slot]
        if slot.state == DRAINING and now > self._roll_deadline:
            self._log(f"rolling: worker {slot.index} ignored drain; "
                      f"killing")
            self._kill(slot)
            self._roll_deadline = now + 5.0
        elif slot.state == READY:
            # The replacement is heartbeating: move to the next slot.
            self._roll_slot = None
        elif slot.state == DOWN:
            # Replacement crashed at boot; the restart machinery owns
            # the slot now — do not stall the roll behind it.
            self._roll_slot = None

    # -- signals -------------------------------------------------------

    def _install_signals(self) -> dict:
        previous = {}

        def request_stop(signum, frame):  # noqa: ARG001
            self._stop_requested = True
            self._wake()

        def request_hup(signum, frame):  # noqa: ARG001
            self._hup_requested = True
            self._wake()

        def on_chld(signum, frame):  # noqa: ARG001
            self._wake()

        for signum, handler in ((signal.SIGTERM, request_stop),
                                (signal.SIGINT, request_stop),
                                (signal.SIGHUP, request_hup),
                                (signal.SIGCHLD, on_chld)):
            previous[signum] = signal.signal(signum, handler)
        return previous

    def _wake(self) -> None:
        if self._wake_w >= 0:
            try:
                os.write(self._wake_w, b"w")
            except OSError:
                pass

    # -- the main loop -------------------------------------------------

    def status(self) -> dict:
        now = time.monotonic()
        return {
            "workers": self.workers,
            "alive": sum(1 for s in self.slots if s.pid is not None),
            "ready": sum(1 for s in self.slots if s.state == READY),
            "crashes": self.crashes,
            "wedge_kills": self.wedge_kills,
            "restarts": sum(s.restarts for s in self.slots),
            "budget_tripped": self.budget.tripped(now),
            "budget_spent": self.budget.spent,
            "budget_refused": self.budget.refused,
            "budget_remaining": self.budget.remaining(now),
            "stopping": self._stopping or self._stop_requested,
            "rolling": self._roll_slot is not None
                       or bool(self._roll_queue),
            "slots": [
                {
                    "index": s.index,
                    "pid": s.pid,
                    "state": s.state,
                    "restarts": s.restarts,
                    "consecutive_failures": s.consecutive_failures,
                }
                for s in self.slots
            ],
        }

    def _maybe_publish_status(self) -> None:
        """Atomically write :meth:`status` as JSON on every change.

        Orchestrators tail this file instead of parsing the stderr
        log.  The write is temp-file + rename (readers never see a
        partial document) and is skipped when nothing changed, so the
        steady-state fleet does not rewrite the file once per poll.
        Write failures are logged once per change, never fatal: losing
        observability must not take down serving.
        """
        if self.status_file is None:
            return
        import json

        text = json.dumps(self.status(), sort_keys=True)
        if text == self._last_status_json:
            return
        self._last_status_json = text
        tmp = f"{self.status_file}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as handle:
                handle.write(text + "\n")
            os.replace(tmp, self.status_file)
        except OSError as exc:
            self._log(f"status file write failed: {exc}")
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def run(self) -> int:
        host, port = self._reserve_address()
        if self.port_file is not None:
            _publish_port(self.port_file, host, port)
        self._log(f"supervising {self.workers} worker(s) on "
                  f"{host}:{port} (SIGTERM drains, SIGHUP rolls)")
        # Pin the resolved address so every forked worker binds it.
        self.config = ServeConfig(**{
            **self.config.__dict__, "host": host, "port": port})
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        previous = self._install_signals()
        try:
            # Initial boot is not a restart: it never spends budget.
            for slot in self.slots:
                self._spawn(slot)
            self._maybe_publish_status()
            while True:
                timeout = self._poll_timeout()
                for key, _ in self._selector.select(timeout):
                    if key.fd == self._wake_r:
                        while True:
                            try:
                                if not os.read(self._wake_r, 4096):
                                    break
                            except (BlockingIOError, OSError):
                                break
                    else:
                        slot = self._fd_slots.get(key.fd)
                        if slot is not None:
                            self._drain_heartbeats(slot)
                self._reap()
                if self._stop_requested:
                    break
                if self._hup_requested:
                    self._hup_requested = False
                    self._begin_rolling()
                now = time.monotonic()
                self._check_wedged(now)
                self._advance_rolling(now)
                self._process_restarts(now)
                self._maybe_publish_status()
            return self._shutdown()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._selector.close()
            for fd in (self._wake_r, self._wake_w):
                if fd >= 0:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
            if self._reserve_sock is not None:
                self._reserve_sock.close()

    def _poll_timeout(self) -> float:
        now = time.monotonic()
        horizon = now + 1.0
        for slot in self.slots:
            if slot.state == DOWN:
                horizon = min(horizon, slot.restart_at)
            elif slot.pid is not None:
                horizon = min(
                    horizon, slot.last_beat + self.heartbeat_timeout)
        if self._roll_slot is not None:
            horizon = min(horizon, self._roll_deadline)
        return max(0.05, horizon - now)

    def _shutdown(self) -> int:
        self._stopping = True
        alive = [s for s in self.slots if s.pid is not None]
        self._log(f"shutting down: draining {len(alive)} worker(s)")
        for slot in alive:
            slot.state = DRAINING
            try:
                os.kill(slot.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        self._maybe_publish_status()
        deadline = time.monotonic() + self.config.drain_grace_s + 5.0
        while (any(s.pid is not None for s in self.slots)
               and time.monotonic() < deadline):
            self._selector.select(0.05)
            self._reap()
        for slot in self.slots:
            if slot.pid is not None:
                self._log(f"worker {slot.index} ignored drain; "
                          f"killing")
                self._kill(slot)
                try:
                    os.waitpid(slot.pid, 0)
                except (ChildProcessError, OSError):
                    pass
                slot.pid = None
                self._release_fd(slot)
                slot.state = STOPPED
        self._log("fleet stopped")
        self._maybe_publish_status()
        return 0
