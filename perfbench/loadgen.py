"""An open-loop load generator that times requests from when they were due.

Arrivals follow a schedule fixed before a phase starts (Poisson, from
the run's seed).  One sender thread sleeps until each request is due,
stamps the issue time and writes the frame; the calling thread reads
responses from every connection, decodes them with the program's own
protocol functions and checks each against the oracle.  A request's
latency runs from its *due* time to the arrival of its response, so a
stall that delays later sends is charged to those requests; how far
issue times fell behind the schedule is reported as lateness.

The generator uses one thread per role (sender, receiver) and one socket
per connection, within the ``nproc`` budget of the workloads.
"""

from __future__ import annotations

import selectors
import socket
import struct
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
from repro.serve.protocol import (
    bytes_to_vector,
    decode_header,
    encode_frame,
    resolve_dtype,
)

perf_counter = time.perf_counter
_PREFIX = struct.Struct(">I")

PENDING, OK, WRONG, REFUSED, ERROR = range(5)
#: At low rates the sender sleeps to ``SPIN_S`` before each due time
#: and spins the rest (sleep alone overshoots by ~0.1 ms here); at high
#: rates spinning would take a core from the server, so it only sleeps.
SPIN_S = 0.0003
SPIN_MAX_RATE = 200.0
#: Typed refusals the admission controller produces under overload.
REFUSAL_CODES = frozenset({"overload", "deadline"})


@dataclass
class Route:
    """One request shape with a seeded pool of inputs and their oracle
    outputs, computed before any phase starts."""

    transform: str
    n: int
    dtype: str
    payloads: list[bytes] = field(default_factory=list)
    expected: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def build(cls, spec: str, rng: np.random.Generator,
              pool: int = 8) -> "Route":
        transform, n, dtype = spec.split(":")
        route = cls(transform, int(n), dtype)
        X = rng.standard_normal((pool, route.n))
        if dtype == "complex128":
            X = X + 1j * rng.standard_normal((pool, route.n))
        R = oracle.reference(transform, X)
        for x, r in zip(X, R):
            route.payloads.append(np.ascontiguousarray(x).tobytes())
            route.expected.append(r)
        return route


@dataclass
class Schedule:
    due: np.ndarray  # seconds from the phase start
    route: np.ndarray  # index into the route list
    vector: np.ndarray  # index into the route's pool
    conn: np.ndarray  # connection index

    @classmethod
    def poisson(cls, rng: np.random.Generator, rate: float,
                duration: float, weights: list[float],
                pool: int, conns: int) -> "Schedule":
        count = max(1, int(rate * duration * 1.2) + 16)
        due = np.cumsum(rng.exponential(1.0 / rate, count))
        due = due[due < duration]
        if due.size == 0:
            due = np.array([0.0])
        size = due.size
        p = np.asarray(weights, dtype=float)
        return cls(due=due,
                   route=rng.choice(len(weights), size=size, p=p / p.sum()),
                   vector=rng.integers(0, pool, size=size),
                   conn=rng.integers(0, conns, size=size))


@dataclass
class PhaseResult:
    """Per-request outcomes of one phase (times in seconds)."""

    rate: float
    due: np.ndarray
    issue: np.ndarray
    done: np.ndarray
    state: np.ndarray
    errors: dict[str, int]
    wall_s: float

    @property
    def attempted(self) -> int:
        return int(self.state.size)

    def count(self, state: int) -> int:
        return int((self.state == state).sum())

    @property
    def latency(self) -> np.ndarray:
        """Due-to-response seconds of requests answered correctly."""
        mask = self.state == OK
        return self.done[mask] - self.due[mask]

    @property
    def latency_from_issue(self) -> np.ndarray:
        mask = self.state == OK
        return self.done[mask] - self.issue[mask]

    @property
    def late(self) -> np.ndarray:
        return self.issue - self.due


class LoadGenerator:
    """Open connections to the server; run phases over them."""

    def __init__(self, host: str, port: int, conns: int,
                 routes: list[Route]):
        self.routes = routes
        self.socks = [socket.create_connection((host, port), timeout=30)
                      for _ in range(conns)]
        for sock in self.socks:
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_id = 0

    def close(self) -> None:
        for sock in self.socks:
            try:
                sock.close()
            except OSError:
                pass

    def run(self, schedule: Schedule, rate: float,
            grace: float = 10.0) -> PhaseResult:
        """Issue ``schedule`` open-loop; wait up to ``grace`` seconds
        after the last issue for the remaining responses."""
        size = schedule.due.size
        base = self._next_id
        self._next_id += size
        issue = np.full(size, np.nan)
        done = np.full(size, np.nan)
        state = np.zeros(size, dtype=np.int8)
        errors: dict[str, int] = {}
        headers = [{"op": "transform", "transform": r.transform,
                    "n": r.n, "dtype": r.dtype} for r in self.routes]
        sent = threading.Event()
        send_error: list[BaseException] = []
        start = perf_counter() + 0.005
        due_abs = schedule.due + start
        spin = SPIN_S if rate <= SPIN_MAX_RATE else 0.0

        def send() -> None:
            try:
                for i in range(size):
                    due = due_abs[i]
                    wait = due - perf_counter()
                    if wait > spin:
                        time.sleep(wait - spin)
                    while perf_counter() < due:
                        pass
                    r = schedule.route[i]
                    frame = encode_frame(
                        dict(headers[r], id=base + i),
                        self.routes[r].payloads[schedule.vector[i]])
                    issue[i] = perf_counter()
                    self.socks[schedule.conn[i]].sendall(frame)
            except OSError as exc:
                send_error.append(exc)
            finally:
                sent.set()

        sender = threading.Thread(target=send, name="perfbench-send")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(0.0002)
        sender.start()
        try:
            self._receive(base, schedule, state, done, errors, sent, grace)
        finally:
            sender.join()
            sys.setswitchinterval(previous)
        if send_error:
            errors["send"] = errors.get("send", 0) + 1
        unanswered = state == PENDING
        if unanswered.any():
            state[unanswered] = ERROR
            errors["unanswered"] = int(unanswered.sum())
        return PhaseResult(rate=rate, due=due_abs, issue=issue, done=done,
                           state=state, errors=errors,
                           wall_s=perf_counter() - start)

    def _receive(self, base, schedule, state, done, errors, sent,
                 grace) -> None:
        selector = selectors.DefaultSelector()
        buffers = {}
        for sock in self.socks:
            selector.register(sock, selectors.EVENT_READ)
            buffers[sock] = bytearray()
        outstanding = schedule.due.size
        hard_stop = None
        try:
            while outstanding > 0:
                if sent.is_set():
                    if hard_stop is None:
                        hard_stop = perf_counter() + grace
                    elif perf_counter() > hard_stop:
                        return
                for key, _ in selector.select(timeout=0.05):
                    sock = key.fileobj
                    data = sock.recv(1 << 20)
                    arrived = perf_counter()
                    if not data:
                        selector.unregister(sock)
                        errors["closed"] = errors.get("closed", 0) + 1
                        continue
                    buf = buffers[sock]
                    buf += data
                    outstanding -= self._parse(buf, base, schedule, state,
                                               done, errors, arrived)
                if not selector.get_map():
                    return
        finally:
            selector.close()

    def _parse(self, buf: bytearray, base, schedule, state, done, errors,
               arrived: float) -> int:
        handled = 0
        pos = 0
        while len(buf) - pos >= 4:
            (header_len,) = _PREFIX.unpack_from(buf, pos)
            if len(buf) - pos < 4 + header_len:
                break
            header = decode_header(bytes(buf[pos + 4:pos + 4 + header_len]))
            payload_len = header.get("payload_bytes", 0)
            end = pos + 4 + header_len + payload_len
            if len(buf) < end:
                break
            payload = bytes(buf[pos + 4 + header_len:end])
            pos = end
            i = header.get("id", -1) - base
            if not 0 <= i < state.size or state[i] != PENDING:
                continue
            handled += 1
            done[i] = arrived
            if header.get("status") != "ok":
                code = str(header.get("code"))
                errors[code] = errors.get(code, 0) + 1
                state[i] = REFUSED if code in REFUSAL_CODES else ERROR
                continue
            route = self.routes[schedule.route[i]]
            try:
                y = bytes_to_vector(payload, header["n"],
                                    resolve_dtype(header["dtype"]))
                good = oracle.vector_ok(y, route.expected[schedule.vector[i]])
            except Exception:  # noqa: BLE001 - a bad frame is a wrong answer
                good = False
            state[i] = OK if good else WRONG
        del buf[:pos]
        return handled
