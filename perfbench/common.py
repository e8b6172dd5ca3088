"""Helpers shared by the perfbench workloads.

Statistics (medians and percentiles over raw samples), hermetic
scratch directories inside the checkout, the run's provenance record,
and the process-level resource readings the end-to-end metrics use.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives under here (listed in .gitignore).
SCRATCH = ROOT / ".perfbench"


def require_sources() -> None:
    """Exit non-zero when the program under test is not in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro; run from a "
              "full checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(build_dir: Path) -> dict[str, str]:
    """Environment for a program process: the checkout's sources and a
    fresh shared-object cache; no opt-in flags that change codegen."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SPL_BUILD_DIR"] = str(build_dir)
    for knob in ("SPL_CFLAGS", "SPL_JIT", "SPL_JIT_UPGRADE", "SPL_CHAOS"):
        env.pop(knob, None)
    return env


class Scratch:
    """A per-run directory under ``.perfbench/``, removed on close."""

    def __init__(self, tag: str):
        SCRATCH.mkdir(exist_ok=True)
        self.path = SCRATCH / f"{tag}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir()
        self._count = 0

    def fresh(self, name: str) -> Path:
        """A new empty directory (one per set-up or compile pass)."""
        self._count += 1
        path = self.path / f"{name}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else math.nan


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else math.nan


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    import numpy as np

    values = list(values)
    return float(np.percentile(values, q)) if values else math.nan


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


def best_of_rounds(calls: dict, seconds_each: float,
                   rounds: int = 5) -> dict[str, float]:
    """Best-of seconds per call for each named zero-argument callable.

    Noise on a shared host only ever adds time, and it comes in spells
    of a second or more, so each callable is timed in ``rounds`` short
    slices taken round-robin across all of them — spread over the whole
    measurement — and the fastest single call is kept (the paper's
    best-of timing, as in ``repro.perfeval.timing.time_callable``).
    """
    best = {name: math.inf for name in calls}
    slice_s = seconds_each / rounds
    for _ in range(rounds):
        for name, fn in calls.items():
            stop = time.perf_counter() + slice_s
            count = 0
            while count < 2 or time.perf_counter() < stop:
                start = time.perf_counter()
                fn()
                best[name] = min(best[name], time.perf_counter() - start)
                count += 1
    return best


#: CPU seconds of one :func:`_probe_loop` on the reference host (the
#: Intel Xeon 2-vCPU VM the benchmark was tuned on, CPython 3.11) when
#: nothing else runs on its cores.
PROBE_REF_S = 0.0065


def _probe_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def host_slowdown(repeats: int = 5) -> float:
    """How much slower than the reference this core runs right now.

    On a shared host, neighbours on the same physical cores slow a
    process down by 30% or more for seconds to minutes, and CPU time
    grows with them (it is not steal).  A fixed pure-Python loop slows
    down with the rest, so its median CPU time over ``PROBE_REF_S`` is
    the factor by which to scale a CPU time measured next to it back
    to the reference speed.
    """
    times = []
    for _ in range(repeats):
        start = time.thread_time()
        _probe_loop()
        times.append(time.thread_time() - start)
    return statistics.median(times) / PROBE_REF_S


def steal_seconds() -> float:
    """CPU time the host has taken from this VM so far (all CPUs), from
    ``/proc/stat``; 0 where the kernel does not report it."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pseudo_mflops(n: int, seconds_per_vector: float) -> float:
    """The paper's performance measure, ``5 n log2 n / t`` (§4)."""
    return 5.0 * n * math.log2(n) / seconds_per_vector / 1e6


def provenance() -> dict:
    """What the numbers were measured on and with."""
    from repro.wisdom.keys import hardware_fingerprint

    revision = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            revision = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    gcc = "none"
    try:
        out = subprocess.run(["gcc", "--version"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            gcc = out.stdout.splitlines()[0].strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest()[:16],
        "hardware_fingerprint": hardware_fingerprint(),
        "cpu_count": os.cpu_count(),
        "gcc": gcc,
        "python": sys.version.split()[0],
    }
