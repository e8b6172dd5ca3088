"""The ``plan-cold`` workload, and the compile rounds every workload runs.

``plan-cold`` compiles a fixed program set through all five compiler
phases to C, builds each with gcc, runs it once against the oracle and
times it at B=64, in rounds that each start from a fresh compiler
session and a fresh shared-object cache; every round must reproduce
the first one's per-pass i-code counts and C source (the determinism
check).  Each round also runs the capped small-size DP search.  No
server, no wisdom.

The set is the serving factorizer's FFTs (``fft_factors`` +
``ct_multi``) at 16..4096, one WHT and one DCT-II, compiled with the
serving registry's options (real code type, ``-B 16``).
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import resource
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common
import oracle
from tracing import Tracer

from repro.core import compiler as compiler_mod
from repro.core import parser as parser_mod
from repro.core.codegen import CodeGenerator
from repro.core.compiler import CompilerOptions, SplCompiler
from repro.formulas.factorization import ct_multi, dct2_split, wht_multi
from repro.perfeval import ccompile, jit, runner, timing
from repro.perfeval import sandbox as sandbox_mod
from repro.perfeval.sandbox import Quarantine, SandboxPolicy
from repro.search import dp
from repro.search.measure import validate_fft_formula
from repro.serve.plans import fft_factors

perf_counter = time.perf_counter
KERNEL_BATCH = 64
KERNEL_TIME_S = 0.15  # timing budget per kernel and measurement
#: Compile rounds per ``plan-cold`` run, each in its own process
#: (``round.py``).
ROUNDS = 4
#: Cold interpreter start-ups timed per ``plan-cold`` run.
SETUPS = 5
#: The capped small-size DP search (sizes, per-size candidate cap),
#: run once per round.
SEARCH_SIZES = (2, 4, 8, 16)
SEARCH_CAP = 3
_SECONDS = struct.Struct("d")


def program_set() -> list[tuple[str, str, int, str, str]]:
    """(name, transform, n, SPL text, datatype) of the compiled set."""
    programs = [(f"fft{n}", "fft", n, ct_multi(fft_factors(n)).to_spl(),
                 "complex") for n in (16, 64, 256, 1024, 4096)]
    programs.append(("wht1024", "wht", 1024,
                     wht_multi([2] * 5).to_spl(), "real"))
    programs.append(("dct2_32", "dct2", 32, dct2_split(32).to_spl(), "real"))
    return programs


def session() -> SplCompiler:
    return SplCompiler(CompilerOptions(codetype="real", unroll_threshold=16))


def cold_setup(scratch: common.Scratch) -> float:
    """Seconds from spawning a fresh interpreter to a ready compiler
    session with probed toolchain (see ``session.py``)."""
    env = common.child_env(scratch.fresh("setup"))
    start = perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).with_name(
        "session.py"))], env=env, check=True, timeout=120)
    return perf_counter() - start


def cpu_seconds() -> float:
    """CPU time of the calling thread and of reaped children (gcc).

    On a shared VM the time the host takes the CPU away is accounted as
    steal, not to the process, so CPU time leaves it out.  Only this
    thread counts: numpy's BLAS threads spin on after the oracle's
    matrix products.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + kids.ru_utime + kids.ru_stime


def compile_pass(build_dir: Path, programs, inputs: dict,
                 tracer: Tracer | None) -> dict:
    """Compile, build, first-run and check every program once.

    Each phase is timed in CPU seconds (:func:`cpu_seconds`; the
    compiler runs on one thread and gcc builds one program at a time,
    so on a quiet host CPU time is wall time), and in wall seconds.
    The host's speed (:func:`common.host_slowdown`) is probed just
    before and just after each program.
    """
    build_dir.mkdir(parents=True, exist_ok=True)
    os.environ["SPL_BUILD_DIR"] = str(build_dir)
    compiler = session()
    if tracer is not None:
        tracer.wrap(parser_mod, "parse_formula_text", "compiler.parse")
        tracer.wrap(SplCompiler, "compile_formula", "compiler.compile")
        tracer.wrap(CodeGenerator, "generate", "compiler.icodegen")
        tracer.wrap(compiler_mod, "emit_c", "compiler.emit")
        tracer.wrap(runner, "build_executable", "runner.build")
        wrap_gcc(tracer, "ccompile.gcc")
    out = {}
    try:
        for name, transform, _, text, datatype in programs:
            X = inputs[name]
            slowdown = common.host_slowdown()
            start, cpu_start = perf_counter(), cpu_seconds()
            formula = parser_mod.parse_formula_text(text, compiler.defines)
            routine = compiler.compile_formula(formula, name,
                                               datatype=datatype,
                                               language="c")
            compiled, cpu_compiled = perf_counter(), cpu_seconds()
            executable = runner.build_executable(routine, prefer="c")
            built, cpu_built = perf_counter(), cpu_seconds()
            Y = executable.apply_many(X)
            ran, cpu_ran = perf_counter(), cpu_seconds()
            slowdown = (slowdown + common.host_slowdown()) / 2
            ok = oracle.rows_ok(Y, oracle.reference(transform, X))
            out[name] = {
                "started": start,
                "finished": ran,
                "compile_s": cpu_compiled - cpu_start,
                "build_s": cpu_built - cpu_compiled,
                "cold_s": cpu_ran - cpu_start,
                "wall_s": {"compile": compiled - start,
                           "build": built - compiled, "cold": ran - start},
                "slowdown": slowdown,
                "bad_rows": int((~ok).sum()),
                "executable": executable,
                "passes": routine.pass_summary(),
                "icode_out": [p["icode_out"] for p in routine.pass_summary()],
                "source_sha256": hashlib.sha256(
                    routine.source.encode()).hexdigest(),
                "source_bytes": len(routine.source.encode()),
                "scratch_bytes": routine.scratch_bytes,
            }
    finally:
        if tracer is not None:
            tracer.restore()
    return out


def wrap_gcc(tracer: Tracer, name: str) -> None:
    """Time ``compile_shared_object``, labelled hit or miss by whether
    its cached ``.so`` existed before the call."""

    def label(args, kwargs) -> str:
        digest = ccompile.shared_object_cache_key(
            args[0], cflags=kwargs.get("cflags", ()),
            openmp=kwargs.get("openmp", False),
            key_extra=kwargs.get("key_extra", ()))
        build_dir = kwargs.get("build_dir") or ccompile.default_build_dir()
        return "hit" if (Path(build_dir) / f"spl_{digest}.so").exists() \
            else "miss"

    tracer.wrap(ccompile, "compile_shared_object", name, label=label)


def kernel_times(results: dict, inputs: dict) -> dict[str, float]:
    """Best-of seconds of one ``apply_many`` at B=64, per program."""
    return common.best_of_rounds(
        {name: (lambda e=record["executable"], X=inputs[name]:
                e.apply_many(X))
         for name, record in results.items()}, KERNEL_TIME_S)


def run_search(build_dir: Path, tracer: Tracer | None, seed: int) -> dict:
    """The capped small-size DP search with the CLI's default sandboxed
    measurement; each winner is rebuilt and checked against numpy."""
    build_dir.mkdir(parents=True, exist_ok=True)
    os.environ["SPL_BUILD_DIR"] = str(build_dir)
    # The sandbox times each candidate in a forked worker, one at a
    # time; the worker adds its time_callable wall time to this
    # anonymous shared page, which the fork inherits.
    timed = mmap.mmap(-1, _SECONDS.size)
    if tracer is not None:
        tracer.wrap(dp, "measure_formulas", "search.measure")
        tracer.wrap(SplCompiler, "compile_formula", "search.compile")
        tracer.wrap(sandbox_mod, "measure_candidate", "search.sandbox")
        wrap_gcc(tracer, "search.gcc")

        def add_timing(args, kwargs, result, start, end):
            (total,) = _SECONDS.unpack_from(timed)
            _SECONDS.pack_into(timed, 0, total + end - start)

        tracer.wrap(timing, "time_callable", "search.timing",
                    after=add_timing)
    slowdown = common.host_slowdown()
    cpu_start = cpu_seconds()
    try:
        results = dp.search_small_sizes(
            SEARCH_SIZES, max_candidates=SEARCH_CAP,
            sandbox=SandboxPolicy(timeout=30.0), quarantine=Quarantine())
    finally:
        if tracer is not None:
            tracer.restore()
    # CPU seconds, as for a compile: the candidates' gcc builds and
    # sandbox workers are reaped children.
    search_s = cpu_seconds() - cpu_start
    slowdown = (slowdown + common.host_slowdown()) / 2
    compiler = dp.default_small_compiler()
    rng = np.random.default_rng(seed)
    checked = bad = 0
    validate_s = 0.0
    for n, result in results.items():
        routine = compiler.compile_formula(result.formula, f"spl_won{n}",
                                           language="c")
        executable = runner.build_executable(routine, prefer="c")
        X = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
        checked += 1
        bad += int(not oracle.rows_ok(executable.apply_many(X),
                                      np.fft.fft(X, axis=1)).all())
        t0 = perf_counter()
        validate_fft_formula(compiler, result.formula, n)
        validate_s += perf_counter() - t0
    timing_s = _SECONDS.unpack_from(timed)[0]
    timed.close()
    return {
        "search_s": search_s,
        "slowdown": slowdown,
        "candidates": sum(r.candidates_tried for r in results.values()),
        "failed": sum(r.candidates_failed for r in results.values()),
        "winners_checked": checked,
        "winners_wrong": bad,
        "timing_s": timing_s,
        "validate_s": validate_s,
    }


def search_layers(tracer: Tracer, search: dict) -> dict[str, float]:
    """Split search time into compile, gcc, timing and isolation."""
    selfs = tracer.self_times()
    # The sandbox span minus its gcc child is fork, pipe, load, probe
    # call and the timing loop; the timing loop is measured in the
    # worker, the rest is the cost of isolation.
    sandbox_self = sum(selfs[span_id] for span_id, name, *_ in tracer.spans
                       if name == "search.sandbox")
    return {
        "search.compile_ms": sum(tracer.durations("search.compile")) * 1e3,
        "search.gcc_ms": sum(tracer.durations("search.gcc")) * 1e3,
        "search.timing_ms": search["timing_s"] * 1e3,
        "search.isolation_ms": (sandbox_self - search["timing_s"]) * 1e3,
        "search.validate_ms": search["validate_s"] * 1e3,
        "search.candidates": float(search["candidates"]),
        "search.failed": float(search["failed"]),
    }


def gcc_layers(tracers: list[Tracer], extra_calls: int = 0,
               extra_hits: int = 0, extra_miss_s: float = 0.0
               ) -> dict[str, float]:
    """ccompile.* over every ``compile_shared_object`` call the tracers
    saw (labelled hit/miss), plus counts gathered in another process."""
    calls, hits, miss_s = extra_calls, extra_hits, extra_miss_s
    for tracer in tracers:
        for prefix in ("ccompile.gcc", "search.gcc"):
            labelled = tracer.by_label(prefix)
            hits += len(labelled.get("hit", []))
            calls += sum(len(v) for v in labelled.values())
            miss_s += sum(labelled.get("miss", []))
    return {
        "ccompile.gcc_ms": miss_s * 1e3,
        "ccompile.calls": float(calls),
        "ccompile.cache_hit_frac": hits / calls if calls else 0.0,
    }


def make_inputs(programs, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, _, n, _, datatype in programs:
        X = rng.standard_normal((KERNEL_BATCH, n))
        if datatype == "complex":
            X = X + 1j * rng.standard_normal((KERNEL_BATCH, n))
        inputs[name] = X
    return inputs


def warm_process(build_dir: Path) -> None:
    """Pay the interpreter's lazy imports and the toolchain probes up
    front, so no pass pays them inside a program's cold latency."""
    build_dir.mkdir(parents=True, exist_ok=True)
    os.environ["SPL_BUILD_DIR"] = str(build_dir)
    ccompile.have_openmp()
    ccompile.have_openmp_simd()
    jit.jit_supported()
    runner.build_executable(session().compile_formula(
        "(F 2)", "warm", language="c"), prefer="c")


def run_round(programs, scratch: common.Scratch, seed: int,
              search_seed: int | None, kernels: bool = True) -> dict:
    """One round in a fresh interpreter (see ``round.py``); ``kernels``
    times the compiled kernels at B=64."""
    job = {"programs": programs, "seed": seed, "search_seed": search_seed,
           "kernels": kernels, "dir": str(scratch.fresh("round"))}
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("round.py"))],
        input=json.dumps(job), capture_output=True, text=True,
        env=common.child_env(scratch.fresh("round-build")), timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"compile round failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure_rounds(programs, scratch, seed: int, counts,
                   tracer: Tracer | None = None,
                   search_tracer: Tracer | None = None) -> dict:
    """``ROUNDS`` compile rounds back to back (one when traced), then
    :func:`summarize_rounds`."""
    rounds = [run_round(programs, scratch, seed,
                        None if tracer is not None else seed + i)
              for i in range(1 if tracer is not None else ROUNDS)]
    return summarize_rounds(programs, rounds, scratch, seed, counts,
                            tracer, search_tracer)


def summarize_rounds(programs, rounds: list[dict], scratch, seed: int,
                     counts, tracer: Tracer | None = None,
                     search_tracer: Tracer | None = None) -> dict:
    """Best-of and correctness over compile rounds.

    Each round ran in its own fresh interpreter (see ``round.py``) with
    a fresh compiler session and shared-object cache, and checked every
    first run against the oracle.  Host slowdowns and a process's memory
    layout only ever add time, so kernel times are the best of the
    rounds.  Every round must reproduce the first one's per-pass i-code
    counts and C source exactly — across processes, so across hash
    seeds.

    Compile, build, cold-plan and search times are CPU seconds averaged
    over the rounds and scaled to the reference host speed by the
    run's average slowdown, probed around every program and search
    (:func:`common.host_slowdown`): one probe is too short to track
    the host, but their mean over a run tracks it well.

    A traced run needs no end-to-end samples: its one round is the
    determinism and overhead baseline for a traced pass and a traced
    search made here, in this process.
    """
    passes = [out["programs"] for out in rounds]
    runs = [out["search"] for out in rounds if out["search"] is not None]
    kernel: dict[str, float] = {}
    for out in rounds:
        for name, seconds in out["kernel_s"].items():
            kernel[name] = min(seconds, kernel.get(name, seconds))
    untraced, searches = list(passes), list(runs)
    if tracer is not None:
        warm_process(scratch.fresh("warm"))
        passes.append(compile_pass(scratch.fresh("build"), programs,
                                   make_inputs(programs, seed), tracer))
        runs.append(run_search(scratch.fresh("search"), search_tracer, seed))
    for record in passes:
        for item in record.values():
            counts.attempt(1, failed=item["bad_rows"] > 0)
    first = passes[0]
    for name in first:
        same = all(p[name]["icode_out"] == first[name]["icode_out"]
                   and p[name]["source_sha256"]
                   == first[name]["source_sha256"] for p in passes[1:])
        counts.attempt(1, failed=not same)
        if not same:
            counts.note(f"nondeterministic compile of {name}")
    for search in runs:
        counts.attempt(search["candidates"], failed=search["failed"])
        counts.attempt(search["winners_checked"],
                       failed=search["winners_wrong"])
    slowdown = common.mean(
        [r["slowdown"] for p in untraced for r in p.values()]
        + [r["slowdown"] for r in searches])

    def scaled(values) -> float:
        return common.mean(values) / slowdown

    return {
        "passes": passes,
        "rounds": [round_summary(p) for p in untraced],
        "slowdown": slowdown,
        "kernel_s": kernel,
        "compile_s": scaled(sum(r["compile_s"] for r in p.values())
                            for p in untraced),
        "build_s": scaled(sum(r["build_s"] for r in p.values())
                          for p in untraced),
        "cold_ms": {name: scaled(p[name]["cold_s"] for p in untraced) * 1e3
                    for name in first},
        "search": dict(runs[-1], search_s=scaled(
            r["search_s"] for r in searches) if searches else math.nan),
        "rss_mb": max(out["rss_mb"] for out in rounds),
    }


def round_summary(records: dict) -> dict[str, float]:
    """CPU and wall seconds of one round's phases, and its mean
    slowdown (for the detail line)."""
    out = {}
    for phase in ("compile", "build", "cold"):
        out[f"{phase}_cpu"] = sum(r[f"{phase}_s"] for r in records.values())
        out[f"{phase}_wall"] = sum(r["wall_s"][phase]
                                   for r in records.values())
    out["slowdown"] = common.mean(r["slowdown"] for r in records.values())
    return {key: round(value, 4) for key, value in out.items()}


def compile_layers(tracer: Tracer, records: dict) -> dict[str, float]:
    """compiler.* from the traced pass, per-program counts included."""
    metrics = {
        "compiler.parse_ms": sum(tracer.durations("compiler.parse")) * 1e3,
        "compiler.icodegen_ms": sum(
            tracer.durations("compiler.icodegen")) * 1e3,
        "compiler.emit_ms": sum(tracer.durations("compiler.emit")) * 1e3,
    }
    for name, record in records.items():
        for p in record["passes"]:
            key = f"compiler.pass_ms.{p['name']}"
            metrics[key] = metrics.get(key, 0.0) + p["micros"] / 1e3
        metrics[f"compiler.icode_out.{name}"] = float(record["icode_out"][-1])
        metrics[f"compiler.scratch_bytes.{name}"] = float(
            record["scratch_bytes"])
        metrics[f"compiler.source_bytes.{name}"] = float(
            record["source_bytes"])
    return metrics


def largest_phase(tracer: Tracer, record: dict) -> str:
    """The costliest compiler phase of one traced program."""
    phases = {p["name"]: p["micros"] / 1e6 for p in record["passes"]}
    for span in ("compiler.parse", "compiler.icodegen", "compiler.emit"):
        spans = [end - start for _, name, start, end, _ in tracer.spans
                 if name == span and start >= record["started"]
                 and end <= record["finished"]]
        phases[span] = sum(spans)
    return max(phases, key=phases.get)


def run(args, scratch: common.Scratch, metrics, counts) -> None:
    """Fill ``metrics`` (name -> value) and ``counts`` for one run."""
    if not args.trace:
        metrics["setup_s"] = common.median(
            cold_setup(scratch) for _ in range(SETUPS))
    tracer = Tracer() if args.trace else None
    search_tracer = Tracer() if args.trace else None
    compiled = measure_rounds(program_set(), scratch, args.seed, counts,
                              tracer, search_tracer)
    last = compiled["passes"][-1]
    kernel = compiled["kernel_s"]
    sizes = {name: n for name, _, n, _, _ in program_set()}
    mflops = {name: common.pseudo_mflops(sizes[name], seconds / KERNEL_BATCH)
              for name, seconds in kernel.items()}
    search = compiled["search"]

    counts.detail["cold_ms"] = {name: round(ms, 3)
                                for name, ms in compiled["cold_ms"].items()}
    counts.detail["rounds"] = compiled["rounds"]
    counts.detail["host_slowdown"] = round(compiled["slowdown"], 4)
    if not args.trace:
        metrics.update({
            # The set's typical cold-plan latency: with seven programs
            # the plain median jumps between two of them, so the
            # geometric mean stands in for it.
            "latency_p50_ms": common.geomean(compiled["cold_ms"].values()),
            "peak_rss_mb": compiled["rss_mb"],
            "compile_s": compiled["compile_s"],
            "build_s": compiled["build_s"],
            "search_s": search["search_s"],
            "kernel_mflops": common.geomean(mflops.values()),
        })
        return

    # Both sides speed-corrected the same way: by a mean slowdown.
    metrics["trace.overhead_frac"] = common.geomean(
        r["cold_s"] for r in last.values()) / common.mean(
        r["slowdown"] for r in last.values()) * 1e3 / common.geomean(
        compiled["cold_ms"].values()) - 1.0
    metrics.update(compile_layers(tracer, last))
    for name in last:
        metrics[f"kernel.mflops.{name}"] = mflops[name]
        metrics[f"runner.us_per_vector.{name}"] = \
            kernel[name] / KERNEL_BATCH * 1e6
    metrics["runner.breaker_trips"] = float(sum(
        len(r["executable"].backend_failures) for r in last.values()))
    metrics.update(gcc_layers([tracer, search_tracer]))
    metrics.update(search_layers(search_tracer, search))
    if "fft4096" in last:
        counts.detail["largest_phase_fft4096"] = largest_phase(
            tracer, last["fft4096"])
    check_nesting([tracer, search_tracer], counts)


def check_nesting(tracers, counts) -> None:
    violations = [v for t in tracers for v in t.nesting_violations()]
    counts.attempt(1, failed=bool(violations))
    if violations:
        counts.note("span nesting: " + "; ".join(violations[:3]))
