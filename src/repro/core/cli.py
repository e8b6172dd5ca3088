"""Command-line interface: ``spl-compile [options] file.spl``.

Mirrors the paper's compiler invocation, including the ``-B`` unrolling
threshold ('with the command-line option "-B 32", all the loops in
those sub-formulas whose input vector is smaller than or equal to 32
are fully unrolled').

Beyond the paper, ``--search-fft SIZES`` runs the §4.1 small-size
search from the command line, with ``--wisdom FILE`` persisting the
winners (so a repeat invocation re-measures nothing) and ``--jobs N``
measuring candidates concurrently.  Search measurements run in
sandboxed worker processes by default — a candidate that segfaults,
hangs past ``--measure-timeout`` or emits NaN is skipped and
quarantined instead of killing the search; ``--no-sandbox`` opts out.  ``--language numpy`` targets the
batch-vectorized NumPy backend, and ``--batch N`` times each compiled
routine over a random N-vector batch (``apply_many``) and reports
vectors/sec.

Parallel runtime knobs: ``--threads N`` runs ``apply_many`` across N
workers (OpenMP C driver or sharded thread-pool dispatch; 0 = one per
CPU), ``--dispatch`` drives the batch through the dynamic request
batcher (:class:`repro.runtime.BatchDispatcher`) from concurrent
client threads and reports its coalescing counters, and ``--cflags``
appends extra host-compiler flags (e.g. ``-march=native``; also
settable process-wide via ``SPL_CFLAGS``).
"""

from __future__ import annotations

import argparse
import shlex
import sys

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.errors import SplError
from repro.core.limits import DEFAULT_LIMITS


def build_arg_parser() -> argparse.ArgumentParser:
    arg_parser = argparse.ArgumentParser(
        prog="spl-compile",
        description="Compile SPL formulas into Fortran, C or Python.",
    )
    arg_parser.add_argument(
        "file", nargs="?", default=None,
        help="SPL source file ('-' for stdin); optional with --search-fft",
    )
    arg_parser.add_argument(
        "-B", "--unroll-threshold", type=int, metavar="SIZE", default=None,
        help="fully unroll loops of sub-formulas with input size <= SIZE",
    )
    arg_parser.add_argument(
        "--unroll", action="store_true",
        help="fully unroll every loop (straight-line code)",
    )
    arg_parser.add_argument(
        "--language", choices=("c", "cjit", "fortran", "python", "numpy"),
        default=None,
        help="target language (overrides #language directives; cjit = "
             "C semantics with in-process machine-code compilation "
             "for codelets)",
    )
    arg_parser.add_argument(
        "--datatype", choices=("real", "complex"), default=None,
        help="data type (overrides #datatype directives)",
    )
    arg_parser.add_argument(
        "--codetype", choices=("real", "complex"), default=None,
        help="code type (overrides #codetype directives)",
    )
    arg_parser.add_argument(
        "--optimize", choices=("none", "scalars", "default"),
        default="default", help="optimization level (default: default)",
    )
    arg_parser.add_argument(
        "--peephole", action="store_true",
        help="apply the SPARC-style unary-minus peephole",
    )
    arg_parser.add_argument(
        "--automatic", action="store_true",
        help="declare Fortran temporaries 'automatic' (stack allocation)",
    )
    arg_parser.add_argument(
        "--no-fusion", action="store_true",
        help="disable cross-stage loop fusion and scratch liveness "
             "reuse (reproduces the paper's stage-at-a-time code)",
    )
    arg_parser.add_argument(
        "--validate-passes", action="store_true",
        help="re-derive each routine's dense matrix after every "
             "optimizer pass and abort (SPL-E300) if any pass changed "
             "its semantics; slow, intended for debugging and fuzzing",
    )
    arg_parser.add_argument(
        "--dump-passes", action="store_true",
        help="print the per-pass compile report (statement/temp/"
             "scratch deltas, per-pass time) for each routine to stderr",
    )
    arg_parser.add_argument(
        "--max-icode", type=int, metavar="N", default=None,
        help="abort compilation past N intermediate-code statements "
             f"(default {DEFAULT_LIMITS.max_icode_statements})",
    )
    arg_parser.add_argument(
        "--max-unroll", type=int, metavar="N", default=None,
        help="reject loop unrolling past N total statements "
             f"(default {DEFAULT_LIMITS.max_unroll_statements})",
    )
    arg_parser.add_argument(
        "--compile-deadline", type=float, metavar="SECONDS", default=None,
        help="wall-clock limit per compiled routine "
             f"(default {DEFAULT_LIMITS.compile_deadline:g})",
    )
    arg_parser.add_argument(
        "--stats", action="store_true",
        help="print flop/memory statistics for each routine to stderr "
             "(with --wisdom: also the wisdom-cache counters)",
    )
    arg_parser.add_argument(
        "--batch", type=int, metavar="N", default=None,
        help="execute each compiled routine on a random batch of N "
             "vectors through apply_many and report vectors/sec on "
             "stderr (backend follows --language: c, numpy or python; "
             "default: fastest available)",
    )
    arg_parser.add_argument(
        "--threads", type=int, metavar="N", default=1,
        help="run apply_many across N workers: the OpenMP batch driver "
             "for the C backend, sharded thread-pool dispatch otherwise "
             "(0 = one per CPU; default 1)",
    )
    arg_parser.add_argument(
        "--dispatch", action="store_true",
        help="with --batch: serve the vectors through the dynamic "
             "request batcher from concurrent clients and report its "
             "coalescing stats instead of timing apply_many directly",
    )
    arg_parser.add_argument(
        "--cflags", metavar="FLAGS", default=None,
        help="extra host C compiler flags for compiled backends, e.g. "
             "--cflags=-march=native (the '=' form is needed for "
             "flags starting with '-'; also: SPL_CFLAGS env variable)",
    )
    arg_parser.add_argument(
        "--search-fft", metavar="SIZES", default=None,
        help="run the small-size FFT search over the comma-separated "
             "sizes (e.g. 2,4,8) and print the winners",
    )
    arg_parser.add_argument(
        "--wisdom", metavar="FILE", default=None,
        help="persistent wisdom file: search winners are loaded from / "
             "saved to it, keyed by platform and options",
    )
    arg_parser.add_argument(
        "--jobs", type=int, metavar="N", default=1,
        help="measure up to N candidates concurrently (0 = one per CPU)",
    )
    arg_parser.add_argument(
        "--min-time", type=float, metavar="SECONDS", default=0.005,
        help="minimum timed batch duration per measurement repeat",
    )
    arg_parser.add_argument(
        "--max-candidates", type=int, metavar="N", default=None,
        help="cap the per-size candidate count during --search-fft",
    )
    arg_parser.add_argument(
        "--unroll-search", metavar="SIZES", default=None,
        help="sweep the -B unroll threshold over these comma-separated "
             "values as a second --search-fft dimension (each candidate "
             "is measured once per threshold; the winning threshold is "
             "recorded in wisdom)",
    )
    arg_parser.add_argument(
        "--measure-timeout", type=float, metavar="SECONDS", default=30.0,
        help="wall-clock limit per sandboxed candidate measurement "
             "during --search-fft; hung candidates are killed and "
             "quarantined (default 30)",
    )
    arg_parser.add_argument(
        "--no-sandbox", action="store_true",
        help="measure --search-fft candidates in-process instead of in "
             "isolated worker processes (faster, but a crashing or "
             "hanging candidate takes the search down with it)",
    )
    arg_parser.add_argument(
        "--search-workers", type=int, metavar="N", default=None,
        help="fan --search-fft measurements over N leased forked "
             "workers (crash/hang-tolerant distributed search; implies "
             "per-candidate isolation, so --no-sandbox does not apply)",
    )
    arg_parser.add_argument(
        "--search-journal", metavar="FILE", default=None,
        help="append completed distributed-search measurements to this "
             "checksummed journal; an interrupted run resumes from it "
             "(only with --search-workers)",
    )
    return arg_parser


def _run_search(args: argparse.Namespace) -> int:
    from repro.perfeval.sandbox import (
        Quarantine,
        SandboxPolicy,
        sandbox_supported,
    )
    from repro.search.dp import search_small_sizes
    from repro.wisdom.store import WisdomStore

    try:
        sizes = tuple(
            int(part) for part in args.search_fft.split(",") if part.strip()
        )
    except ValueError:
        print(f"spl-compile: bad --search-fft value {args.search_fft!r}",
              file=sys.stderr)
        return 2
    if not sizes:
        print("spl-compile: --search-fft needs at least one size",
              file=sys.stderr)
        return 2
    thresholds = None
    if args.unroll_search is not None:
        try:
            thresholds = tuple(
                int(part) for part in args.unroll_search.split(",")
                if part.strip()
            )
        except ValueError:
            print("spl-compile: bad --unroll-search value "
                  f"{args.unroll_search!r}", file=sys.stderr)
            return 2
        if not thresholds:
            print("spl-compile: --unroll-search needs at least one "
                  "threshold", file=sys.stderr)
            return 2
    wisdom = WisdomStore(args.wisdom) if args.wisdom else None
    sandbox = None
    quarantine = None
    if not args.no_sandbox and sandbox_supported():
        sandbox = SandboxPolicy(timeout=args.measure_timeout)
        quarantine = Quarantine()
    use_dist = bool(args.search_workers)
    if use_dist:
        from repro.search.queue import queue_supported

        if not queue_supported():
            print("spl-compile: --search-workers needs POSIX fork; "
                  "falling back to the serial search", file=sys.stderr)
            use_dist = False
    try:
        if use_dist:
            from repro.search.dist import distributed_search_small_sizes
            from repro.search.queue import QueuePolicy

            results = distributed_search_small_sizes(
                sizes,
                max_candidates=args.max_candidates,
                min_time=args.min_time,
                wisdom=wisdom,
                policy=QueuePolicy(
                    workers=args.search_workers,
                    lease_timeout_s=args.measure_timeout,
                ),
                journal_path=args.search_journal,
                quarantine=quarantine or Quarantine(),
                unroll_thresholds=thresholds,
            )
        else:
            results = search_small_sizes(
                sizes,
                max_candidates=args.max_candidates,
                min_time=args.min_time,
                wisdom=wisdom,
                jobs=args.jobs,
                sandbox=sandbox,
                quarantine=quarantine,
                unroll_thresholds=thresholds,
            )
    except SplError as exc:
        print(f"spl-compile: {exc}", file=sys.stderr)
        return 1
    for n in sorted(results):
        print(results[n].describe())
    if wisdom is not None and wisdom.save_errors:
        print(f"spl-compile: warning: cannot write wisdom file "
              f"{wisdom.path} (results not persisted)", file=sys.stderr)
    if args.stats and wisdom is not None:
        print(wisdom.describe(), file=sys.stderr)
    if args.stats and quarantine is not None and len(quarantine):
        print(quarantine.describe(), file=sys.stderr)
    return 0


def _time_dispatch(executable, args: argparse.Namespace):
    """Serve random vectors through a BatchDispatcher from concurrent
    clients for ~min_time; returns (vectors/sec, DispatchStats)."""
    import threading
    import time as _time

    import numpy as np

    from repro.runtime import BatchDispatcher

    rng = np.random.default_rng(0)
    n = executable.n
    clients = min(args.batch, 8)
    vectors = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
               for _ in range(clients)]
    with BatchDispatcher(executable, max_batch=args.batch,
                         threads=args.threads) as dispatcher:
        counts = [0] * clients
        stop = _time.monotonic() + max(args.min_time, 0.01)

        def client(i: int) -> None:
            while _time.monotonic() < stop:
                dispatcher.apply(vectors[i])
                counts[i] += 1

        start = _time.monotonic()
        workers = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        elapsed = _time.monotonic() - start
        stats = dispatcher.stats
    return sum(counts) / elapsed, stats


def _run_batch(routines, args: argparse.Namespace) -> int:
    """Time ``apply_many`` over a random batch for every routine."""
    from repro.perfeval.runner import build_executable
    from repro.perfeval.timing import time_callable

    if args.batch < 1:
        print("spl-compile: --batch needs a positive batch size",
              file=sys.stderr)
        return 2
    prefer = {"c": "c", "cjit": "cjit", "numpy": "numpy",
              "python": "python"}.get(args.language, "c")
    cflags = tuple(shlex.split(args.cflags)) if args.cflags else ()
    for routine in routines:
        try:
            executable = build_executable(routine, prefer=prefer,
                                          cflags=cflags,
                                          threads=args.threads)
        except (SplError, ValueError) as exc:
            print(f"spl-compile: {routine.name}: {exc}", file=sys.stderr)
            return 1
        if args.dispatch:
            rate, stats = _time_dispatch(executable, args)
            print(
                f"; {routine.name}: n={routine.in_size} "
                f"batch={args.batch} threads={args.threads} "
                f"backend={executable.backend} dispatch {rate:.0f} "
                f"vectors/sec (requests={stats.requests} "
                f"batches={stats.batches} max_batch={stats.max_batch} "
                f"coalesced={stats.coalesced_requests})",
                file=sys.stderr,
            )
            continue
        closure = executable.timer_closure_many(args.batch,
                                                threads=args.threads)
        seconds = time_callable(closure, min_time=args.min_time)
        rate = args.batch / seconds
        print(
            f"; {routine.name}: n={routine.in_size} batch={args.batch} "
            f"threads={args.threads} backend={executable.backend} "
            f"{rate:.0f} vectors/sec",
            file=sys.stderr,
        )
    return 0


def _report(exc: SplError, source: str, filename: str) -> None:
    """Print one rendered diagnostic (caret snippet and all) to stderr."""
    print(f"spl-compile: {exc.render(source, filename=filename)}",
          file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("spl-compile: interrupted", file=sys.stderr)
        return 130


def _main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.search_fft is not None:
        return _run_search(args)
    if args.file is None:
        print("spl-compile: a source file (or --search-fft) is required",
              file=sys.stderr)
        return 2
    if args.file == "-":
        source = sys.stdin.read()
        filename = "<stdin>"
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"spl-compile: {exc}", file=sys.stderr)
            return 2
        filename = args.file
    options = CompilerOptions(
        language=args.language,
        datatype=args.datatype,
        codetype=args.codetype,
        unroll=args.unroll,
        unroll_threshold=args.unroll_threshold,
        optimize=args.optimize,
        peephole=args.peephole,
        automatic_storage=args.automatic,
        fusion=not args.no_fusion,
        validate_passes=args.validate_passes,
    )
    limits = DEFAULT_LIMITS.with_overrides(
        max_icode_statements=args.max_icode,
        max_unroll_statements=args.max_unroll,
        compile_deadline=args.compile_deadline,
    )
    compiler = SplCompiler(options, limits=limits)
    # Parse in recovery mode so one bad unit does not hide the errors
    # in the rest of the file; every diagnostic is reported at once.
    program = compiler.parse(source, recover=True)
    if program.errors:
        for exc in program.errors:
            _report(exc, source, filename)
        return 1
    compiler.defines.update(program.defines)
    routines = []
    failures = 0
    for unit in program.units:
        try:
            routines.append(compiler.compile_unit(unit))
        except SplError as exc:
            if exc.line is None and unit.line:
                exc.line = unit.line
            _report(exc, source, filename)
            failures += 1
    if failures:
        return 1
    if args.batch is not None:
        status = _run_batch(routines, args)
        if status:
            return status
    for routine in routines:
        print(routine.source)
        if args.dump_passes:
            print(routine.describe_passes(), file=sys.stderr)
        if args.stats:
            program = routine.program
            print(
                f"; {routine.name}: in={program.in_size} "
                f"out={program.out_size} flops={program.flop_count()} "
                f"temps={program.temp_elements()} "
                f"tables={program.table_elements()}",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
