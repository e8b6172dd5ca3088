"""Tests for the performance-evaluation substrate."""

import math

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval.accuracy import relative_error
from repro.perfeval.ccompile import (
    CCompileError,
    compile_shared_object,
    have_c_compiler,
)
from repro.perfeval.memory import routine_memory
from repro.perfeval.platform import format_table, host_platform
from repro.perfeval.runner import build_executable
from repro.perfeval.timing import pseudo_mflops, time_callable
from tests.conftest import requires_cc


class TestTiming:
    def test_time_callable_positive(self):
        t = time_callable(lambda: None, min_time=0.001, repeats=2)
        assert t >= 0

    def test_time_scales_with_work(self):
        def light():
            sum(range(10))

        def heavy():
            sum(range(10000))

        t_light = time_callable(light, min_time=0.005)
        t_heavy = time_callable(heavy, min_time=0.005)
        assert t_heavy > t_light * 5

    def test_calibration_run_is_discarded(self):
        # The cold calibration batch (first-call warmup: allocator,
        # icache, ctypes fixups) must not be reused as a timed repeat.
        import time as _time

        state = {"calls": 0}

        def fn():
            state["calls"] += 1
            if state["calls"] == 1:
                _time.sleep(0.05)

        t = time_callable(fn, min_time=0.001, repeats=1)
        assert t < 0.025  # reusing the calibration batch would give ~50ms

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)

    def test_pseudo_mflops_formula(self):
        # 5 N log2 N / t(us): N=1024, t=1ms -> 51.2 pMFlops.
        assert pseudo_mflops(1024, 1e-3) == pytest.approx(51.2)

    def test_pseudo_mflops_zero_time(self):
        assert pseudo_mflops(8, 0.0) == float("inf")


class TestPlatform:
    def test_host_row_fields(self):
        row = host_platform()
        data = row.as_table_row()
        assert set(data) == {"CPU", "L1 cache", "L2 cache", "Memory",
                             "OS", "Compiler"}
        assert data["CPU"]

    def test_format_table(self):
        text = format_table([host_platform()])
        assert "Table 1" in text
        assert "CPU" in text


@requires_cc
class TestCCompile:
    def test_compile_and_cache(self, tmp_path):
        source = "void five(double *restrict y, const double *restrict x)" \
                 "{ y[0] = x[0] + 5.0; }\n"
        path1 = compile_shared_object(source, build_dir=tmp_path)
        path2 = compile_shared_object(source, build_dir=tmp_path)
        assert path1 == path2
        assert path1.exists()

    def test_compile_error_reported(self, tmp_path):
        with pytest.raises(CCompileError) as err:
            compile_shared_object("this is not C;", build_dir=tmp_path)
        assert "compilation failed" in str(err.value)

    def test_load_and_call(self, tmp_path):
        from repro.perfeval.ccompile import load_function
        import ctypes

        source = ("void addone(double *restrict y, "
                  "const double *restrict x) { y[0] = x[0] + 1.0; }\n")
        path = compile_shared_object(source, build_dir=tmp_path)
        fn = load_function(path, "addone")
        x = np.array([41.0])
        y = np.zeros(1)
        dp = ctypes.POINTER(ctypes.c_double)
        fn(y.ctypes.data_as(dp), x.ctypes.data_as(dp))
        assert y[0] == 42.0

    def test_extra_cflags_parsed_from_env(self, monkeypatch):
        from repro.perfeval.ccompile import extra_cflags

        monkeypatch.delenv("SPL_CFLAGS", raising=False)
        assert extra_cflags() == ()
        monkeypatch.setenv("SPL_CFLAGS", "-DSPL_A=1 '-DSPL_B=two words'")
        assert extra_cflags() == ("-DSPL_A=1", "-DSPL_B=two words")

    def test_extra_cflags_change_cache_key(self, tmp_path, monkeypatch):
        # The same source under a different flag set must produce a
        # different cached artifact (no cross-flag-set leakage).
        source = "void noop(double *restrict y, " \
                 "const double *restrict x) { }\n"
        monkeypatch.delenv("SPL_CFLAGS", raising=False)
        plain = compile_shared_object(source, build_dir=tmp_path)
        monkeypatch.setenv("SPL_CFLAGS", "-DSPL_MARKER=1")
        flagged = compile_shared_object(source, build_dir=tmp_path)
        assert plain != flagged
        # ... and the flag set is reproducible: same flags, same path.
        assert compile_shared_object(source, build_dir=tmp_path) == flagged

    def test_openmp_flag_changes_cache_key(self, tmp_path):
        from repro.perfeval.ccompile import have_openmp

        if not have_openmp():
            pytest.skip("toolchain lacks OpenMP")
        source = "void noop2(double *restrict y, " \
                 "const double *restrict x) { }\n"
        serial = compile_shared_object(source, build_dir=tmp_path)
        threaded = compile_shared_object(source, build_dir=tmp_path,
                                         openmp=True)
        assert serial != threaded

    def test_cflags_enter_platform_fingerprint(self, monkeypatch):
        from repro.wisdom.keys import (
            platform_description,
            platform_fingerprint,
        )

        monkeypatch.delenv("SPL_CFLAGS", raising=False)
        base = platform_fingerprint()
        monkeypatch.setenv("SPL_CFLAGS", "-march=native")
        assert platform_fingerprint() != base
        assert "-march=native" in platform_description()


class TestRunner:
    def test_python_fallback(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 2)", "t", language="python")
        executable = build_executable(routine, prefer="python")
        assert executable.backend == "python"
        x = np.array([1 + 2j, 3 - 1j])
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-12)

    @requires_cc
    def test_c_and_python_agree(self):
        compiler = SplCompiler(CompilerOptions(unroll=True,
                                               codetype="real"))
        routine = compiler.compile_formula("(F 8)", "agree8", language="c")
        c_exec = build_executable(routine, prefer="c")
        py_exec = build_executable(routine, prefer="python")
        x = np.random.default_rng(0).standard_normal(8) * (1 + 1j)
        np.testing.assert_allclose(c_exec.apply(x), py_exec.apply(x),
                                   atol=1e-12)

    def test_timer_closure_runs(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 2)", "t2", language="python")
        executable = build_executable(routine, prefer="python")
        closure = executable.timer_closure()
        closure()  # must not raise

    def test_numpy_backend_selected(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 4)", "t4", language="numpy")
        executable = build_executable(routine, prefer="numpy")
        assert executable.backend == "numpy"
        assert executable.batch_call is not None
        x = np.array([1 + 2j, 3 - 1j, 0.5j, -2.0])
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-12)

    def test_complex_native_falls_back_from_c(self):
        # codetype complex keeps complex arithmetic the C backend
        # cannot express; prefer="c" must fall through to numpy.
        compiler = SplCompiler(CompilerOptions(codetype="complex"))
        routine = compiler.compile_formula("(F 4)", "cn4",
                                           language="numpy")
        executable = build_executable(routine, prefer="c")
        assert executable.backend in ("numpy", "python")
        x = np.array([1 + 2j, 3 - 1j, 0.5j, -2.0])
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-12)

    def test_bad_prefer_rejected(self):
        from repro.core.errors import SplSemanticError

        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 2)", "bp", language="python")
        with pytest.raises(SplSemanticError):
            build_executable(routine, prefer="fortran")


class TestBatchExecution:
    def _routine(self, size=8, language="python"):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        return compiler.compile_formula(
            f"(F {size})", f"b{size}{language[0]}", language=language)

    def _batch(self, size, rows, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((rows, size))
                + 1j * rng.standard_normal((rows, size)))

    @pytest.mark.parametrize("prefer", ["python", "numpy"])
    def test_apply_many_matches_apply(self, prefer):
        executable = build_executable(self._routine(), prefer=prefer)
        X = self._batch(8, 5)
        Y = executable.apply_many(X)
        assert Y.shape == (5, 8)
        for b in range(5):
            np.testing.assert_allclose(Y[b], executable.apply(X[b]),
                                       atol=1e-12)

    @requires_cc
    def test_apply_many_c_driver(self):
        executable = build_executable(self._routine(language="c"),
                                      prefer="c")
        assert executable.backend == "c"
        assert executable.batch_fn is not None  # spl_batch_* loaded
        X = self._batch(8, 7)
        np.testing.assert_allclose(
            executable.apply_many(X), np.fft.fft(X, axis=1), atol=1e-12)

    def test_apply_many_reuses_scratch(self):
        executable = build_executable(self._routine(), prefer="python")
        X = self._batch(8, 4)
        executable.apply_many(X)
        first = executable._batch_buffers(4)  # this thread's workspaces
        executable.apply_many(X + 1)
        assert executable._batch_buffers(4) is first  # buffers reused
        executable.apply_many(self._batch(8, 6))
        grown = executable._batch_buffers(6)
        assert grown is not first  # grown for B=6
        executable.apply_many(X)
        # A smaller batch runs on the high-water buffers' first rows.
        assert executable._batch_buffers(4) is grown

    def test_apply_many_rejects_wrong_shape(self):
        from repro.core.errors import SplSemanticError

        executable = build_executable(self._routine(), prefer="python")
        with pytest.raises(SplSemanticError):
            executable.apply_many(np.zeros((3, 5)))
        with pytest.raises(SplSemanticError):
            executable.apply_many(np.zeros(8))

    def test_apply_many_batch_of_one(self):
        executable = build_executable(self._routine(), prefer="numpy")
        X = self._batch(8, 1)
        np.testing.assert_allclose(executable.apply_many(X)[0],
                                   executable.apply(X[0]), atol=1e-12)

    def test_timer_closure_many_runs(self):
        executable = build_executable(self._routine(size=4),
                                      prefer="numpy")
        closure = executable.timer_closure_many(3)
        closure()  # must not raise

    @requires_cc
    def test_batch_driver_source_and_load(self, tmp_path):
        import ctypes

        from repro.perfeval.ccompile import (
            batch_driver_source,
            load_batch_function,
        )

        source = ("void twice(double *restrict y, "
                  "const double *restrict x) { y[0] = 2.0 * x[0]; }\n")
        source += batch_driver_source("twice", in_len=1, out_len=1)
        path = compile_shared_object(source, build_dir=tmp_path)
        batch_fn = load_batch_function(path, "twice")
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.ones((3, 1))  # driver must zero each row before running
        dp = ctypes.POINTER(ctypes.c_double)
        batch_fn(y.ctypes.data_as(dp), x.ctypes.data_as(dp), 3)
        np.testing.assert_allclose(y, [[2.0], [4.0], [6.0]])

    def test_openmp_batch_driver_source_and_load(self, tmp_path):
        import ctypes

        from repro.perfeval.ccompile import (
            batch_driver_source,
            have_openmp,
            load_batch_omp_function,
        )

        if not have_openmp():
            pytest.skip("toolchain lacks OpenMP")
        source = ("void triple(double *restrict y, "
                  "const double *restrict x) { y[0] = 3.0 * x[0]; }\n")
        source += batch_driver_source("triple", in_len=1, out_len=1,
                                      openmp=True)
        path = compile_shared_object(source, build_dir=tmp_path,
                                     openmp=True)
        omp_fn = load_batch_omp_function(path, "triple")
        x = np.arange(1.0, 9.0).reshape(8, 1)
        y = np.ones((8, 1))  # driver must zero each row before running
        dp = ctypes.POINTER(ctypes.c_double)
        omp_fn(y.ctypes.data_as(dp), x.ctypes.data_as(dp), 8, 2)
        np.testing.assert_allclose(y, 3.0 * x)


class TestMemory:
    def test_accounting(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(T 16 4)", "m", language="c")
        report = routine_memory(routine)
        assert report.table_bytes == 32 * 8  # 16 complex -> 32 reals
        assert report.io_bytes == (16 + 16) * 2 * 8
        assert report.total_bytes == sum(
            (report.code_bytes, report.table_bytes, report.temp_bytes,
             report.io_bytes)
        )

    def test_as_dict(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(I 4)", "m2", language="c")
        data = routine_memory(routine).as_dict()
        assert set(data) == {"code", "tables", "temps", "io", "total"}


class TestAccuracy:
    def test_exact_fft_has_tiny_error(self):
        err = relative_error(np.fft.fft, 64)
        assert err < 1e-14

    def test_wrong_fft_detected(self):
        err = relative_error(lambda x: np.fft.fft(x) * 1.001, 64)
        assert err > 1e-4

    def test_error_grows_slowly_with_size(self):
        e_small = relative_error(np.fft.fft, 8)
        e_large = relative_error(np.fft.fft, 4096)
        assert e_large < 100 * max(e_small, 1e-17)
