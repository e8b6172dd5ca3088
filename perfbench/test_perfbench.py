"""Tests of the benchmark itself; not part of the tier-1 suite.

    python3 -m pytest perfbench -q

The smoke tests run each workload in-process on shrunken settings
(fewer boots, shorter rate steps, a smaller program set and search);
one test runs the real command line end to end.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.require_sources()

import plan_bench  # noqa: E402
import run as bench  # noqa: E402
import serve_bench  # noqa: E402
import server  # noqa: E402
from tracing import Tracer, is_wrapped  # noqa: E402

from repro.core import compiler as compiler_mod  # noqa: E402
from repro.core import parser as parser_mod  # noqa: E402
from repro.core.codegen import CodeGenerator  # noqa: E402
from repro.core.compiler import SplCompiler  # noqa: E402
from repro.perfeval import ccompile, jit, runner, timing  # noqa: E402
from repro.perfeval import sandbox as sandbox_mod  # noqa: E402
from repro.perfeval.runner import ExecutableRoutine  # noqa: E402
from repro.runtime.dispatcher import BatchDispatcher  # noqa: E402
from repro.search import dp  # noqa: E402
from repro.serve import plans as plans_mod  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.serve import server as server_mod  # noqa: E402
from repro.serve.admission import AdmissionController  # noqa: E402
from repro.serve.plans import PlanRegistry  # noqa: E402

#: Every attribute any traced run wraps.
WRAPPED = [
    (PlanRegistry, "get"), (plans_mod, "parse_formula_text"),
    (CodeGenerator, "generate"), (compiler_mod, "emit_c"),
    (jit, "compile_jit"), (ccompile, "compile_shared_object"),
    (protocol, "decode_header"), (server_mod, "bytes_to_vector"),
    (server_mod, "vector_to_bytes"), (server_mod, "encode_frame"),
    (AdmissionController, "try_admit"), (BatchDispatcher, "submit"),
    (ExecutableRoutine, "apply_many"), (parser_mod, "parse_formula_text"),
    (SplCompiler, "compile_formula"), (runner, "build_executable"),
    (dp, "measure_formulas"), (sandbox_mod, "measure_candidate"),
    (timing, "time_callable"),
]


def originals() -> list:
    return [getattr(owner, attr) for owner, attr in WRAPPED]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(bench.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_traced_run_restores_every_wrapped_function():
    before = originals()
    tracer = Tracer()
    server.install_build_tracing(tracer)
    server.RequestPathTracing(tracer).install()
    tracer.wrap(parser_mod, "parse_formula_text", "compiler.parse")
    tracer.wrap(SplCompiler, "compile_formula", "compiler.compile")
    tracer.wrap(runner, "build_executable", "runner.build")
    tracer.wrap(dp, "measure_formulas", "search.measure")
    tracer.wrap(sandbox_mod, "measure_candidate", "search.sandbox")
    tracer.wrap(timing, "time_callable", "search.timing")
    plan_bench.wrap_gcc(tracer, "search.gcc")  # wrapped twice on purpose
    assert all(is_wrapped(owner, attr) for owner, attr in WRAPPED)
    tracer.restore()
    after = originals()
    assert all(a is b for a, b in zip(after, before))
    assert not any(is_wrapped(owner, attr) for owner, attr in WRAPPED)


class _Layers:
    def outer(self):
        self.inner()
        self.inner()

    def inner(self):
        sum(range(1000))


def test_self_times_never_exceed_the_parent_span():
    tracer = Tracer()
    tracer.wrap(_Layers, "outer", "outer")
    tracer.wrap(_Layers, "inner", "inner")
    try:
        _Layers().outer()
    finally:
        tracer.restore()
    assert tracer.nesting_violations() == []
    outer_id = next(s for s, name, *_ in tracer.spans if name == "outer")
    assert [p for _, name, _, _, p in tracer.spans
            if name == "inner"] == [outer_id, outer_id]
    selfs = tracer.self_times()
    assert 0 <= selfs[outer_id] <= tracer.durations("outer")[0]
    # A child longer than its parent is an attribution error.
    _, _, start, end, _ = next(s for s in tracer.spans if s[1] == "outer")
    tracer.spans.append((999, "inner", start, end + 1.0, outer_id))
    assert tracer.nesting_violations()


def test_traced_compile_attributes_within_its_spans(tmp_path, monkeypatch):
    monkeypatch.setenv("SPL_BUILD_DIR", str(tmp_path))
    programs = [p for p in plan_bench.program_set()
                if p[0] in ("fft16", "wht1024")]
    inputs = plan_bench.make_inputs(programs, 1)
    tracer = Tracer()
    build_dir = tmp_path / "build"
    build_dir.mkdir()
    record = plan_bench.compile_pass(build_dir, programs, inputs, tracer)
    assert all(r["bad_rows"] == 0 for r in record.values())
    for r in record.values():
        assert r["slowdown"] > 0
        assert 0 < r["compile_s"] + r["build_s"] <= r["cold_s"]
    assert tracer.nesting_violations() == []
    parents = {s: name for s, name, *_ in tracer.spans}
    for _, name, _, _, parent in tracer.spans:
        if name in ("compiler.icodegen", "compiler.emit"):
            assert parents[parent] == "compiler.compile"
        if name.startswith("ccompile.gcc"):
            assert parents[parent] == "runner.build"
    layers = plan_bench.compile_layers(tracer, record)
    assert layers["compiler.icode_out.fft16"] > 0
    assert not any(is_wrapped(owner, attr) for owner, attr in WRAPPED)


@pytest.fixture
def shrunken(monkeypatch, tmp_path):
    """Settings small enough for a seconds-long run of each workload."""
    monkeypatch.setenv("SPL_BUILD_DIR", str(tmp_path))
    small = [p for p in plan_bench.program_set()
             if p[0] in ("fft16", "fft64", "wht1024", "dct2_32")]
    monkeypatch.setattr(plan_bench, "program_set", lambda: small)
    monkeypatch.setattr(plan_bench, "SEARCH_SIZES", (2, 4))  # traced search
    monkeypatch.setattr(plan_bench, "ROUNDS", 2)
    monkeypatch.setattr(serve_bench, "SETUPS", 1)
    monkeypatch.setattr(serve_bench, "STEP_MIN_S", 0.2)
    monkeypatch.setattr(serve_bench, "STEP_SAMPLES", 200)
    monkeypatch.setattr(serve_bench, "BISECTIONS", 1)
    monkeypatch.setattr(serve_bench, "WARMUP_S", 0.2)
    monkeypatch.setattr(serve_bench, "PINGS", 20)
    mixed = serve_bench.WORKLOADS["serve-mixed"]
    monkeypatch.setitem(serve_bench.WORKLOADS, "serve-mixed",
                        dataclasses.replace(mixed, routes=(
                            "fft:64:complex128", "fft:256:complex128",
                            "wht:256:float64"), weights=(1.0, 1.0, 1.0)))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke(workload, trace, shrunken):
    before = originals()
    args = bench.parse_args(["--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace)])
    metrics, counts = bench.measure(args)
    result = bench.result_line(metrics, counts, bool(trace))
    assert result["correct"], counts.notes
    assert result["failed"] == 0 and result["attempted"] > 0
    table = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in table]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "plan-cold":
        assert values["compiler.pass_ms.fuse-copies"] > 0
        assert values["search.candidates"] > 0
        assert values["search.timing_ms"] > 0
    else:
        assert values["dispatcher.wait_us_p50"] > 0
        assert values["protocol.decode_us_p50"] > 0
        assert values["runner.apply_many_us_p50"] > 0
    assert all(a is b for a, b in zip(originals(), before))
    assert not list(common.SCRATCH.glob(f"{workload}-*"))


def test_command_line_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-sparse",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [n for n, _, _ in bench.END_TO_END]
    assert all(set(v) == {"value", "unit"}
               for v in result["metrics"].values())
