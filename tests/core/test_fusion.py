"""Tests for the fusion-grade optimizer and its validation oracle.

Covers the two fusion passes (copy-stage forwarding, conformable nest
fusion), liveness-based scratch reuse, the per-pass translation-
validation oracle — including that it catches a deliberately broken
pass — mid-pipeline resource-limit failures, and execution of fused
plans on strided views, real-datatype fallbacks, and batches.
"""

import numpy as np
import pytest

from repro.core import validate
from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.errors import SplError, SplResourceError, SplValidationError
from repro.core.fusion import forward_copy_stages, fuse_conformable_stages
from repro.core.icode import (
    FConst,
    IExpr,
    Loop,
    Op,
    Program,
    VEC_INPUT,
    VEC_OUTPUT,
    VEC_TEMP,
    VecInfo,
    VecRef,
    iter_ops,
)
from repro.core.interpreter import run_program
from repro.core.limits import DEFAULT_LIMITS, CompileBudget
from repro.core.optimizer import PassPipeline
from repro.perfeval.runner import build_executable
from tests.conftest import assert_routine_matches_matrix

COMPOSE_CHAIN = "(compose (F 4) (tensor (F 2) (I 2)) (tensor (I 2) (F 2)))"


def make(body, n=4, temps=()):
    program = Program(name="p", in_size=n, out_size=n, datatype="real",
                      body=body)
    program.vectors["x"] = VecInfo("x", n, VEC_INPUT)
    program.vectors["y"] = VecInfo("y", n, VEC_OUTPUT)
    for name, size in temps:
        program.vectors[name] = VecInfo(name, size, VEC_TEMP)
    return program


def budget():
    return CompileBudget(DEFAULT_LIMITS)


class TestCopyForwarding:
    def reversal_program(self):
        i0, i1 = IExpr.var("i0"), IExpr.var("i1")
        return make([
            Loop("i0", 4, [
                Op("=", VecRef("t0", i0), VecRef("x", -i0 + 3)),
            ]),
            Loop("i1", 4, [
                Op("+", VecRef("y", i1), VecRef("t0", i1),
                   VecRef("t0", i1)),
            ]),
        ], temps=(("t0", 4),))

    def test_stage_removed_and_temp_deleted(self):
        program = self.reversal_program()
        stats = forward_copy_stages(program, budget())
        assert stats.stages_removed == 1
        assert stats.reads_forwarded == 2
        assert "t0" not in program.vectors
        assert len(program.body) == 1  # only the consumer loop remains
        reads = {item.vec for op in iter_ops(program.body)
                 for item in op.operands() if isinstance(item, VecRef)}
        assert reads == {"x"}

    def test_semantics_preserved(self):
        x = [1.0, -2.0, 3.0, 0.5]
        program = self.reversal_program()
        before = run_program(self.reversal_program(), x)
        forward_copy_stages(program, budget())
        assert run_program(program, x) == before

    def test_unstable_source_not_forwarded(self):
        # The "copy stage" reads y, which is written again afterwards:
        # forwarding would read the *new* y value.  Must be refused.
        i0, i1 = IExpr.var("i0"), IExpr.var("i1")
        program = make([
            Loop("i0", 4, [
                Op("=", VecRef("t0", i0), VecRef("y", i0)),
            ]),
            Loop("i1", 4, [
                Op("=", VecRef("y", i1), VecRef("x", i1)),
            ]),
            Loop("i2", 4, [
                Op("+", VecRef("y", IExpr.var("i2")),
                   VecRef("y", IExpr.var("i2")),
                   VecRef("t0", IExpr.var("i2"))),
            ]),
        ], temps=(("t0", 4),))
        stats = forward_copy_stages(program, budget())
        assert stats.stages_removed == 0
        assert "t0" in program.vectors


class TestExactFit:
    """The affine fit is verified at every point, never trusted."""

    def stage_program(self, deviant: bool, nested: bool):
        # t0(k) = x(base + k) for k < 8; the deviant store then
        # overwrites t0(7) with x(base), so the map stays affine
        # everywhere except the last point — past the origin and unit
        # points the fit is interpolated from.
        base = 8 * IExpr.var("j") if nested else IExpr.const(0)
        i0, i1 = IExpr.var("i0"), IExpr.var("i1")
        stage = [Loop("i0", 8, [
            Op("=", VecRef("t0", i0), VecRef("x", base + i0)),
        ])]
        if deviant:
            stage.append(Op("=", VecRef("t0", IExpr.const(7)),
                            VecRef("x", base)))
        body = stage + [Loop("i1", 8, [
            Op("+", VecRef("y", base + i1), VecRef("t0", i1), FConst(1.0)),
        ])]
        if nested:  # outer index j stays symbolic in the fit
            return make([Loop("j", 2, body)], n=16, temps=(("t0", 8),))
        return make(body, n=8, temps=(("t0", 8),))

    @pytest.mark.parametrize("nested", [False, True])
    def test_one_off_affine_point_blocks_forwarding(self, nested):
        control = self.stage_program(deviant=False, nested=nested)
        assert forward_copy_stages(control, budget()).reads_forwarded == 1
        program = self.stage_program(deviant=True, nested=nested)
        x = [float(k + 1) for k in range(program.in_size)]
        before = run_program(program, x)
        stats = forward_copy_stages(program, budget())
        assert stats.reads_forwarded == 0
        assert stats.stages_removed == 0
        assert "t0" in program.vectors
        assert run_program(program, x) == before

    def test_fft1024_fusion_work_is_unchanged(self, monkeypatch):
        # Recorded before the polynomial evaluator was replaced by the
        # integer one: same decisions, same enumerated points.
        from repro.core import compiler as compiler_mod
        from repro.formulas.factorization import ct_multi
        from repro.serve.plans import fft_factors

        stats, points = [], []
        for name in ("forward_copy_stages", "fuse_conformable_stages"):
            def record(program, budget, _fn=getattr(compiler_mod, name)):
                stats.append(_fn(program, budget))
                return stats[-1]
            monkeypatch.setattr(compiler_mod, name, record)
        charge = CompileBudget.charge_fusion

        def counted(self, count, construct, path=None):
            points.append(count)
            return charge(self, count, construct, path)
        monkeypatch.setattr(CompileBudget, "charge_fusion", counted)
        compiler = SplCompiler(CompilerOptions(codetype="real",
                                               unroll_threshold=16))
        compiler.compile_formula(ct_multi(fft_factors(1024)).to_spl(),
                                 datatype="complex", language="c")
        copies, loops = stats
        assert (copies.reads_forwarded, copies.stages_removed,
                copies.loops_fused, copies.temps_bypassed) == \
            (2, 1, 0, ["t11"])
        assert (loops.reads_forwarded, loops.stages_removed,
                loops.loops_fused, loops.temps_bypassed) == \
            (0, 0, 1, ["t6"])
        assert sum(points) == 18432


class TestConformableFusion:
    def two_stage_program(self):
        i0, i1 = IExpr.var("i0"), IExpr.var("i1")
        return make([
            Loop("i0", 4, [
                Op("*", VecRef("t0", i0), VecRef("x", i0), FConst(2.0)),
            ]),
            Loop("i1", 4, [
                Op("+", VecRef("y", i1), VecRef("t0", i1), FConst(1.0)),
            ]),
        ], temps=(("t0", 4),))

    def test_nests_merge(self):
        program = self.two_stage_program()
        stats = fuse_conformable_stages(program, budget())
        assert stats.loops_fused == 1
        assert len(program.body) == 1
        assert isinstance(program.body[0], Loop)

    def test_semantics_preserved(self):
        x = [0.25, -1.0, 2.0, 4.0]
        program = self.two_stage_program()
        before = run_program(self.two_stage_program(), x)
        fuse_conformable_stages(program, budget())
        assert run_program(program, x) == before

    def test_noninjective_store_map_refused(self):
        # Producer writes t0(0) on every iteration: a consumer indexed
        # by its own loop variable must NOT take the per-iteration
        # value (only the last write is live).
        i0, i1 = IExpr.var("i0"), IExpr.var("i1")
        program = make([
            Loop("i0", 4, [
                Op("=", VecRef("t0", IExpr.const(0)), VecRef("x", i0)),
            ]),
            Loop("i1", 4, [
                Op("=", VecRef("y", i1), VecRef("t0", IExpr.const(0))),
            ]),
        ], temps=(("t0", 4),))
        stats = fuse_conformable_stages(program, budget())
        assert stats.loops_fused == 0


class TestOracle:
    def doubler(self):
        i0 = IExpr.var("i0")
        return make([
            Loop("i0", 4, [
                Op("*", VecRef("y", i0), VecRef("x", i0), FConst(2.0)),
            ]),
        ])

    def test_catches_deliberately_broken_pass(self):
        program = self.doubler()
        pipeline = PassPipeline(program, validate=True)

        def broken(p):
            # Miscompile: change the multiplier under the oracle's nose.
            for op in iter_ops(p.body):
                op.a = FConst(3.0)

        with pytest.raises(SplValidationError) as excinfo:
            pipeline.run("broken", broken)
        assert excinfo.value.code == "SPL-E300"
        assert "broken" in str(excinfo.value)

    def test_accepts_sound_pass(self):
        program = self.doubler()
        pipeline = PassPipeline(program, validate=True)
        pipeline.run("fuse-copies",
                     lambda p: forward_copy_stages(p, budget()))
        assert all(record.validated for record in pipeline.records)

    def test_check_pass_direct(self):
        program = self.doubler()
        baseline = validate.program_signature(program)
        program.body[0].body[0].b = FConst(5.0)
        with pytest.raises(SplValidationError):
            validate.check_pass(program, baseline, "direct")


class TestCompiledPlans:
    def compile(self, **options):
        compiler = SplCompiler(CompilerOptions(
            codetype="real", unroll_threshold=2, **options))
        return compiler.compile_formula(COMPOSE_CHAIN, language="python")

    def test_fused_plan_matches_matrix(self):
        assert_routine_matches_matrix(self.compile(fusion=True))

    def test_full_pipeline_validates(self):
        routine = self.compile(fusion=True, validate_passes=True)
        assert routine.passes
        assert all(record.validated for record in routine.passes)
        assert_routine_matches_matrix(routine)

    def test_fusion_reduces_scratch(self):
        # A radix-2 n=8 plan: three compose stages, stage-at-a-time
        # code streams through one temp vector per stage boundary.
        from repro.formulas.factorization import ct_multi

        def compile_chain(fusion):
            compiler = SplCompiler(CompilerOptions(
                codetype="real", unroll_threshold=2, fusion=fusion))
            return compiler.compile_formula(ct_multi([2, 2, 2]),
                                            language="python")

        fused = compile_chain(True)
        plain = compile_chain(False)
        assert fused.scratch_bytes < plain.scratch_bytes
        assert fused.temps_eliminated > 0
        assert fused.scratch_bytes_before == plain.scratch_bytes
        assert_routine_matches_matrix(fused)

    def test_strided_plan_validates(self):
        compiler = SplCompiler(CompilerOptions(
            codetype="real", unroll_threshold=2, validate_passes=True))
        routine = compiler.compile_formula(
            "(compose (F 2) (F 2))", language="python", strided=True)
        assert routine.program.strided
        assert all(record.validated for record in routine.passes)

    def test_real_datatype_fallback_path(self):
        # Real-input programs skip typetrans; the fusion passes must
        # still run and the numpy backend must stay correct.  (F 2) is
        # a real matrix, so the whole chain is real-valued.
        from repro.formulas import to_matrix

        compiler = SplCompiler(CompilerOptions(unroll_threshold=2))
        routine = compiler.compile_formula(
            "(compose (tensor (F 2) (I 2)) (tensor (I 2) (F 2)))",
            language="numpy", datatype="real")
        matrix = to_matrix(routine.formula).real
        x = np.array([0.5, -1.0, 2.0, 0.25])
        np.testing.assert_allclose(routine.run(list(x)), matrix @ x,
                                   atol=1e-12)


class TestBatchedExecution:
    def executable(self):
        compiler = SplCompiler(CompilerOptions(
            codetype="real", unroll_threshold=4))
        routine = compiler.compile_formula(
            "(compose (F 8) (tensor (F 2) (I 4)))", language="numpy")
        return build_executable(routine, prefer="numpy")

    def test_batch_sizes_agree(self):
        executable = self.executable()
        rng = np.random.default_rng(3)
        n = executable.n
        X = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
        Y64 = executable.apply_many(X)
        Y1 = executable.apply_many(X[:1])
        np.testing.assert_allclose(Y64[0], Y1[0], atol=1e-12)
        for b in (0, 17, 63):
            np.testing.assert_allclose(executable.apply(X[b]), Y64[b],
                                       atol=1e-12)

    def test_strided_batch_view(self):
        # A non-contiguous row view (every other row of a bigger
        # batch) must produce the same answers as its packed copy.
        executable = self.executable()
        rng = np.random.default_rng(4)
        n = executable.n
        base = rng.standard_normal((32, n)) \
            + 1j * rng.standard_normal((32, n))
        view = base[::2]
        assert not view.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(
            executable.apply_many(view),
            executable.apply_many(np.ascontiguousarray(view)),
            atol=1e-12,
        )


class TestLimitsMidPipeline:
    def test_fusion_charge_fails_typed(self):
        i0, i1 = IExpr.var("i0"), IExpr.var("i1")
        program = make([
            Loop("i0", 4, [
                Op("=", VecRef("t0", i0), VecRef("x", i0)),
            ]),
            Loop("i1", 4, [
                Op("=", VecRef("y", i1), VecRef("t0", i1)),
            ]),
        ], temps=(("t0", 4),))
        tight = CompileBudget(
            DEFAULT_LIMITS.with_overrides(max_icode_statements=8))
        tight.charge_statements(8, "codegen")  # pipeline already full
        with pytest.raises(SplResourceError) as excinfo:
            forward_copy_stages(program, tight)
        assert excinfo.value.code == "SPL-E203"

    def test_never_emits_half_fused_code(self):
        # Sweep the statement limit across the boundary where the
        # pipeline trips mid-flight: every outcome must be either a
        # typed rejection or a routine that matches the dense
        # semantics — never silently wrong code.
        rejected = correct = 0
        for max_icode in range(8, 129, 24):
            compiler = SplCompiler(
                CompilerOptions(codetype="real", unroll_threshold=2),
                limits=DEFAULT_LIMITS.with_overrides(
                    max_icode_statements=max_icode),
            )
            try:
                routine = compiler.compile_formula(
                    COMPOSE_CHAIN, language="python")
            except SplError as exc:
                assert exc.code is not None
                rejected += 1
                continue
            assert_routine_matches_matrix(routine)
            correct += 1
        assert rejected and correct  # the sweep crossed the boundary
