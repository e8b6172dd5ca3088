"""Resource governance: hostile inputs must die fast, typed, and named.

Every test here throws a deliberately pathological program at the
compiler and asserts three things: (1) the failure is a typed
``SplResourceError`` (or ``SplSyntaxError`` for malformed text) — never
a ``RecursionError``, ``MemoryError`` or hang; (2) the error names the
limit and the offending construct; (3) it arrives quickly, because the
budgets are pre-checked arithmetically instead of discovered by dying.
"""

import time

import pytest

from repro.core import nodes
from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.errors import SplResourceError, SplSyntaxError
from repro.core.limits import (
    CompileBudget,
    CompileLimits,
    DEFAULT_LIMITS,
    formula_depth,
)
from repro.wisdom.keys import wisdom_key


def nested_compose_source(depth: int) -> str:
    return "(compose (I 2) " * depth + "(I 2)" + ")" * depth


class TestRecursionBombs:
    def test_deep_source_nest_is_rejected_not_recursion_error(self):
        source = nested_compose_source(500)
        compiler = SplCompiler()
        start = time.monotonic()
        with pytest.raises(SplResourceError) as err:
            compiler.compile_text(source)
        assert time.monotonic() - start < 5.0
        assert err.value.code == "SPL-E201"
        assert err.value.limit_name == "max_formula_depth"
        assert "depth" in str(err.value)

    def test_programmatic_deep_ast_is_rejected(self):
        """ASTs built in Python bypass the parser; compile_formula must
        still depth-check them without recursing."""
        formula = nodes.identity(2)
        for _ in range(5000):
            formula = nodes.Compose(left=nodes.identity(2), right=formula)
        compiler = SplCompiler()
        with pytest.raises(SplResourceError) as err:
            compiler.compile_formula(formula)
        assert err.value.code == "SPL-E201"

    def test_formula_depth_is_iterative(self):
        formula = nodes.identity(2)
        for _ in range(50_000):
            formula = nodes.Compose(left=nodes.identity(2), right=formula)
        # Would blow the Python stack if computed recursively.
        assert formula_depth(formula) == 50_001

    def test_deep_but_legal_nest_compiles(self):
        source = nested_compose_source(40)
        compiler = SplCompiler(CompilerOptions(language="python"))
        (routine,) = compiler.compile_text(source)
        assert routine.run([1.0, 2.0]) == [1.0, 2.0]


class TestUnrollBombs:
    def test_unroll_bomb_is_pre_checked(self):
        source = "#unroll on\n(tensor (I 64) (F 64))\n"
        compiler = SplCompiler()
        start = time.monotonic()
        with pytest.raises(SplResourceError) as err:
            compiler.compile_text(source)
        assert time.monotonic() - start < 30.0
        assert err.value.code in ("SPL-E203", "SPL-E204")
        assert err.value.limit is not None
        assert err.value.actual is not None
        assert err.value.actual > err.value.limit

    def test_small_unroll_budget_names_the_loop(self):
        limits = DEFAULT_LIMITS.with_overrides(max_unroll_statements=10)
        compiler = SplCompiler(limits=limits)
        with pytest.raises(SplResourceError) as err:
            compiler.compile_text("#unroll on\n(tensor (I 16) (F 2))\n")
        assert err.value.code == "SPL-E204"
        assert err.value.limit_name == "max_unroll_statements"
        assert "do $" in str(err.value) or "program" in str(err.value)


class TestStatementAndTableBudgets:
    def test_tiny_icode_budget(self):
        limits = DEFAULT_LIMITS.with_overrides(max_icode_statements=4)
        compiler = SplCompiler(limits=limits)
        with pytest.raises(SplResourceError) as err:
            compiler.compile_formula("(F 8)")
        assert err.value.code == "SPL-E203"
        assert err.value.limit_name == "max_icode_statements"

    def test_tiny_expansion_budget(self):
        limits = DEFAULT_LIMITS.with_overrides(max_expansions=2)
        compiler = SplCompiler(limits=limits)
        with pytest.raises(SplResourceError) as err:
            # Each compose level expands itself plus two operands, so
            # this needs far more than 2 expansions.
            compiler.compile_formula(nested_compose_source(10))
        assert err.value.code == "SPL-E202"
        assert err.value.limit_name == "max_expansions"
        # The diagnostic names the chain of constructs being expanded.
        assert err.value.formula_path

    def test_oversized_twiddle_table(self):
        limits = DEFAULT_LIMITS.with_overrides(max_table_bytes=64)
        compiler = SplCompiler(limits=limits)
        with pytest.raises(SplResourceError) as err:
            compiler.compile_formula("(F 32)")
        assert err.value.code == "SPL-E205"
        assert err.value.limit_name == "max_table_bytes"
        assert "intrinsic" in str(err.value)

    def test_generous_budgets_do_not_interfere(self):
        compiler = SplCompiler(CompilerOptions(language="python"))
        routine = compiler.compile_formula("(F 64)")
        assert routine.in_size == 64


class TestDeadline:
    def test_near_zero_deadline_fails_typed(self):
        limits = DEFAULT_LIMITS.with_overrides(compile_deadline=1e-9)
        compiler = SplCompiler(limits=limits)
        with pytest.raises(SplResourceError) as err:
            compiler.compile_formula("(F 64)")
        assert err.value.code == "SPL-E206"
        assert err.value.limit_name == "compile_deadline"

    def test_bulk_fusion_charge_crossing_a_boundary_checks_deadline(self):
        budget = CompileBudget(
            DEFAULT_LIMITS.with_overrides(compile_deadline=1e-9))
        budget.charge_fusion(4000, "first read domain")  # no crossing
        time.sleep(0.001)
        # 4000 -> 4200 steps over 4096 without landing on it.
        with pytest.raises(SplResourceError) as err:
            budget.charge_fusion(200, "bulk read domain")
        assert err.value.code == "SPL-E206"
        assert "loop fusion" in str(err.value)
        assert budget.statements == 4200

    def test_default_deadline_is_ample_for_real_programs(self):
        compiler = SplCompiler(CompilerOptions(language="python",
                                               unroll=True))
        routine = compiler.compile_formula("(F 16)")
        assert routine.in_size == 16


class TestMalformedSources:
    @pytest.mark.parametrize("source", [
        "",
        "   \n\n",
        "; only comments\n",
    ])
    def test_empty_and_comment_sources_compile_to_nothing(self, source):
        assert SplCompiler().compile_text(source) == []

    @pytest.mark.parametrize("source", [
        "(compose (F 2",                      # truncated
        "(compose (F 2)))",                   # stray close paren
        "@@garbage@@",                        # non-grammar characters
        "(tensor (F 2) (F 2)",                # missing close at EOF
        "((((((",                             # opens only
    ])
    def test_garbage_is_a_typed_syntax_error(self, source):
        with pytest.raises(SplSyntaxError):
            SplCompiler().compile_text(source)


class TestLimitsObject:
    def test_fingerprint_is_stable_and_distinguishes(self):
        a = CompileLimits()
        b = CompileLimits()
        assert a.fingerprint() == b.fingerprint()
        c = a.with_overrides(max_expansions=7)
        assert c.fingerprint() != a.fingerprint()

    def test_with_overrides_ignores_none(self):
        limits = DEFAULT_LIMITS.with_overrides(max_icode_statements=None,
                                               compile_deadline=5.0)
        assert limits.max_icode_statements == \
            DEFAULT_LIMITS.max_icode_statements
        assert limits.compile_deadline == 5.0

    def test_budget_charges_accumulate(self):
        budget = CompileBudget(DEFAULT_LIMITS.with_overrides(
            max_expansions=3))
        budget.charge_expansion("(F 2)")
        budget.charge_expansion("(F 2)")
        budget.charge_expansion("(F 2)")
        with pytest.raises(SplResourceError) as err:
            budget.charge_expansion("(F 2)")
        assert err.value.code == "SPL-E202"


class TestCacheInvalidation:
    def test_limit_change_misses_compile_memo(self):
        compiler = SplCompiler(CompilerOptions(language="python"))
        first = compiler.compile_formula("(F 4)")
        again = compiler.compile_formula("(F 4)")
        assert again is first
        other = compiler.compile_formula(
            "(F 4)", limits=DEFAULT_LIMITS.with_overrides(
                max_expansions=50_000)
        )
        assert other is not first

    def test_wisdom_key_folds_non_default_limits_only(self):
        base = wisdom_key("fft", 16)
        same = wisdom_key("fft", 16, limits=DEFAULT_LIMITS)
        assert same == base  # legacy keys stay valid
        tight = wisdom_key("fft", 16,
                           limits=DEFAULT_LIMITS.with_overrides(
                               max_expansions=9))
        assert tight != base
        assert tight.startswith(base)
