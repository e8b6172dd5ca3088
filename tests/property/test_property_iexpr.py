"""Property-based tests for the IExpr polynomial algebra."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.icode import IExpr

VARS = ("i0", "i1", "i2")


@st.composite
def iexprs(draw, max_terms=4):
    expr = IExpr.const(draw(st.integers(-8, 8)))
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = draw(st.integers(-8, 8))
        mono = IExpr.const(coeff)
        for _ in range(draw(st.integers(1, 2))):
            mono = mono * IExpr.var(draw(st.sampled_from(VARS)))
        expr = expr + mono
    return expr


@st.composite
def assignments(draw):
    return {name: draw(st.integers(0, 10)) for name in VARS}


def evaluate(expr: IExpr, env: dict) -> int:
    value = expr.subst(env).as_const()
    assert value is not None
    return value


class TestRingLaws:
    @given(iexprs(), iexprs(), assignments())
    def test_addition_commutes(self, a, b, env):
        assert evaluate(a + b, env) == evaluate(b + a, env)
        assert (a + b) == (b + a)

    @given(iexprs(), iexprs(), iexprs(), assignments())
    def test_addition_associates(self, a, b, c, env):
        assert ((a + b) + c) == (a + (b + c))

    @given(iexprs(), iexprs(), assignments())
    def test_multiplication_commutes(self, a, b, env):
        assert (a * b) == (b * a)

    @given(iexprs(), iexprs(), iexprs())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(iexprs())
    def test_additive_inverse(self, a):
        assert (a - a).terms == ()

    @given(iexprs())
    def test_neutral_elements(self, a):
        assert a + IExpr.const(0) == a
        assert a * IExpr.const(1) == a
        assert (a * IExpr.const(0)).terms == ()


class TestEvaluationHomomorphism:
    @given(iexprs(), iexprs(), assignments())
    def test_add(self, a, b, env):
        assert evaluate(a + b, env) == evaluate(a, env) + evaluate(b, env)

    @given(iexprs(), iexprs(), assignments())
    def test_mul(self, a, b, env):
        assert evaluate(a * b, env) == evaluate(a, env) * evaluate(b, env)

    @given(iexprs(), assignments())
    def test_neg(self, a, env):
        assert evaluate(-a, env) == -evaluate(a, env)


class TestInterval:
    @given(iexprs(), assignments())
    def test_interval_contains_every_value(self, expr, env):
        ranges = {name: (0, 10) for name in VARS}
        lo, hi = expr.interval(ranges)
        value = evaluate(expr, env)
        assert lo <= value <= hi

    @given(iexprs())
    def test_interval_of_constant_is_tight(self, expr):
        const = expr.as_const()
        if const is not None:
            assert expr.interval({}) == (const, const)


class TestSubstitution:
    @given(iexprs(), assignments())
    def test_full_substitution_is_constant(self, expr, env):
        assert expr.subst(env).as_const() is not None

    @given(iexprs(), st.integers(0, 10), assignments())
    def test_substitution_composes(self, expr, value, env):
        # Substituting i0 then the rest equals substituting all at once.
        step1 = expr.subst({"i0": value})
        env_all = dict(env)
        env_all["i0"] = value
        assert step1.subst(env_all).as_const() == \
            expr.subst(env_all).as_const()

    @given(iexprs())
    def test_affine_round_trip(self, expr):
        affine = expr.as_affine()
        if affine is None:
            return
        coeffs, const = affine
        rebuilt = IExpr.const(const)
        for name, coeff in coeffs.items():
            rebuilt = rebuilt + IExpr.var(name) * coeff
        assert rebuilt == expr


def reference_subst(expr: IExpr, bindings: dict) -> IExpr:
    """The term-by-term substitution :meth:`IExpr.subst` replaced:
    every term rebuilt by polynomial ``*`` and summed by ``+``."""
    result = IExpr.const(0)
    for mono, coeff in expr.terms:
        term = IExpr.const(coeff)
        for name in mono:
            replacement = bindings.get(name)
            if replacement is None:
                term = term * IExpr.var(name)
            elif isinstance(replacement, IExpr):
                term = term * replacement
            else:
                term = term * IExpr.const(replacement)
        result = result + term
    return result


SYMBOLS = ("i0", "i1", "i2", "s", "t")


@st.composite
def binding_values(draw):
    """An int, a constant IExpr, or a symbolic IExpr (possibly one that
    cancels a term of the polynomial it is substituted into)."""
    kind = draw(st.sampled_from(("int", "const", "symbolic", "zero")))
    if kind == "int":
        return draw(st.integers(-6, 6))
    if kind == "const":
        return IExpr.const(draw(st.integers(-6, 6)))
    if kind == "zero":
        return IExpr.const(0)
    poly = IExpr.const(draw(st.integers(-3, 3)))
    for _ in range(draw(st.integers(1, 2))):
        poly = poly + IExpr.var(draw(st.sampled_from(SYMBOLS))) \
            * draw(st.integers(-3, 3))
    return poly


@st.composite
def partial_bindings(draw):
    names = draw(st.sets(st.sampled_from(VARS)))
    return {name: draw(binding_values()) for name in names}


class TestFoldingSubstitution:
    @given(iexprs(), assignments())
    def test_eval_matches_full_substitution(self, expr, env):
        assert expr.eval(env) == expr.subst(env).as_const()

    @given(iexprs(), assignments(), st.sampled_from(VARS))
    def test_eval_is_none_when_a_variable_is_unbound(self, expr, env, name):
        del env[name]
        if name in expr.free_vars():
            assert expr.eval(env) is None
        else:
            assert expr.eval(env) == expr.subst(env).as_const()

    @given(iexprs(), partial_bindings())
    def test_matches_reference_term_by_term(self, expr, bindings):
        assert expr.subst(bindings).terms == \
            reference_subst(expr, bindings).terms

    @given(iexprs(), st.integers(-5, 5))
    def test_cancelling_terms_vanish(self, expr, value):
        # p(i0, ...) - p(i1, ...) at i0 := i1, and p - p(value) at
        # i0 := value, are zero polynomials: every term cancels.
        for fixed in (IExpr.var("i1"), value, IExpr.const(value)):
            cancel = expr - expr.subst({"i0": fixed})
            assert cancel.subst({"i0": fixed}).terms == ()
            assert reference_subst(cancel, {"i0": fixed}).terms == ()

    @settings(max_examples=50)
    @given(iexprs(), assignments())
    def test_int_and_constant_bindings_agree(self, expr, env):
        as_consts = {name: IExpr.const(v) for name, v in env.items()}
        assert expr.subst(env).terms == expr.subst(as_consts).terms
        assert expr.subst(env).terms == reference_subst(expr, env).terms
