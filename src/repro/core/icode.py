"""Intermediate code (i-code) for the SPL compiler.

Section 3.2 of the paper: "I-code instructions are Fortran-style do-loop
headers, end-do statements, or four-tuples containing an operator and up
to three operands."

Representation choices:

* Integer expressions (vector subscripts, intrinsic arguments) are kept
  in a canonical multivariate-polynomial form (:class:`IExpr`) over loop
  indices and symbolic stride/offset parameters.  This makes constant
  folding, substitution during loop unrolling, and affine analysis for
  the optimizer all trivial.
* The paper's integer scalars (``$r0 = $i0 * $i1``) are substituted away
  during template expansion — they are pure functions of loop indices,
  so their uses are replaced by the defining polynomial.  No semantic
  difference is observable because i-code has no control flow other
  than counted loops.
* Floating point / complex scalars (``$f0``) are :class:`FVar` operands.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from repro.core.errors import SplSemanticError
from repro.core.scalars import Number

# ---------------------------------------------------------------------------
# Integer polynomial expressions.
# ---------------------------------------------------------------------------

Monomial = tuple[str, ...]  # sorted tuple of variable names (with repetition)
Terms = tuple[tuple[Monomial, int], ...]


@dataclass(frozen=True)
class IExpr:
    """An integer-valued polynomial over named integer variables."""

    terms: Terms = ()

    # -- construction ------------------------------------------------------

    @staticmethod
    def const(value: int) -> "IExpr":
        if value == 0:
            return IExpr(())
        return IExpr((((), int(value)),))

    @staticmethod
    def var(name: str) -> "IExpr":
        return IExpr((((name,), 1),))

    @staticmethod
    def _from_dict(terms: Mapping[Monomial, int]) -> "IExpr":
        cleaned = tuple(
            sorted((mono, coeff) for mono, coeff in terms.items() if coeff)
        )
        return IExpr(cleaned)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IExpr | int") -> "IExpr":
        other = _coerce(other)
        combined: dict[Monomial, int] = dict(self.terms)
        for mono, coeff in other.terms:
            combined[mono] = combined.get(mono, 0) + coeff
        return IExpr._from_dict(combined)

    def __sub__(self, other: "IExpr | int") -> "IExpr":
        return self + (-_coerce(other))

    def __neg__(self) -> "IExpr":
        return IExpr(tuple((mono, -coeff) for mono, coeff in self.terms))

    def __mul__(self, other: "IExpr | int") -> "IExpr":
        other = _coerce(other)
        product: dict[Monomial, int] = {}
        for mono_a, coeff_a in self.terms:
            for mono_b, coeff_b in other.terms:
                mono = tuple(sorted(mono_a + mono_b))
                product[mono] = product.get(mono, 0) + coeff_a * coeff_b
        return IExpr._from_dict(product)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other: "IExpr | int") -> "IExpr":
        return _coerce(other) - self

    # -- queries -------------------------------------------------------------

    def is_const(self) -> bool:
        return all(mono == () for mono, _ in self.terms)

    def as_const(self) -> int | None:
        if not self.terms:
            return 0
        if self.is_const():
            return self.terms[0][1]
        return None

    def const_part(self) -> int:
        for mono, coeff in self.terms:
            if mono == ():
                return coeff
        return 0

    def free_vars(self) -> frozenset[str]:
        names: set[str] = set()
        for mono, _ in self.terms:
            names.update(mono)
        return frozenset(names)

    def as_affine(self) -> tuple[dict[str, int], int] | None:
        """Return ``(coeffs, const)`` if the polynomial is affine, else None."""
        coeffs: dict[str, int] = {}
        const = 0
        for mono, coeff in self.terms:
            if mono == ():
                const = coeff
            elif len(mono) == 1:
                coeffs[mono[0]] = coeffs.get(mono[0], 0) + coeff
            else:
                return None
        return coeffs, const

    def subst(self, bindings: Mapping[str, "IExpr | int"]) -> "IExpr":
        """Substitute variables (missing names are left untouched).

        One folding pass: integer and constant bindings multiply into
        the term's coefficient, unbound names stay in its monomial
        (still sorted), and only symbolic replacements go through
        polynomial ``*``.  Terms meet in one dict, sorted once.
        """
        folded: dict[Monomial, int] = {}
        for mono, coeff in self.terms:
            kept: list[str] = []
            factor: IExpr | None = None
            for name in mono:
                value = bindings.get(name)
                if value is None:
                    kept.append(name)
                    continue
                if isinstance(value, IExpr):
                    const = value.as_const()
                    if const is None:
                        factor = value if factor is None else factor * value
                        continue
                    value = const
                coeff *= int(value)
            if not coeff:
                continue
            if factor is None:
                key = tuple(kept)
                folded[key] = folded.get(key, 0) + coeff
                continue
            for key, part in (factor * IExpr(((tuple(kept), coeff),))).terms:
                folded[key] = folded.get(key, 0) + part
        return IExpr._from_dict(folded)

    def eval(self, point: Mapping[str, int]) -> int | None:
        """The value at an integer point, or None if a variable is unbound."""
        total = 0
        try:
            for mono, coeff in self.terms:
                for name in mono:
                    coeff *= point[name]
                total += coeff
        except KeyError:
            return None
        return total

    def interval(self, ranges: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        """Min/max value given inclusive variable ranges (all bounds >= 0)."""
        lo_total, hi_total = 0, 0
        for mono, coeff in self.terms:
            lo_prod, hi_prod = 1, 1
            for name in mono:
                if name not in ranges:
                    raise SplSemanticError(
                        f"cannot bound index expression: unknown range for "
                        f"variable {name!r}"
                    )
                var_lo, var_hi = ranges[name]
                if var_lo < 0:
                    raise SplSemanticError(
                        f"interval analysis requires non-negative {name!r}"
                    )
                lo_prod *= var_lo
                hi_prod *= var_hi
            term_lo, term_hi = coeff * lo_prod, coeff * hi_prod
            if term_lo > term_hi:
                term_lo, term_hi = term_hi, term_lo
            lo_total += term_lo
            hi_total += term_hi
        return lo_total, hi_total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        # Render variable terms first and the constant last ("4*i0 + 1"),
        # matching the paper's listings.
        ordered = sorted(self.terms, key=lambda item: (item[0] == (), item[0]))
        for mono, coeff in ordered:
            names = "*".join(mono)
            if mono == ():
                text = str(coeff)
            elif coeff == 1:
                text = names
            elif coeff == -1:
                text = f"-{names}"
            else:
                text = f"{coeff}*{names}"
            parts.append(text)
        rendered = parts[0]
        for part in parts[1:]:
            rendered += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return rendered


def _coerce(value: "IExpr | int") -> IExpr:
    if isinstance(value, IExpr):
        return value
    return IExpr.const(value)


ZERO = IExpr.const(0)
ONE = IExpr.const(1)


# ---------------------------------------------------------------------------
# Operands.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FVar:
    """A floating-point (or complex, before type transformation) scalar."""

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class FConst:
    """A numeric constant operand."""

    value: Number

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VecRef:
    """A reference ``vec[index]`` with a polynomial subscript."""

    vec: str
    index: IExpr

    def __str__(self) -> str:
        return f"${self.vec}({self.index})"


@dataclass(frozen=True)
class Intrinsic:
    """A call to a parameterized scalar function such as ``W(n, k)``.

    Arguments are integer expressions; intrinsic invocations only
    survive until the intrinsic-evaluation pass (Section 3.3.2), which
    replaces them with constants or table references.
    """

    name: str
    args: tuple[IExpr, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


Operand = FVar | FConst | VecRef | Intrinsic
Location = FVar | VecRef


# ---------------------------------------------------------------------------
# Instructions.
# ---------------------------------------------------------------------------

BINARY_OPS = ("+", "-", "*", "/")
UNARY_OPS = ("=", "neg")


@dataclass
class Op:
    """A four-tuple instruction: ``dest = a (op) b`` or ``dest = (op) a``."""

    op: str
    dest: Location
    a: Operand
    b: Operand | None = None

    def __post_init__(self) -> None:
        if self.op in BINARY_OPS:
            if self.b is None:
                raise SplSemanticError(f"operator {self.op!r} needs two operands")
        elif self.op in UNARY_OPS:
            if self.b is not None:
                raise SplSemanticError(f"operator {self.op!r} takes one operand")
        else:
            raise SplSemanticError(f"unknown i-code operator {self.op!r}")

    def operands(self) -> tuple[Operand, ...]:
        return (self.a,) if self.b is None else (self.a, self.b)

    def __str__(self) -> str:
        if self.op == "=":
            return f"{self.dest} = {self.a}"
        if self.op == "neg":
            return f"{self.dest} = -{self.a}"
        return f"{self.dest} = {self.a} {self.op} {self.b}"


@dataclass
class Loop:
    """A counted loop ``do var = 0, count-1`` over ``body``."""

    var: str
    count: int
    body: list["Instr"]
    unroll: bool = False

    def __str__(self) -> str:
        inner = "\n".join(f"  {line}" for inst in self.body
                          for line in str(inst).split("\n"))
        return f"do ${self.var} = 0, {self.count - 1}\n{inner}\nend"


@dataclass
class Comment:
    """A comment carried through to the generated code for readability."""

    text: str

    def __str__(self) -> str:
        return f"; {self.text}"


Instr = Op | Loop | Comment


# ---------------------------------------------------------------------------
# The program container produced by code generation.
# ---------------------------------------------------------------------------

VEC_INPUT = "in"
VEC_OUTPUT = "out"
VEC_TEMP = "temp"


@dataclass
class VecInfo:
    """Metadata for one vector (array) used by a program.

    ``dtype`` is the element type; the empty string means "the
    program's element type" (a real double, or a complex double before
    type transformation).  Scratch-reuse passes must never merge
    vectors whose dtypes differ.
    """

    name: str
    size: int
    kind: str  # VEC_INPUT, VEC_OUTPUT or VEC_TEMP
    dtype: str = ""


@dataclass
class Program:
    """A complete i-code program for one SPL formula.

    ``in_size``/``out_size`` are logical element counts; when
    ``datatype`` is complex and the program has been lowered to real
    arithmetic, each logical element occupies two array slots and
    ``element_width`` is 2.
    """

    name: str
    in_size: int
    out_size: int
    datatype: str  # "real" or "complex"
    body: list[Instr] = field(default_factory=list)
    vectors: dict[str, VecInfo] = field(default_factory=dict)
    tables: dict[str, tuple[Number, ...]] = field(default_factory=dict)
    element_width: int = 1
    # True when the program exposes symbolic istride/ostride/iofs/oofs
    # parameters (codelet-style entry point, Section 3.5).
    strided: bool = False

    def input_name(self) -> str:
        return next(v.name for v in self.vectors.values()
                    if v.kind == VEC_INPUT)

    def output_name(self) -> str:
        return next(v.name for v in self.vectors.values()
                    if v.kind == VEC_OUTPUT)

    def temp_vectors(self) -> list[VecInfo]:
        return [v for v in self.vectors.values() if v.kind == VEC_TEMP]

    def scalar_names(self) -> list[str]:
        names: dict[str, None] = {}
        for op in iter_ops(self.body):
            for item in (op.dest, *op.operands()):
                if isinstance(item, FVar):
                    names.setdefault(item.name)
        return list(names)

    def is_straight_line(self) -> bool:
        """True when no loops remain — the codelet form produced by
        full unrolling, which the SIMD batch driver and the in-process
        JIT both key on."""
        return not any(isinstance(inst, Loop) for inst in self.body)

    def flop_count(self) -> int:
        """Arithmetic operations executed per call (loops multiplied out)."""
        return _count_flops(self.body, 1)

    def temp_elements(self) -> int:
        return sum(v.size for v in self.temp_vectors())

    def element_bytes(self) -> int:
        """Bytes per physical array slot (16 for unlowered complex)."""
        if self.datatype == "complex" and self.element_width == 1:
            return 16
        return 8

    def scratch_bytes(self) -> int:
        """Total temp-array storage the program allocates, in bytes."""
        return self.temp_elements() * self.element_bytes()

    def table_elements(self) -> int:
        return sum(len(t) for t in self.tables.values())

    def __str__(self) -> str:
        lines = [f"; program {self.name}: in={self.in_size} "
                 f"out={self.out_size} datatype={self.datatype}"]
        lines.extend(str(inst) for inst in self.body)
        return "\n".join(lines)


def iter_ops(body: Iterable[Instr]) -> Iterator[Op]:
    """Yield every :class:`Op` in ``body``, descending into loops."""
    for inst in body:
        if isinstance(inst, Op):
            yield inst
        elif isinstance(inst, Loop):
            yield from iter_ops(inst.body)


def iter_instrs(body: Iterable[Instr]) -> Iterator[Instr]:
    """Yield every instruction, descending into loops (pre-order)."""
    for inst in body:
        yield inst
        if isinstance(inst, Loop):
            yield from iter_instrs(inst.body)


def count_statements(body: Iterable[Instr]) -> int:
    """Static instruction count (loops count as one plus their body)."""
    total = 0
    for inst in body:
        if isinstance(inst, Op):
            total += 1
        elif isinstance(inst, Loop):
            total += 1 + count_statements(inst.body)
    return total


def count_dynamic_statements(body: Iterable[Instr]) -> int:
    """Executed instruction count (loop bodies multiplied by trip
    count) — the cost one interpreter run over the program pays."""
    total = 0
    for inst in body:
        if isinstance(inst, Op):
            total += 1
        elif isinstance(inst, Loop):
            total += inst.count * count_dynamic_statements(inst.body)
    return total


def _count_flops(body: Iterable[Instr], multiplier: int) -> int:
    total = 0
    for inst in body:
        if isinstance(inst, Op):
            if inst.op in ("+", "-", "*", "/", "neg"):
                total += multiplier
        elif isinstance(inst, Loop):
            total += _count_flops(inst.body, multiplier * inst.count)
    return total


def map_operands(body: list[Instr],
                 fn: Callable[[Operand], Operand]) -> list[Instr]:
    """Rebuild ``body`` applying ``fn`` to every operand and destination."""
    result: list[Instr] = []
    for inst in body:
        if isinstance(inst, Op):
            dest = fn(inst.dest)
            if not isinstance(dest, (FVar, VecRef)):
                raise SplSemanticError(
                    f"operand mapping produced invalid destination {dest}"
                )
            a = fn(inst.a)
            b = fn(inst.b) if inst.b is not None else None
            result.append(Op(inst.op, dest, a, b))
        elif isinstance(inst, Loop):
            result.append(
                Loop(inst.var, inst.count, map_operands(inst.body, fn),
                     unroll=inst.unroll)
            )
        else:
            result.append(inst)
    return result


def subst_indices(body: list[Instr],
                  bindings: Mapping[str, IExpr | int]) -> list[Instr]:
    """Substitute integer variables in all subscripts/intrinsic args."""

    def rewrite(operand: Operand) -> Operand:
        if isinstance(operand, VecRef):
            return VecRef(operand.vec, operand.index.subst(bindings))
        if isinstance(operand, Intrinsic):
            return Intrinsic(
                operand.name,
                tuple(arg.subst(bindings) for arg in operand.args),
            )
        return operand

    return map_operands(body, rewrite)


def clone_body(body: list[Instr]) -> list[Instr]:
    """Deep-copy a list of instructions (IExpr/operands are immutable)."""
    result: list[Instr] = []
    for inst in body:
        if isinstance(inst, Op):
            result.append(Op(inst.op, inst.dest, inst.a, inst.b))
        elif isinstance(inst, Loop):
            result.append(Loop(inst.var, inst.count, clone_body(inst.body),
                               unroll=inst.unroll))
        else:
            result.append(Comment(inst.text))
    return result


def rename_program(program: Program, name: str) -> Program:
    return dataclasses.replace(program, name=name)
