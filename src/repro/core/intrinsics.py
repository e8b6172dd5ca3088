"""Intrinsic functions and their compile-time evaluation (Section 3.3.2).

"All intrinsic functions are evaluated at compile-time.  If all the
parameters of an intrinsic function are constant, the intrinsic function
invocation is replaced by its value.  If one or more of the parameters
are loop indices and the others are constant, then the compiler
evaluates the intrinsic function for all possible values of the loop
indices, places these values in a table, and replaces the intrinsic
function invocation with a reference to the table accessed through the
loop indices."

Tables are stored in ``Program.tables`` and referenced through ordinary
:class:`~repro.core.icode.VecRef` operands on vectors named ``d0``,
``d1``, ...; backends emit them as constant data.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

from repro.core.errors import SplSemanticError
from repro.core.icode import (
    FConst,
    IExpr,
    Instr,
    Intrinsic,
    Loop,
    Op,
    Operand,
    Program,
    VecRef,
)
from repro.core.limits import CompileBudget
from repro.core.scalars import Number, omega, simplify_number


def _walsh(i: int, j: int) -> int:
    return -1 if bin(i & j).count("1") % 2 else 1


def _dct2(n: int, k: int, j: int) -> float:
    return math.cos(math.pi * k * (2 * j + 1) / (2 * n))


def _dct4(n: int, k: int, j: int) -> float:
    return math.cos(math.pi * (2 * k + 1) * (2 * j + 1) / (4 * n))


INTRINSICS: dict[str, Callable[..., Number]] = {
    "W": omega,
    "WH": _walsh,
    "DC2": _dct2,
    "DC4": _dct4,
}


def register_intrinsic(name: str, fn: Callable[..., Number]) -> None:
    """Register a new parameterized scalar function for templates."""
    INTRINSICS[name.upper()] = fn


def evaluate_intrinsics(program: Program,
                        budget: CompileBudget | None = None) -> Program:
    """Replace every intrinsic invocation with a constant or table lookup.

    Table sizes are pre-checked against the budget's
    ``max_table_bytes`` (from the index-space dimensions, before any
    value is computed), so an oversized twiddle table is rejected
    instead of materialized.
    """
    builder = _TableBuilder(program, budget or CompileBudget())
    program.body = builder.rewrite(program.body, {})
    return program


class _TableBuilder:
    def __init__(self, program: Program, budget: CompileBudget):
        self.program = program
        self.budget = budget
        self._by_content: dict[tuple, str] = {
            values: name for name, values in program.tables.items()
        }

    def rewrite(self, body: list[Instr], ranges: dict[str, int]) -> list[Instr]:
        result: list[Instr] = []
        for inst in body:
            if isinstance(inst, Loop):
                inner = dict(ranges)
                inner[inst.var] = inst.count
                result.append(
                    Loop(inst.var, inst.count,
                         self.rewrite(inst.body, inner), unroll=inst.unroll)
                )
            elif isinstance(inst, Op):
                a = self._rewrite_operand(inst.a, ranges)
                b = (
                    self._rewrite_operand(inst.b, ranges)
                    if inst.b is not None else None
                )
                result.append(Op(inst.op, inst.dest, a, b))
            else:
                result.append(inst)
        return result

    def _rewrite_operand(self, operand: Operand,
                         ranges: dict[str, int]) -> Operand:
        if not isinstance(operand, Intrinsic):
            return operand
        fn = INTRINSICS.get(operand.name.upper())
        if fn is None:
            raise SplSemanticError(f"unknown intrinsic {operand.name!r}")
        const_args = [arg.as_const() for arg in operand.args]
        if all(value is not None for value in const_args):
            return FConst(simplify_number(fn(*const_args)))
        return self._tabulate(operand, fn, ranges)

    def _tabulate(self, operand: Intrinsic, fn: Callable[..., Number],
                  ranges: dict[str, int]) -> VecRef:
        free: list[str] = []
        for arg in operand.args:
            for name in sorted(arg.free_vars()):
                if name not in free:
                    free.append(name)
        # Order variables outermost-first, following loop nesting order.
        ordered = [name for name in ranges if name in free]
        missing = [name for name in free if name not in ranges]
        if missing:
            raise SplSemanticError(
                f"intrinsic {operand.name} argument uses variables "
                f"{missing} that are not loop indices"
            )
        dims = [ranges[name] for name in ordered]
        elements = 1
        for dim in dims:
            elements *= dim
        self.budget.check_table(self.program.table_elements() + elements,
                                f"intrinsic {operand.name}")
        values: list[Number] = []
        for point in itertools.product(*(range(d) for d in dims)):
            if len(values) % 4096 == 4095:
                self.budget.check_deadline("intrinsic table construction")
            bindings = dict(zip(ordered, point))
            args = []
            for arg in operand.args:
                value = arg.eval(bindings)
                assert value is not None
                args.append(value)
            values.append(simplify_number(fn(*args)))
        index = IExpr.const(0)
        stride = 1
        for name, dim in zip(reversed(ordered), reversed(dims)):
            index = index + IExpr.var(name) * stride
            stride *= dim
        name = self._intern_table(tuple(values))
        return VecRef(name, index)

    def _intern_table(self, values: tuple) -> str:
        existing = self._by_content.get(values)
        if existing is not None:
            return existing
        name = f"d{len(self.program.tables)}"
        self.program.tables[name] = values
        self._by_content[values] = name
        return name
