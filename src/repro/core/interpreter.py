"""A direct interpreter for i-code programs.

The interpreter is the reference executor: every backend (Python, C,
Fortran text) must agree with it, and it in turn is validated against
the dense matrix semantics of :mod:`repro.formulas`.  It runs at any
stage of the pipeline — intrinsics may still be symbolic and the
program may or may not have been lowered to real arithmetic.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import SplSemanticError
from repro.core.icode import (
    FConst,
    FVar,
    IExpr,
    Instr,
    Intrinsic,
    Loop,
    Op,
    Operand,
    Program,
    VecRef,
)
from repro.core.intrinsics import INTRINSICS
from repro.core.scalars import Number


def run_program(program: Program, x: Sequence[Number], *,
                istride: int = 1, ostride: int = 1,
                iofs: int = 0, oofs: int = 0) -> list[Number]:
    """Execute ``program`` on input ``x`` and return the output vector.

    ``x`` must have exactly ``in_size * element_width`` entries (i.e.
    interleaved re/im pairs after the complex-to-real lowering).  The
    stride/offset keywords only apply to ``strided`` programs.
    """
    width = program.element_width
    if program.strided:
        expected = (iofs + (program.in_size - 1) * istride + 1) * width
        out_len = (oofs + (program.out_size - 1) * ostride + 1) * width
    else:
        expected = program.in_size * width
        out_len = program.out_size * width
    if len(x) < expected:
        raise SplSemanticError(
            f"program {program.name} expects at least {expected} input "
            f"elements, got {len(x)}"
        )
    vectors: dict[str, list[Number]] = {}
    for info in program.vectors.values():
        if info.kind == "in":
            vectors[info.name] = list(x)
        elif info.kind == "out":
            vectors[info.name] = [0.0] * out_len
        else:
            vectors[info.name] = [0.0] * info.size
    for name, values in program.tables.items():
        vectors[name] = list(values)
    scalars: dict[str, Number] = {}
    bindings: dict[str, int] = {}
    if program.strided:
        bindings.update(istride=istride, ostride=ostride,
                        iofs=iofs, oofs=oofs)
    _run_block(program.body, vectors, scalars, bindings)
    return vectors[program.output_name()]


def _run_block(body: list[Instr], vectors: dict, scalars: dict,
               bindings: dict[str, int]) -> None:
    for inst in body:
        if isinstance(inst, Loop):
            for k in range(inst.count):
                bindings[inst.var] = k
                _run_block(inst.body, vectors, scalars, bindings)
            bindings.pop(inst.var, None)
        elif isinstance(inst, Op):
            _run_op(inst, vectors, scalars, bindings)


def _index(expr: IExpr, bindings: dict[str, int]) -> int:
    value = expr.eval(bindings)
    if value is None:
        missing = sorted(expr.free_vars() - bindings.keys())
        raise SplSemanticError(
            f"unbound index variables {missing} in {expr}"
        )
    return value


def _load(operand: Operand, vectors: dict, scalars: dict,
          bindings: dict[str, int]) -> Number:
    if isinstance(operand, FConst):
        return operand.value
    if isinstance(operand, FVar):
        if operand.name not in scalars:
            raise SplSemanticError(f"read of unset scalar ${operand.name}")
        return scalars[operand.name]
    if isinstance(operand, VecRef):
        vec = vectors.get(operand.vec)
        if vec is None:
            raise SplSemanticError(f"unknown vector ${operand.vec}")
        index = _index(operand.index, bindings)
        if not 0 <= index < len(vec):
            raise SplSemanticError(
                f"subscript {index} out of range for ${operand.vec} "
                f"(size {len(vec)})"
            )
        return vec[index]
    if isinstance(operand, Intrinsic):
        fn = INTRINSICS.get(operand.name.upper())
        if fn is None:
            raise SplSemanticError(f"unknown intrinsic {operand.name}")
        args = [_index(arg, bindings) for arg in operand.args]
        return fn(*args)
    raise SplSemanticError(f"cannot evaluate operand {operand!r}")


def _store(dest, value: Number, vectors: dict, scalars: dict,
           bindings: dict[str, int]) -> None:
    if isinstance(dest, FVar):
        scalars[dest.name] = value
        return
    vec = vectors.get(dest.vec)
    if vec is None:
        raise SplSemanticError(f"unknown vector ${dest.vec}")
    index = _index(dest.index, bindings)
    if not 0 <= index < len(vec):
        raise SplSemanticError(
            f"subscript {index} out of range for ${dest.vec} "
            f"(size {len(vec)})"
        )
    vec[index] = value


def _run_op(op: Op, vectors: dict, scalars: dict,
            bindings: dict[str, int]) -> None:
    a = _load(op.a, vectors, scalars, bindings)
    if op.op == "=":
        value = a
    elif op.op == "neg":
        value = -a
    else:
        b = _load(op.b, vectors, scalars, bindings)
        if op.op == "+":
            value = a + b
        elif op.op == "-":
            value = a - b
        elif op.op == "*":
            value = a * b
        elif op.op == "/":
            value = a / b
        else:
            raise SplSemanticError(f"unknown operator {op.op!r}")
    _store(op.dest, value, vectors, scalars, bindings)
