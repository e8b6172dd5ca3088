"""Cross-stage loop fusion for compose chains.

The compose template lowers ``(compose A B)`` to two loop nests with a
full temp vector between them: ``B`` writes every element of ``$t``,
then ``A`` reads it back.  A k-stage plan therefore streams k-1
intermediate vectors through memory once per stage.  This module fuses
those stages at the i-code level, in two passes:

``forward_copy_stages``
    A stage that only *copies* (a stride permutation such as ``L`` or
    ``J``, or a scatter of constants) defines a map from each temp
    element to its source operand.  The pass enumerates that map, then
    rewrites every later read ``t(h)`` to the source directly,
    re-fitting an affine subscript (coefficients may be symbolic
    stride parameters) and verifying the fit exactly at every point of
    the read's iteration domain.  Once no reads remain, the stage and
    the temp vector are deleted outright.

``fuse_conformable_stages``
    Two adjacent perfect nests with identical loop-count vectors, where
    the producer writes exactly one temp and (after renaming the
    consumer's indices onto the producer's) every consumer read of that
    temp matches a producer store syntactically, merge into one nest.
    Values flow through fresh scalars; the original stores are kept for
    any later readers and dead-code elimination removes them when the
    temp dies.

Both passes are *verified* rather than trusted: legality is established
by exact enumeration of the index streams (charged against the compile
budget via :meth:`CompileBudget.charge_fusion`), and the surrounding
pipeline re-derives the program's denoted matrix after each pass when
``validate_passes`` is on (see :mod:`repro.core.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Mapping

from repro.core.icode import (
    Comment,
    FConst,
    FVar,
    IExpr,
    Instr,
    Loop,
    Op,
    Operand,
    Program,
    VEC_TEMP,
    VecRef,
    iter_ops,
)
from repro.core.limits import CompileBudget


@dataclass
class FusionStats:
    """What a fusion pass did, for pass records and plan stats."""

    reads_forwarded: int = 0
    stages_removed: int = 0
    loops_fused: int = 0
    temps_bypassed: list[str] = field(default_factory=list)

    def changed(self) -> bool:
        return bool(self.reads_forwarded or self.stages_removed
                    or self.loops_fused)


class _Bail(Exception):
    """Internal: the candidate is not (provably) legal; leave it alone."""


# ---------------------------------------------------------------------------
# Shared analysis helpers.
# ---------------------------------------------------------------------------


def _vec_writes(body: list[Instr]) -> set[str]:
    return {op.dest.vec for op in iter_ops(body)
            if isinstance(op.dest, VecRef)}


def _vec_reads(body: list[Instr]) -> set[str]:
    names: set[str] = set()
    for op in iter_ops(body):
        for operand in op.operands():
            if isinstance(operand, VecRef):
                names.add(operand.vec)
    return names


def _scalar_names(body: list[Instr]) -> set[str]:
    names: set[str] = set()
    for op in iter_ops(body):
        for item in (op.dest, *op.operands()):
            if isinstance(item, FVar):
                names.add(item.name)
    return names


def _loop_vars(body: list[Instr]) -> set[str]:
    names: set[str] = set()
    stack = list(body)
    while stack:
        inst = stack.pop()
        if isinstance(inst, Loop):
            names.add(inst.var)
            stack.extend(inst.body)
    return names


def _write_positions(program: Program) -> dict[str, set[int]]:
    """Vector name -> set of top-level instruction indexes writing it."""
    positions: dict[str, set[int]] = {}
    for idx, inst in enumerate(program.body):
        for name in _vec_writes([inst]):
            positions.setdefault(name, set()).add(idx)
    return positions


def _domain_points(
    order: list[str], counts: Mapping[str, int]
) -> Iterator[dict[str, int]]:
    """Every assignment of the given variables to their ranges."""
    ranges = [range(counts[name]) for name in order]
    for values in product(*ranges):
        yield dict(zip(order, values))


def _fresh_scalars(program: Program) -> Iterator[FVar]:
    used = _scalar_names(program.body)
    counter = 0
    while True:
        name = f"f{counter}"
        counter += 1
        if name not in used:
            used.add(name)
            yield FVar(name)


# ---------------------------------------------------------------------------
# Pass 1: forward the sources of pure copy stages into their readers.
# ---------------------------------------------------------------------------


def forward_copy_stages(program: Program,
                        budget: CompileBudget) -> FusionStats:
    """Eliminate stride-permutation stages by forwarding their sources.

    Works region by region: the top-level body first, then every loop
    body (so permutation stages nested inside tensor loops fuse too —
    there, the outer loop indices simply stay symbolic in the
    forwarded subscripts).
    """
    stats = FusionStats()
    changed = True
    while changed:
        changed = False
        for region, top_idx in _regions(program):
            for start, end, temp in _copy_stages(region, program):
                if _forward_one_stage(program, region, top_idx, start, end,
                                      temp, budget, stats):
                    changed = True
                    break  # indexes shifted; re-analyze
            if changed:
                break
    return stats


def _regions(program: Program) -> Iterator[tuple[list[Instr], int | None]]:
    """Every instruction-list scope: the top level, then loop bodies.

    Yields ``(body, top_idx)`` where ``top_idx`` is the index of the
    enclosing top-level instruction (None for the top level itself).
    """
    yield program.body, None
    for idx, inst in enumerate(program.body):
        stack = [inst]
        while stack:
            node = stack.pop()
            if isinstance(node, Loop):
                yield node.body, idx
                stack.extend(node.body)


def _copy_stages(body: list[Instr],
                 program: Program) -> list[tuple[int, int, str]]:
    """Maximal runs in ``body`` that only copy into a single temp.

    Returns ``(start, end_exclusive, temp_name)`` for each run where
    every contained ``Op`` is ``temp(...) = other_vec(...)`` or
    ``temp(...) = const``.  Legality (single writer, no earlier reads)
    is established by the caller.
    """
    stages: list[tuple[int, int, str]] = []
    idx = 0
    while idx < len(body):
        temp = _copy_target(body[idx])
        if temp is None or program.vectors.get(temp) is None \
                or program.vectors[temp].kind != VEC_TEMP:
            idx += 1
            continue
        end = idx + 1
        while end < len(body) and _copy_target(body[end]) == temp:
            end += 1
        stages.append((idx, end, temp))
        idx = end
    return stages


def _copy_target(inst: Instr) -> str | None:
    """The single temp this instruction copies into, or None."""
    if isinstance(inst, Comment):
        return None
    target: str | None = None
    for op in iter_ops([inst]):
        if op.op != "=" or not isinstance(op.dest, VecRef):
            return None
        if not isinstance(op.a, (VecRef, FConst)):
            return None
        if isinstance(op.a, VecRef) and op.a.vec == op.dest.vec:
            return None
        if target is None:
            target = op.dest.vec
        elif op.dest.vec != target:
            return None
    return target


def _count_vec_ops(body: list[Instr], vec: str) -> tuple[int, int]:
    """``(ops referencing vec, ops writing vec)`` within ``body``."""
    refs = writes = 0
    for op in iter_ops(body):
        items = (op.dest, *op.operands())
        if any(isinstance(i, VecRef) and i.vec == vec for i in items):
            refs += 1
        if isinstance(op.dest, VecRef) and op.dest.vec == vec:
            writes += 1
    return refs, writes


def _source_stable(program: Program, region: list[Instr],
                   top_idx: int | None, start: int, vec: str,
                   top_writes: dict[str, set[int]]) -> bool:
    """Whether ``vec`` is provably unchanged between stage and readers.

    True when every write of ``vec`` executes before the copy stage:
    at an earlier top-level position, or (for a nested region) earlier
    within the same region — so a read forwarded from the stage's
    source observes the same value the stage would have copied.
    """
    positions = top_writes.get(vec, set())
    if top_idx is None:
        return all(pos < start for pos in positions)
    if any(pos > top_idx for pos in positions):
        # Writes after the enclosing loop cannot affect reads inside
        # it, but a position beyond top_idx inside *this* sweep means
        # we cannot tell; stay conservative.
        return False
    if top_idx in positions:
        _, inside_top = _count_vec_ops([program.body[top_idx]], vec)
        _, before_stage = _count_vec_ops(region[:start], vec)
        return inside_top == before_stage
    return True


def _forward_one_stage(program: Program, region: list[Instr],
                       top_idx: int | None, start: int, end: int, temp: str,
                       budget: CompileBudget, stats: FusionStats) -> bool:
    stage = region[start:end]
    # The temp must live entirely in this region (same reference count
    # as the whole program) and be written only by this stage.
    refs_region, writes_region = _count_vec_ops(region, temp)
    refs_global, _ = _count_vec_ops(program.body, temp)
    if refs_global != refs_region:
        return False
    _, writes_stage = _count_vec_ops(stage, temp)
    if writes_region != writes_stage:
        return False
    # Reads of the temp before its defining stage would observe zeros
    # (or, nested in a loop, the previous iteration's values); bail.
    if temp in _vec_reads(region[:start]):
        return False
    try:
        table = _enumerate_copies(stage, temp, budget)
    except _Bail:
        return False
    top_writes = _write_positions(program)

    def stable(vec: str) -> bool:
        return _source_stable(program, region, top_idx, start, vec,
                              top_writes)

    forwarded = 0
    for idx in range(end, len(region)):
        forwarded += _rewrite_reads(region[idx], temp, table, stable, budget)
    if forwarded == 0:
        return False
    stats.reads_forwarded += forwarded
    if not any(temp in _vec_reads([inst]) for inst in program.body):
        del region[start:end]
        program.vectors.pop(temp, None)
        stats.stages_removed += 1
        stats.temps_bypassed.append(temp)
    return True


def _enumerate_copies(instrs: list[Instr], temp: str,
                      budget: CompileBudget) -> dict[int, Operand]:
    """Concrete dest index -> source operand (with loop vars bound)."""
    table: dict[int, Operand] = {}

    def walk(body: list[Instr], bindings: dict[str, int]) -> None:
        for inst in body:
            if isinstance(inst, Comment):
                continue
            if isinstance(inst, Loop):
                for k in range(inst.count):
                    bindings[inst.var] = k
                    walk(inst.body, bindings)
                del bindings[inst.var]
                continue
            budget.charge_fusion(1, f"copy stage for ${temp}")
            dest_index = inst.dest.index.eval(bindings)
            if dest_index is None:
                raise _Bail
            source = inst.a
            if isinstance(source, VecRef):
                # Outer indices of a nested stage stay symbolic.
                value = source.index.eval(bindings)
                index = source.index.subst(bindings) if value is None \
                    else IExpr.const(value)
                source = VecRef(source.vec, index)
            # Later stores win, matching execution order.
            table[dest_index] = source

    walk(instrs, {})
    return table


def _rewrite_reads(inst: Instr, temp: str, table: dict[int, Operand],
                   stable, budget: CompileBudget) -> int:
    """Rewrite reads of ``temp`` within one instruction (recursively)."""
    forwarded = 0
    cache: dict[tuple, Operand | None] = {}

    def fit(index: IExpr, counts: dict[str, int]) -> Operand | None:
        key = (index, tuple(sorted(counts.items())))
        if key not in cache:
            cache[key] = _fit_source(index, table, counts, stable, temp,
                                     budget)
        return cache[key]

    def visit(body: list[Instr], counts: dict[str, int]) -> None:
        nonlocal forwarded
        for item in body:
            if isinstance(item, Loop):
                counts[item.var] = item.count
                visit(item.body, counts)
                del counts[item.var]
            elif isinstance(item, Op):
                if isinstance(item.a, VecRef) and item.a.vec == temp:
                    replacement = fit(item.a.index, counts)
                    if replacement is not None:
                        item.a = replacement
                        forwarded += 1
                if isinstance(item.b, VecRef) and item.b.vec == temp:
                    replacement = fit(item.b.index, counts)
                    if replacement is not None:
                        item.b = replacement
                        forwarded += 1

    visit([inst], {})
    return forwarded


def _fit_source(index: IExpr, table: dict[int, Operand],
                counts: dict[str, int], stable, temp: str,
                budget: CompileBudget) -> Operand | None:
    """The forwarded operand for a read ``temp(index)``, or None.

    Enumerates the read's iteration domain, looks up each point's
    source, and (for vector sources) interpolates an affine subscript
    which is then *verified exactly* at every point — soundness never
    rests on the interpolation.
    """
    variables = sorted(index.free_vars())
    if any(name not in counts for name in variables):
        return None  # subscript depends on something besides loop indices
    points = list(_domain_points(variables, counts))
    budget.charge_fusion(len(points), f"forwarding reads of ${temp}")
    sources: list[Operand] = []
    for point in points:
        element = index.eval(point)
        if element is None or element not in table:
            return None
        sources.append(table[element])
    if all(isinstance(s, FConst) for s in sources):
        first = sources[0]
        if all(s == first for s in sources):
            return first
        return None
    if not all(isinstance(s, VecRef) for s in sources):
        return None
    vec = sources[0].vec
    if any(s.vec != vec for s in sources):
        return None
    # The source vector must be unchanged between the copy stage and
    # this read: every write of it provably precedes the stage.
    if not stable(vec):
        return None
    origin = sources[0].index  # points[0] is the all-zeros assignment
    fitted = origin
    for name in variables:
        if counts[name] < 2:
            continue
        unit = {v: (1 if v == name else 0) for v in variables}
        position = points.index(unit)
        delta = sources[position].index - origin
        fitted = fitted + delta * IExpr.var(name)
    for point, source in zip(points, sources):
        value = fitted.eval(point)
        if value is None:  # symbolic strides or outer indices remain
            if fitted.subst(point) != source.index:
                return None
        elif value != source.index.as_const():
            return None
    return VecRef(vec, fitted)


# ---------------------------------------------------------------------------
# Pass 2: fuse adjacent conformable nests, forwarding through scalars.
# ---------------------------------------------------------------------------


def fuse_conformable_stages(program: Program,
                            budget: CompileBudget) -> FusionStats:
    """Merge adjacent identically-shaped nests linked by one temp."""
    stats = FusionStats()
    fresh = _fresh_scalars(program)
    changed = True
    while changed:
        changed = False
        body = program.body
        for idx in range(len(body)):
            nxt = idx + 1
            while nxt < len(body) and isinstance(body[nxt], Comment):
                nxt += 1
            if nxt >= len(body):
                break
            producer, consumer = body[idx], body[nxt]
            if not (isinstance(producer, Loop) and isinstance(consumer, Loop)):
                continue
            fused = _try_fuse(program, producer, consumer, budget, fresh,
                              stats)
            if fused is not None:
                body[idx] = fused
                del body[nxt]
                changed = True
                break
    return stats


def _perfect_nest(loop: Loop) -> tuple[list[str], list[int],
                                       list[Instr]] | None:
    """``(vars, counts, innermost_body)`` for a perfectly nested loop."""
    variables, counts = [], []
    current: Instr = loop
    while isinstance(current, Loop):
        variables.append(current.var)
        counts.append(current.count)
        inner = [i for i in current.body if not isinstance(i, Comment)]
        if len(inner) == 1 and isinstance(inner[0], Loop):
            current = inner[0]
            continue
        if any(isinstance(i, Loop) for i in inner):
            return None
        return variables, counts, inner
    return None


def _try_fuse(program: Program, producer: Loop, consumer: Loop,
              budget: CompileBudget, fresh: Iterator[FVar],
              stats: FusionStats) -> Loop | None:
    nest_p = _perfect_nest(producer)
    nest_c = _perfect_nest(consumer)
    if nest_p is None or nest_c is None:
        return None
    vars_p, counts_p, body_p = nest_p
    vars_c, counts_c, body_c = nest_c
    if counts_p != counts_c:
        return None
    # The producer must write exactly one temp vector.
    dests = {op.dest.vec for op in iter_ops(body_p)
             if isinstance(op.dest, VecRef)}
    if len(dests) != 1:
        return None
    temp = dests.pop()
    info = program.vectors.get(temp)
    if info is None or info.kind != VEC_TEMP:
        return None
    if temp in _vec_reads(body_p):
        return None
    # ... and only there, in the whole program.
    writers = _write_positions(program)
    producer_idx = next(i for i, inst in enumerate(program.body)
                        if inst is producer)
    if writers.get(temp, set()) != {producer_idx}:
        return None
    # Rename the consumer's loop indices onto the producer's.
    if set(vars_p) & (_loop_vars([consumer]) | _loop_vars(body_c)
                      | set(vars_c)) and vars_p != vars_c:
        return None
    renaming = {old: IExpr.var(new) for old, new in zip(vars_c, vars_p)}
    # Alias freedom at vector granularity: the consumer must not write
    # the temp, anything the producer reads, or the temp's twin reads.
    reads_p = _vec_reads(body_p)
    writes_c = _vec_writes(body_c)
    if writes_c & (reads_p | {temp}):
        return None
    if _scalar_names(body_p) & _scalar_names(body_c):
        return None
    store_exprs = {op.dest.index for op in iter_ops(body_p)
                   if isinstance(op.dest, VecRef)}
    # Every consumer read of the temp must be a producer store, verbatim.
    consumer_reads: set[IExpr] = set()
    for op in iter_ops(body_c):
        for operand in op.operands():
            if isinstance(operand, VecRef) and operand.vec == temp:
                renamed = operand.index.subst(renaming)
                if renamed not in store_exprs:
                    return None
                consumer_reads.add(renamed)
    if not consumer_reads:
        return None
    # The store map must be injective across the whole iteration space,
    # otherwise a forwarded scalar could expose a value from the wrong
    # iteration.  Verified by exact enumeration.
    seen: set[int] = set()
    counts = dict(zip(vars_p, counts_p))
    for point in _domain_points(vars_p, counts):
        for expr in store_exprs:
            budget.charge_fusion(1, f"fusing stages through ${temp}")
            element = expr.eval(point)
            if element is None or element in seen:
                return None
            seen.add(element)
    # Legal: build the fused innermost body.
    forwards: dict[IExpr, FVar] = {}
    fused_body: list[Instr] = []
    for inst in body_p:
        if isinstance(inst, Op) and isinstance(inst.dest, VecRef) \
                and inst.dest.index in consumer_reads:
            scalar = forwards.setdefault(inst.dest.index, next(fresh))
            fused_body.append(Op(inst.op, scalar, inst.a, inst.b))
            fused_body.append(Op("=", inst.dest, scalar))
        else:
            fused_body.append(inst)

    def forward(operand: Operand) -> Operand:
        if isinstance(operand, VecRef):
            renamed = operand.index.subst(renaming)
            if operand.vec == temp:
                return forwards[renamed]
            return VecRef(operand.vec, renamed)
        return operand

    for inst in body_c:
        if isinstance(inst, Comment):
            fused_body.append(inst)
            continue
        dest = forward(inst.dest)
        a = forward(inst.a)
        b = forward(inst.b) if inst.b is not None else None
        fused_body.append(Op(inst.op, dest, a, b))
    nest: list[Instr] = fused_body
    for var, count in zip(reversed(vars_p), reversed(counts_p)):
        nest = [Loop(var, count, nest)]
    stats.loops_fused += 1
    stats.temps_bypassed.append(temp)
    return nest[0]
