"""Load-buffer (dual) semantics and its bounded forward explorer.

Messages are (var, val, own) triples; position 0 is the newest entry,
the last position the oldest.  A write hits memory immediately and
appends an own-message; propagation speculatively appends the current
memory value of a variable; delete drops the oldest message.  The
explorer is a literal one-step oracle over these rules, with no lossy
quotient.

Every rule changes one process's local state and buffer, and the
memory, and reads nothing else: `_local` is the one kernel of the
rules, per process.  `runs.tabled` builds whole successors from it in
`dtso_successors`; the explorer, `runs.bounded_bfs`,
tables it once per search as int deltas on coded configurations and
decodes only the empty-buffer configurations it is asked for.
"""
from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .model import ConcurrentProgram, Transition, check_target
from .ordering import Word
from .runs import BoundedResult, Delete, Propagate, Step, _set, bounded_bfs, tabled


class DtsoConfig(NamedTuple):
    states: tuple[str, ...]
    buffers: tuple[Word, ...]
    mem: tuple[int, ...]


def initial_dtso_config(program: ConcurrentProgram) -> DtsoConfig:
    return DtsoConfig(
        tuple(a.init for a in program.processes),
        tuple(() for _ in program.processes),
        tuple(0 for _ in program.vars),
    )


def dtso_successors(c: DtsoConfig, program: ConcurrentProgram) -> list[tuple[object, DtsoConfig]]:
    """All one-step successors: per process, its program transitions,
    then one propagate per variable, then delete."""
    return tabled(c, partial(_local, program, None))


def _local(
    program: ConcurrentProgram, bound: int | None, p: int, state: str, buf: Word, mem: tuple[int, ...]
) -> list[tuple]:
    """Process p's moves at (state, buf, mem), in dtso_successors'
    order, as runs.tabled reads them: (action, new state or None if
    kept, new buffer or None if kept, new memory).

    With a bound and `buf` already holding `bound` messages, no append
    (write or propagate) is built, and the first one left out is listed
    in its place as the cut entry (action, None, None, None), so a full
    process lists at most one cut entry.
    """
    full = bound is not None and len(buf) >= bound
    out: list[tuple] = []
    cut = False
    for t in program.processes[p].transitions:
        if t.src != state:
            continue
        if full and t.op.kind == "w":
            if not cut:
                cut = True
                out.append((Step(p, t), None, None, None))
            continue
        moved = _fire(program, t, buf, mem)
        if moved is not None:
            w, m = moved
            out.append((Step(p, t), None if t.dst == state else t.dst, None if w is buf else w, m))
    if not full:
        for x, v in zip(program.vars, mem):
            out.append((Propagate(p, x), None, ((x, v, False),) + buf, mem))
    elif not cut and program.vars:
        out.append((Propagate(p, program.vars[0]), None, None, None))
    if buf:
        out.append((Delete(p), None, buf[:-1], mem))
    return out


def _fire(program: ConcurrentProgram, t: Transition, buf: Word, mem: tuple[int, ...]):
    """The acting process's buffer and the memory after it fires t from
    buffer `buf`, or None if t's guard fails."""
    op = t.op
    if op.kind == "nop":
        return buf, mem
    if op.kind == "w":
        xi = program.var_index[op.var]
        return ((op.var, op.val, True),) + buf, _set(mem, xi, op.val)
    if op.kind == "r":
        own = [m for m in buf if m[0] == op.var and m[2]]
        if own:
            # read-own-write: the most recent own-message decides the value
            return (buf, mem) if own[0][1] == op.val else None
        if buf and buf[-1] == (op.var, op.val, False):
            return buf, mem
        return None
    if op.kind == "fence":
        return (buf, mem) if not buf else None
    if op.kind == "arw":
        xi = program.var_index[op.var]
        if not buf and mem[xi] == op.val:
            return buf, _set(mem, xi, op.wval)
        return None
    raise ValueError(f"bad op kind {op.kind!r}")


def dtso_bounded_reach(
    program: ConcurrentProgram,
    bound: int,
    target: tuple[str, ...],
    max_nodes: int | None = None,
) -> BoundedResult:
    """Bounded search for the target global state with empty buffers;
    a target that is not one state of each process raises ValueError."""
    init = initial_dtso_config(program)
    return bounded_bfs("dtso", init, _local, program, bound, max_nodes, check_target(program, target))[0]


def dtso_reachable_empty_buffer_states(
    program: ConcurrentProgram, bound: int, max_nodes: int | None = None
) -> frozenset[tuple[str, ...]]:
    """Global states reachable with all buffers empty, within the bound."""
    init = initial_dtso_config(program)
    _, seen = bounded_bfs("dtso", init, _local, program, bound, max_nodes)
    return frozenset(c.states for c in seen.with_empty_buffers())
