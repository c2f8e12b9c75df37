"""Load-buffer (dual) semantics and its bounded forward explorer.

Messages are (var, val, own) triples; position 0 is the newest entry,
the last position the oldest.  A write hits memory immediately and
appends an own-message; propagation speculatively appends the current
memory value of a variable; delete drops the oldest message.  The
explorer is a literal one-step oracle over these rules, with no lossy
quotient.

Every rule changes one process's local state and buffer, and the
memory, and reads nothing else: `_local` is the one kernel of the
rules, per process, and both `dtso_successors` and a search's
`tabled_successors` assemble whole successors from it.
"""
from __future__ import annotations

from itertools import count, repeat
from typing import NamedTuple

from .model import ConcurrentProgram, Transition
from .ordering import Word
from .runs import BoundedResult, Delete, Propagate, Step, _set, bounded_bfs


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


def dtso_successors(
    c: DtsoConfig, program: ConcurrentProgram, bound: int | None = None
) -> list[tuple[object, DtsoConfig | None]]:
    """All one-step successors: per process, its program transitions,
    then one propagate per variable, then delete.

    With a bound, a process whose buffer already holds `bound` messages
    builds none of its appends (writes and propagates).  The first append
    left out is listed in its place as a cut entry (action, None); the
    later ones are dropped without one.
    """
    return _assemble(c, [_local(c, program, p, bound) for p in range(len(c.states))])


def tabled_successors(program: ConcurrentProgram, bound: int):
    """dtso_successors of `program` at `bound`, for one search to own.

    Process p's moves depend only on (p, its state, its buffer, the
    memory), and a search meets few such keys, so each key's `_local`
    list is built once into a table the returned function closes over.
    The function lists the same steps in the same order, with the same
    cut entry; called with another program, another bound, or none (as
    `drive` and `fire` call it), it is the literal dtso_successors.
    """
    table: dict = {}

    def successors(c: DtsoConfig, prog: ConcurrentProgram, b: int | None = None):
        if prog is not program or b != bound:
            return dtso_successors(c, prog, b)
        per_process = []
        for key in zip(count(), c.states, c.buffers, repeat(c.mem)):
            moves = table.get(key)
            if moves is None:
                moves = table[key] = _local(c, program, key[0], bound)
            per_process.append(moves)
        return _assemble(c, per_process)

    return successors


def _local(c: DtsoConfig, program: ConcurrentProgram, p: int, bound: int | None) -> list[tuple]:
    """Process p's moves at c, in dtso_successors' order, each as
    (action, p's new state, p's new buffer, new memory).

    With a bound and p's buffer already holding `bound` messages, no
    append is built, and the first one left out is listed in its place
    as the cut entry (action, None, None, None).
    """
    state = c.states[p]
    buf = c.buffers[p]
    mem = c.mem
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
            out.append((Step(p, t), t.dst, *moved))
    if not full:
        for x, v in zip(program.vars, mem):
            out.append((Propagate(p, x), state, ((x, v, False),) + buf, mem))
    elif not cut and program.vars:
        out.append((Propagate(p, program.vars[0]), None, None, None))
    if buf:
        out.append((Delete(p), state, buf[:-1], mem))
    return out


def _assemble(c: DtsoConfig, per_process) -> list[tuple[object, DtsoConfig | None]]:
    """c's successors from each process's `_local` moves, in process
    order, keeping only the first cut entry of all.  A move that leaves
    the states or the buffers as they were reuses c's tuple."""
    states, buffers, _mem = c
    out: list[tuple[object, DtsoConfig | None]] = []
    cut = False
    for p, moves in enumerate(per_process):
        state = states[p]
        buf = buffers[p]
        for action, s, w, mem in moves:
            if s is None:
                if not cut:
                    cut = True
                    out.append((action, None))
                continue
            out.append((
                action,
                DtsoConfig(
                    states if s == state else _set(states, p, s),
                    buffers if w == buf else _set(buffers, p, w),
                    mem,
                ),
            ))
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
    """Bounded search for the target global state with empty buffers."""
    init = initial_dtso_config(program)
    return bounded_bfs(
        "dtso", init, tabled_successors(program, bound), None, program, bound, max_nodes, tuple(target)
    )[0]


def dtso_reachable_empty_buffer_states(
    program: ConcurrentProgram, bound: int, max_nodes: int | None = None
) -> frozenset[tuple[str, ...]]:
    """Global states reachable with all buffers empty, within the bound."""
    init = initial_dtso_config(program)
    _, seen = bounded_bfs("dtso", init, tabled_successors(program, bound), None, program, bound, max_nodes)
    return frozenset(c.states for c in seen if not any(c.buffers))
