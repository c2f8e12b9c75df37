"""Load-buffer (dual) semantics and its bounded forward explorer.

Messages are (var, val, own) triples; position 0 is the newest entry,
the last position the oldest.  A write hits memory immediately and
appends an own-message; propagation speculatively appends the current
memory value of a variable; delete drops the oldest message.  The
explorer is a literal one-step oracle over these rules, with no lossy
quotient.
"""
from __future__ import annotations

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
    out: list[tuple[object, DtsoConfig | None]] = []
    cut = False
    for p, auto in enumerate(program.processes):
        state = c.states[p]
        buf = c.buffers[p]
        full = bound is not None and len(buf) >= bound
        for t in auto.transitions:
            if t.src != state:
                continue
            if full and t.op.kind == "w":
                if not cut:
                    cut = True
                    out.append((Step(p, t), None))
                continue
            succ = _fire(c, program, p, t)
            if succ is not None:
                out.append((Step(p, t), succ))
        if not full:
            for x, v in zip(program.vars, c.mem):
                out.append(
                    (Propagate(p, x), DtsoConfig(c.states, _set(c.buffers, p, ((x, v, False),) + buf), c.mem))
                )
        elif not cut and program.vars:
            cut = True
            out.append((Propagate(p, program.vars[0]), None))
        if buf:
            out.append((Delete(p), DtsoConfig(c.states, _set(c.buffers, p, buf[:-1]), c.mem)))
    return out


def _fire(c: DtsoConfig, program: ConcurrentProgram, p: int, t: Transition) -> DtsoConfig | None:
    op = t.op
    states = _set(c.states, p, t.dst)
    buf = c.buffers[p]
    if op.kind == "nop":
        return DtsoConfig(states, c.buffers, c.mem)
    if op.kind == "w":
        xi = program.var_index[op.var]
        newbuf = ((op.var, op.val, True),) + buf
        return DtsoConfig(states, _set(c.buffers, p, newbuf), _set(c.mem, xi, op.val))
    if op.kind == "r":
        own = [m for m in buf if m[0] == op.var and m[2]]
        if own:
            # read-own-write: the most recent own-message decides the value
            return DtsoConfig(states, c.buffers, c.mem) if own[0][1] == op.val else None
        if buf and buf[-1] == (op.var, op.val, False):
            return DtsoConfig(states, c.buffers, c.mem)
        return None
    if op.kind == "fence":
        return DtsoConfig(states, c.buffers, c.mem) if not buf else None
    if op.kind == "arw":
        xi = program.var_index[op.var]
        if not buf and c.mem[xi] == op.val:
            return DtsoConfig(states, c.buffers, _set(c.mem, xi, op.wval))
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
    return bounded_bfs("dtso", init, dtso_successors, None, program, bound, max_nodes, tuple(target))[0]


def dtso_reachable_empty_buffer_states(
    program: ConcurrentProgram, bound: int, max_nodes: int | None = None
) -> frozenset[tuple[str, ...]]:
    """Global states reachable with all buffers empty, within the bound."""
    _, seen = bounded_bfs("dtso", initial_dtso_config(program), dtso_successors, None, program, bound, max_nodes)
    return frozenset(c.states for c in seen if not any(c.buffers))
