"""Store-buffer (TSO) operational semantics and a bounded forward explorer.

Buffers hold (var, val) pairs; position 0 is the newest message, the
last position the oldest.  A write appends at position 0, an update
consumes the last position and hits memory.  The explorer is
breadth-first over a bounded buffer length and doubles as an oracle
and witness validator for the exact engines.
"""
from __future__ import annotations

from typing import NamedTuple

from .model import ConcurrentProgram, Transition
from .runs import BoundedResult, Step, Update, _set, bounded_bfs


class TsoConfig(NamedTuple):
    states: tuple[str, ...]
    buffers: tuple[tuple[tuple[str, int], ...], ...]
    mem: tuple[int, ...]


def initial_tso_config(program: ConcurrentProgram) -> TsoConfig:
    return TsoConfig(
        tuple(a.init for a in program.processes),
        tuple(() for _ in program.processes),
        tuple(0 for _ in program.vars),
    )


def tso_successors(
    c: TsoConfig, program: ConcurrentProgram, bound: int | None = None
) -> list[tuple[object, TsoConfig]]:
    """All one-step successors, ordered by process, transition, update.

    `bound` is not used: a write over the bound is built all the same,
    and bounded_bfs hands it to the overflow hook, _write_then_update.
    """
    out: list[tuple[object, TsoConfig]] = []
    for p, auto in enumerate(program.processes):
        buf = c.buffers[p]
        for t in auto.transitions:
            if t.src != c.states[p]:
                continue
            succ = _fire(c, program, p, t)
            if succ is not None:
                out.append((Step(p, t), succ))
        if buf:
            out.append((Update(p), _update(c, program, p)))
    return out


def _update(c: TsoConfig, program: ConcurrentProgram, p: int) -> TsoConfig:
    """The oldest pending write of process p hits memory."""
    buf = c.buffers[p]
    x, v = buf[-1]
    return TsoConfig(c.states, _set(c.buffers, p, buf[:-1]), _set(c.mem, program.var_index[x], v))


def _fire(c: TsoConfig, program: ConcurrentProgram, p: int, t: Transition) -> TsoConfig | None:
    """Apply transition t for process p if its guard holds."""
    op = t.op
    states = _set(c.states, p, t.dst)
    buf = c.buffers[p]
    if op.kind == "nop":
        return TsoConfig(states, c.buffers, c.mem)
    if op.kind == "w":
        newbuf = ((op.var, op.val),) + buf
        return TsoConfig(states, _set(c.buffers, p, newbuf), c.mem)
    if op.kind == "r":
        pending = [m for m in buf if m[0] == op.var]
        if pending:
            # value must come from the most recent buffered write to var
            return TsoConfig(states, c.buffers, c.mem) if pending[0][1] == op.val else None
        if c.mem[program.var_index[op.var]] == op.val:
            return TsoConfig(states, c.buffers, c.mem)
        return None
    if op.kind == "fence":
        return TsoConfig(states, c.buffers, c.mem) if not buf else None
    if op.kind == "arw":
        xi = program.var_index[op.var]
        if not buf and c.mem[xi] == op.val:
            return TsoConfig(states, c.buffers, _set(c.mem, xi, op.wval))
        return None
    raise ValueError(f"bad op kind {op.kind!r}")


def _write_then_update(action: Step, succ: TsoConfig, program: ConcurrentProgram):
    """The step (Update(p), config) after a write of process p over the
    bound: the pair is a genuine behavior that ends within the bound.
    With bound 0 this yields exactly the interleaving semantics where
    every write is immediately followed by its update."""
    return Update(action.proc), _update(succ, program, action.proc)


def tso_bounded_reach(
    program: ConcurrentProgram,
    bound: int,
    target: tuple[str, ...],
    max_nodes: int | None = None,
) -> BoundedResult:
    """Exhaustive search for the target global state with empty buffers,
    over configurations whose buffers never exceed `bound`.

    A reachable verdict carries a shortest witness run.  A safe verdict
    is only bound-relative when bound_exceeded is set.
    """
    init = initial_tso_config(program)
    return bounded_bfs(
        "tso", init, tso_successors, _write_then_update, program, bound, max_nodes, tuple(target)
    )[0]


def tso_reachable_empty_buffer_states(
    program: ConcurrentProgram, bound: int, max_nodes: int | None = None
) -> frozenset[tuple[str, ...]]:
    """Global states reachable with all buffers empty, within the bound."""
    init = initial_tso_config(program)
    _, seen = bounded_bfs("tso", init, tso_successors, _write_then_update, program, bound, max_nodes)
    return frozenset(c.states for c in seen if not any(c.buffers))
