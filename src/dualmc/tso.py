"""Store-buffer (TSO) operational semantics and a bounded forward explorer.

Buffers hold (var, val) pairs; position 0 is the newest message, the
last position the oldest.  A write appends at position 0, an update
consumes the last position and hits memory.  The explorer is
breadth-first over a bounded buffer length and doubles as an oracle
and witness validator for the exact engines.

As in the load-buffer semantics, `_local` is the per-process kernel of
the rules: `runs.tabled` builds whole successors from it in
`tso_successors`, and the explorer, `runs.bounded_bfs`, tables it once
per search as int deltas on coded configurations.  Under a bound, the
kernel takes a write that would overfill its buffer together with the
update that follows it, as one move carrying both actions.
"""
from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .model import ConcurrentProgram, Transition, check_target
from .runs import BoundedResult, Step, Update, _set, bounded_bfs, tabled


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


def tso_successors(c: TsoConfig, program: ConcurrentProgram) -> list[tuple[object, TsoConfig]]:
    """All one-step successors, ordered by process, transition, update."""
    return tabled(c, partial(_local, program, None))


def _local(
    program: ConcurrentProgram, bound: int | None, p: int, state: str, buf: tuple, mem: tuple[int, ...]
) -> list[tuple]:
    """Process p's moves at (state, buf, mem), in tso_successors' order,
    as runs.tabled reads them: (action, new state or None if kept, new
    buffer or None if kept, new memory).

    With a bound and `buf` already holding `bound` messages, a write
    would leave it over the bound, so it is taken together with the
    update that follows it, as the one move with action (write,
    Update(p)): the pair is a genuine behavior that ends within the
    bound.  With bound 0 this yields exactly the interleaving semantics
    where every write is immediately followed by its update.
    """
    full = bound is not None and len(buf) >= bound
    out: list[tuple] = []
    for t in program.processes[p].transitions:
        if t.src != state:
            continue
        moved = _fire(program, t, buf, mem)
        if moved is None:
            continue
        action, (w, m) = Step(p, t), moved
        if full and t.op.kind == "w":
            action = (action, Update(p))
            (x, v), w = w[-1], w[:-1]
            m = _set(m, program.var_index[x], v)
        out.append((action, None if t.dst == state else t.dst, None if w == buf else w, m))
    if buf:
        x, v = buf[-1]
        out.append((Update(p), None, buf[:-1], _set(mem, program.var_index[x], v)))
    return out


def _fire(program: ConcurrentProgram, t: Transition, buf: tuple, mem: tuple[int, ...]):
    """The acting process's buffer and the memory after it fires t from
    buffer `buf`, or None if t's guard fails."""
    op = t.op
    if op.kind == "nop":
        return buf, mem
    if op.kind == "w":
        return ((op.var, op.val),) + buf, mem
    if op.kind == "r":
        pending = [m for m in buf if m[0] == op.var]
        if pending:
            # value must come from the most recent buffered write to var
            return (buf, mem) if pending[0][1] == op.val else None
        return (buf, mem) if mem[program.var_index[op.var]] == op.val else None
    if op.kind == "fence":
        return (buf, mem) if not buf else None
    if op.kind == "arw":
        xi = program.var_index[op.var]
        if not buf and mem[xi] == op.val:
            return buf, _set(mem, xi, op.wval)
        return None
    raise ValueError(f"bad op kind {op.kind!r}")


def tso_bounded_reach(
    program: ConcurrentProgram,
    bound: int,
    target: tuple[str, ...],
    max_nodes: int | None = None,
) -> BoundedResult:
    """Exhaustive search for the target global state with empty buffers,
    over configurations whose buffers never exceed `bound`.

    A reachable verdict carries a shortest witness run.  A safe verdict
    is only bound-relative when bound_exceeded is set.  A target that
    does not name one state of each process raises ValueError.
    """
    init = initial_tso_config(program)
    return bounded_bfs("tso", init, _local, program, bound, max_nodes, check_target(program, target))[0]


def tso_reachable_empty_buffer_states(
    program: ConcurrentProgram, bound: int, max_nodes: int | None = None
) -> frozenset[tuple[str, ...]]:
    """Global states reachable with all buffers empty, within the bound."""
    init = initial_tso_config(program)
    _, seen = bounded_bfs("tso", init, _local, program, bound, max_nodes)
    return frozenset(c.states for c in seen.with_empty_buffers())
