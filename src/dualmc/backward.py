"""Exact reachability for fixed-size programs by backward coverability.

The engine walks the predecessor relation of the load-buffer semantics
over upward-closed sets, each represented by its finite antichain of
minimal configurations.  One backward step computes, for a minimal
configuration, the minimal predecessors under every rule; the target is
the set of empty-buffer configurations at the target global state over
all memory valuations, of which only the live ones, those the writes
can produce, are built (seed_memories), straight into the antichain
the search saturates.  The search is reachable as
soon as a generated minimal configuration covers the initial
configuration, and unreachable when the antichain reaches a fixpoint.

The search runs over coded configurations, one int each, from a
`runs.Coder` it owns (`backward_coder`): the initial configuration is
code 0, and each buffer's own-delimiters and the total buffer length
are fields of the code, so the antichain's bucket key, its signature
pre-filter and the worklist weight are each one mask or shift.  The
per-process rule kernel is written on configurations, once, and
tabled per process into code deltas (`coded_preds`).
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .dtso import DtsoConfig, dtso_successors, initial_dtso_config
from .model import ConcurrentProgram, check_target
from .ordering import MinorSet, Word, config_leq, own_decompose, word_table
from .runs import Coder, Delete, Propagate, ResourceLimitError, Run, RunError, Step, _set, drive, fire, tabled, unwind


@dataclass
class BackwardStats:
    verdict: str  # "Reachable" | "Unreachable"
    witness: tuple | None
    configs_generated: int
    iterations: int
    frontier_peak: int
    minors: int
    # minors along the witness: chain[0] covers the initial configuration,
    # chain[-1] is a target seed, and witness[i] leads chain[i] to chain[i + 1]
    chain: tuple | None = None
    # candidates looked at and found dead (seeds not counted)
    dead: int = 0
    # candidates below a member, and elements that went into the
    # antichain, seeds included: configs_generated is dead + subsumed +
    # inserted, and evicted is inserted - minors
    subsumed: int = 0
    inserted: int = 0
    evicted: int = 0


def seed_memories(program, max_nodes: int | None):
    """The seeds' memories, in product order over each variable's
    writable_values (an empty-buffer seed holding any other is dead);
    more than max_nodes raise the resource limit before any is built."""
    writable = writable_values(program)
    pools = [[v for v in program.values if v in writable[x]] for x in program.vars]
    if max_nodes is not None and math.prod(map(len, pools)) > max_nodes:
        raise ResourceLimitError(f"backward search exceeded {max_nodes} configurations")
    return itertools.product(*pools)


def _splits_without_own(w: Word, var: str):
    """Prefix/suffix splits of w whose prefix has no own-message on var."""
    for i in range(len(w) + 1):
        yield w[:i], w[i:]
        if i < len(w) and w[i][2] and w[i][0] == var:
            return


def rule_preds(t, buf: Word, mem: tuple[int, ...], program) -> list[tuple[Word, tuple[int, ...]]]:
    """The (buffer, memory) pairs from which a process at t.src firing t
    lands in the closure of that process at t.dst holding buf over mem.

    This is the per-process rule kernel shared by the fixed-size and the
    parameterized engines.  Memory-changing rules (write, atomic
    read-write) rewind the written variable over every prior value; a
    write additionally re-exposes a possibly hidden own-message on its
    variable.  A pair whose buffer is buf itself (the same object) left
    the buffer unchanged.
    """
    op = t.op
    if op.kind == "nop":
        return [(buf, mem)]
    if op.kind == "w":
        xi = program.var_index[op.var]
        if mem[xi] != op.val or not buf or buf[0] != (op.var, op.val, True):
            return []
        w = buf[1:]
        rest_variants = [w]
        for w1, w2 in _splits_without_own(w, op.var):
            for v2 in program.values:
                rest_variants.append(w1 + ((op.var, v2, True),) + w2)
        out = []
        for prior in program.values:
            prior_mem = _set(mem, xi, prior)
            out.extend((rest, prior_mem) for rest in rest_variants)
        return out
    if op.kind == "r":
        own = [m for m in buf if m[0] == op.var and m[2]]
        if own:
            return [(buf, mem)] if own[0][1] == op.val else []
        if buf and buf[-1] == (op.var, op.val, False):
            return [(buf, mem)]
        return [(buf + ((op.var, op.val, False),), mem)]
    if op.kind == "fence":
        return [] if buf else [(buf, mem)]
    if op.kind == "arw":
        xi = program.var_index[op.var]
        return [(buf, _set(mem, xi, op.val))] if not buf and mem[xi] == op.wval else []
    raise ValueError(f"bad op kind {op.kind!r}")


def buffer_preds(
    p: int, buf: Word, mem: tuple[int, ...], program, removable: set | None = None
) -> list[tuple[object, Word]]:
    """Propagate and delete predecessors of process p's buffer, each as
    (action, buffer before the action); a delete predecessor re-appends
    an own-message on any variable that has none.

    With `removable`, the removable_own set of p's current state, a
    delete re-appends only own-messages in it: a delete keeps the state,
    so any other own-message makes the predecessor dead per live_filter.
    """
    out: list[tuple[object, Word]] = []
    for x in program.vars:
        if buf and buf[0] == (x, mem[program.var_index[x]], False):
            out.append((Propagate(p, x), buf[1:]))
    owned = {m[0] for m in buf if m[2]}
    delete = Delete(p)
    for x in program.vars:
        if x not in owned:
            out += [
                (delete, buf + ((x, v, True),))
                for v in program.values
                if removable is None or (x, v) in removable
            ]
    return out


def local_preds(program, removable, live, p: int, state, buf: Word, mem):
    """Process p's backward moves at (state, buf, mem), in order: its
    transitions into state, then propagate and delete; each is (action,
    source state or None if kept, buffer or None if kept, memory), as
    runs.tabled and runs.Coder.moves read them.  Both engines read
    their moves here, the parameterized one as the template's, p = 0.

    With `removable`, the per-process removable_own tables, only the
    delete predecessors live_filter keeps are listed.  With `live`, the
    program's live_kernel, and `removable`, each move's liveness is
    decided here, once per table entry: a dead move is (action, None,
    None, None), in its place in the order.  This is live_filter's
    verdict on the predecessor provided the configuration the move is
    taken from is live, as every configuration the engine expands is:
    the predecessor differs from it only in process p's state and
    buffer and in the memory, all fixed by the entry and the move.
    """
    found = []
    for t in program.processes[p].transitions:
        if t.dst == state:
            action = Step(p, t)
            found += [(action, t.src, b, m) for b, m in rule_preds(t, buf, mem, program)]
    allowed = removable[p][state] if removable is not None else None
    found += [(action, None, b, mem) for action, b in buffer_preds(p, buf, mem, program, allowed)]
    out = []
    for action, src, b, m in found:
        if live is not None and not live(m, state if src is None else src, b, removable[p]):
            out.append((action, None, None, None))
        else:
            out.append((action, src, None if b is buf else b, m))
    return out


def predecessor_candidates(c: DtsoConfig, program: ConcurrentProgram, removable=None):
    """Minimal one-rule predecessors of the upward closure of c, each
    paired with the action leading from it back into that closure;
    process by process, its transitions, then propagate and delete.

    With `removable`, the per-process removable_own tables, only the
    delete predecessors live_filter keeps are listed; without it every
    delete predecessor is.  This is the oracle the engine's coded
    tables (`coded_preds`) are tested against: the same local_preds,
    listed as configurations through runs.tabled."""
    return tabled(c, partial(local_preds, program, removable, None))


def backward_coder(program: ConcurrentProgram) -> Coder:
    """The fixed-size search's coder: initial configuration code 0,
    with each buffer's own-delimiters (own_decompose) as its summary,
    which word_leq requires to be equal, and the total buffer length
    on top."""
    return Coder(initial_dtso_config(program), lambda w: own_decompose(w).delimiters)


def coded_preds(coder: Coder, fill: Callable) -> Callable[[int], list]:
    """predecessor_candidates over `coder`'s codes: preds(code) lists
    (action, predecessor code), or (action, None) for a dead move.

    Process p's moves come from fill(p, state, buffer, memory), most
    often local_preds bound to a program, as deltas from Coder.moves,
    once per key `code & keymask[p]`, in a table preds owns."""
    procs = [(p, mask, {}) for p, mask in enumerate(coder.keymask)]

    def preds(code: int) -> list:
        out: list = []
        for p, mask, table in procs:
            key = code & mask
            moves = table.get(key)
            if moves is None:
                moves = table[key] = coder.moves(p, key, fill)
            out += [(action, None if delta is None else code + delta) for action, delta in moves]
        return out

    return preds


def coded_leq(coder: Coder) -> Callable[[int, int], bool]:
    """config_leq over `coder`'s codes: equal memory and states, and per
    process equal buffer ids or word_leq between the buffers, through
    one word_table leq owns."""
    key_mask, field, procs = coder.memory_and_states_mask, coder.field, coder.buffer_fields
    wleq = word_table()

    def leq(a: int, b: int) -> bool:
        diff = a ^ b
        if diff & key_mask:
            return False
        for shift, words in procs:
            if diff >> shift & field and not wleq(words[a >> shift & field], words[b >> shift & field]):
                return False
        return True

    return leq


def writable_values(program) -> dict[str, set[int]]:
    """Values memory can ever hold per variable: 0 plus stored values."""
    writable: dict[str, set[int]] = {x: {0} for x in program.vars}
    for auto in program.processes:
        for t in auto.transitions:
            if t.op.kind == "w":
                writable[t.op.var].add(t.op.val)
            elif t.op.kind == "arw":
                writable[t.op.var].add(t.op.wval)
    return writable


def removable_own(auto) -> dict[str, set[tuple[str, int]]]:
    """Per local state, the own-messages a backward path can consume.

    Backwards, an own-message leaves the buffer only through the write
    that produced it, fired while the process rewinds through that
    write's destination; so from state s only writes whose destination
    can forward-reach s qualify.
    """
    states = sorted(auto.states)
    ancestors: dict[str, set[str]] = {s: {s} for s in states}
    changed = True
    while changed:
        changed = False
        for t in auto.transitions:
            add = ancestors[t.dst] | {t.src} | ancestors[t.src]
            if not add <= ancestors[t.dst]:
                ancestors[t.dst] |= add
                changed = True
    # invert: own (x, v) is removable at s iff some w(x, v) ends inside
    # the set of states that reach s
    out: dict[str, set[tuple[str, int]]] = {s: set() for s in states}
    for t in auto.transitions:
        if t.op.kind != "w":
            continue
        for s in states:
            if t.dst == s or t.dst in ancestors[s]:
                out[s].add((t.op.var, t.op.val))
    return out


def live_kernel(program):
    """The liveness check both engines share, as live(mem, state, buf,
    table): the memory and one process entry, at `state` holding `buf`,
    with `table` the removable_own table of its process.

    Memory values and buffer messages must be producible: memory only
    ever holds 0 or a value some write or atomic read-write of the
    program stores to that variable, and an own-message must be
    consumable from its process's state per removable_own.  A
    configuration violating this is dead weight in the fixpoint: no
    backward path from it reaches all-zero memory and empty buffers.
    """
    writable = writable_values(program)
    var_index = program.var_index

    def live(mem, state, buf, table) -> bool:
        for x, xi in var_index.items():
            if mem[xi] not in writable[x]:
                return False
        allowed = table[state]
        for x, v, own in buf:
            if own:
                if (x, v) not in allowed:
                    return False
            elif v not in writable[x]:
                return False
        return True

    return live


def live_filter(program: ConcurrentProgram, own_ok):
    """Predicate for configurations that can still cover the initial
    one, live_kernel on every process entry; `own_ok` holds one
    removable_own table per process."""
    live = live_kernel(program)
    return lambda c: all(map(live, itertools.repeat(c.mem), c.states, c.buffers, own_ok))


def fixpoint(
    minors: MinorSet,
    preds: Callable,
    covers: Callable,
    weight: Callable,
    max_nodes: int | None,
) -> BackwardStats:
    """Backward fixpoint from the seed minors, with early exit on the
    first configuration covering initial.

    The worklist is a priority queue on `weight` (smaller configurations,
    closer to the empty-buffer initial one, expand first) with generation
    index as the tie break; every seed is queued, the engines building
    live ones only (seed_memories).  `preds(c)` yields (action, element)
    pairs ready for the antichain, the action naming its process as the
    element does, or (action, None) for a dead candidate, one that
    cannot cover the initial configuration; a dead candidate counts
    toward configs_generated and max_nodes in its place and toward
    `dead`.  These choices leave the verdict unchanged and are
    deterministic.  Each queued minor carries its provenance link
    (runs.unwind), which outlives its eviction.  The seeds count as
    generated and inserted.
    """
    generated = inserted = len(minors)
    iterations = 0
    peak = 0
    dead = subsumed = 0

    def stats(verdict: str, actions=None, chain=None) -> BackwardStats:
        kept = len(minors)
        return BackwardStats(
            verdict, actions, generated, iterations, peak, kept, chain,
            dead=dead, subsumed=subsumed, inserted=inserted, evicted=inserted - kept,
        )

    def reachable(link) -> BackwardStats:
        chain, actions = unwind(link)
        return stats("Reachable", actions, chain)

    work: list = []
    for seq, tc in enumerate(minors.elements()):
        if covers(tc):
            return reachable((tc, None, None))
        work.append((weight(tc), seq, (tc, None, None)))
    heapq.heapify(work)
    peak = seq = len(work)

    while work:
        link = heapq.heappop(work)[2]
        c = link[0]
        if c not in minors:
            continue  # subsumed after being queued
        iterations += 1
        for action, pred in preds(c):
            generated += 1
            if max_nodes is not None and generated > max_nodes:
                raise ResourceLimitError(f"backward search exceeded {max_nodes} configurations")
            if pred is None:
                dead += 1
                continue
            if not minors.insert(pred):
                subsumed += 1
                continue
            inserted += 1
            step = (pred, action, link)
            if covers(pred):
                return reachable(step)
            seq += 1
            heapq.heappush(work, (weight(pred), seq, step))
            peak = max(peak, len(work))
    return stats("Unreachable")


def backward_reach(
    program: ConcurrentProgram,
    target: tuple[str, ...],
    max_nodes: int | None = 10**7,
) -> BackwardStats:
    """Backward fixpoint from the target minors, weighted by the total
    buffered-message count; dead seeds and dead delete predecessors are
    not built at all, and the other dead candidates are marked as such
    by their moves.

    The search runs over the codes of a backward_coder it owns, with
    its own coded_preds tables (each move's liveness decided when it
    is tabled) and coded_leq's word_table.  The antichain is bucketed
    by the memory and states fields, its signature pre-filter is the
    own-delimiter fields and the weight is the top field.  A
    configuration covers the initial one, code 0, only if it is the
    initial one, since word_leq(w, ()) only for w == ().  The seeds,
    one empty-buffer configuration at the target per seed_memories
    memory, go into that antichain encoded, in that order; their
    memories differ, so each is inserted.  The witness chain is decoded
    once, at the end.  A target that does not name one state of each
    process raises ValueError."""
    target = check_target(program, target)
    own_ok = [removable_own(auto) for auto in program.processes]
    coder = backward_coder(program)
    minors = MinorSet(
        coded_leq(coder), key=coder.memory_and_states_mask.__and__, sig=coder.summaries_mask.__and__
    )
    buffers = tuple(() for _ in program.processes)
    for mem in seed_memories(program, max_nodes):
        minors.insert(coder.encode(DtsoConfig(target, buffers, mem)))
    top = coder.top_shift
    stats = fixpoint(
        minors,
        coded_preds(coder, partial(local_preds, program, own_ok, live_kernel(program))),
        lambda code: code == 0,
        lambda code: code >> top,
        max_nodes,
    )
    if stats.chain is not None:
        stats.chain = tuple(map(coder.decode, stats.chain))
    return stats


def concretize_witness(program: ConcurrentProgram, stats: BackwardStats) -> Run:
    """Replay an abstract witness chain into a concrete run.

    Each chain step fires its recorded action after as few deletes by
    the acting process as make the result cover the next minimal
    configuration; monotonicity guarantees such a prefix exists.  The
    run ends with all buffers drained at the target global state.
    """
    if stats.verdict != "Reachable" or stats.chain is None:
        raise ValueError("no witness to concretize")
    chain = stats.chain
    actions: list = []
    cur = initial_dtso_config(program)
    for i, action in enumerate(stats.witness or ()):
        p = action.proc
        landed = fire(cur, action, program, dtso_successors)
        while landed is None or not config_leq(chain[i + 1], landed):
            if not cur.buffers[p]:
                raise RunError(f"witness step {i + 1} cannot be replayed concretely")
            cur = fire(cur, Delete(p), program, dtso_successors)
            actions.append(Delete(p))
            landed = fire(cur, action, program, dtso_successors)
        actions.append(action)
        cur = landed
    # drain every buffer; the final configuration matches the target minor
    for p in range(program.n):
        actions += [Delete(p)] * len(cur.buffers[p])
    run = drive("dtso", initial_dtso_config(program), actions, program, dtso_successors)
    if run.final != chain[-1]:
        raise RunError("drained final configuration does not match the target minor")
    return run
