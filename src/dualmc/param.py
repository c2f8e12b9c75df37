"""Backward reachability for systems of unboundedly many identical processes.

A parameterized configuration is an ordered sequence of (local state,
load buffer) pairs plus a memory valuation; the ordering embeds a
smaller configuration into a larger one by an order-preserving
injection.  One backward step is the fixed-size engine's: each
process's moves come from its per-process kernel, backward.local_preds,
read for the template as process 0 (ParamProgram.processes), plus the
predecessors that add one fresh process: a writer whose buffer is any
sequence of own-messages over pairwise-distinct variables (every
subset, value choice, order and insertion position), or an empty-buffer
process performing an atomic read-write.  Fresh processes are added
for every write and atomic read-write with a matching memory value,
not only when no existing process matches the rule: the narrower
variant misses minimal predecessors (the one-step oracle tests show
them).

The search is backward.fixpoint from the live seeds
(backward.seed_memories), built straight into the param_antichain it
saturates, under the parameterized ordering, with every
minor kept with its processes sorted (`canonical`), which the symmetry
of identical processes allows.  It runs over coded configurations
from a ParamCoder it owns: each (state, buffer) entry is interned to a
small id, a minor is (entry ids, memory), and the ordering
(coded_param_leq), the dominance pre-filter, the worklist weight and
the covers-initial test read per-id values fixed when the id was
interned.  A move depends only on the entry it changes (or the fresh
process it adds) and the memory, so the search tables each entry id's
moves once and places a candidate's new entry into the minor's sorted
other entries by one bisection.

The template may be symmetric beyond process order: an automorphism
(backward.automorphisms, the template searched as one process mapped
to itself) renames its states and the variables, mapping its
transitions onto themselves and the target multiset onto itself.  The
induced transition system, the liveness cut and the seeds are
invariant under it, and the initial configuration is fixed by it, so,
as with process order, the verdict is unchanged when a minor is
replaced by its image.  The search keeps one representative per orbit
(ParamCanonicaliser), seeds included, and turns the chain of
representatives back into a witness of real states and variables once,
at the end (Ip and Dill, "Better Verification Through Symmetry", FMSD
9, 1996).
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import partial
from operator import itemgetter
from typing import Callable, NamedTuple

from .backward import (
    BackwardStats,
    automorphisms,
    buffer_preds,
    fixpoint,
    live_kernel,
    local_preds,
    removable_own,
    rule_preds,
    seed_memories,
)
from .model import ParamProgram, check_target
from .ordering import Dominance, MinorSet, Word, word_leq
from .runs import ResourceLimitError, Step, Table, _set

FIELD_BITS = 32  # width of one dominance field, guard bit not counted


class ParamConfig(NamedTuple):
    procs: tuple[tuple[str, Word], ...]
    mem: tuple[int, ...]


def param_dominance(states) -> Dominance:
    """Dominance hook for param_leq over the given local states, packed
    in one walk over the processes: per state, the number of processes
    at it and their total buffer length, and as support one bit per
    occupied state.

    param_leq(a, b) maps a's processes injectively to b's at equal
    states with word_leq buffers, and word_leq embeds fragments as
    subwords, so no buffer maps to a shorter one: every field of a is
    at most b's, and every state a occupies b occupies too.  Each field
    is part of the process count plus the buffered messages, so packing
    checks that total against the field width and raises
    ResourceLimitError rather than let a field carry into its guard bit.
    """
    stride = FIELD_BITS + 1
    count: dict = {}
    length: dict = {}
    bit: dict = {}
    for i, s in enumerate(sorted(states)):
        count[s] = 1 << (2 * i * stride)
        length[s] = 1 << ((2 * i + 1) * stride)
        bit[s] = 1 << i
    guard = sum(1 << (f * stride + FIELD_BITS) for f in range(2 * len(count)))
    limit = 1 << FIELD_BITS

    def pack(a: ParamConfig) -> tuple[int, int]:
        d = mask = 0
        size = len(a.procs)
        for s, b in a.procs:
            n = len(b)
            d += count[s] + n * length[s]
            mask |= bit[s]
            size += n
        if size >= limit:
            raise ResourceLimitError(f"configuration size {size} overflows the dominance fields")
        return d, mask

    return Dominance(pack, guard)


def param_antichain(leq, dom: Dominance) -> MinorSet:
    """An empty antichain of parameterized minors, ParamConfigs or
    ParamCoder minors, under `leq`, bucketed by memory (field 1 of
    either), with the dominance pre-filter `dom`."""
    return MinorSet(leq, key=itemgetter(1), dom=dom)


class ParamCoder:
    """Parameterized configurations of one template as minors (entry
    ids, memory), owned by one search.

    Each (state, buffer) entry is interned to a small id on first
    sight, the initial entry (init, ()) first, so a minor covers the
    initial configuration of every large-enough instance iff its
    memory and its ids are all 0.  An id gets, when it is interned,
    what param_dominance's pack adds for its entry, its fields and its
    support bit, and its weight, one process plus its buffered
    messages; `pack` and `weight` sum those over a minor's ids.  A
    minor keeps its ids in the order of their entries, so it decodes to
    the canonical ParamConfig it codes.
    """

    def __init__(self, program: ParamProgram):
        dom = param_dominance(program.template.states)
        self._dom = dom
        self.dominance = Dominance(self.pack, dom.guard)
        self.entries: list = []  # id -> (state, buffer)
        self.ids: dict = {}
        self.fields: list = []
        self.bits: list = []
        self.weights: list = []
        self.id((program.template.init, ()))

    def id(self, entry) -> int:
        """entry's id, interned on first sight."""
        i = self.ids.get(entry)
        if i is None:
            fields, bit = self._dom.pack(ParamConfig((entry,), ()))
            i = self.ids[entry] = len(self.entries)
            self.entries.append(entry)
            self.fields.append(fields)
            self.bits.append(bit)
            self.weights.append(1 + len(entry[1]))
        return i

    def encode(self, alpha: ParamConfig) -> tuple:
        return tuple(map(self.id, alpha.procs)), alpha.mem

    def decode(self, minor) -> ParamConfig:
        return ParamConfig(tuple(map(self.entries.__getitem__, minor[0])), minor[1])

    def weight(self, minor) -> int:
        return sum(map(self.weights.__getitem__, minor[0]))

    def covers_initial(self, minor) -> bool:
        """oracle.param_covers_initial of the decoded minor."""
        return not any(minor[1]) and not any(minor[0])

    def pack(self, minor) -> tuple[int, int]:
        """param_dominance's pack of the decoded minor, with its check of
        the total size against the field width."""
        fields, bits, weights = self.fields, self.bits, self.weights
        d = mask = size = 0
        for e in minor[0]:
            d += fields[e]
            mask |= bits[e]
            size += weights[e]
        if size >> FIELD_BITS:
            raise ResourceLimitError(f"configuration size {size} overflows the dominance fields")
        return d, mask


def coded_param_leq(coder: ParamCoder) -> Callable:
    """param_leq over `coder`'s minors: equal memory and the greedy
    earliest match of ids, where id e matches e2 if e == e2 or their
    entries have equal states and word_leq buffers, which a Table leq
    owns holds per (e, e2) pair."""
    entries = coder.entries

    def fill(pair) -> bool:
        (state, buf), (state2, buf2) = entries[pair[0]], entries[pair[1]]
        return state == state2 and word_leq(buf, buf2)

    matches = Table(fill)

    def leq(a, b) -> bool:
        ids, mem = a
        ids2, mem2 = b
        n2 = len(ids2)
        if mem != mem2 or len(ids) > n2:
            return False
        j = 0
        for e in ids:
            while j < n2:
                e2 = ids2[j]
                j += 1
                if e == e2 or matches[e, e2]:
                    break
            else:
                return False
        return True

    return leq


def _fresh_writer_buffers(program: ParamProgram, allowed=None):
    """Own-message words over pairwise-distinct variables, using only
    the (var, value) own-messages in `allowed` if given."""
    for k in range(len(program.vars) + 1):
        for xs in itertools.permutations(program.vars, k):
            pools = [[v for v in program.values if allowed is None or (x, v) in allowed] for x in xs]
            for vs in itertools.product(*pools):
                yield tuple((x, v, True) for x, v in zip(xs, vs))


def predecessor_candidates(
    alpha: ParamConfig,
    program: ParamProgram,
    all_positions: bool = True,
    removable=None,
):
    """Minimal one-rule predecessors of the upward closure of alpha.

    Actions name processes by their position in the predecessor, which
    for fresh-process cases is the inserted position.  The backward
    engine, which canonicalizes minors by sorting, passes
    all_positions=False (one insertion position per fresh process
    represents its whole permutation orbit) and passes the template's
    removable_own table as `removable`, so that fresh writers hold, at
    the write's source state, and delete predecessors re-append only
    own-messages consumable from their state.  This is the oracle the
    engine's move tables (param_backward_reach) are tested against.
    """
    values = program.values
    procs = alpha.procs
    out: list[tuple[object, ParamConfig]] = []

    for t in program.template.transitions:
        op = t.op
        for p, (state, buf) in enumerate(procs):
            if state != t.dst:
                continue
            action = Step(p, t)
            for b, mem in rule_preds(t, buf, alpha.mem, program):
                out.append((action, ParamConfig(_set(procs, p, (t.src, b)), mem)))
        # fresh-process predecessors
        positions = range(len(procs) + 1) if all_positions else (len(procs),)
        if op.kind == "w":
            xi = program.var_index[op.var]
            if alpha.mem[xi] != op.val:
                continue
            words = list(_fresh_writer_buffers(program, None if removable is None else removable[t.src]))
            for prior in values:
                mem = _set(alpha.mem, xi, prior)
                for fresh_buf in words:
                    for pos in positions:
                        pred = ParamConfig(procs[:pos] + ((t.src, fresh_buf),) + procs[pos:], mem)
                        out.append((Step(pos, t), pred))
        elif op.kind == "arw":
            xi = program.var_index[op.var]
            if alpha.mem[xi] != op.wval:
                continue
            mem = _set(alpha.mem, xi, op.val)
            for pos in positions:
                out.append((Step(pos, t), ParamConfig(procs[:pos] + ((t.src, ()),) + procs[pos:], mem)))

    for p, (state, buf) in enumerate(procs):
        allowed = removable[state] if removable is not None else None
        for action, b in buffer_preds(p, buf, alpha.mem, program, allowed):
            out.append((action, ParamConfig(_set(procs, p, (state, b)), alpha.mem)))
    return out


def live_filter(program: ParamProgram, own_ok):
    """Predicate mirroring the fixed-size engine's liveness cut,
    backward.live_kernel on every process entry, or on an idle one if
    there is none; every process runs the template, own_ok its table."""
    live = live_kernel(program)
    idle = ((program.template.init, ()),)
    return lambda a: all(live(a.mem, s, b, own_ok) for s, b in a.procs or idle)


def canonical(alpha: ParamConfig) -> ParamConfig:
    """Sort the process sequence into a canonical representative.

    All processes run the same template, so the induced transition
    system is invariant under process permutation and the verdict of
    the backward search is unchanged when every minor is replaced by a
    permutation; keeping one sorted representative per orbit collapses
    the symmetric copies the position-sensitive ordering would retain.
    The engine reaches this form by bisection; the sort is the
    reference the tests compare that with.  A template's own
    automorphisms reduce the search further (ParamCanonicaliser).
    """
    return ParamConfig(tuple(sorted(alpha.procs)), alpha.mem)


class ParamCanonicaliser:
    """One representative minor per orbit of `group`, a template's
    automorphisms (backward.automorphisms), over `coder`'s minors, for
    one search to own.

    An element renames the template's states and the variables; its
    image of a minor maps each entry (state, buffer) to (its state's
    image, its buffer renamed), re-sorted by entry, and permutes the
    memory.  Per element but the identity, a Table holds an entry id's
    image id.  The representative is the least, by (memory, entries),
    of the minor and its images: the images of two minors in one orbit
    are the orbit, so the least is a function of the orbit."""

    def __init__(self, program: ParamProgram, group, coder: ParamCoder):
        self.program = program
        self.coder = coder
        self.elements = group.elements
        self._images = []  # per element but the identity: entry id Table, memory read
        for g in self.elements[1:]:
            source = sorted(range(len(g.renaming)), key=g.renaming.__getitem__)  # source[renaming[i]] = i
            self._images.append((Table(partial(self._entry, g)), source))

    def _entry(self, g, e: int) -> int:
        """Entry id e's image id under g."""
        return self.coder.id(_entry_image(g, self.coder.entries[e], self.program))

    def _image(self, i: int, minor) -> tuple:
        """Element i's image of minor, its ids in the order of their entries."""
        if i == 0:
            return minor
        table, source = self._images[i - 1]
        ids, mem = minor
        image = sorted(map(table.__getitem__, ids), key=self.coder.entries.__getitem__)
        return tuple(image), tuple(map(mem.__getitem__, source))

    def rep(self, minor) -> tuple:
        """minor's orbit representative; an image whose memory is
        above the least so far is never sorted."""
        entries = self.coder.entries
        best = minor
        ids, mem = minor
        for table, source in self._images:
            m = tuple(map(mem.__getitem__, source))
            if m > best[1]:
                continue
            image = sorted(map(table.__getitem__, ids), key=entries.__getitem__)
            if m < best[1] or list(map(entries.__getitem__, image)) < list(map(entries.__getitem__, best[0])):
                best = tuple(image), m
        return best

    def unwind(self, chain: tuple, witness: tuple) -> tuple[tuple, tuple]:
        """The chain of representatives and a witness of (action,
        candidate minor) pairs as a decoded real chain and witness.

        witness[i]'s candidate was taken to chain[i] by some element
        g_i; composing h_i = g_0 ... g_i, the real chain is chain[0]
        (it covers the initial configuration, which every element
        fixes), then h_i's image of chain[i + 1], re-sorted, and the
        real witness h_i's image of each action, naming the first
        position of the acting entry's image there."""
        coder, program = self.coder, self.program
        h = self.elements[0]
        real, actions = [coder.decode(chain[0])], []
        for i, (action, raw) in enumerate(witness):
            g = next(g for k, g in enumerate(self.elements) if self._image(k, raw) == chain[i])
            h = h.compose(g)
            entry = _entry_image(h, coder.entries[raw[0][action.proc]], program)
            moved = h.action(action._replace(proc=0), program)  # the template is process 0
            actions.append(moved._replace(proc=real[i].procs.index(entry)))
            real.append(_config_image(h, coder.decode(chain[i + 1]), program))
        return tuple(real), tuple(actions)


def _entry_image(h, entry: tuple, program: ParamProgram) -> tuple:
    """The image of one (state, buffer) entry under the automorphism h
    of a template."""
    names = h.names(program)
    state, buf = entry
    return h.state(0, state), tuple((names[x], v, own) for x, v, own in buf)


def _config_image(h, alpha: ParamConfig, program: ParamProgram) -> ParamConfig:
    """The image of alpha under the automorphism h of a template, its
    processes sorted."""
    mem = [None] * len(alpha.mem)
    for i, j in enumerate(h.renaming):
        mem[j] = alpha.mem[i]
    return ParamConfig(tuple(sorted(_entry_image(h, e, program) for e in alpha.procs)), tuple(mem))


def param_backward_reach(
    program: ParamProgram,
    targets: tuple[str, ...] | None = None,
    max_nodes: int | None = 10**7,
) -> BackwardStats:
    """Backward fixpoint under the parameterized ordering, weighted by
    process count plus buffered messages.  preds lists the candidates in
    predecessor_candidates(alpha, program, False, removable_own) order,
    a dead one as (action, None) and a live one in canonical form,
    its action renamed to its entry's first position there, so that
    every minor is in canonical process order.  The
    seeds, the sorted targets with empty buffers over each
    seed_memories memory in its order, go encoded straight into the
    param_antichain the search saturates.

    When the template and targets have automorphisms other than the
    identity (backward.automorphisms), each seed and live candidate
    goes into the antichain as its orbit's representative
    (ParamCanonicaliser.rep), so seeds whose memories are renamings of
    each other are one.  Each candidate's action is kept with its minor
    as generated; unwinding recovers the automorphism that took it to
    its representative and composes them, so the chain and witness
    name real states and variables.  With the identity alone, no
    canonicaliser is built.

    The search runs over the minors of a ParamCoder it owns, (entry ids,
    memory), under its own coded_param_leq; the antichain's dominance
    pre-filter, the worklist weight and the covers-initial test sum or
    test what each id got when it was interned.  It owns three
    runs.Tables: per (entry id, memory), the entry's local_preds, split
    into its rule moves per transition index and its propagate and
    delete moves; per memory, the fresh processes each transition adds,
    a write's or an atomic read-write's; per state, a fresh writer's
    words.  A move is (action class, arguments, new entry id, memory),
    the id None if the move is dead, which the tables decide from the
    memory and the entry alone: every expanded minor is live, the seeds
    by seed_memories.  One loop places every live entry by bisection on
    the entries into the minor's other ids (all of them for a fresh
    process) and names the action there.  More than max_nodes words of
    one state's fresh writers raise the resource limit, since each is at
    least one candidate of that expansion.  The witness chain is decoded
    once, at the end.
    Targets that are not template states raise ValueError."""
    if targets is None:
        targets = program.target
    # every seed buffer is empty, so sorted targets are canonical
    at_target = tuple((s, ()) for s in sorted(check_target(program, targets)))
    coder = ParamCoder(program)
    entries, intern = coder.entries, coder.id
    minors = param_antichain(coded_param_leq(coder), coder.dominance)
    group = automorphisms(program, targets)
    canon = ParamCanonicaliser(program, group, coder) if len(group.elements) > 1 else None
    for mem in seed_memories(program, max_nodes):
        seed = coder.encode(ParamConfig(at_target, mem))
        minors.insert(seed if canon is None else canon.rep(seed))
    own_ok = removable_own(program.template)
    live = live_kernel(program)
    transitions = program.template.transitions
    index = {t: ti for ti, t in enumerate(transitions)}

    def fill_words(state) -> list:
        cap = None if max_nodes is None else max_nodes + 1
        found = list(itertools.islice(_fresh_writer_buffers(program, own_ok[state]), cap))
        if max_nodes is not None and len(found) > max_nodes:
            raise ResourceLimitError(f"backward search exceeded {max_nodes} configurations")
        return found

    def fill_entry(key) -> tuple[list, list]:
        e, mem = key
        state, buf = entries[e]
        rules: list = [[] for _ in transitions]
        local: list = []
        for action, src, b, m in local_preds(program, [own_ok], live, 0, state, buf, mem):
            e2 = None if m is None else intern((state if src is None else src, buf if b is None else b))
            move = (type(action), action[1:], e2, m)
            if type(action) is Step:
                rules[index[action.t]].append(move)
            else:
                local.append(move)
        return [moves or () for moves in rules], local

    def fill_fresh(t, mem) -> list:
        op = t.op
        xi = program.var_index.get(op.var)
        pairs = []
        if op.kind == "arw" and mem[xi] == op.wval:
            pairs = [((), _set(mem, xi, op.val))]
        elif op.kind == "w" and mem[xi] == op.val:
            pairs = [(b, _set(mem, xi, prior)) for prior in program.values for b in writer_words[t.src]]
        return [(Step, (t,), intern((t.src, b)) if live(m, t.src, b, own_ok) else None, m) for b, m in pairs]

    writer_words, entry_moves = Table(fill_words), Table(fill_entry)
    fresh_moves = Table(lambda mem: [fill_fresh(t, mem) for t in transitions])

    def preds(minor) -> list:
        ids, mem = minor
        n = len(ids)
        tables = [entry_moves[e, mem] for e in ids]
        fresh = fresh_moves[mem]
        rests = [ids[:p] + ids[p + 1 :] for p in range(n)]
        # (process named by a dead move, ids a live one goes among, moves)
        groups = []
        for ti, born in enumerate(fresh):
            for p, (rules, _local) in enumerate(tables):
                if rules[ti]:
                    groups.append((p, rests[p], rules[ti]))
            if born:
                groups.append((n, ids, born))
        groups += [(p, rests[p], local) for p, (_rules, local) in enumerate(tables)]
        out: list = []
        for p, rest, moves in groups:
            for cls, args, e, m in moves:
                if e is None:
                    out.append((cls(p, *args), None))
                else:
                    i = bisect_left(rest, entries[e], key=entries.__getitem__)
                    out.append((cls(i, *args), (rest[:i] + (e,) + rest[i:], m)))
        return out

    if canon is not None:
        rep, moves = canon.rep, preds

        def preds(minor) -> list:
            return [(a, None) if d is None else ((a, d), rep(d)) for a, d in moves(minor)]

    stats = fixpoint(minors, preds, coder.covers_initial, coder.weight, max_nodes)
    if stats.chain is not None:
        if canon is None:
            stats.chain = tuple(map(coder.decode, stats.chain))
        else:
            stats.chain, stats.witness = canon.unwind(stats.chain, stats.witness)
    return stats
