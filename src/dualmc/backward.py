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

A program may be symmetric: an automorphism (`automorphisms`) permutes
the processes together with a renaming of the variables, mapping each
automaton onto its image's and the target onto itself.  The rules, the
word ordering, removable_own, liveness and the target set are then
invariant under the group, and the initial configuration is fixed by it
(values are never renamed), so any member of a candidate's orbit
stands for the candidate exactly, and the wqo still ends the search.
The search keeps one representative per orbit (`Canonicaliser`), seeds
included, and turns the chain of representatives back into a witness
of real processes once, at the end (Emerson and Sistla, "Symmetry and
Model Checking", and Ip and Dill, "Better Verification Through
Symmetry", FMSD 9, 1996).
"""
from __future__ import annotations

import heapq
import itertools
import math
import struct
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, NamedTuple

from .dtso import DtsoConfig, dtso_successors, initial_dtso_config
from .model import ConcurrentProgram, check_target
from .ordering import MinorSet, Word, config_leq, own_decompose, word_table
from .runs import (
    Coder, Delete, Propagate, ResourceLimitError, Run, RunError, Step, Table, _set, drive, fire, tabled, unwind,
)


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


def backward_coder(program: ConcurrentProgram, group: Symmetry) -> Coder:
    """The fixed-size search's coder: initial configuration code 0,
    with each buffer's own-delimiters (own_decompose) as its summary,
    which word_leq requires to be equal, and the total buffer length
    on top.  The processes of one orbit of `group`, the program's
    automorphisms, share their interners (Coder's share), so that an
    automorphism moves their fields without renumbering states."""
    return Coder(initial_dtso_config(program), lambda w: own_decompose(w).delimiters, group.share)


def coded_preds(coder: Coder, fill: Callable) -> Callable[[int], list]:
    """predecessor_candidates over `coder`'s codes: preds(code) lists
    (action, predecessor code), or (action, None) for a dead move.

    Process p's moves come from fill(p, state, buffer, memory), most
    often local_preds bound to a program, as deltas in the coder's
    `tables`, which preds owns."""
    tables = coder.tables(fill)

    def preds(code: int) -> list:
        out: list = []
        for mask, table in tables:
            out += [(action, None if delta is None else code + delta) for action, delta in table[code & mask]]
        return out

    return preds


class Automorphism(NamedTuple):
    """A symmetry of a fixed-size program: process p, its variables
    renamed, is process perm[p], and variable i is renamed to variable
    renaming[i].  Under it process perm[p]'s automaton is process p's
    with each variable renamed (same states, initial state and
    values), and the target state of perm[p] is that of p."""

    perm: tuple[int, ...]
    renaming: tuple[int, ...]

    def compose(self, other: Automorphism) -> Automorphism:
        """self after other."""
        return Automorphism(
            tuple(self.perm[q] for q in other.perm), tuple(self.renaming[j] for j in other.renaming)
        )

    def names(self, program) -> dict[str, str]:
        """Each variable's new name."""
        return {x: program.vars[j] for x, j in zip(program.vars, self.renaming)}

    def config(self, c: DtsoConfig, program) -> DtsoConfig:
        """The image of c: process p's state and renamed buffer at
        perm[p], and variable i's value at renaming[i]."""
        names = self.names(program)
        states, buffers, mem = [None] * len(self.perm), [None] * len(self.perm), [None] * len(self.renaming)
        for p, q in enumerate(self.perm):
            states[q] = c.states[p]
            buffers[q] = tuple((names[x], v, own) for x, v, own in c.buffers[p])
        for i, j in enumerate(self.renaming):
            mem[j] = c.mem[i]
        return DtsoConfig(tuple(states), tuple(buffers), tuple(mem))

    def action(self, action, program):
        """The image of action: the same rule taken by process
        perm[action.proc], on the renamed variable."""
        names = self.names(program)
        q = self.perm[action.proc]
        if isinstance(action, Step):
            t = action.t
            op = t.op if t.op.var is None else t.op._replace(var=names[t.op.var])
            return Step(q, t._replace(op=op))
        if isinstance(action, Propagate):
            return Propagate(q, names[action.var])
        return action._replace(proc=q)


@dataclass(frozen=True)
class Symmetry:
    """A group of automorphisms of a fixed-size program, in two parts.

    `classes` partitions the processes into those with equal automata
    and equal target states; every permutation within the classes,
    with no variable renamed, is in the group, and forms a normal
    subgroup N that is kept implicit.  `elements` holds one automorphism
    per coset of N, identity first.  The group is N times `elements`,
    of order len(elements) times the product of the classes' sizes'
    factorials.  `share` names, per process, the least process of its
    orbit."""

    classes: tuple[tuple[int, ...], ...]
    elements: tuple[Automorphism, ...]

    @property
    def order(self) -> int:
        return len(self.elements) * math.prod(math.factorial(len(c)) for c in self.classes)

    @property
    def share(self) -> tuple[int, ...]:
        class_of = {p: c for c in self.classes for p in c}
        return tuple(min(g.perm[q] for g in self.elements for q in class_of[p]) for p in range(len(class_of)))


def _renamings(a, b, sigma: dict[int, int], program):
    """Each extension of sigma, a partial injective renaming of
    variable indices, under which automaton a's transitions renamed are
    automaton b's, each variable tried first as itself.  a and b must
    have the same initial state and as many transitions, which prunes
    most candidate images at once.  The search is depth first over a's
    transitions, on an explicit stack."""
    if a.init != b.init or len(a.transitions) != len(b.transitions):
        return
    var_index = program.var_index
    # per transition of b with its variable left out, b's variable indices (None for none)
    theirs: dict = {}
    for t in b.transitions:
        theirs.setdefault(_shape(t), set()).add(None if t.op.var is None else var_index[t.op.var])
    stack = [(0, sigma)]
    while stack:
        k, sigma = stack.pop()
        for k in range(k, len(a.transitions)):
            t = a.transitions[k]
            x = t.op.var
            images = theirs.get(_shape(t), set())
            if x is None or var_index[x] in sigma:
                if (None if x is None else sigma[var_index[x]]) not in images:
                    break
                continue
            i = var_index[x]
            free = images - set(sigma.values())
            stack += [(k + 1, {**sigma, i: j}) for j in reversed([i] * (i in free) + sorted(free - {i}))]
            break
        else:
            yield sigma


def _shape(t) -> tuple:
    """Transition t with its variable left out."""
    return t.src, t.dst, t.op.kind, t.op.val, t.op.wval


def automorphisms(program: ConcurrentProgram, target: tuple[str, ...]) -> Symmetry:
    """The automorphisms of program and `target`, a state per process,
    that keep the name of every variable no process names, as a
    Symmetry.

    The classes are found by equal (initial state, transition set,
    target state).  The elements are then found class by class, depth
    first on an explicit stack: each class goes to an unused class of
    its size and target state whose automaton its own equals under an
    extension of the renaming so far (_renamings), its processes in
    order.  So N is never listed, a class image is tried only where the
    transition counts agree, and the identity is found first.

    The search gives up after (k + 1) ** 3 partial assignments of the k
    classes, or once it holds more than (k + 1) ** 2 elements, and
    keeps the identity alone, with N.  That happens when, say, k
    processes each use a variable of their own, so that every
    permutation of them is an automorphism: each candidate would cost
    k! images.  A ring takes about k ** 2 partial assignments for its k
    elements.  The reduction is sound with any automorphisms, and
    canonical with a group."""
    by_key: dict = {}
    for p, auto in enumerate(program.processes):
        by_key.setdefault((auto.init, frozenset(auto.transitions), target[p]), []).append(p)
    classes = tuple(map(tuple, by_key.values()))
    heads = [program.processes[c[0]] for c in classes]
    alike: dict = {}  # the classes of each size and target state
    for j, c in enumerate(classes):
        alike.setdefault((len(c), target[c[0]]), []).append(j)
    budget, most = (len(classes) + 1) ** 3 - 1, (len(classes) + 1) ** 2  # the root is one partial assignment
    image: list[int] = []  # the classes the first len(image) classes go to
    used: set[int] = set()
    found = []  # each element as (each class's image, renaming)

    def options(i: int, sigma: dict):
        """Each (class, extended renaming) for class i, reading `used` as it goes."""
        c = classes[i]
        for j in alike[len(c), target[c[0]]]:
            if j not in used:
                for extended in _renamings(heads[i], heads[j], sigma, program):
                    yield j, extended

    stack = [options(0, {})]  # one per class assigned, and one for the next
    while stack and len(found) <= most:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if image:
                used.discard(image.pop())
            continue
        budget -= 1
        if budget < 0:
            break
        j, sigma = step
        if len(image) + 1 == len(classes):
            found.append((image + [j], sigma))
        else:
            image.append(j)
            used.add(j)
            stack.append(options(len(image), sigma))
    if budget < 0 or len(found) > most:
        del found[1:]
    elements = []
    for images, sigma in found:
        perm = dict(pair for c, d in zip(classes, images) for pair in zip(c, classes[d]))
        renaming = tuple(sigma.get(x, x) for x in range(len(program.vars)))
        elements.append(Automorphism(tuple(map(perm.get, range(program.n))), renaming))
    return Symmetry(classes, tuple(elements))


class Canonicaliser:
    """One representative code per orbit of `group` over `coder`'s
    codes, for one search to own: the least class-sorted image of the
    code, fields in code order (memory, states, buffers, summaries).

    The processes of one orbit share their interners, so an element
    moves process p's fields to process perm[p]'s, keeps its state id
    and renames only its buffer and summary ids, and renames the memory
    id.  One Table, keyed by memory id, holds the memory's least image
    and the moves of just the elements that reach it, or None where the
    identity alone does and no class is to be sorted: there a code is
    its own representative.  Per element and orbit, a Table holds a
    buffer id's renamed ids.  The classes' permutations, the normal
    subgroup N, fix the memory and are never listed: sorting a class's
    entries, as (summary, buffer, state) ids, picks one member of an
    image's N-orbit.  The images of two codes in one orbit are the same
    N-orbits, so the least is a function of the orbit."""

    def __init__(self, program: ConcurrentProgram, group: Symmetry, coder: Coder):
        self.program = program
        self.coder = coder
        self.group = group
        self.elements = group.elements
        n = coder.n
        self._fields = struct.Struct(f"<{1 + 3 * n}I")  # FIELD_BITS = 32: one unsigned int per field
        self._top, self._memory = coder.top_shift, coder.field
        self._low = (1 << self._top) - 1
        self._least = Table(self._least_memory)
        # per element, None for the identity (first; its image is the
        # fields), else one read of its image's state then buffer ids
        # (a tuple: 2n >= 2) and per process the id map of its source's orbit
        share = group.share
        self._moves = [None]
        for g in self.elements[1:]:
            source = sorted(range(n), key=g.perm.__getitem__)  # source[perm[p]] = p
            names = g.names(program)
            orbits = {o: Table(partial(self._renamed_buffer, names, o)) for o in set(share)}
            read = itemgetter(*(1 + p for p in source), *(1 + n + p for p in source))
            self._moves.append((read, [orbits[share[p]] for p in source]))
        # per class of more than one process, a read of its entries and
        # their field indices: each process's summary, buffer and state
        slots = [[i for q in c for i in (1 + 2 * n + q, 1 + n + q, 1 + q)] for c in group.classes if len(c) > 1]
        self._classes = [(itemgetter(*s), s) for s in slots]

    def _renamed_buffer(self, names: dict, p: int, b: int) -> tuple:
        """Process p's buffer id b renamed by `names`, as its buffer id
        and summary id."""
        coder = self.coder
        bf = 1 + coder.n + p
        renamed = tuple((names[x], v, own) for x, v, own in coder.values[bf][b])
        return coder.id(bf, renamed), coder.id(bf + coder.n, coder.summary(renamed))

    def _least_memory(self, m: int) -> tuple | None:
        """Memory id m's least image and the moves of the elements
        reaching it; None for the identity alone and no class."""
        mem = self.coder.values[0][m]
        images = [self.coder.id(0, tuple(v for _, v in sorted(zip(g.renaming, mem)))) for g in self.elements]
        least = min(images)
        moves = [move for move, i in zip(self._moves, images) if i == least]
        return None if moves == [None] and not self._classes else (least, moves)

    def rep(self, code: int) -> int:
        """code's orbit representative: code itself if its memory's entry
        is None, else the least image the entry allows, packed once."""
        entry = self._least[code & self._memory]
        if entry is None:
            return code
        least, moves = entry
        fields = self._fields.unpack((code & self._low).to_bytes(self._fields.size, "little"))
        n = self.coder.n
        images = []
        for move in moves:
            if move is None:
                image = list(fields)
            else:
                moved = move[0](fields)
                buffers, summaries = zip(*map(dict.__getitem__, move[1], moved[n:]))
                image = [least, *moved[:n], *buffers, *summaries]
            for entries, slots in self._classes:
                ids = entries(image)
                ordered = sorted(zip(ids[::3], ids[1::3], ids[2::3]))
                for i, v in zip(slots, itertools.chain.from_iterable(ordered)):
                    image[i] = v
            images.append(image)
        return int.from_bytes(self._fields.pack(*min(images)), "little") | code >> self._top << self._top

    def element(self, raw: DtsoConfig, canonical: DtsoConfig) -> Automorphism:
        """An automorphism of the group taking raw to canonical, which
        lie in one orbit: an element's image of raw, then each class's
        processes matched to canonical's in the order of their states
        and buffers."""
        for g in self.elements:
            image = g.config(raw, self.program)
            if image.mem != canonical.mem:
                continue
            perm = list(range(len(image.states)))
            for c in self.group.classes:
                mine = sorted(c, key=lambda q: (image.states[q], image.buffers[q]))
                theirs = sorted(c, key=lambda p: (canonical.states[p], canonical.buffers[p]))
                for q, p in zip(mine, theirs):
                    perm[q] = p
            sorter = Automorphism(tuple(perm), tuple(range(len(image.mem))))
            if sorter.config(image, self.program) == canonical:
                return sorter.compose(g)
        raise ValueError("no automorphism takes the candidate to its representative")

    def unwind(self, chain: tuple, witness: tuple) -> tuple[tuple, tuple]:
        """The decoded chain of representatives and a witness of
        (action, candidate code) pairs as a real chain and witness.

        witness[i]'s candidate was taken to chain[i] by some element
        g_i; composing h_i = g_0 ... g_i, the real chain is chain[0]
        (the initial configuration, which every element fixes), then
        h_i's image of chain[i + 1], and the real witness h_i's image of
        each action, since every automorphism maps a step to a step."""
        program = self.program
        h = Automorphism(tuple(range(program.n)), tuple(range(len(program.vars))))
        real_chain, actions = [chain[0]], []
        for i, (action, raw) in enumerate(witness):
            h = h.compose(self.element(self.coder.decode(raw), chain[i]))
            actions.append(h.action(action, program))
            real_chain.append(h.config(chain[i + 1], program))
        return tuple(real_chain), tuple(actions)


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
            if diff >> shift & field and not wleq[words[a >> shift & field], words[b >> shift & field]]:
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
    pairs ready for the antichain, the action opaque here and kept in
    the witness, or (action, None) for a dead candidate, one that
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

    The search runs over the codes of a backward_coder it owns, with its
    own coded_preds tables (each move's liveness decided when it is
    tabled) and coded_leq's word_table, each a runs.Table.  The
    antichain is bucketed by the memory and states fields, its signature
    pre-filter is the own-delimiter fields and the weight is the top
    field.  A configuration covers the initial one, code 0, only if it
    is the initial one, since word_leq(w, ()) only for w == ().  The
    seeds, one empty-buffer configuration at the target per
    seed_memories memory, go into that antichain encoded, in that order;
    their memories differ, so each is inserted.  The witness chain is
    decoded once, at the end.  A target that does not name one state of
    each process raises ValueError.

    When the program and target have automorphisms other than the
    identity, the processes of one orbit share their interners, and
    each seed and live candidate goes into the antichain as its orbit's
    representative (Canonicaliser.rep), so seeds whose memories are
    renamings of each other are one.  Each candidate's action is kept
    with its code as generated; unwinding recovers the automorphism
    that took it to its representative and composes them, so the chain
    and witness name real processes and variables."""
    target = check_target(program, target)
    own_ok = [removable_own(auto) for auto in program.processes]
    group = automorphisms(program, target)
    coder = backward_coder(program, group)
    minors = MinorSet(
        coded_leq(coder), key=coder.memory_and_states_mask.__and__, sig=coder.summaries_mask.__and__
    )
    preds = coded_preds(coder, partial(local_preds, program, own_ok, live_kernel(program)))
    rep = None
    if group.order > 1:
        canon = Canonicaliser(program, group, coder)
        rep, moves = canon.rep, preds

        def preds(code: int) -> list:
            return [(a, None) if d is None else ((a, d), rep(d)) for a, d in moves(code)]

    buffers = tuple(() for _ in program.processes)
    for mem in seed_memories(program, max_nodes):
        code = coder.encode(DtsoConfig(target, buffers, mem))
        minors.insert(code if rep is None else rep(code))
    top = coder.top_shift
    stats = fixpoint(minors, preds, lambda code: code == 0, lambda code: code >> top, max_nodes)
    if stats.chain is not None:
        stats.chain = tuple(map(coder.decode, stats.chain))
        if rep is not None:
            stats.chain, stats.witness = canon.unwind(stats.chain, stats.witness)
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
