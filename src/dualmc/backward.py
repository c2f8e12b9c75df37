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
the processes together with a renaming of the variables and of each
process's states, mapping each automaton onto its image's and the
target onto itself.  The rules, the word ordering, removable_own,
liveness and the target set are then invariant under the group, and
the initial configuration is fixed by it (values are never renamed,
and initial states go to initial states), so any member of a
candidate's orbit stands for the candidate exactly, and the wqo still
ends the search.
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
from .model import ConcurrentProgram, ParamProgram, Transition, check_target
from .ordering import MinorSet, Word, config_leq, own_decompose, word_table
from .runs import (
    Coder, Delete, Propagate, ResourceLimitError, Run, RunError, Step, Table, _renamed, _set, drive, fire, tabled,
    unwind,
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
    automorphisms, share their interners (Coder's share), their states
    named as the orbit's least process names its (the group's names),
    so that an automorphism moves their fields without renumbering
    states unless it maps a process's states onto others."""
    names = group.names
    return Coder(
        initial_dtso_config(program), lambda w: own_decompose(w).delimiters, group.share,
        names if any(names) else None,
    )


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
    """A symmetry of a program: process p, its variables and states
    renamed, is process perm[p], variable i is renamed to variable
    renaming[i], and states[p] takes each local state of p to one of
    perm[p]'s, or is None where every state keeps its name; `states`
    is empty where no process's state is renamed.  Under it process
    perm[p]'s automaton is process p's with each variable and state
    renamed, and the target state of perm[p] is the image of p's.  A
    template's symmetries map its one process to itself."""

    perm: tuple[int, ...]
    renaming: tuple[int, ...]
    states: tuple[dict[str, str] | None, ...] = ()

    def moved(self, p: int) -> dict[str, str] | None:
        """Process p's state map, None if it keeps every name."""
        return self.states[p] if self.states else None

    def state(self, p: int, s: str) -> str:
        """The image of process p's state s, a state of process perm[p]."""
        moved = self.moved(p)
        return s if moved is None else moved[s]

    def compose(self, other: Automorphism) -> Automorphism:
        """self after other."""
        states = [_then(other.moved(p), self.moved(q)) for p, q in enumerate(other.perm)]
        return Automorphism(
            tuple(self.perm[q] for q in other.perm),
            tuple(self.renaming[j] for j in other.renaming),
            tuple(states) if any(m is not None for m in states) else (),
        )

    def names(self, program) -> dict[str, str]:
        """Each variable's new name."""
        return {x: program.vars[j] for x, j in zip(program.vars, self.renaming)}

    def config(self, c: DtsoConfig, program) -> DtsoConfig:
        """The image of c: process p's renamed state and buffer at
        perm[p], and variable i's value at renaming[i]."""
        names = self.names(program)
        states, buffers, mem = [None] * len(self.perm), [None] * len(self.perm), [None] * len(self.renaming)
        for p, q in enumerate(self.perm):
            states[q] = self.state(p, c.states[p])
            buffers[q] = tuple((names[x], v, own) for x, v, own in c.buffers[p])
        for i, j in enumerate(self.renaming):
            mem[j] = c.mem[i]
        return DtsoConfig(tuple(states), tuple(buffers), tuple(mem))

    def action(self, action, program):
        """The image of action: the same rule taken by process
        perm[action.proc], on the renamed variable and states."""
        names = self.names(program)
        p = action.proc
        q = self.perm[p]
        if isinstance(action, Step):
            t = action.t
            op = t.op if t.op.var is None else t.op._replace(var=names[t.op.var])
            return Step(q, Transition(self.state(p, t.src), op, self.state(p, t.dst)))
        if isinstance(action, Propagate):
            return Propagate(q, names[action.var])
        return action._replace(proc=q)


def _then(first: dict | None, then: dict | None) -> dict | None:
    """The state map `first` followed by `then`, None keeping every name."""
    if first is None:
        return then
    if then is None:
        return first
    return {s: then[t] for s, t in first.items()}


@dataclass(frozen=True)
class Symmetry:
    """A group of automorphisms of a program, in two parts.

    `classes` partitions the processes into those whose automata are
    one another's with their states renamed (no variable) and their
    target states too; `to_head` holds, per process, the map of its
    states onto its class head's, the least process of the class, or
    None where they are equal.  Every permutation within the classes,
    its states renamed through the heads, with no variable renamed, is
    in the group, and forms a normal subgroup N that is kept implicit.
    `elements` holds one automorphism per coset of N, identity first.
    The group is N times `elements`, of order len(elements) times the
    product of the classes' sizes' factorials.  `share` names, per
    process, the least process of its orbit, and `names` the map of
    its states onto that process's, or None where they are equal."""

    classes: tuple[tuple[int, ...], ...]
    elements: tuple[Automorphism, ...]
    to_head: tuple[dict[str, str] | None, ...]

    @property
    def order(self) -> int:
        return len(self.elements) * math.prod(math.factorial(len(c)) for c in self.classes)

    def _heads(self):
        """Per class, the least process of its orbit, h, and an element
        taking the class head to h.  An element takes each class head
        to a class head, the least process of its class."""
        for c in self.classes:
            g = min(self.elements, key=lambda g: g.perm[c[0]])
            yield c, g.perm[c[0]], g

    @property
    def share(self) -> tuple[int, ...]:
        out = [0] * len(self.to_head)
        for c, h, _g in self._heads():
            for p in c:
                out[p] = h
        return tuple(out)

    @property
    def names(self) -> tuple[dict[str, str] | None, ...]:
        """Per process p, its states in its orbit head h's names: the
        map of an element taking p's class onto h's, the same for the
        whole class, then that class's map onto h, so that N only
        permutes entries named alike."""
        out: list = [None] * len(self.to_head)
        for c, _h, g in self._heads():
            for p in c:
                into = _then(g.moved(p), self.to_head[g.perm[p]])
                out[p] = None if into is None or all(s == t for s, t in into.items()) else into
        return tuple(out)


def _identity(program) -> Symmetry:
    """The group of the identity alone, each process its own class."""
    n = len(program.processes)
    elements = (Automorphism(tuple(range(n)), tuple(range(len(program.vars)))),)
    return Symmetry(tuple((p,) for p in range(n)), elements, (None,) * n)


class _Profile(NamedTuple):
    """What _renamings reads of one automaton (_profile)."""

    init: str
    size: int  # transitions
    states: list[str]  # sorted
    plan: list
    index: dict


def _profile(program, a) -> _Profile:
    """What _renamings reads of automaton a, read once per process.

    Each transition is read as (source, kind and values, variable index
    or None, destination).  The plan lists them in the order _renamings
    matches them: depth first along the listed transitions from the
    initial state, then from each state not yet reached, in sorted
    order, each such state listed, as (None, None, None, state), before
    its transitions.  A transition comes after its source, so its
    source's image is known when it is matched.  The index holds, per
    (source, kind, value, written value), the (variable index or None,
    destination) pairs of those transitions."""
    states = a.states
    out: dict = {s: [] for s in states}
    index: dict = {}
    for t in a.transitions:
        move = (t.src, _shape(t), None if t.op.var is None else program.var_index[t.op.var], t.dst)
        out[t.src].append(move)
        index.setdefault((t.src, *move[1]), []).append(move[2:])
    plan: list = []
    seen: set = set()
    for root in (a.init, *sorted(states - {a.init})):
        if root in seen:
            continue
        if root != a.init:
            plan.append((None, None, None, root))
        seen.add(root)
        stack = [iter(out[root])]
        while stack:
            move = next(stack[-1], None)
            if move is None:
                stack.pop()
                continue
            plan.append(move)
            if move[3] not in seen:
                seen.add(move[3])
                stack.append(iter(out[move[3]]))
    return _Profile(a.init, len(a.transitions), sorted(states), plan, index)


def _renamings(a: _Profile, b: _Profile, sigma: dict[int, int], budget: list[int]):
    """Each extension of sigma, a partial injective renaming of
    variable indices, together with a bijection pi of a's states onto
    b's that takes a's initial state to b's, under which automaton a's
    transitions renamed are automaton b's, as (sigma, pi).

    The search matches a's transitions in its plan, each against b's
    transitions of equal kind and values out of its source's image,
    each variable and destination state tried first as itself, so the
    map that renames nothing comes first; a state no path reaches from
    the initial one is tried against each of b's states left.  a and b
    must have as many states and transitions, which prunes most
    candidate images at once.  The search is depth first on an
    explicit stack; a choice with one option is taken in place, and
    each partial assignment popped from the stack takes one from
    budget[0]: once that is spent, the search stops."""
    if a.size != b.size or len(a.states) != len(b.states):
        return
    plan, theirs, everywhere = a.plan, b.index, b.states
    stack = [(0, dict(sigma), {a.init: b.init})]
    while stack:
        budget[0] -= 1
        if budget[0] < 0:
            return
        k, sigma, pi = stack.pop()
        taken, reached = set(sigma.values()), set(pi.values())
        while k < len(plan):
            src, shape, i, own = plan[k]
            if src is None:  # a state not reached from the initial one
                options = [(None, d) for d in everywhere if d not in reached]
            else:
                j0 = sigma.get(i, i)
                d0 = pi.get(own)
                options = [
                    (j, d)
                    for j, d in theirs.get((pi[src], *shape), ())
                    if (j == j0 if i is None or i in sigma else j not in taken)
                    and (d == d0 if d0 is not None else d not in reached)
                ]
            if len(options) > 1:
                options.sort(key=lambda jd: (jd[0] != i, jd[1] != own, -1 if jd[0] is None else jd[0], jd[1]))
                stack += [
                    (k + 1, {**sigma, i: j} if j is not None else sigma.copy(), {**pi, own: d})
                    for j, d in reversed(options)
                ]
                break
            if not options:
                break
            j, d = options[0]
            if j is not None and i not in sigma:
                sigma[i] = j
                taken.add(j)
            if own not in pi:
                pi[own] = d
                reached.add(d)
            k += 1
        else:
            yield sigma, pi


def _shape(t) -> tuple:
    """Transition t's kind and values, its states and variable left out."""
    return t.op.kind, t.op.val, t.op.wval


def automorphisms(program, target: tuple[str, ...]) -> Symmetry:
    """The automorphisms of program and `target` that keep the name of
    every variable no process names, as a Symmetry.  For a fixed-size
    program `target` names a state per process; a parameterized
    program's template is searched as one process mapped to itself,
    and `target`, a multiset of its states, must be fixed.

    The classes are found first: each process joins the first class
    with as many transitions and states and the same operations whose
    head's automaton is its own, or is under a renaming of states alone
    (_renamings with every variable kept), that takes the head's target
    state to its own.  The elements are then found class by class,
    depth first on an explicit stack: each class goes to an unused
    class of its size and shape (transition and state counts, and
    operations with variables left out) whose head's automaton its own
    head's equals under an extension of the variable renaming so far
    and some map of states (_renamings) that takes target state to
    target state, its processes in order.  So N is never listed, a
    class image is tried only where the shapes agree, and the identity
    is found first.

    The search gives up after (k + 1) ** 3 partial assignments, of the
    classes and within _renamings, k the processes plus their states,
    or once it holds more than (c + 1) ** 2 elements for c classes, and
    keeps the identity alone, with N.  That happens when, say, c
    processes each use a variable of their own, so that every
    permutation of them is an automorphism: each candidate would cost
    c! images.  A ring takes about c ** 2 partial assignments for its c
    elements.  The reduction is sound with any automorphisms, and
    canonical with a group."""
    procs = program.processes
    n = len(procs)
    if isinstance(program, ParamProgram):
        wanted = sorted(target)

        def fits(p: int, q: int, pi: dict) -> bool:
            return sorted(map(pi.__getitem__, target)) == wanted
    else:

        def fits(p: int, q: int, pi: dict) -> bool:
            return pi[target[p]] == target[q]

    profiles = [_profile(program, auto) for auto in procs]
    budget = [(n + sum(len(profile.states) for profile in profiles) + 1) ** 3]
    kept = {i: i for i in range(len(program.vars))}
    classes: list[list[int]] = []
    to_head: list = [None] * n
    by_ops: dict = {}
    for p, auto in enumerate(procs):
        ops = (profiles[p].size, len(profiles[p].states), frozenset(t.op for t in auto.transitions))
        for c in by_ops.setdefault(ops, []):
            head = classes[c][0]
            if procs[head].init == auto.init and set(procs[head].transitions) == set(auto.transitions):
                matches = iter([{s: s for s in profiles[p].states}])  # equal automata: the identity map alone is needed
            else:
                matches = (pi for _, pi in _renamings(profiles[head], profiles[p], kept, budget))
            pi = next((pi for pi in matches if fits(head, p, pi)), None)
            if pi is not None:
                classes[c].append(p)
                if any(s != t for s, t in pi.items()):
                    to_head[p] = {t: s for s, t in pi.items()}
                break
        else:
            by_ops[ops].append(len(classes))
            classes.append([p])
    heads = [profiles[c[0]] for c in classes]
    # per class its size and shape, and the classes of each
    shapes = [
        (len(c), head.size, len(head.states), frozenset(shape for _, shape, _, _ in head.plan))
        for c, head in zip(classes, heads)
    ]
    alike: dict = {}
    for j, shape in enumerate(shapes):
        alike.setdefault(shape, []).append(j)
    most = (len(classes) + 1) ** 2
    image: list[int] = []  # the classes the first len(image) classes go to
    maps: list[dict] = []  # and each one's head's state map
    used: set[int] = set()
    found = []  # each element as (each class's image, renaming, each head's state map)

    def options(i: int, sigma: dict):
        """Each (class, extended renaming, state map) for class i, reading `used` as it goes."""
        head = classes[i][0]
        for j in alike[shapes[i]]:
            if j not in used:
                for extended, pi in _renamings(heads[i], heads[j], sigma, budget):
                    if fits(head, classes[j][0], pi):
                        yield j, extended, pi

    stack = [options(0, {})]  # one per class assigned, and one for the next
    while stack and len(found) <= most and budget[0] >= 0:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if image:
                used.discard(image.pop())
                maps.pop()
            continue
        budget[0] -= 1
        j, sigma, pi = step
        if len(image) + 1 == len(classes):
            found.append((image + [j], sigma, maps + [pi]))
        else:
            image.append(j)
            maps.append(pi)
            used.add(j)
            stack.append(options(len(image), sigma))
    if budget[0] < 0 or len(found) > most:
        return Symmetry(tuple(map(tuple, classes)), _identity(program).elements, tuple(to_head))
    elements = []
    for images, sigma, pis in found:
        perm, states = [0] * n, [None] * n
        for c, d, pi in zip(classes, images, pis):
            for p, q in zip(c, classes[d]):
                perm[p] = q
                back = {t: s for s, t in to_head[q].items()} if to_head[q] else None
                moved = {s: _renamed(back, pi[_renamed(to_head[p], s)]) for s in profiles[p].states}
                states[p] = None if all(s == t for s, t in moved.items()) else moved
        renaming = tuple(sigma.get(x, x) for x in range(len(program.vars)))
        elements.append(Automorphism(tuple(perm), renaming, tuple(states) if any(states) else ()))
    return Symmetry(tuple(map(tuple, classes)), tuple(elements), tuple(to_head))


class Canonicaliser:
    """One representative code per orbit of `group` over `coder`'s
    codes, for one search to own: the least class-sorted image of the
    code, fields in code order (memory, states, buffers, summaries).

    The processes of one orbit share their interners, their states in
    one naming (backward_coder), so an element moves process p's fields
    to process perm[p]'s, renames its buffer and summary ids, keeps its
    state id unless the element maps p's states onto others in that
    naming, and renames the memory id.  One Table, keyed by memory id,
    holds the memory's least image and the moves of just the elements
    that reach it, or None where the identity alone does and no class
    is to be sorted: there a code is its own representative.  Per
    element and orbit, a Table holds a buffer id's renamed ids, and per
    element and process whose states it renames, a state id's image.
    The classes' permutations, the normal subgroup N, fix the memory
    and are never listed: sorting a class's entries, as (summary,
    buffer, state) ids, picks one member of an image's N-orbit.  The
    images of two codes in one orbit are the same N-orbits, so the
    least is a function of the orbit."""

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
        # (a tuple: 2n >= 2), per process the buffer id map of its
        # source's orbit, and per process its source's state id map, or
        # None where the element keeps every state id
        share = group.share
        self._shared = coder.names or (None,) * n
        self._real = coder.real or (None,) * n
        self._moves = [None]
        for g in self.elements[1:]:
            source = sorted(range(n), key=g.perm.__getitem__)  # source[perm[p]] = p
            names = g.names(program)
            orbits = {o: Table(partial(self._renamed_buffer, names, o)) for o in set(share)}
            read = itemgetter(*(1 + p for p in source), *(1 + n + p for p in source))
            maps = [self._state_map(g, p) for p in source]
            states = [Table(partial(self._renamed_state, m, p)) for m, p in zip(maps, source)] if any(maps) else None
            self._moves.append((read, [orbits[share[p]] for p in source], states))
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

    def _state_map(self, g: Automorphism, p: int) -> dict | None:
        """g's map of process p's states onto process perm[p]'s, both in
        their interners' names; None if it keeps every name."""
        shared, q = self._shared, g.perm[p]
        if g.moved(p) is None and shared[p] is shared[q] is None:
            return None
        named = {_renamed(shared[p], s): _renamed(shared[q], g.state(p, s)) for s in self.program.processes[p].states}
        return None if all(s == t for s, t in named.items()) else named

    def _renamed_state(self, named: dict | None, p: int, s: int) -> int:
        """Process p's state id s mapped by `named`, a _state_map, as
        its id in the shared interner; kept if `named` is None."""
        coder = self.coder
        return s if named is None else coder.id(1 + p, named[coder.values[1 + p][s]])

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
                states = moved[:n] if move[2] is None else map(dict.__getitem__, move[2], moved[:n])
                image = [least, *states, *buffers, *summaries]
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
        processes matched to canonical's in the order of their states,
        in their interners' names, and buffers."""
        shared, real = self._shared, self._real

        def entry(c: DtsoConfig, p: int) -> tuple:
            return _renamed(shared[p], c.states[p]), c.buffers[p]

        for g in self.elements:
            image = g.config(raw, self.program)
            if image.mem != canonical.mem:
                continue
            perm = list(range(len(image.states)))
            for c in self.group.classes:
                mine = sorted(c, key=partial(entry, image))
                theirs = sorted(c, key=partial(entry, canonical))
                for q, p in zip(mine, theirs):
                    perm[q] = p
            states = ()
            if self.coder.names is not None:
                states = tuple(
                    {s: _renamed(real[p], _renamed(shared[q], s)) for s in auto.states}
                    for q, (auto, p) in enumerate(zip(self.program.processes, perm))
                )
            sorter = Automorphism(tuple(perm), tuple(range(len(image.mem))), states)
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
