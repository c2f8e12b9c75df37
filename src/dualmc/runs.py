"""Run objects shared by the explorers, engines, and translators;
`tabled`, which builds a configuration's steps from per-process moves
for both one-step rules and the fixed-size predecessor oracle; the
self-filling `Table` every search keeps its memos in; the coded
configurations (`Coder`) that the fixed-size backward engine and the
explorers search over; and the bounded breadth-first search both
explorers run, whose explored set is a `CodedSet`.

A run is a sequence of configurations joined by actions under one of
the two semantics.  Actions name the acting process by index; program
transitions are carried verbatim so a run can be replayed step by step
against the rule set that produced it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from .model import ConcurrentProgram, ParseError, Transition, _parse_op


class ResourceLimitError(Exception):
    """An explicit node or iteration cap was exceeded."""


def _set(tup: tuple, i: int, v) -> tuple:
    return tup[:i] + (v,) + tup[i + 1 :]


class Step(NamedTuple):
    """A program transition performed by one process."""

    proc: int
    t: Transition


class Update(NamedTuple):
    """Store-buffer update: the oldest pending write hits memory."""

    proc: int


class Propagate(NamedTuple):
    """Load-buffer propagation of the current memory value of var."""

    proc: int
    var: str


class Delete(NamedTuple):
    """Drop the oldest load-buffer message."""

    proc: int


Action = Step | Update | Propagate | Delete


class RunError(Exception):
    pass


@dataclass
class Run:
    semantics: str  # "tso" | "dtso"
    configs: list
    actions: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.semantics not in ("tso", "dtso"):
            raise ValueError(f"bad semantics tag {self.semantics!r}")
        if len(self.configs) != len(self.actions) + 1:
            raise ValueError("a run has one more configuration than actions")

    @property
    def final(self):
        return self.configs[-1]

    def __len__(self) -> int:
        return len(self.actions)


class BoundedResult(NamedTuple):
    """One bounded search's verdict, its shortest witness run (built
    under the unbounded rules) and its counts; the explored set itself
    is returned beside it by `bounded_bfs`, coded."""

    reachable: bool
    run: Run | None
    bound_exceeded: bool
    explored: int
    expanded: int  # configurations taken off the queue
    generated: int  # successors looked at; cut entries not counted, a write and its update one


def tabled(c, fill: Callable) -> list:
    """c's steps, in process order, from each process's moves.

    A rule changes one process's state and buffer, and the memory, and
    reads nothing else, so process p's moves are fill(p, its state, its
    buffer, the memory).  A move is (action, p's new state or None if
    kept, p's new buffer or None if kept, new memory); it is listed as
    (action, type(c)(...)), reusing c's tuples where kept, or as the
    entry (action, None) if its memory is None.  The searches table the
    same moves per key as code deltas (Coder.moves)."""
    states, buffers, mem = c
    make = type(c)
    out: list = []
    for p, state in enumerate(states):
        buf = buffers[p]
        for action, s, b, m in fill(p, state, buf, mem):
            out.append((
                action,
                None if m is None else make(
                    states if s is None else _set(states, p, s),
                    buffers if b is None else _set(buffers, p, b),
                    m,
                ),
            ))
    return out


class Table(dict):
    """A memo for one search to own: `table[key]` is fill(key), filled
    on first need and kept.  `get` and `in` do not fill, and a fill
    that raises stores nothing."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        out = self[key] = self.fill(key)
        return out


FIELD_BITS = 32  # width of one Coder field


def _renamed(names: dict | None, state: str) -> str:
    """state by its name in `names`, or as it is without."""
    return state if names is None else names[state]


class Coder:
    """Configurations (states, buffers, mem) of one program as ints,
    owned by one search.

    The memory valuations, each process's local states and each
    process's buffer words are interned to small ids in order of first
    sight, the initial configuration's parts first, so the initial
    memory, states and (empty) buffers are id 0 and the initial
    configuration is code 0.  A code has one FIELD_BITS-wide field per
    id: the memory in field 0, process p's state in field 1 + p and its
    buffer in field 1 + n + p.  An interner that outgrows its field
    raises ResourceLimitError rather than let a field carry into the
    next.

    A rule changes one process's state and buffer, and the memory, so
    `moves` turns process p's moves at the key `code & keymask[p]` into
    int deltas, the sum of (new id - old id) << field shift: `code +
    delta` is the successor's code, whatever the other fields hold.

    With `summary`, a function of a buffer word, the code carries two
    more kinds of field, each a function of the buffers: process p's
    field 1 + 2n + p holds the interned id of summary(its buffer), and
    the top field, from `top_shift` up and unbounded, the total buffer
    length as a raw count; `summaries_mask` selects the summary fields.
    `moves` adds their deltas wherever a move changes a buffer, so
    `code >> top_shift` is a configuration's total buffer length and
    `code & summaries_mask` equal for equal summaries.  Without it (the
    explorers) the code has the 1 + 2n fields above alone.

    With `share`, one process index per process, process p's state,
    buffer and summary fields use process share[p]'s interners, so
    equal parts of the processes sharing them have equal ids; they must
    start in equal states.  With `names`, per process a dict from its
    local states to the names its interner holds them by, or None to
    keep them, the coder translates states as it interns them and back
    as it decodes or lists moves; so processes whose states are named
    apart can share interners, in the names of the process they share.
    """

    def __init__(
        self,
        init,
        summary: Callable | None = None,
        share: tuple[int, ...] | None = None,
        names: tuple[dict | None, ...] | None = None,
    ):
        n = self.n = len(init.states)
        self.make = type(init)
        self.summary = summary
        self.width = FIELD_BITS
        self.field = field = (1 << FIELD_BITS) - 1
        self.names = names
        self.real = None if names is None else [None if d is None else {v: s for s, v in d.items()} for d in names]
        self.values = [[v] for v in self._parts(init)]
        self.ids = [{vals[0]: 0} for vals in self.values]
        if share is not None:
            for base in range(1, len(self.values), n):
                for p, q in enumerate(share):
                    self.values[base + p] = self.values[base + q]
                    self.ids[base + p] = self.ids[base + q]
        self.keymask = [field | field << self._shift(1 + p) | field << self._shift(1 + n + p) for p in range(n)]
        self.buffers_mask = sum(field << self._shift(1 + n + p) for p in range(n))
        self.states_and_buffers_mask = (1 << self._shift(2 * n + 1)) - 1 - field
        self.memory_and_states_mask = (1 << self._shift(n + 1)) - 1
        # per process, its buffer field's shift and its words by id
        self.buffer_fields = [(self._shift(1 + n + p), self.values[1 + n + p]) for p in range(n)]
        self.top_shift = self._shift(len(self.values))
        self.summaries_mask = (1 << self.top_shift) - (1 << self._shift(2 * n + 1))

    def _shift(self, f: int) -> int:
        return f * self.width

    def _parts(self, c) -> tuple:
        """c's interned parts, in field order."""
        states = c.states if self.names is None else map(_renamed, self.names, c.states)
        if self.summary is None:
            return (c.mem, *states, *c.buffers)
        return (c.mem, *states, *c.buffers, *map(self.summary, c.buffers))

    def _top(self, c) -> int:
        """c's top field, in place: its total buffer length, or 0 without a summary."""
        if self.summary is None:
            return 0
        return sum(map(len, c.buffers)) << self.top_shift

    def id(self, f: int, v) -> int:
        """v's id in field f, interned on first sight."""
        ids = self.ids[f]
        i = ids.get(v)
        if i is None:
            i = ids[v] = len(self.values[f])
            if i > self.field:
                raise ResourceLimitError(f"more than {self.field + 1} distinct values in one configuration field")
            self.values[f].append(v)
        return i

    def encode(self, c) -> int:
        return sum(self.id(f, v) << self._shift(f) for f, v in enumerate(self._parts(c))) + self._top(c)

    def lookup(self, c) -> int | None:
        """c's code, or None if a part of c was never interned."""
        code = self._top(c)
        for f, v in enumerate(self._parts(c)):
            i = self.ids[f].get(v)
            if i is None:
                return None
            code |= i << self._shift(f)
        return code

    def decode(self, code: int):
        n = self.n
        parts = [vals[code >> self._shift(f) & self.field] for f, vals in enumerate(self.values[: 2 * n + 1])]
        states = parts[1 : n + 1] if self.real is None else map(_renamed, self.real, parts[1 : n + 1])
        return self.make(tuple(states), tuple(parts[n + 1 :]), parts[0])

    def moves(self, p: int, key: int, fill: Callable) -> list[tuple]:
        """Process p's moves at `key`, a code masked by keymask[p], from
        fill(p, state, buffer, memory), which lists them as `tabled`
        reads them: each becomes (action, delta), or (action, None)
        where its memory is None.  With a summary, a move that changes
        the buffer also changes p's summary field and the top field;
        the old buffer's summary id, interned with the key, is read
        once.  fill reads and lists p's states by their own names."""
        sf, bf, df = 1 + p, 1 + self.n + p, 1 + 2 * self.n + p
        s_shift, b_shift = self._shift(sf), self._shift(bf)
        m_id, s_id, b_id = key & self.field, key >> s_shift & self.field, key >> b_shift & self.field
        buf = self.values[bf][b_id]
        summary = self.summary
        if summary is not None:
            d_id = self.id(df, summary(buf))
        names = None if self.names is None else self.names[p]
        state = self.values[sf][s_id] if names is None else self.real[p][self.values[sf][s_id]]
        out: list[tuple] = []
        for action, s, b, m in fill(p, state, buf, self.values[0][m_id]):
            if m is None:
                out.append((action, None))
                continue
            delta = self.id(0, m) - m_id
            if s is not None:
                delta += (self.id(sf, s if names is None else names[s]) - s_id) << s_shift
            if b is not None:
                delta += (self.id(bf, b) - b_id) << b_shift
                if summary is not None:
                    delta += (self.id(df, summary(b)) - d_id) << self._shift(df)
                    delta += (len(b) - len(buf)) << self.top_shift
            out.append((action, delta))
        return out

    def tables(self, fill: Callable) -> list[tuple[int, Table]]:
        """Per process p, keymask[p] and a Table of p's moves at each
        key `code & keymask[p]`, from `moves` over fill."""
        return [(mask, Table(partial(self.moves, p, fill=fill))) for p, mask in enumerate(self.keymask)]


class CodedSet:
    """A read-only view of a set of codes as the configurations they
    stand for: `len`, `in` and iteration, which decodes."""

    def __init__(self, codes: set, coder: Coder):
        self.codes = codes
        self.coder = coder

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, c) -> bool:
        code = self.coder.lookup(c)
        return code is not None and code in self.codes

    def __iter__(self):
        return map(self.coder.decode, self.codes)

    def with_empty_buffers(self):
        """The configurations whose buffers are all empty, decoding no other."""
        mask = self.coder.buffers_mask
        return [self.coder.decode(code) for code in self.codes if not code & mask]


def bounded_bfs(
    semantics: str,
    init,
    local: Callable,
    program: ConcurrentProgram,
    bound: int,
    max_nodes: int | None,
    target: tuple[str, ...] | None = None,
) -> tuple[BoundedResult, CodedSet]:
    """Deterministic breadth-first search of the configurations whose
    buffers never exceed `bound`, stopping at the first one at `target`
    with empty buffers.

    The search runs over codes of a `Coder` it owns.  Process p's moves
    come from the semantics' per-process kernel local(program, bound, p,
    state, buffer, memory), as int deltas in the coder's `tables`, and
    are listed in process order, as `tabled` lists them.  The kernel
    keeps the bound: a move over it is either left out, its place marked
    by a cut entry (action, None), or, with a plain tuple (action,
    follow-up) as its action, taken together with a follow-up that ends
    back within the bound (TSO's write and its update); the over-bound
    configuration between the two is never built, and its witness link
    holds None.  Either flags the result bound_exceeded at its place in
    the search.  Returns the result, with a shortest witness run unwound
    from the hit's link as actions and rebuilt by `drive` under the
    unbounded relation, and the explored set as a `CodedSet`, which
    decodes nothing until it is read.
    The result counts the configurations expanded and the successors
    generated, and the successors after a hit are not looked at.
    """
    if bound < 0:
        raise ValueError(f"buffer bound must be non-negative, got {bound}")
    coder = Coder(init)
    tables = coder.tables(partial(local, program, bound))
    mask = coder.states_and_buffers_mask
    goal = None if target is None else coder.encode(init._replace(states=target))
    seen = {0}
    pruned = False
    queue = deque([(0, None, None)])
    hit = queue[0] if goal == 0 else None
    expanded = generated = 0
    while queue and hit is None:
        link = queue.popleft()
        code = link[0]
        expanded += 1
        for keymask, table in tables:
            for action, delta in table[code & keymask]:
                if delta is None:
                    pruned = True
                    continue
                generated += 1
                parent = link
                if type(action) is tuple:
                    pruned = True
                    first, action = action
                    parent = (None, first, link)
                succ = code + delta
                if succ in seen:
                    continue
                if max_nodes is not None and len(seen) >= max_nodes:
                    raise ResourceLimitError(f"bounded search exceeded {max_nodes} configurations")
                seen.add(succ)
                step = (succ, action, parent)
                if succ & mask == goal:
                    hit = step
                    break
                queue.append(step)
            if hit is not None:
                break
    run = None
    if hit is not None:
        unbounded = lambda c, prog: tabled(c, partial(local, prog, None))
        run = drive(semantics, init, unwind(hit)[1][::-1], program, unbounded)
    return BoundedResult(hit is not None, run, pruned, len(seen), expanded, generated), CodedSet(seen, coder)


def unwind(link) -> tuple[tuple, tuple]:
    """The configurations from a provenance link (config, action, parent
    link) back to its root (config, None, None) and, in the same order,
    every action but the root's: the step by which a search reached the
    link from its parent, forward in the explorers and backward in the
    fixpoint."""
    configs, actions = [], []
    while link is not None:
        c, action, link = link
        configs.append(c)
        actions.append(action)
    return tuple(configs), tuple(actions[:-1])


def fire(c, action: Action, program: ConcurrentProgram, successors: Callable):
    """The successor of c under action by the one-step relation
    `successors`, or None if the action is not enabled at c."""
    return next((succ for a, succ in successors(c, program) if a == action), None)


def drive(semantics: str, init, actions, program: ConcurrentProgram, successors: Callable) -> Run:
    """The run from init that fires each action in turn under the
    one-step relation `successors`; raises RunError at the first action
    that is not enabled."""
    configs = [init]
    for i, action in enumerate(actions):
        succ = fire(configs[-1], action, program, successors)
        if succ is None:
            raise RunError(f"step {i + 1}: action {_named(action, program)} not enabled")
        configs.append(succ)
    return Run(semantics, configs, list(actions))


def replay(run: Run, program: ConcurrentProgram, successors: Callable) -> None:
    """Check every step of the run against the one-step relation."""
    for i, action in enumerate(run.actions):
        found = fire(run.configs[i], action, program, successors)
        if found is None:
            raise RunError(f"step {i + 1}: action {_named(action, program)} not enabled")
        if found != run.configs[i + 1]:
            raise RunError(f"step {i + 1}: configuration mismatch after {_named(action, program)}")


def _named(action: Action, program: ConcurrentProgram) -> str:
    return action_str(action, program.processes[action.proc].name)


def action_str(action: Action, name: str) -> str:
    """One action as a run-file line, with `name` labelling the acting
    process: its name in a fixed program, `#k` in a parameterized
    witness."""
    if isinstance(action, Step):
        return f"{name} {action.t.op} {action.t.dst}"
    if isinstance(action, Update):
        return f"{name} update"
    if isinstance(action, Propagate):
        return f"{name} propagate {action.var}"
    if isinstance(action, Delete):
        return f"{name} delete"
    raise TypeError(action)


def parse_action(line: str, program: ConcurrentProgram, state_of: Callable[[int], str]) -> Action:
    """Parse one action line; transitions are resolved against the
    acting process's current local state."""
    toks = line.split()
    if len(toks) < 2:
        raise ParseError(f"bad action line {line!r}")
    try:
        p = program.process_index(toks[0])
    except KeyError:
        raise ParseError(f"unknown process {toks[0]!r}") from None
    kind = toks[1]
    if kind == "update":
        return Update(p)
    if kind == "delete":
        return Delete(p)
    if kind == "propagate":
        if len(toks) != 3:
            raise ParseError(f"bad propagate line {line!r}")
        return Propagate(p, toks[2])
    if len(toks) < 3:
        raise ParseError(f"bad action line {line!r}")
    try:
        op = _parse_op([(None, tok) for tok in toks[1:-1]], None)
    except ParseError as exc:
        raise ParseError(f"{exc.message} in action line {line!r}") from None
    t = Transition(state_of(p), op, toks[-1])
    if t not in program.processes[p].transitions:
        raise ParseError(f"no such transition: {line!r} from state {t.src!r}")
    return Step(p, t)


def format_run(run: Run, program: ConcurrentProgram, program_label: str) -> str:
    lines = [f"program {program_label}", f"semantics {run.semantics}"]
    lines.extend(_named(a, program) for a in run.actions)
    return "\n".join(lines) + "\n"


def parse_run_text(text: str) -> tuple[str, str, list[str]]:
    """Split a run file into (program label, semantics, action lines)."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 2 or not lines[0].startswith("program ") or not lines[1].startswith("semantics "):
        raise ParseError("run file must start with 'program <file>' and 'semantics tso|dtso'")
    label = lines[0].split(None, 1)[1]
    semantics = lines[1].split(None, 1)[1]
    if semantics not in ("tso", "dtso"):
        raise ParseError(f"bad semantics {semantics!r}")
    return label, semantics, lines[2:]
