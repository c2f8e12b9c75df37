"""Run objects shared by the explorers, engines, and translators, and
the bounded breadth-first search both explorers run.

A run is a sequence of configurations joined by actions under one of
the two semantics.  Actions name the acting process by index; program
transitions are carried verbatim so a run can be replayed step by step
against the rule set that produced it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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
    reachable: bool
    run: Run | None
    bound_exceeded: bool
    explored: int
    expanded: int  # configurations taken off the queue
    generated: int  # successor configurations looked at, cut entries not counted


def bounded_bfs(
    semantics: str,
    init,
    successors: Callable,
    overflow: Callable | None,
    program: ConcurrentProgram,
    bound: int,
    max_nodes: int | None,
    target: tuple[str, ...] | None = None,
) -> tuple[BoundedResult, set]:
    """Deterministic breadth-first search of the configurations whose
    buffers never exceed `bound`, stopping at the first one at `target`
    with empty buffers.

    A step is over the bound iff it leaves the acting process's buffer
    longer than `bound` (only appends grow a buffer, and every explored
    configuration is within the bound).  The bound is passed on as
    `successors(c, program, bound)`, which may leave such steps out; it
    then lists a cut entry (action, None) where the first one was, so
    the result is flagged bound_exceeded at the same point of the search
    as if the step had been built.  A step over the bound that
    `successors` does build (TSO's writes) goes to
    `overflow(action, succ, program)`, which returns the follow-up step
    (action, config) back within the bound, also flagged; the over-bound
    configuration is a link of the witness but is never explored.
    Returns the result, with a shortest witness run unwound from the
    hit's link and rebuilt by `drive`, and the explored configurations.
    The result counts the configurations expanded and the successors
    generated; a TSO write over the bound and its update count as one,
    and the successors after a hit are not looked at.
    """
    if bound < 0:
        raise ValueError(f"buffer bound must be non-negative, got {bound}")
    seen = {init}
    pruned = False
    queue = deque([(init, None, None)])
    hit = queue[0] if _at_target(init, target) else None
    expanded = generated = 0
    while queue and hit is None:
        link = queue.popleft()
        expanded += 1
        for action, succ in successors(link[0], program, bound):
            if succ is None:
                pruned = True
                continue
            generated += 1
            parent = link
            if len(succ.buffers[action.proc]) > bound:
                pruned = True
                parent = (succ, action, link)
                action, succ = overflow(action, succ, program)
            if succ in seen:
                continue
            if max_nodes is not None and len(seen) >= max_nodes:
                raise ResourceLimitError(f"bounded search exceeded {max_nodes} configurations")
            seen.add(succ)
            step = (succ, action, parent)
            if _at_target(succ, target):
                hit = step
                break
            queue.append(step)
    run = None if hit is None else drive(semantics, init, unwind(hit)[1][::-1], program, successors)
    return BoundedResult(hit is not None, run, pruned, len(seen), expanded, generated), seen


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


def _at_target(c, target: tuple[str, ...] | None) -> bool:
    return target is not None and c.states == target and not any(c.buffers)


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
