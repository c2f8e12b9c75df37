"""Syntax of concurrent programs and the textual litmus file format.

A program is a list of finite automata over shared-memory operations
(nop, read, write, fence, atomic read-write) on a finite set of
variables over a finite value domain that must contain 0.  Fixed-mode
programs carry a full target global state (one local state per
process); parameterized programs consist of a single template automaton
and a multiset of target states.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple


class Op(NamedTuple):
    """One memory operation: nop, r(x,v), w(x,v), fence, or arw(x,v,v')."""

    kind: str
    var: str | None = None
    val: int | None = None
    wval: int | None = None

    def tokens(self) -> tuple[str, ...]:
        if self.kind == "nop":
            return ("nop",)
        if self.kind == "fence":
            return ("fence",)
        if self.kind == "r":
            return ("r", self.var, str(self.val))
        if self.kind == "w":
            return ("w", self.var, str(self.val))
        if self.kind == "arw":
            return ("arw", self.var, str(self.val), str(self.wval))
        raise ValueError(f"bad op kind {self.kind!r}")

    def __str__(self) -> str:
        return " ".join(self.tokens())


NOP = Op("nop")
FENCE = Op("fence")


class Transition(NamedTuple):
    src: str
    op: Op
    dst: str


@dataclass(frozen=True)
class Automaton:
    """One process: local states are declared implicitly by mention."""

    name: str
    init: str
    transitions: tuple[Transition, ...]

    @property
    def states(self) -> frozenset[str]:
        mentioned = {self.init}
        for t in self.transitions:
            mentioned.add(t.src)
            mentioned.add(t.dst)
        return frozenset(mentioned)


@dataclass(frozen=True)
class ConcurrentProgram:
    vars: tuple[str, ...]
    values: tuple[int, ...]
    processes: tuple[Automaton, ...]
    target: tuple[str, ...]
    var_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "var_index", {x: i for i, x in enumerate(self.vars)})

    @property
    def n(self) -> int:
        return len(self.processes)

    def process_index(self, name: str) -> int:
        for i, a in enumerate(self.processes):
            if a.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class ParamProgram:
    """Unboundedly many identical processes running one template."""

    vars: tuple[str, ...]
    values: tuple[int, ...]
    template: Automaton
    target: tuple[str, ...]
    var_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "var_index", {x: i for i, x in enumerate(self.vars)})

    @property
    def processes(self) -> tuple[Automaton]:
        """The template as the one process the per-process kernels read."""
        return (self.template,)


def instantiate(program: ParamProgram, n: int, target: tuple[str, ...] | None = None) -> ConcurrentProgram:
    """Fixed-size instance with n copies of the template.

    n must be at least 1 and `target` must give one template state per
    copy (check_target, ValueError otherwise, as the parser rejects a
    program with no process); it defaults to the template's init state
    everywhere, which is rarely what a caller wants for a reachability
    query.
    """
    t = program.template
    procs = tuple(Automaton(f"{t.name}{i + 1}", t.init, t.transitions) for i in range(n))
    if target is None:
        target = tuple(t.init for _ in range(n))
    inst = ConcurrentProgram(program.vars, program.values, procs, tuple(target))
    check_target(inst, inst.target)
    return inst


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


def _tokenize(text: str) -> Iterator[tuple[int, list[tuple[int, str]]]]:
    """Yield (line number, [(column, token), ...]) for non-empty lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = []
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            toks.append((col + 1, tok))
            col += len(tok)
        if toks:
            yield lineno, toks


def _parse_uint(tok: str, lineno: int, col: int) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"expected a non-negative integer, got {tok!r}", lineno, col)
    return int(tok)


def _parse_op(toks: list[tuple[int, str]], lineno: int) -> Op:
    col, head = toks[0]
    rest = toks[1:]
    if head == "nop" or head == "fence":
        if rest:
            raise ParseError(f"{head} takes no arguments", lineno, rest[0][0])
        return NOP if head == "nop" else FENCE
    if head in ("r", "w"):
        if len(rest) != 2:
            raise ParseError(f"{head} takes a variable and a value", lineno, col)
        return Op(head, rest[0][1], _parse_uint(rest[1][1], lineno, rest[1][0]))
    if head == "arw":
        if len(rest) != 3:
            raise ParseError("arw takes a variable and two values", lineno, col)
        return Op(
            "arw",
            rest[0][1],
            _parse_uint(rest[1][1], lineno, rest[1][0]),
            _parse_uint(rest[2][1], lineno, rest[2][0]),
        )
    raise ParseError(f"unknown operation {head!r}", lineno, col)


def parse_program(text: str) -> ConcurrentProgram | ParamProgram:
    """Parse the litmus file format; raises ParseError on any violation."""
    vars_decl: tuple[str, ...] | None = None
    values_decl: tuple[int, ...] | None = None
    processes: list[Automaton] = []
    target: list[tuple[str, str]] | None = None
    ptarget: tuple[str, ...] | None = None

    cur_name: str | None = None
    cur_init: str | None = None
    cur_trans: list[Transition] = []
    cur_line = 0

    def finish_process(lineno: int) -> None:
        nonlocal cur_name, cur_init, cur_trans
        if cur_init is None:
            raise ParseError(f"process {cur_name!r} has no init line", lineno)
        if any(a.name == cur_name for a in processes):
            raise ParseError(f"duplicate process name {cur_name!r}", lineno)
        processes.append(Automaton(cur_name, cur_init, tuple(cur_trans)))
        cur_name, cur_init, cur_trans = None, None, []

    for lineno, toks in _tokenize(text):
        col, head = toks[0]
        if cur_name is not None and head not in ("init", "trans", "end"):
            raise ParseError(f"expected init/trans/end inside process block, got {head!r}", lineno, col)
        if head == "vars":
            if vars_decl is not None:
                raise ParseError("duplicate vars line", lineno, col)
            names = [t for _, t in toks[1:]]
            if not names:
                raise ParseError("vars line needs at least one variable", lineno, col)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable name", lineno, col)
            vars_decl = tuple(names)
        elif head == "values":
            if values_decl is not None:
                raise ParseError("duplicate values line", lineno, col)
            vals = [_parse_uint(t, lineno, c) for c, t in toks[1:]]
            if not vals:
                raise ParseError("values line needs at least one value", lineno, col)
            if 0 not in vals:
                raise ParseError("domain must contain 0", lineno, col)
            values_decl = tuple(sorted(set(vals)))
        elif head == "process":
            if len(toks) != 2:
                raise ParseError("process takes exactly one name", lineno, col)
            cur_name = toks[1][1]
            cur_line = lineno
        elif head == "init":
            if cur_name is None:
                raise ParseError("init outside a process block", lineno, col)
            if len(toks) != 2:
                raise ParseError("init takes exactly one state", lineno, col)
            if cur_init is not None:
                raise ParseError("duplicate init line", lineno, col)
            cur_init = toks[1][1]
        elif head == "trans":
            if cur_name is None:
                raise ParseError("trans outside a process block", lineno, col)
            if len(toks) < 4:
                raise ParseError("trans takes a source, a destination, and an operation", lineno, col)
            op = _parse_op(toks[3:], lineno)
            t = Transition(toks[1][1], op, toks[2][1])
            if t in cur_trans:
                raise ParseError("duplicate transition", lineno, col)
            cur_trans.append(t)
        elif head == "end":
            if cur_name is None:
                raise ParseError("end outside a process block", lineno, col)
            finish_process(lineno)
        elif head == "target":
            if target is not None or ptarget is not None:
                raise ParseError("duplicate target directive", lineno, col)
            target = []
            for c, tok in toks[1:]:
                if "=" not in tok:
                    raise ParseError("target entries look like <process>=<state>", lineno, c)
                pname, state = tok.split("=", 1)
                target.append((pname, state))
            if not target:
                raise ParseError("target needs at least one entry", lineno, col)
        elif head == "ptarget":
            if target is not None or ptarget is not None:
                raise ParseError("duplicate target directive", lineno, col)
            ptarget = tuple(t for _, t in toks[1:])
            if not ptarget:
                raise ParseError("ptarget needs at least one entry", lineno, col)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, col)

    if cur_name is not None:
        raise ParseError(f"process {cur_name!r} not closed with end", cur_line)
    if vars_decl is None:
        raise ParseError("missing vars line")
    if values_decl is None:
        raise ParseError("missing values line")
    if not processes:
        raise ParseError("program declares no process")
    if target is None and ptarget is None:
        raise ParseError("exactly one of target/ptarget is required; found neither")

    if ptarget is not None:
        if len(processes) != 1:
            raise ParseError("ptarget requires exactly one process block")
        program: ConcurrentProgram | ParamProgram = ParamProgram(
            vars_decl, values_decl, processes[0], ptarget
        )
    else:
        by_name = {a.name: a for a in processes}
        mapping: dict[str, str] = {}
        for pname, state in target:
            if pname not in by_name:
                raise ParseError(f"target names unknown process {pname!r}")
            if pname in mapping:
                raise ParseError(f"target names process {pname!r} twice")
            mapping[pname] = state
        missing = [a.name for a in processes if a.name not in mapping]
        if missing:
            raise ParseError(f"target misses process {missing[0]!r}")
        program = ConcurrentProgram(
            vars_decl, values_decl, tuple(processes), tuple(mapping[a.name] for a in processes)
        )

    diags = validate(program)
    if diags:
        raise ParseError(diags[0])
    return program


def validate(program: ConcurrentProgram | ParamProgram) -> list[str]:
    """Structural diagnostics; empty iff all invariants hold."""
    diags: list[str] = []
    if len(set(program.vars)) != len(program.vars):
        diags.append("duplicate variable name")
    if 0 not in program.values:
        diags.append("domain must contain 0")
    values = set(program.values)
    variables = set(program.vars)
    names = [a.name for a in program.processes]
    if len(set(names)) != len(names):
        diags.append("duplicate process name")
    if not names:
        diags.append("program declares no process")

    for a in program.processes:
        seen = set()
        for t in a.transitions:
            if t in seen:
                diags.append(f"duplicate transition in process {a.name!r}")
            seen.add(t)
            op = t.op
            if op.var is not None and op.var not in variables:
                diags.append(f"undeclared variable {op.var!r} in process {a.name!r}")
            for v in (op.val, op.wval):
                if v is not None and v not in values:
                    diags.append(f"undeclared value {v} in process {a.name!r}")
    return diags + target_errors(program, program.target)


def target_errors(program: ConcurrentProgram | ParamProgram, target) -> list[str]:
    """What is wrong with `target` as a target of program; empty iff it
    names one state of each process in order (fixed mode), or any
    number of template states, none included (parameterized mode)."""
    if isinstance(program, ParamProgram):
        return [f"ptarget names unknown state {s!r}" for s in target if s not in program.template.states]
    if len(target) != program.n:
        return ["target must name one state per process"]
    return [
        f"target names unknown state {s!r} of process {a.name!r}"
        for a, s in zip(program.processes, target)
        if s not in a.states
    ]


def check_target(program: ConcurrentProgram | ParamProgram, target) -> tuple[str, ...]:
    """target as a tuple, or ValueError with the first diagnostic
    validate gives for program with target as its own: so a program
    built through the library, not the parser, is searched only if the
    parser would accept it."""
    errors = validate(replace(program, target=tuple(target)))
    if errors:
        raise ValueError(errors[0])
    return tuple(target)


def format_program(program: ConcurrentProgram | ParamProgram) -> str:
    """Canonical text form; parse(format(p)) is structurally equal to p."""
    out = ["vars " + " ".join(program.vars)]
    out.append("values " + " ".join(str(v) for v in program.values))
    for a in program.processes:
        out.append(f"process {a.name}")
        out.append(f"  init {a.init}")
        for t in a.transitions:
            out.append(f"  trans {t.src} {t.dst} {t.op}")
        out.append("end")
    if isinstance(program, ParamProgram):
        out.append("ptarget " + " ".join(program.target))
    else:
        out.append(
            "target " + " ".join(f"{a.name}={s}" for a, s in zip(program.processes, program.target))
        )
    return "\n".join(out) + "\n"
