"""Shared programs, random generators, and reference oracles."""
from __future__ import annotations

import random
from bisect import bisect_left
from contextlib import contextmanager
from itertools import combinations, product
from pathlib import Path

import pytest

from dualmc import (
    ConcurrentProgram,
    DtsoConfig,
    ParamConfig,
    TsoConfig,
    dtso_successors,
    instantiate,
    own_decompose,
    parse_program,
    word_leq,
)
from dualmc.model import Automaton, Op, ParamProgram, Transition
from dualmc.ordering import OwnDecomposition

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# the two-process store-buffering program used throughout the examples
SB2_TEXT = """
vars x y
values 0 1 2
process p1
  init q0
  trans q0 q1 w x 2
  trans q1 q2 r y 0
end
process p2
  init q0
  trans q0 q1 w y 1
  trans q1 q2 w x 1
  trans q2 q3 r x 2
end
target p1=q2 p2=q3
"""

# single process writing x then reading y, as in the worked translation
# tables
WRITE_READ_TEXT = """
vars x y
values 0 1
process p
  init q0
  trans q0 q1 w x 1
  trans q1 q2 r y 0
end
target p=q2
"""


@pytest.fixture
def sb2() -> ConcurrentProgram:
    return parse_program(SB2_TEXT)


@pytest.fixture
def write_read() -> ConcurrentProgram:
    return parse_program(WRITE_READ_TEXT)


def corpus_program(name: str):
    return parse_program((CORPUS / name).read_text())


OP_KINDS = ("r", "w", "r", "w", "nop", "fence", "arw")


class _Seeded(Exception):
    """Stops a search once it has handed fixpoint its seeds."""


def engine_seeds(monkeypatch, search) -> list:
    """The seeds search() hands backward.fixpoint, in their order; the
    search stops there.  They are decoded by the search's own coder, a
    fixed-size search's backward_coder or a parameterized one's
    ParamCoder."""
    import dualmc.backward
    import dualmc.param

    seeds: list = []
    coders: list = []
    real_coder = dualmc.backward.backward_coder
    real_param_coder = dualmc.param.ParamCoder

    def keep_seeds(minors, preds, covers, weight, max_nodes):
        seeds.extend(minors.elements())
        raise _Seeded

    def keep_coder(make):
        def made(*args):
            coders.append(make(*args))
            return coders[-1]

        return made

    with monkeypatch.context() as m:
        m.setattr(dualmc.backward, "fixpoint", keep_seeds)
        m.setattr(dualmc.param, "fixpoint", keep_seeds)
        m.setattr(dualmc.backward, "backward_coder", keep_coder(real_coder))
        m.setattr(dualmc.param, "ParamCoder", keep_coder(real_param_coder))
        with pytest.raises(_Seeded):
            search()
    return [coders[-1].decode(c) for c in seeds]


@contextmanager
def unreduced(monkeypatch):
    """Within the block, both engines search by the identity group
    alone, each process its own class: backward_reach and
    param_backward_reach then search unreduced, as they did before any
    symmetry reduction."""
    import dualmc.backward
    import dualmc.param

    identity = lambda program, target: dualmc.backward._identity(program)
    with monkeypatch.context() as m:
        m.setattr(dualmc.backward, "automorphisms", identity)
        m.setattr(dualmc.param, "automorphisms", identity)
        yield


def check_param_chain(prog: ParamProgram, targets, s) -> None:
    """s's chain and witness are a parameterized witness to `targets`:
    chain[0] covers the initial configuration, chain[-1] holds the
    sorted targets with empty buffers, and every step is a canonical
    one-rule predecessor of the next minor under the recorded action,
    which names the first position of its process's entry."""
    from dualmc.oracle import param_covers_initial
    from dualmc.param import canonical, predecessor_candidates

    assert param_covers_initial(s.chain[0], prog)
    assert s.chain[-1].procs == tuple((state, ()) for state in sorted(targets))
    assert len(s.witness) == len(s.chain) - 1
    for i, action in enumerate(s.witness):
        assert any(
            canonical(pred) == s.chain[i]
            and a._replace(proc=s.chain[i].procs.index(pred.procs[a.proc])) == action
            for a, pred in predecessor_candidates(s.chain[i + 1], prog)
        ), i


def random_program(
    rng: random.Random,
    n_procs: int = 2,
    max_states: int = 3,
    n_vars: int = 2,
    n_vals: int = 2,
    arw_ok: bool = True,
) -> ConcurrentProgram:
    """Small random program; transitions mostly reads and writes."""
    variables = tuple("xy zw".replace(" ", "")[:n_vars])
    values = tuple(range(n_vals + 1))
    procs = []
    for p in range(n_procs):
        n_states = rng.randint(2, max_states)
        states = [f"q{p}_{i}" for i in range(n_states)]
        transitions = []
        for _ in range(rng.randint(1, n_states + 1)):
            kind = rng.choice(OP_KINDS)
            if kind == "arw" and not arw_ok:
                kind = "w"
            x = rng.choice(variables)
            if kind in ("r", "w"):
                op = Op(kind, x, rng.choice(values))
            elif kind == "arw":
                op = Op("arw", x, rng.choice(values), rng.choice(values))
            else:
                op = Op(kind)
            t = Transition(rng.choice(states), op, rng.choice(states))
            if t not in transitions:
                transitions.append(t)
        procs.append(Automaton(f"p{p + 1}", states[0], tuple(transitions)))
    target = tuple(rng.choice(sorted(a.states)) for a in procs)
    return ConcurrentProgram(variables, values, tuple(procs), target)


def random_word(rng: random.Random, program, max_len: int) -> tuple:
    word = []
    for _ in range(rng.randint(0, max_len)):
        word.append((rng.choice(program.vars), rng.choice(program.values), rng.random() < 0.5))
    return tuple(word)


def random_dtso_config(rng: random.Random, program, max_buf: int) -> DtsoConfig:
    states = tuple(rng.choice(sorted(a.states)) for a in program.processes)
    buffers = tuple(random_word(rng, program, max_buf) for _ in program.processes)
    mem = tuple(rng.choice(program.values) for _ in program.vars)
    return DtsoConfig(states, buffers, mem)


def random_tso_config(rng: random.Random, program, max_buf: int) -> TsoConfig:
    states = tuple(rng.choice(sorted(a.states)) for a in program.processes)
    buffers = tuple(
        tuple((rng.choice(program.vars), rng.choice(program.values)) for _ in range(rng.randint(0, max_buf)))
        for _ in program.processes
    )
    mem = tuple(rng.choice(program.values) for _ in program.vars)
    return TsoConfig(states, buffers, mem)


def pad_with_plains(rng: random.Random, program, c: DtsoConfig, extra: int) -> DtsoConfig:
    """A configuration above c: plain messages never disturb the
    own-message decomposition, so inserting them anywhere is safe."""
    buffers = []
    for buf in c.buffers:
        buf = list(buf)
        for _ in range(rng.randint(0, extra)):
            pos = rng.randint(0, len(buf))
            buf.insert(pos, (rng.choice(program.vars), rng.choice(program.values), False))
        buffers.append(tuple(buf))
    return DtsoConfig(c.states, tuple(buffers), c.mem)


def rebuild(d: OwnDecomposition) -> tuple:
    """The word d decomposes: its fragments in order, each delimiter
    (x, v) between two of them as the own-message (x, v, True)."""
    word = list(d.fragments[0])
    for (x, v), frag in zip(d.delimiters, d.fragments[1:]):
        word.append((x, v, True))
        word.extend(frag)
    return tuple(word)


def word_down(w) -> list:
    """All words below w: same delimiters, any fragment subsequences."""
    d = own_decompose(w)
    frag_choices = []
    for frag in d.fragments:
        subs = set()
        for mask in range(1 << len(frag)):
            subs.add(tuple(frag[i] for i in range(len(frag)) if mask >> i & 1))
        frag_choices.append(sorted(subs))
    out = {rebuild(OwnDecomposition(combo, d.delimiters)) for combo in product(*frag_choices)}
    return sorted(out)


def config_down(c: DtsoConfig):
    """All configurations below c (finite: states and memory are fixed)."""
    per = [word_down(b) for b in c.buffers]
    for bufs in product(*per):
        yield DtsoConfig(c.states, tuple(bufs), c.mem)


def param_down(beta: ParamConfig):
    """All parameterized configurations below beta."""
    n = len(beta.procs)
    for mask in range(1 << n):
        kept = [beta.procs[i] for i in range(n) if mask >> i & 1]
        per = [[(s, w) for w in word_down(b)] for s, b in kept]
        for procs in product(*per):
            yield ParamConfig(tuple(procs), beta.mem)


def param_successors(e: ParamConfig, prog: ParamProgram) -> list[ParamConfig]:
    """One-step successors of a parameterized configuration, via the
    load-buffer rules on its instance."""
    if not e.procs:
        return []
    inst = instantiate(prog, len(e.procs))
    c = DtsoConfig(tuple(s for s, _ in e.procs), tuple(b for _, b in e.procs), e.mem)
    return [
        ParamConfig(tuple(zip(d2.states, d2.buffers)), d2.mem)
        for _a, d2 in dtso_successors(c, inst)
    ]


def random_param_program(rng: random.Random, max_states: int = 3) -> ParamProgram:
    base = random_program(rng, n_procs=1, max_states=max_states, n_vars=2, n_vals=2)
    tpl = base.processes[0]
    return ParamProgram(base.vars, base.values, tpl, (tpl.init,))


def random_param_config(rng: random.Random, prog: ParamProgram, n_procs: int, max_buf: int) -> ParamConfig:
    states = sorted(prog.template.states)
    procs = []
    for _ in range(n_procs):
        w = tuple(
            (rng.choice(prog.vars), rng.choice(prog.values), rng.random() < 0.5)
            for _ in range(rng.randint(0, max_buf))
        )
        procs.append((rng.choice(states), w))
    mem = tuple(rng.choice(prog.values) for _ in prog.vars)
    return ParamConfig(tuple(procs), mem)


def param_leq_oracle(a: ParamConfig, b: ParamConfig) -> bool:
    """Order-preserving injection by exhaustive enumeration."""
    if a.mem != b.mem or len(a.procs) > len(b.procs):
        return False
    idx = range(len(b.procs))
    for chosen in combinations(idx, len(a.procs)):
        if all(
            a.procs[i][0] == b.procs[j][0] and word_leq(a.procs[i][1], b.procs[j][1])
            for i, j in enumerate(chosen)
        ):
            return True
    return not a.procs


def canonical_step(action, pred: ParamConfig):
    """(action, pred) with pred in canonical form and the action renamed
    to the first position of its process's entry there, provided pred
    is canonical but for the entry action.proc names.

    Every minor the parameterized engine expands is canonical, and each
    of its candidates differs from it only in the entry its action
    names (a fresh process is inserted at the end), so that entry is
    taken out and bisected back into the sorted rest: bisect_left puts
    it where sorted would, before any equal entry, at the position
    tuple.index finds.  When that is where it already is, both come
    back as given.  The engine places its table entries the same way
    without building the intermediate configuration.
    """
    p = action.proc
    procs = pred.procs
    entry = procs[p]
    rest = procs[:p] + procs[p + 1 :]
    i = bisect_left(rest, entry)
    if i == p:
        return action, pred
    return action._replace(proc=i), ParamConfig(rest[:i] + (entry,) + rest[i:], pred.mem)


def sc_reachable_states(program) -> frozenset:
    """Shared-memory interleaving semantics: per-process location plus a
    flat memory, writes take effect immediately.  Independent of the
    store-buffer machinery; used as the oracle for the zero-bound
    explorer."""
    init = (tuple(a.init for a in program.processes), tuple(0 for _ in program.vars))
    seen = {init}
    stack = [init]
    while stack:
        states, mem = stack.pop()
        for p, auto in enumerate(program.processes):
            for t in auto.transitions:
                if t.src != states[p]:
                    continue
                op = t.op
                new_mem = mem
                if op.kind == "r":
                    if mem[program.var_index[op.var]] != op.val:
                        continue
                elif op.kind == "w":
                    xi = program.var_index[op.var]
                    new_mem = mem[:xi] + (op.val,) + mem[xi + 1 :]
                elif op.kind == "arw":
                    xi = program.var_index[op.var]
                    if mem[xi] != op.val:
                        continue
                    new_mem = mem[:xi] + (op.wval,) + mem[xi + 1 :]
                nxt = (states[:p] + (t.dst,) + states[p + 1 :], new_mem)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return frozenset(s for s, _ in seen)


def all_global_states(program):
    return [tuple(states) for states in product(*(sorted(a.states) for a in program.processes))]
