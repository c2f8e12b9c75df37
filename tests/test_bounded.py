"""Both bounded explorers: the load-buffer rules under a bound, and
pinned results on random programs."""
import hashlib
import random
from functools import partial

import pytest

from dualmc import (
    DtsoConfig,
    dtso_bounded_reach,
    dtso_reachable_empty_buffer_states,
    dtso_successors,
    initial_dtso_config,
    initial_tso_config,
    tso_bounded_reach,
    tso_reachable_empty_buffer_states,
    tso_successors,
)
from dualmc import ResourceLimitError, TsoConfig, dtso, runs, tso
from dualmc.cli import run as cli_run
from dualmc.runs import Coder, Step, Table, Update, bounded_bfs, fire, tabled

from conftest import CORPUS, random_dtso_config, random_program, random_tso_config


def digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:12]


def test_bounded_successors_cut_exactly_the_over_bound_appends():
    """Under a bound, the load-buffer kernel `_local`, listed through
    `tabled`, builds the unbounded steps in order, less exactly the
    appends that leave the acting buffer longer than the bound; a cut
    entry is listed iff there is such an append, at the place of the
    first one, and a process has at most one, at the place of its own
    first.  With no bound it lists exactly dtso_successors."""
    rng = random.Random(10)
    cuts = 0
    for _ in range(3000):
        prog = random_program(rng)
        c = random_dtso_config(rng, prog, max_buf=3)
        unbounded = dtso_successors(c, prog)
        assert tabled(c, partial(dtso._local, prog, None)) == unbounded
        for bound in range(3):
            over = [
                i for i, (a, succ) in enumerate(unbounded)
                if len(succ.buffers[a.proc]) > max(bound, len(c.buffers[a.proc]))
            ]
            bounded = tabled(c, partial(dtso._local, prog, bound))
            built = [(a, succ) for a, succ in bounded if succ is not None]
            assert built == [step for i, step in enumerate(unbounded) if i not in over]
            cut_at = [i for i, (_a, succ) in enumerate(bounded) if succ is None]
            assert bool(cut_at) == bool(over)
            if over:
                first = cut_at[0]
                assert bounded[:first] == unbounded[: over[0]]
                assert bounded[first][0] == unbounded[over[0]][0]
                cuts += 1
            for p in range(prog.n):
                over_p = [unbounded[i][0] for i in over if unbounded[i][0].proc == p]
                cut_p = [bounded[i][0] for i in cut_at if bounded[i][0].proc == p]
                assert cut_p == over_p[:1]
    assert cuts > 1000


def test_tso_kernel_takes_an_over_bound_write_with_its_update():
    """Under a bound, TSO's `_local`, listed through `tabled`, lists the
    literal tso_successors entries that stay within the bound as they
    are, and in place of each write that would leave the acting buffer
    longer than the bound one move (write, Update(p)) to the
    configuration that firing the write and then the update reaches."""
    rng = random.Random(16)
    pairs = 0
    for _ in range(300):
        prog = random_program(rng)
        for _ in range(10):
            c = random_tso_config(rng, prog, max_buf=3)
            literal = tso_successors(c, prog)
            for bound in range(3):
                steps = tabled(c, partial(tso._local, prog, bound))
                assert [a[0] if type(a) is tuple else a for a, _succ in steps] == [a for a, _succ in literal]
                within = [
                    (a, succ) for a, succ in literal
                    if len(succ.buffers[a.proc]) <= max(bound, len(c.buffers[a.proc]))
                ]
                assert [(a, succ) for a, succ in steps if type(a) is not tuple] == within
                for a, succ in steps:
                    if type(a) is tuple:
                        write, update = a
                        assert isinstance(write, Step) and write.t.op.kind == "w"
                        assert update == Update(write.proc)
                        over = fire(c, write, prog, tso_successors)
                        assert len(over.buffers[write.proc]) > bound
                        assert fire(over, update, prog, tso_successors) == succ
                        pairs += 1
    assert pairs > 1000


def coded_steps(coder: Coder, tables: list, c) -> list:
    """c's steps as the explorer reads them from its coder and move
    tables (Coder.tables): each entry (action, delta) listed as
    (action, the decoded code + delta), or (action, None) for a cut
    entry."""
    code = coder.encode(c)
    steps = []
    for mask, table in tables:
        steps += [(a, None if delta is None else coder.decode(code + delta)) for a, delta in table[code & mask]]
    return steps


def test_coded_moves_decode_to_the_kernels_steps():
    """One coder and one move table per program, kernel and bound 0..2,
    shared by all its configurations: decoding code + delta of every
    entry lists exactly `tabled` over the literal kernel, cut entries,
    TSO's (write, update) pairs and their places included.  The
    configurations mix a few random configurations' per-process parts
    and memories, so each entry is read back beside other processes'
    fields."""
    kernels = (
        (initial_dtso_config, dtso._local, random_dtso_config, DtsoConfig),
        (initial_tso_config, tso._local, random_tso_config, TsoConfig),
    )
    rng = random.Random(17)
    cuts = pairs = 0
    for _ in range(200):
        prog = random_program(rng)
        for initial, local, random_config, make in kernels:
            coders = [Coder(initial(prog)) for _bound in range(3)]
            tables = [coder.tables(partial(local, prog, bound)) for bound, coder in enumerate(coders)]
            pool = [random_config(rng, prog, max_buf=3) for _ in range(4)]
            for _ in range(10):
                parts = [rng.choice(pool) for _ in prog.processes]
                c = make(
                    tuple(d.states[p] for p, d in enumerate(parts)),
                    tuple(d.buffers[p] for p, d in enumerate(parts)),
                    rng.choice(pool).mem,
                )
                for bound in range(3):
                    literal = tabled(c, partial(local, prog, bound))
                    assert coded_steps(coders[bound], tables[bound], c) == literal
                    cuts += any(succ is None for _a, succ in literal)
                    pairs += any(type(a) is tuple for a, _succ in literal)
    assert cuts > 500 and pairs > 500


def test_coder_field_overflow_raises(monkeypatch, capsys):
    """A field holds ids 0 .. 2**FIELD_BITS - 1; the interner that would
    outgrow it raises ResourceLimitError instead of letting code + delta
    carry into the next field, and the CLI exits 3 with one line."""
    monkeypatch.setattr(runs, "FIELD_BITS", 2)
    prog = random_program(random.Random(1))
    coder = Coder(initial_dtso_config(prog))
    assert [coder.id(0, (v,)) for v in range(3)] == [1, 2, 3]
    with pytest.raises(ResourceLimitError):
        coder.id(0, (3,))
    monkeypatch.setattr(runs, "FIELD_BITS", 1)
    code = cli_run(["explore-dtso", str(CORPUS / "mp.lit"), "--buffer-bound", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("dualmc: ") and captured.err.count("\n") == 1, captured.err


def test_table_fills_each_key_once():
    """A Table fills a key on its first subscript and never again; `get`
    and `in` read without filling; a fill that raises stores nothing,
    so the key is filled afresh on its next subscript."""
    calls = []

    def fill(key):
        calls.append(key)
        if key < 0:
            raise ResourceLimitError(f"no entry for {key}")
        return 2 * key

    table = Table(fill)
    assert [table[k] for k in (1, 2, 1, 2, 3)] == [2, 4, 2, 4, 6]
    assert calls == [1, 2, 3]
    assert table.get(5) is None and 5 not in table
    assert table.get(1) == 2 and 1 in table
    assert calls == [1, 2, 3]
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            table[-1]
        assert -1 not in table
    assert calls == [1, 2, 3, -1, -1]
    assert table == {1: 2, 2: 4, 3: 6}


def test_pinned_random_explorer_results():
    """40 random programs at buffer bounds 0..2: per program and bound,
    (reachable, bound_exceeded, explored, witness digest) of both
    explorers and both sorted sets of empty-buffer global states."""
    rng = random.Random(40)
    results = []
    for _ in range(40):
        prog = random_program(rng, n_procs=2, max_states=3)
        for k in range(3):
            for explore in (tso_bounded_reach, dtso_bounded_reach):
                r = explore(prog, k, prog.target)
                witness = None if r.run is None else r.run.actions
                results.append((r.reachable, r.bound_exceeded, r.explored, digest(witness)))
            for states in (tso_reachable_empty_buffer_states, dtso_reachable_empty_buffer_states):
                results.append(sorted(states(prog, k)))
    assert sum(1 for r in results if isinstance(r, tuple) and r[0]) == 139
    assert digest(results) == "019ab3c5bfcb"


def test_explored_set_is_within_the_bound():
    """On the pinned random programs, with and without a target, each
    explorer's explored set has `explored` elements, holds the initial
    configuration and no buffer longer than the bound: TSO's over-bound
    write configuration is never built, let alone explored."""
    explorers = (
        ("tso", initial_tso_config, tso._local),
        ("dtso", initial_dtso_config, dtso._local),
    )
    rng = random.Random(40)
    overflows = 0
    for _ in range(40):
        prog = random_program(rng, n_procs=2, max_states=3)
        for k in range(3):
            for semantics, initial, local in explorers:
                init = initial(prog)
                for target in (None, prog.target):
                    r, seen = bounded_bfs(semantics, init, local, prog, k, None, target)
                    assert len(seen) == r.explored and init in seen
                    assert all(len(b) <= k for c in seen for b in c.buffers)
                    overflows += semantics == "tso" and r.bound_exceeded
    assert overflows > 50
