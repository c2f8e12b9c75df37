"""Both bounded explorers: the load-buffer rules under a bound, and
pinned results on random programs."""
import hashlib
import random

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
from dualmc.dtso import tabled_successors
from dualmc.runs import bounded_bfs
from dualmc.tso import _write_then_update

from conftest import random_dtso_config, random_program


def digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:12]


def test_bounded_successors_cut_exactly_the_over_bound_appends():
    """Under a bound, the load-buffer rules build the unbounded steps in
    order, less exactly the appends that leave the acting buffer longer
    than the bound; a cut entry is listed iff there is such an append,
    at the place of the first one.  A search's tabled_successors lists
    exactly the same, cut entry and its place included."""
    rng = random.Random(10)
    cuts = 0
    for _ in range(3000):
        prog = random_program(rng)
        c = random_dtso_config(rng, prog, max_buf=3)
        unbounded = dtso_successors(c, prog)
        for bound in range(3):
            over = [
                i for i, (a, succ) in enumerate(unbounded)
                if len(succ.buffers[a.proc]) > max(bound, len(c.buffers[a.proc]))
            ]
            bounded = dtso_successors(c, prog, bound)
            assert tabled_successors(prog, bound)(c, prog, bound) == bounded
            built = [(a, succ) for a, succ in bounded if succ is not None]
            assert built == [step for i, step in enumerate(unbounded) if i not in over]
            cut_at = [i for i, (_a, succ) in enumerate(bounded) if succ is None]
            assert bool(cut_at) == bool(over)
            if over:
                first = cut_at[0]
                assert bounded[:first] == unbounded[: over[0]]
                assert bounded[first][0] == unbounded[over[0]][0]
                cuts += 1
    assert cuts > 1000


def test_shared_table_lists_the_rules_successors():
    """One tabled_successors per program and bound 0..2, shared by all
    its configurations, lists exactly dtso_successors, cut entry and its
    place included.  The configurations mix a few random configurations'
    per-process parts and memories, so each table entry is read back
    beside other processes' buffers and cuts.  Called with another
    program (the previous one, whose states share names), without a
    bound or at another bound, it is the literal dtso_successors."""
    rng = random.Random(13)
    cuts = 0
    previous = None
    for _ in range(300):
        prog = random_program(rng)
        tabled = [tabled_successors(prog, bound) for bound in range(3)]
        pool = [random_dtso_config(rng, prog, max_buf=3) for _ in range(4)]
        for _ in range(10):
            parts = [rng.choice(pool) for _ in prog.processes]
            c = DtsoConfig(
                tuple(d.states[p] for p, d in enumerate(parts)),
                tuple(d.buffers[p] for p, d in enumerate(parts)),
                rng.choice(pool).mem,
            )
            for bound in range(3):
                bounded = dtso_successors(c, prog, bound)
                assert tabled[bound](c, prog, bound) == bounded
                cuts += any(succ is None for _a, succ in bounded)
            assert tabled[1](c, prog) == dtso_successors(c, prog)
            assert tabled[1](c, prog, 2) == dtso_successors(c, prog, 2)
        if previous is not None:
            for bound in range(3):
                assert previous[bound](c, prog, bound) == dtso_successors(c, prog, bound)
        previous = tabled
    assert cuts > 1000


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
    write configuration is a witness link only, never explored."""
    explorers = (
        ("tso", initial_tso_config, tso_successors, _write_then_update),
        ("dtso", initial_dtso_config, dtso_successors, None),
    )
    rng = random.Random(40)
    overflows = 0
    for _ in range(40):
        prog = random_program(rng, n_procs=2, max_states=3)
        for k in range(3):
            for semantics, initial, successors, overflow in explorers:
                init = initial(prog)
                for target in (None, prog.target):
                    r, seen = bounded_bfs(semantics, init, successors, overflow, prog, k, None, target)
                    assert len(seen) == r.explored and init in seen
                    assert all(len(b) <= k for c in seen for b in c.buffers)
                    overflows += overflow is not None and r.bound_exceeded
    assert overflows > 50
