import random
from collections import Counter

import pytest

import dualmc.param
from dualmc import (
    Delete,
    MinorSet,
    ParamConfig,
    ResourceLimitError,
    Step,
    backward_reach,
    instantiate,
    param_backward_reach,
    param_leq,
    parse_program,
    subword,
)
from dualmc.model import Automaton, Op, ParamProgram, Transition
from dualmc.backward import automorphisms, removable_own
from dualmc.oracle import param_covers_initial, param_minpre
from dualmc.param import (
    FIELD_BITS,
    ParamCanonicaliser,
    ParamCoder,
    canonical,
    coded_param_leq,
    live_filter,
    param_dominance,
    predecessor_candidates,
)

from conftest import (
    CORPUS,
    canonical_step,
    check_param_chain,
    corpus_program,
    engine_seeds,
    param_down,
    param_successors,
    random_param_config,
    random_param_program,
    random_program,
    unreduced,
)

own = lambda x, v: (x, v, True)


def tiny_template(transitions, variables=("x",), values=(0, 1)) -> ParamProgram:
    auto = Automaton("proc", "q0", tuple(transitions))
    return ParamProgram(tuple(variables), tuple(values), auto, ())


def test_target_minors_shape(monkeypatch):
    prog = tiny_template(
        [Transition("q0", Op("w", "x", 1), "q2"), Transition("q0", Op("nop"), "q3")]
    )
    elems = engine_seeds(monkeypatch, lambda: param_backward_reach(prog, ("q2", "q3")))
    assert len(elems) == 2  # one seed per writable memory: x in {0, 1}
    for alpha in elems:
        assert [s for s, _b in alpha.procs] == ["q2", "q3"]
        assert all(b == () for _s, b in alpha.procs)
    assert not param_leq(elems[0], elems[1])
    assert not param_leq(elems[1], elems[0])


def test_empty_target_covers_initial_only_with_zero_memory(monkeypatch):
    prog = tiny_template([Transition("q0", Op("w", "x", 1), "q1")])
    seeds = engine_seeds(monkeypatch, lambda: param_backward_reach(prog, ()))
    zero = ParamConfig((), (0,))
    one = ParamConfig((), (1,))
    assert zero in seeds and one in seeds
    assert param_covers_initial(zero, prog)
    assert not param_covers_initial(one, prog)


def test_covers_initial_cases():
    prog = tiny_template([Transition("q0", Op("w", "x", 1), "q1")])
    two_idle = ParamConfig((("q0", ()), ("q0", ())), (0,))
    assert param_covers_initial(two_idle, prog)
    assert not param_covers_initial(ParamConfig((("q0", (("x", 0, False),)), ("q0", ())), (0,)), prog)
    assert not param_covers_initial(ParamConfig((("q1", ()), ("q0", ())), (0,)), prog)


def test_minpre_write_same_size_when_process_matches():
    # single process just past w(x,1): predecessors rewind the memory and
    # re-expose hidden own-messages, all without adding processes
    prog = tiny_template([Transition("q0", Op("w", "x", 1), "q1")])
    alpha = ParamConfig((("q1", (own("x", 1),)),), (1,))
    preds = param_minpre(alpha, prog).elements()
    for prior in (0, 1):
        assert ParamConfig((("q0", ()),), (prior,)) in preds
        for hidden in (0, 1):
            assert ParamConfig((("q0", (own("x", hidden),)),), (prior,)) in preds
    assert all(len(p.procs) == 1 for p in preds)


def test_minpre_write_insertion_when_no_process_matches():
    prog = tiny_template([Transition("q0", Op("w", "x", 1), "q1")])
    alpha = ParamConfig((("q0", ()),), (1,))  # nobody is past the write
    preds = param_minpre(alpha, prog).elements()
    grown = [p for p in preds if len(p.procs) == 2]
    assert grown, "a fresh writer process must be inserted"
    assert ParamConfig((("q0", ()), ("q0", ())), (0,)) in grown
    fresh_states = {s for p in grown for s, _b in p.procs}
    assert fresh_states == {"q0"}


def test_minpre_nop_mirrors_fixed_size():
    prog = tiny_template([Transition("q0", Op("nop"), "q1")])
    alpha = ParamConfig((("q1", ()),), (0,))
    preds = param_minpre(alpha, prog).elements()
    assert ParamConfig((("q0", ()),), (0,)) in preds
    assert all(len(p.procs) == 1 for p in preds)


def test_param_backward_sb_and_lb():
    assert param_backward_reach(corpus_program("sb-param.lit")).verdict == "Reachable"
    assert param_backward_reach(corpus_program("lb-param.lit")).verdict == "Unreachable"


def test_no_writes_means_nonzero_reads_unreachable():
    prog = tiny_template(
        [Transition("q0", Op("r", "x", 1), "q1")], variables=("x",), values=(0, 1)
    )
    stats = param_backward_reach(prog, ("q1",))
    assert stats.verdict == "Unreachable"


def _pad_param(rng, prog, alpha: ParamConfig) -> ParamConfig:
    procs = []
    for state, buf in alpha.procs:
        buf = list(buf)
        for _ in range(rng.randint(0, 2)):
            pos = rng.randint(0, len(buf))
            buf.insert(pos, (rng.choice(prog.vars), rng.choice(prog.values), False))
        procs.append((state, tuple(buf)))
    return ParamConfig(tuple(procs), alpha.mem)


def param_oracle_mismatches(seed: int, samples: int, sharp: bool) -> int:
    rng = random.Random(seed)
    mismatches = 0
    checked = 0
    while checked < samples:
        prog = random_param_program(rng)
        alpha = random_param_config(rng, prog, rng.randint(0, 2), 2)
        minors = param_minpre(alpha, prog).elements()
        probes = [
            random_param_config(rng, prog, rng.randint(0, len(alpha.procs) + 1), 2),
            _pad_param(rng, prog, rng.choice(minors)),
        ]
        for beta in probes:
            lhs = any(param_leq(m, beta) for m in minors)
            if sharp:
                rhs = param_leq(alpha, beta) or any(
                    param_leq(alpha, b2)
                    for e in param_down(beta)
                    for b2 in param_successors(e, prog)
                )
            else:
                rhs = param_leq(alpha, beta) or any(
                    param_leq(alpha, b2) for b2 in param_successors(beta, prog)
                )
            mismatches += lhs != rhs
            checked += 1
    return mismatches


@pytest.mark.xfail(
    strict=True,
    reason="same strong-monotonicity gap as the fixed-size one-step oracle",
)
def test_param_oracle_as_stated():
    assert param_oracle_mismatches(1, 400, sharp=False) == 0


@pytest.mark.parametrize("seed", range(2))
def test_param_sharp_oracle(seed):
    assert param_oracle_mismatches(seed, 200, sharp=True) == 0


@pytest.mark.parametrize(
    "name,size",
    [("sb-param.lit", 2), ("sb-param.lit", 3), ("lb-param.lit", 2), ("lb-param.lit", 3)],
)
def test_cutoff_consistency(name, size):
    """If a fixed instance reaches a global state embedding the target
    multiset, the parameterized engine must report reachable."""
    prog = corpus_program(name)
    param_verdict = param_backward_reach(prog).verdict
    inst = instantiate(prog, size)
    states = sorted(prog.template.states)
    from itertools import product

    hit = False
    for global_state in product(states, repeat=size):
        if not subword(prog.target, global_state):
            continue
        if backward_reach(inst, global_state).verdict == "Reachable":
            hit = True
            break
    if hit:
        assert param_verdict == "Reachable"
    elif param_verdict == "Reachable" and size >= len(prog.target):
        # reachability must be realized by some bounded instance; allow
        # larger cutoffs but insist the 3-process instance suffices for
        # the two-role templates here
        assert size < 3


def test_random_cutoff_cross_validation():
    """Instance-level reachability at any size up to 3 must imply the
    parameterized verdict, over random templates and target multisets."""
    from itertools import product

    from dualmc import ResourceLimitError

    rng = random.Random(314)
    programs = 0
    implications = 0
    while programs < 40:
        base = random_param_program(rng, max_states=3)
        states = sorted(base.template.states)
        k = rng.randint(1, 2)
        targets = tuple(rng.choice(states) for _ in range(k))
        prog = ParamProgram(base.vars, base.values, base.template, targets)
        try:
            param_verdict = param_backward_reach(prog, max_nodes=400_000).verdict
        except ResourceLimitError:
            continue
        instance_reachable = False
        for n in range(k, 4):
            inst = instantiate(prog, n)
            for gs in product(states, repeat=n):
                if not subword(targets, gs):
                    continue
                try:
                    if backward_reach(inst, gs, max_nodes=200_000).verdict == "Reachable":
                        instance_reachable = True
                        break
                except ResourceLimitError:
                    continue
            if instance_reachable:
                break
        if instance_reachable:
            assert param_verdict == "Reachable", (prog.template.transitions, targets)
            implications += 1
        programs += 1
    assert implications >= 10


def test_antichain_at_param_fixpoint():
    prog = corpus_program("lb-param.lit")
    stats = param_backward_reach(prog)
    assert stats.verdict == "Unreachable"
    assert stats.minors > 0


def test_insertion_candidates_cap_one_process():
    rng = random.Random(5)
    for _ in range(40):
        prog = random_param_program(rng)
        alpha = random_param_config(rng, prog, rng.randint(0, 2), 2)
        for _a, pred in predecessor_candidates(alpha, prog):
            assert len(pred.procs) <= len(alpha.procs) + 1


def test_removable_table_drops_exactly_dead_deletes():
    """As in fixed mode: with the removable_own table, the engine's
    candidates for a live configuration are its unrestricted ones minus
    exactly the delete and fresh-writer predecessors whose acting
    process holds an own-message its state cannot consume, in order."""
    rng = random.Random(19)
    checked = 0
    dropped = {"delete": 0, "fresh": 0}
    while checked < 3000:
        prog = random_param_program(rng)
        own_ok = removable_own(prog.template)
        live = live_filter(prog, own_ok)
        for _ in range(20):
            alpha = random_param_config(rng, prog, rng.randint(0, 3), 2)
            if not live(alpha):
                continue
            full = predecessor_candidates(alpha, prog, all_positions=False)
            kept = []
            for a, pred in full:
                state, buf = pred.procs[a.proc]
                if any(own and (x, v) not in own_ok[state] for x, v, own in buf):
                    if isinstance(a, Delete):
                        dropped["delete"] += 1
                        continue
                    if isinstance(a, Step) and a.t.op.kind == "w" and a.proc == len(alpha.procs):
                        dropped["fresh"] += 1
                        continue
                kept.append((a, pred))
            got = predecessor_candidates(alpha, prog, all_positions=False, removable=own_ok)
            assert got == kept, alpha
            checked += 1
    assert dropped["delete"] > 0 and dropped["fresh"] > 0


def test_canonical_step_matches_sort_and_relabel():
    """On canonical configurations, some with repeated (state, buffer)
    entries, every engine candidate through canonical_step is its
    canonical form, with the action renamed to the first position of
    its process's entry there, as a sort and a tuple.index rename give
    them; the action comes back as given exactly when its entry keeps
    its position."""
    rng = random.Random(37)
    checked = moved = repeated = 0
    while checked < 20_000:
        prog = random_param_program(rng)
        own_ok = removable_own(prog.template)
        for _ in range(10):
            alpha = random_param_config(rng, prog, rng.randint(0, 4), 2)
            procs = alpha.procs
            if procs:  # repeat up to two entries
                procs += tuple(rng.choice(procs) for _ in range(rng.randint(0, 2)))
            alpha = canonical(ParamConfig(procs, alpha.mem))
            for a, pred in predecessor_candidates(alpha, prog, False, own_ok):
                canon = canonical(pred)
                renamed = a._replace(proc=canon.procs.index(pred.procs[a.proc]))
                got = canonical_step(a, pred)
                assert got == (renamed, canon), (alpha, a, pred)
                assert (got[0] is a) == (renamed.proc == a.proc)
                checked += 1
                moved += renamed.proc != a.proc
                repeated += canon.procs.count(pred.procs[a.proc]) > 1
    assert moved > 5000 and repeated > 1000, (moved, repeated)


def _fields(c: ParamConfig) -> Counter:
    """Per state, the process count and the buffered-message count."""
    out: Counter = Counter()
    for s, b in c.procs:
        out[s, "procs"] += 1
        out[s, "msgs"] += len(b)
    return out


def _grow(rng, prog, alpha: ParamConfig) -> ParamConfig:
    """A configuration above alpha: plain messages padded in, and maybe
    one more process."""
    procs = list(_pad_param(rng, prog, alpha).procs)
    if rng.random() < 0.5:
        extra = random_param_config(rng, prog, 1, 2).procs[0]
        procs.insert(rng.randint(0, len(procs)), extra)
    return ParamConfig(tuple(procs), alpha.mem)


def _support(c: ParamConfig) -> set:
    """The states c's processes occupy."""
    return {s for s, _b in c.procs}


def test_dominance_prefilter_is_exact():
    """A MinorSet with the dominance hook answers insert and covers like
    the plain one and ends with the same members in the same order.
    Each param_leq call it makes pairs the new element with a member the
    plain set holds too, and its fields and support dominate, so a
    dropped field, a broken guard or a stale member shows.  The calls
    are not pinned in order: the two sets scan their members in
    different orders, so they may stop at different first members below
    the element."""
    rng = random.Random(29)
    samples = 0
    while samples < 3000:
        prog = random_param_program(rng)
        fast_calls = []

        def recording(a, b):
            fast_calls.append((a, b))
            return param_leq(a, b)

        key = lambda a: a.mem
        fast = MinorSet(recording, key=key, dom=param_dominance(prog.template.states))
        plain_set = MinorSet(param_leq, key=key)
        seen = []
        for _ in range(60):
            if seen and rng.random() < 0.4:
                alpha = _grow(rng, prog, rng.choice(seen))
            else:
                alpha = random_param_config(rng, prog, rng.randint(0, 3), 3)
            seen.append(alpha)
            members = plain_set.elements()
            first = len(fast_calls)
            assert fast.covers(alpha) == plain_set.covers(alpha)
            assert fast.insert(alpha) == plain_set.insert(alpha)
            samples += 1
            pairs = {(m, alpha) for m in members} | {(alpha, m) for m in members}
            for a, b in fast_calls[first:]:
                assert _fields(a) <= _fields(b) and _support(a) <= _support(b)
                assert (a, b) in pairs
        assert fast.elements() == plain_set.elements()


def _shrink(rng, alpha: ParamConfig) -> ParamConfig:
    """A configuration below alpha: one of its processes dropped."""
    if not alpha.procs:
        return alpha
    i = rng.randrange(len(alpha.procs))
    return ParamConfig(alpha.procs[:i] + alpha.procs[i + 1 :], alpha.mem)


def test_support_never_skips_a_comparable_pair():
    """param_dominance's support, the mask pack returns beside the
    fields, has one bit per occupied state, and
    whenever param_leq(a, b) holds a's support is a subset of b's: on
    random configurations, ones grown from and shrunk to them, and the
    zero-process configuration, whose support is 0.  A MinorSet with
    that dom, which scans only sub-buckets of subset or superset
    support, answers and keeps members like a plain one, also when one
    insert evicts members from several sub-buckets."""
    rng = random.Random(31)
    comparable = spread = 0
    for _ in range(200):
        prog = random_param_program(rng)
        dom = param_dominance(prog.template.states)
        mems = [tuple(rng.choice(prog.values) for _ in prog.vars) for _ in range(2)]
        fast = MinorSet(param_leq, key=lambda a: a.mem, dom=dom)
        plain_set = MinorSet(param_leq, key=lambda a: a.mem)
        seen = [ParamConfig((), mem) for mem in mems]
        for _ in range(40):
            pick = rng.random()
            if pick < 0.3:
                alpha = _shrink(rng, rng.choice(seen))
            elif pick < 0.6:
                alpha = _grow(rng, prog, rng.choice(seen))
            else:
                alpha = random_param_config(rng, prog, rng.randint(0, 4), 2)._replace(mem=rng.choice(mems))
            seen.append(alpha)
            members = plain_set.elements()
            assert fast.covers(alpha) == plain_set.covers(alpha)
            assert fast.insert(alpha) == plain_set.insert(alpha)
            evicted = set(members).difference(plain_set)
            spread += len({dom.pack(m)[1] for m in evicted}) > 1
        assert fast.elements() == plain_set.elements()
        for a in seen:
            assert bin(dom.pack(a)[1]).count("1") == len(_support(a))
            for b in seen:
                if param_leq(a, b):
                    comparable += 1
                    assert dom.pack(a)[1] & ~dom.pack(b)[1] == 0
    assert comparable > 10_000 and spread > 50


class _Buffer:
    """Stands in for a buffer of n messages; packing reads only len()."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n


def test_dominance_fields_at_the_boundaries():
    """The packed comparison on equal fields, on one field lower by one,
    and on the largest length a field can hold (a configuration of total
    size 2**FIELD_BITS - 1); a configuration one larger raises
    ResourceLimitError (exit 3), not a wrong answer or AssertionError."""
    dom = param_dominance({"q0", "q1"})
    top = 2**FIELD_BITS - 2  # one process plus top messages: the largest size

    def below(a, b):
        """Whether the packed fields of a are all at most b's, through
        a one-member MinorSet whose ordering always holds."""
        minors = MinorSet(lambda _a, _b: True, dom=dom)
        minors.insert(ParamConfig(a, ()))
        return minors.covers(ParamConfig(b, ()))

    for n in (0, 1, top):
        a = (("q0", _Buffer(n)),)
        assert below(a, a)
        assert not below(a, (("q1", _Buffer(n)),))
        if n:
            shorter = (("q0", _Buffer(n - 1)),)
            assert below(shorter, a) and not below(a, shorter)
            # the borrow out of the q0 length field must not be absorbed
            # by the q1 fields above it
            assert not below(a, shorter + (("q1", ()),))
    assert below((("q1", ()),), (("q1", ()), ("q1", ())))
    assert not below((("q1", ()), ("q1", ())), (("q1", ()),))

    oversized = ParamConfig((("q0", _Buffer(top + 1)),), ())
    with pytest.raises(ResourceLimitError):
        dom.pack(oversized)
    with pytest.raises(ResourceLimitError):
        MinorSet(param_leq, dom=dom).insert(oversized)


def test_coded_pack_at_the_size_boundary():
    """The coded pack sums its ids' fields as param_dominance's pack
    walks the configuration, up to a total size of 2**FIELD_BITS - 1
    over entries each interned well below it; one process more raises
    ResourceLimitError, as does interning one entry of that size."""
    prog = tiny_template([Transition("q0", Op("nop"), "q1")])
    coder = ParamCoder(prog)
    dom = param_dominance(prog.template.states)
    big = ("q0", _Buffer(2**FIELD_BITS - 3))  # one process plus its messages: 2**FIELD_BITS - 2
    largest = ParamConfig((big, ("q1", ())), ())
    assert coder.pack(coder.encode(largest)) == dom.pack(largest)

    oversized = coder.encode(ParamConfig((big, ("q1", ()), ("q1", ())), ()))
    with pytest.raises(ResourceLimitError):
        coder.pack(oversized)
    with pytest.raises(ResourceLimitError):
        dualmc.param.param_antichain(coded_param_leq(coder), coder.dominance).insert(oversized)
    with pytest.raises(ResourceLimitError):
        coder.id(("q1", _Buffer(2**FIELD_BITS - 1)))


def test_coded_param_leq_agrees_with_param_leq():
    """The search's coded_param_leq on two configurations' minors is
    param_leq on the configurations, the second time (from its memo) as
    the first: on random templates, for configurations grown from and
    shrunk to others and unrelated ones, over one memory or two."""
    rng = random.Random(47)
    outcomes = set()
    for _ in range(60):
        prog = random_param_program(rng)
        coder = ParamCoder(prog)
        leq = coded_param_leq(coder)
        mem = tuple(rng.choice(prog.values) for _ in prog.vars)
        for _ in range(40):
            a = random_param_config(rng, prog, rng.randint(0, 3), 2)._replace(mem=mem)
            other = random_param_config(rng, prog, rng.randint(0, 4), 2)
            for b in (a, _grow(rng, prog, a), _shrink(rng, a), other, other._replace(mem=mem)):
                expected = param_leq(a, b)
                outcomes.add(expected)
                x, y = coder.encode(a), coder.encode(b)
                assert leq(x, y) == expected, (a, b)
                assert leq(x, y) == expected, (a, b)
    assert outcomes == {True, False}


def test_coded_minors_agree_with_the_tuple_forms(monkeypatch):
    """Every minor of the param corpus's final antichains decodes,
    through the search's coder, to a canonical configuration that
    encodes and decodes back to itself, and the coder's pack, weight
    and covers-initial test on the minor equal param_dominance's pack,
    the process count plus buffered messages and param_covers_initial
    on that configuration."""
    searches = spy_searches(monkeypatch)
    checked = covering = 0
    for path in sorted(CORPUS.glob("*-param.lit")):
        prog = corpus_program(path.name)
        param_backward_reach(prog)
        minors, _preds, coder = searches.pop()
        dom = param_dominance(prog.template.states)
        for alpha in minors:
            c = coder.encode(alpha)
            assert coder.decode(c) == alpha == canonical(alpha), path.name
            assert coder.pack(c) == dom.pack(alpha), (path.name, alpha)
            assert coder.weight(c) == len(alpha.procs) + sum(len(b) for _s, b in alpha.procs)
            assert coder.covers_initial(c) == param_covers_initial(alpha, prog), (path.name, alpha)
            covering += coder.covers_initial(c)
            checked += 1
    assert checked > 1000 and covering > 0


def test_param_leq_calls_per_insert_on_wrwc_param(monkeypatch):
    """The dominance pre-filter leaves at most 20 calls of the search's
    coded_param_leq per antichain insert on wrwc-param (about 114
    without it), and the search makes some."""
    calls = inserts = 0
    factory = dualmc.param.coded_param_leq
    insert = MinorSet.insert

    def counting_factory(coder):
        leq = factory(coder)

        def counting_leq(a, b):
            nonlocal calls
            calls += 1
            return leq(a, b)

        return counting_leq

    def counting_insert(minors, elem):
        nonlocal inserts
        inserts += 1
        return insert(minors, elem)

    monkeypatch.setattr(dualmc.param, "coded_param_leq", counting_factory)
    monkeypatch.setattr(MinorSet, "insert", counting_insert)
    stats = param_backward_reach(corpus_program("wrwc-param.lit"))
    assert stats.verdict == "Reachable"
    assert inserts > 1000
    assert 0 < calls / inserts <= 20


def spy_searches(monkeypatch) -> list:
    """Each param_backward_reach's final antichain and preds, decoded by
    the search's own ParamCoder, appended as (minors, preds, coder) when
    its fixpoint returns: minors as a list of ParamConfigs, and preds
    taking and listing ParamConfigs.  A reduced search lists each live
    candidate as ((action, candidate), representative); preds lists its
    (action, candidate), as the move tables give them."""
    searches = []
    fixpoint = dualmc.param.fixpoint
    coders = []
    make = dualmc.param.ParamCoder

    def keep_coder(program):
        coders.append(make(program))
        return coders[-1]

    def spy(minors, preds, *rest):
        coder = coders[-1]

        def decoded(alpha):
            listed = [a if type(a) is tuple else (a, c) for a, c in preds(coder.encode(alpha))]
            return [(a, None if c is None else coder.decode(c)) for a, c in listed]

        try:
            return fixpoint(minors, preds, *rest)
        finally:
            searches.append(([coder.decode(c) for c in minors], decoded, coder))

    monkeypatch.setattr(dualmc.param, "ParamCoder", keep_coder)
    monkeypatch.setattr(dualmc.param, "fixpoint", spy)
    return searches


def test_per_move_liveness_marks_exactly_the_dead_candidates(monkeypatch):
    """As in fixed mode: for the live minors of the param corpus, the
    engine's preds, which checks only the memory and the entry an
    action names, lists the candidates of predecessor_candidates(alpha,
    prog, False, own_ok) in order, each one live_filter rejects marked
    dead (None) and every other one through canonical_step."""
    searches = spy_searches(monkeypatch)
    checked = dead = 0
    for path in sorted(CORPUS.glob("*-param.lit")):
        prog = corpus_program(path.name)
        param_backward_reach(prog)
        minors, preds, _coder = searches.pop()
        own_ok = removable_own(prog.template)
        live = live_filter(prog, own_ok)
        for alpha in minors:
            if not live(alpha):
                continue
            expected = [
                canonical_step(a, pred) if live(pred) else (a, None)
                for a, pred in predecessor_candidates(alpha, prog, False, own_ok)
            ]
            assert preds(alpha) == expected, (path.name, alpha)
            dead += sum(pred is None for _a, pred in expected)
            checked += 1
    assert checked > 1000 and dead > 0


def test_move_tables_match_the_oracle_on_random_templates(monkeypatch):
    """The random twin of the corpus test above: on random templates,
    atomic read-writes and dead fresh processes included, the engine's
    preds lists predecessor_candidates' candidates for every live minor
    of its antichain, each dead one marked None and every other one
    through canonical_step."""
    searches = spy_searches(monkeypatch)
    rng = random.Random(41)
    checked = 0
    fresh: Counter = Counter()
    for _ in range(500):
        prog = random_param_program(rng)
        targets = (rng.choice(sorted(prog.template.states)),)
        try:
            param_backward_reach(prog, targets, max_nodes=3000)
        except ResourceLimitError:
            pass
        minors, preds, _coder = searches.pop()
        own_ok = removable_own(prog.template)
        live = live_filter(prog, own_ok)
        for alpha in minors:
            if not live(alpha):
                continue
            expected = [
                canonical_step(a, pred) if live(pred) else (a, None)
                for a, pred in predecessor_candidates(alpha, prog, False, own_ok)
            ]
            assert preds(alpha) == expected, (prog.template.transitions, alpha)
            n = len(alpha.procs)
            for a, pred in expected:
                # a fresh process: a dead one is named at the end
                if isinstance(a, Step) and (a.proc == n if pred is None else len(pred.procs) > n):
                    fresh[a.t.op.kind, pred is None] += 1
            checked += 1
    assert checked > 1000, checked
    assert all(fresh[kind, dead] > 0 for kind in ("w", "arw") for dead in (False, True)), fresh


# parameterized store buffering over values 0 1 2 with only 2 ever
# written: 4 of the 9 memory valuations are writable
SB_WRITES_TWO = """
vars x y
values 0 1 2
process proc
  init q0
  trans q0 q1 w x 2
  trans q1 q2 r y 0
  trans q0 q3 w y 2
  trans q3 q4 r x 0
end
ptarget q2 q4
"""


def test_dead_seeds_are_never_built(monkeypatch):
    """As in fixed mode, only the 4 live seeds are built: the 5 dead
    ones are missing from configs_generated, inserted and minors (600,
    148 and 120 with them), and every other counter and the witness
    length are what a search from all 9 seeds gives.  The template is
    symmetric under x<->y with its two roles, so these are the counters
    of the unreduced search; the reduced one keeps 3 seeds, one per
    orbit of the 4 live memories."""
    prog = parse_program(SB_WRITES_TWO)
    with unreduced(monkeypatch):
        s = param_backward_reach(prog)
    assert s.verdict == "Reachable" and len(s.chain) == 9
    assert (s.configs_generated, s.inserted, s.minors) == (595, 143, 115)
    assert (s.iterations, s.frontier_peak, s.dead, s.subsumed, s.evicted) == (102, 50, 199, 253, 28)
    seeds = engine_seeds(monkeypatch, lambda: param_backward_reach(prog))
    assert [alpha.mem for alpha in seeds] == [(0, 0), (0, 2), (2, 2)]
    reduced = param_backward_reach(prog)
    assert reduced.verdict == "Reachable" and reduced.configs_generated < s.configs_generated
    check_param_chain(prog, prog.target, reduced)


def test_move_tables_fill_each_key_once(monkeypatch):
    """Within one search of each param file, backward.local_preds, the
    per-process kernel both engines share, runs exactly once per
    distinct (state, buffer, memory) entry, as process 0 of the
    template; a second search of the same program makes the same calls
    again and returns equal stats, so no table outlives its search.
    The unreduced searches fill 663 entries, and the reduced ones,
    which expand fewer minors of the three symmetric templates, 620."""
    keys = []
    local_preds = dualmc.param.local_preds

    def counting(program, removable, live, p, state, buf, mem):
        assert p == 0 and program.processes == (program.template,)
        keys.append((state, buf, mem))
        return local_preds(program, removable, live, p, state, buf, mem)

    monkeypatch.setattr(dualmc.param, "local_preds", counting)

    def filled() -> int:
        fills = 0
        for path in sorted(CORPUS.glob("*-param.lit")):
            prog = corpus_program(path.name)
            runs = []
            for _ in range(2):
                keys.clear()
                stats = param_backward_reach(prog)
                assert len(keys) == len(set(keys)) > 0, path.name
                runs.append((stats, keys[:]))
            assert runs[0] == runs[1], path.name
            fills += len(keys)
        return fills

    with unreduced(monkeypatch):
        assert filled() == 663
    assert filled() == 620


def wide_writer(n: int) -> str:
    """A template whose process writes 1 to each of n variables in a
    self-loop, so a fresh writer at q0 may hold any ordered subset of
    those writes: about e * n! words."""
    names = " ".join(f"x{i}" for i in range(n))
    writes = "".join(f"  trans q0 q0 w x{i} 1\n" for i in range(n))
    return f"vars {names}\nvalues 0 1\nprocess proc\n  init q0\n{writes}  trans q0 q1 r x0 1\nend\nptarget q1\n"


def test_fresh_writer_words_count_against_max_nodes(monkeypatch):
    """With 12 variables a fresh writer at q0 has about 1.3e9 words; the
    4,096 seeds fit under max_nodes, and the search lists at most
    max_nodes + 1 of the words before it raises ResourceLimitError."""
    listed = 0
    words = dualmc.param._fresh_writer_buffers

    def counting(program, allowed=None):
        nonlocal listed
        for w in words(program, allowed):
            listed += 1
            yield w

    monkeypatch.setattr(dualmc.param, "_fresh_writer_buffers", counting)
    with pytest.raises(ResourceLimitError):
        param_backward_reach(parse_program(wide_writer(12)), max_nodes=10_000)
    assert listed == 10_001


def random_mirrored_template(rng: random.Random) -> ParamProgram:
    """A template of one random role and its mirror, each entered by a
    nop out of q0: the role's states prefixed "a.", the mirror's "b."
    with x and y swapped.  The target holds some role states and their
    mirrors, so swapping x and y with the roles is an automorphism."""
    base = random_program(rng, n_procs=1, max_states=3, n_vars=2, n_vals=1)
    role = base.processes[0]
    swap = {"x": "y", "y": "x"}
    transitions = [Transition("q0", Op("nop"), f"{side}.{role.init}") for side in "ab"]
    for t in role.transitions:
        mirrored = t.op if t.op.var is None else t.op._replace(var=swap[t.op.var])
        transitions.append(Transition(f"a.{t.src}", t.op, f"a.{t.dst}"))
        transitions.append(Transition(f"b.{t.src}", mirrored, f"b.{t.dst}"))
    states = sorted(role.states)
    picked = rng.sample(states, rng.randint(1, min(2, len(states))))
    target = tuple(f"{side}.{s}" for s in picked for side in "ab")
    return ParamProgram(base.vars, base.values, Automaton("proc", "q0", tuple(transitions)), target)


def test_reduced_search_agrees_with_unreduced_on_random_mirrored_templates(monkeypatch):
    """On random templates of a role and its x<->y mirror, each of
    order at least 2, the reduced search and the unreduced one (the
    identity group alone) give one verdict, and every reachable
    reduced witness is a chain of canonical one-rule predecessors from
    a minor covering the initial configuration to the targets
    (check_param_chain)."""
    rng = random.Random(2033)
    checked = reachable = fewer = 0
    for _ in range(150):
        prog = random_mirrored_template(rng)
        assert automorphisms(prog, prog.target).order >= 2
        try:
            s = param_backward_reach(prog, max_nodes=20_000)
            with unreduced(monkeypatch):
                u = param_backward_reach(prog, max_nodes=20_000)
        except ResourceLimitError:
            continue
        assert s.verdict == u.verdict, prog
        if s.verdict == "Reachable":
            check_param_chain(prog, prog.target, s)
            reachable += 1
        fewer += s.configs_generated < u.configs_generated
        checked += 1
    assert checked > 100 and reachable > 20 and fewer > checked // 2, (checked, reachable, fewer)


@pytest.mark.parametrize("name", ["sb-param.lit", "iriw-param.lit"])
def test_param_representative_is_the_least_image(name):
    """A minor and its image under the template's group have one
    representative, the least of the two by (memory, entries), each
    image's processes sorted: computed here from the element's state
    map and variable names alone."""
    prog = corpus_program(name)
    group = automorphisms(prog, prog.target)
    assert group.order == 2
    coder = ParamCoder(prog)
    canon = ParamCanonicaliser(prog, group, coder)
    g = group.elements[1]
    names = g.names(prog)

    def image(alpha: ParamConfig) -> ParamConfig:
        procs = [(g.states[0][s], tuple((names[x], v, own) for x, v, own in b)) for s, b in alpha.procs]
        mem = [None] * len(alpha.mem)
        for i, j in enumerate(g.renaming):
            mem[j] = alpha.mem[i]
        return canonical(ParamConfig(tuple(procs), tuple(mem)))

    rng = random.Random(7)
    kept = 0
    for _ in range(300):
        alpha = canonical(random_param_config(rng, prog, rng.randint(0, 3), max_buf=2))
        least = min(alpha, image(alpha), key=lambda a: (a.mem, a.procs))
        for member in (alpha, image(alpha)):
            assert coder.decode(canon.rep(coder.encode(member))) == least, alpha
        kept += least == alpha
    assert 0 < kept < 300
