import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmc import (
    DtsoConfig,
    MinorSet,
    ParamConfig,
    config_leq,
    own_decompose,
    param_leq,
    subword,
    word_leq,
)

from dualmc.backward import automorphisms, backward_coder, coded_leq
from dualmc.ordering import word_table
from dualmc.param import param_dominance

from conftest import pad_with_plains, param_leq_oracle, random_dtso_config, random_program, random_word, rebuild

# small message alphabet for the property suites
MSGS = [(x, v, own) for x in "xy" for v in (0, 1) for own in (False, True)]
words = st.lists(st.sampled_from(MSGS), max_size=6).map(tuple)
plain = lambda x, v: (x, v, False)
own = lambda x, v: (x, v, True)


def test_subword_examples():
    assert subword((), (plain("z", 1), plain("y", 0)))
    assert subword((plain("y", 0),), (plain("z", 1), plain("y", 0)))
    assert not subword((plain("y", 0), plain("y", 0)), (plain("y", 0),))


@settings(max_examples=300)
@given(words, words)
def test_subword_matches_bruteforce(u, v):
    def brute(u, v):
        if not u:
            return True
        if not v:
            return False
        return (u[0] == v[0] and brute(u[1:], v[1:])) or brute(u, v[1:])

    assert subword(u, v) == brute(u, v)


def test_own_decompose_empty():
    d = own_decompose(())
    assert d.fragments == ((),)
    assert d.delimiters == ()


def test_own_decompose_single_own_with_plain():
    # newest-first: own write of x, then an older speculated read of y
    w = (own("x", 2), plain("y", 0))
    d = own_decompose(w)
    assert d.delimiters == (("x", 2),)
    assert d.fragments == ((), (plain("y", 0),))


def test_own_decompose_masked_own_is_not_delimiter():
    w = (plain("x", 2), own("x", 1), own("y", 1))
    d = own_decompose(w)
    assert d.delimiters == (("x", 1), ("y", 1))
    assert d.fragments == ((plain("x", 2),), (), ())


@settings(max_examples=500)
@given(words)
def test_decompose_roundtrip(w):
    d = own_decompose(w)
    assert rebuild(d) == w
    assert len(d.fragments) == len(d.delimiters) + 1
    # delimiters are on pairwise distinct variables
    names = [x for x, _ in d.delimiters]
    assert len(set(names)) == len(names)


def test_word_leq_examples():
    w = (own("x", 2), plain("y", 0))
    w_wide = (own("x", 2), plain("z", 1), plain("y", 0))
    assert word_leq(w, w)
    assert word_leq(w, w_wide)
    assert not word_leq((), (own("x", 1),))
    assert not word_leq((own("x", 1),), ())


@settings(max_examples=500)
@given(words)
def test_word_leq_reflexive(w):
    assert word_leq(w, w)


@settings(max_examples=300)
@given(words, words, words)
def test_word_leq_transitive(a, b, c):
    if word_leq(a, b) and word_leq(b, c):
        assert word_leq(a, c)


def _cfg(states, buffers, mem):
    return DtsoConfig(tuple(states), tuple(buffers), tuple(mem))


def test_config_leq_requires_equal_memory():
    a = _cfg(["q"], [()], [0])
    b = _cfg(["q"], [()], [1])
    assert config_leq(a, a)
    assert not config_leq(a, b)


def test_config_leq_padded_fragment():
    base = _cfg(["q1", "q2"], [(own("x", 2), plain("y", 0)), ()], [2, 1])
    padded = _cfg(["q1", "q2"], [(own("x", 2), plain("y", 1), plain("y", 0)), ()], [2, 1])
    assert config_leq(base, padded)
    assert not config_leq(padded, base)


def test_config_leq_rejects_mismatched_process_sets():
    a = _cfg(["q"], [()], [0])
    b = _cfg(["q", "q"], [(), ()], [0])
    with pytest.raises(ValueError):
        config_leq(a, b)


def test_word_table_agrees_with_word_leq():
    """A word_table gives word_leq's answer on repeated pairs, on
    identical objects and on equal words that are distinct objects."""
    rng = random.Random(5)
    for _ in range(20):
        prog = random_program(rng, n_procs=2, max_states=2)
        table = word_table()
        pool = [random_word(rng, prog, 4) for _ in range(12)]
        pool += [tuple(list(w)) for w in pool[:4]]  # equal, not identical
        for _ in range(300):
            w, w2 = rng.choice(pool), rng.choice(pool)
            assert table[w, w2] == word_leq(w, w2), (w, w2)
            assert table[w, w]


def _pcfg(procs, mem=(0,)):
    return ParamConfig(tuple(procs), tuple(mem))


def test_param_leq_examples():
    small = _pcfg([("q1", ())])
    big = _pcfg([("q9", (own("x", 1),)), ("q1", ())])
    assert param_leq(small, small)
    assert param_leq(small, big)
    crossed_a = _pcfg([("q1", ()), ("q2", ())])
    crossed_b = _pcfg([("q2", ()), ("q1", ())])
    assert not param_leq(crossed_a, crossed_b)
    assert not param_leq_oracle(crossed_a, crossed_b)


@pytest.mark.parametrize("seed", range(6))
def test_param_leq_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    states = ["a", "b"]
    for _ in range(400):
        def proc():
            word = tuple(
                (rng.choice("xy"), rng.choice((0, 1)), rng.random() < 0.5)
                for _ in range(rng.randint(0, 2))
            )
            return (rng.choice(states), word)

        a = _pcfg([proc() for _ in range(rng.randint(0, 3))], (rng.choice((0, 1)),))
        b = _pcfg([proc() for _ in range(rng.randint(0, 4))], (rng.choice((0, 1)),))
        assert param_leq(a, b) == param_leq_oracle(a, b)
        assert param_leq(a, a)


def _word_minors(items):
    minors = MinorSet(word_leq)
    for w in items:
        minors.insert(w)
    return minors


def test_minor_insert_basics():
    m = MinorSet(word_leq)
    w = (own("x", 1), plain("y", 0))
    assert m.insert(w) is True
    assert m.insert(w) is False
    smaller = (own("x", 1),)
    assert m.insert(smaller) is True
    assert m.elements() == [smaller]
    assert w not in m and smaller in m and len(m) == 1


@pytest.mark.parametrize("prefilter", ["sig", "dom"])
def test_equal_member_is_refused_without_leq(prefilter):
    """Offering a copy of a member, equal but not the same object, is
    refused with no leq call and leaves the members as they were, under
    either pre-filter; a new element is still compared."""
    calls = []

    def leq(a, b):
        calls.append((a, b))
        return (word_leq if prefilter == "sig" else param_leq)(a, b)

    if prefilter == "sig":
        minors = MinorSet(leq, sig=lambda w: own_decompose(w).delimiters)
        items = [(own("x", 1), plain("y", 0)), (plain("x", 0),), (own("y", 1),)]
        fresh = (plain("x", 0), plain("y", 1))
    else:
        minors = MinorSet(leq, key=lambda a: a.mem, dom=param_dominance({"q0", "q1"}))
        items = [
            ParamConfig((("q0", ()), ("q1", (plain("x", 0),))), (0,)),
            ParamConfig((("q1", ()),), (1,)),
            ParamConfig((("q0", (own("x", 1),)),), (0,)),
        ]
        fresh = ParamConfig((("q0", ()), ("q1", (plain("x", 1), plain("x", 0)))), (0,))
    for item in items:
        assert minors.insert(item)
    before = minors.elements()
    calls.clear()
    for item in items:
        copy = type(item)(*item) if prefilter == "dom" else tuple(list(item))
        assert copy == item and copy is not item
        assert minors.insert(copy) is False
    assert calls == [] and minors.elements() == before
    minors.insert(fresh)
    assert calls


def test_minor_min_idempotent_and_order_free():
    rng = random.Random(7)
    for _ in range(60):
        items = [
            tuple(
                (rng.choice("xy"), rng.choice((0, 1)), rng.random() < 0.5)
                for _ in range(rng.randint(0, 3))
            )
            for _ in range(5)
        ]
        reference = {
            w for w in items if not any(word_leq(o, w) and not word_leq(w, o) for o in items)
        }
        for _ in range(4):
            rng.shuffle(items)
            assert set(_word_minors(items)) == reference


def test_signature_prefilter_is_exact():
    """A MinorSet of the fixed-size search's codes, bucketed by the
    memory and states fields and comparing only members with the same
    own-delimiter fields, answers insert and covers like the plain one
    over configurations, and ends with the same members, decoded, in
    the same order."""
    rng = random.Random(23)
    samples = 0
    while samples < 3000:
        prog = random_program(rng, n_procs=2, max_states=2, n_vals=1)
        coder = backward_coder(prog, automorphisms(prog, prog.target))
        fast = MinorSet(
            coded_leq(coder), key=coder.memory_and_states_mask.__and__, sig=coder.summaries_mask.__and__
        )
        plain_set = MinorSet(config_leq, key=lambda c: (c.states, c.mem))
        seen = []
        for _ in range(60):
            if seen and rng.random() < 0.4:
                c = pad_with_plains(rng, prog, rng.choice(seen), 1)
            else:
                c = random_dtso_config(rng, prog, max_buf=3)
            seen.append(c)
            code = coder.encode(c)
            assert fast.covers(code) == plain_set.covers(c)
            assert fast.insert(code) == plain_set.insert(c)
            samples += 1
        assert [coder.decode(code) for code in fast.elements()] == plain_set.elements()


@settings(max_examples=300)
@given(st.lists(words, max_size=6))
def test_antichain_law(ws):
    m = _word_minors(ws)
    elems = m.elements()
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            assert not word_leq(a, b)
            assert not word_leq(b, a)


@settings(max_examples=300)
@given(st.lists(words, min_size=1, max_size=6), words)
def test_minor_set_covers_matches_definition(ws, probe):
    m = _word_minors(ws)
    assert m.covers(probe) == any(word_leq(w, probe) for w in ws)
