"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import hashlib
import random
from collections.abc import Sized

import pytest

import dualmc
from dualmc import (
    Run,
    backward_reach,
    concretize_witness,
    config_leq,
    dtso_bounded_reach,
    dtso_reachable_empty_buffer_states,
    dtso_successors,
    dtso_to_tso,
    own_decompose,
    param_backward_reach,
    param_leq,
    ResourceLimitError,
    subword,
    tso_bounded_reach,
    tso_reachable_empty_buffer_states,
    tso_successors,
    tso_to_dtso,
    word_leq,
    replay,
)
from dualmc import Delete, Step
from conftest import (
    all_global_states,
    check_param_chain,
    corpus_program,
    pad_with_plains,
    param_leq_oracle,
    random_dtso_config,
    random_program,
    random_word,
    rebuild,
)
from test_backward import minpre_oracle_mismatches
from test_param import param_oracle_mismatches
from test_translate import example_dtso_run, example_tso_run

FIXED_EXPECTED = {
    # benchmark -> safe under TSO per the reported comparison table
    "sb.lit": False,
    "lb.lit": True,
    "wrc.lit": True,
    "isa2.lit": True,
    "rwc.lit": False,
    "wrwc.lit": False,
    "iriw.lit": True,
    "mp.lit": True,
    "dekker-simple.lit": False,
    "dekker.lit": False,
    "peterson.lit": False,
    "peterson-repeat.lit": False,
}

PARAM_EXPECTED = {
    "sb-param.lit": False,
    "lb-param.lit": True,
    "mp-param.lit": True,
    "wrc-param.lit": True,
    "isa2-param.lit": True,
    "rwc-param.lit": False,
    "wrwc-param.lit": False,
    "iriw-param.lit": True,
}

# buffer bound at which the forward store-buffer oracle finds each
# unsafe benchmark's witness
WITNESS_BOUNDS = {
    "sb.lit": 1,
    "rwc.lit": 1,
    "wrwc.lit": 2,
    "dekker-simple.lit": 1,
    "dekker.lit": 2,
    "peterson.lit": 2,
    "peterson-repeat.lit": 2,
}


def announce(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {message}")


@pytest.fixture(scope="module")
def fixed_stats():
    return {name: backward_reach(corpus_program(name), corpus_program(name).target)
            for name in FIXED_EXPECTED}


@pytest.fixture(scope="module")
def param_stats():
    return {name: param_backward_reach(corpus_program(name)) for name in PARAM_EXPECTED}


def test_criterion_1_fixed_verdicts(fixed_stats):
    for name, safe in FIXED_EXPECTED.items():
        verdict = fixed_stats[name].verdict
        assert verdict == ("Unreachable" if safe else "Reachable"), name
    announce(1, f"{len(FIXED_EXPECTED)} fixed-size benchmark verdicts reproduced")


def test_criterion_2_param_verdicts(param_stats):
    for name, safe in PARAM_EXPECTED.items():
        verdict = param_stats[name].verdict
        assert verdict == ("Unreachable" if safe else "Reachable"), name
    announce(2, f"{len(PARAM_EXPECTED)} parameterized benchmark verdicts reproduced")


# (verdict, configs_generated, iterations, frontier_peak, minors, witness
# length, sha256 prefix of repr((witness, chain))) per corpus file.  The
# candidate order and the worklist keys fix every one of these, so an
# exact refactor or optimisation of the engines leaves them unchanged; a
# change that moves them must say why it is sound.  The fixed-size search
# keeps one representative per orbit of the program's automorphisms
# (backward.automorphisms), so the rows of sb, lb, rwc, iriw and
# dekker-simple, the files with a nontrivial group, count the reduced
# search; so does the parameterized one, over its template's
# automorphisms, on sb-param, lb-param and iriw-param.
PINNED_COUNTERS = {
    "sb.lit": ("Reachable", 31_221, 5_259, 6_462, 11_220, 20, "0902841e73ff"),
    "lb.lit": ("Unreachable", 759, 225, 100, 176, 0, "67c79a8faf11"),
    "wrc.lit": ("Unreachable", 5_733, 1_352, 703, 1_154, 0, "67c79a8faf11"),
    "isa2.lit": ("Unreachable", 3_263, 860, 404, 769, 0, "67c79a8faf11"),
    "rwc.lit": ("Reachable", 2_075, 482, 292, 576, 18, "7cf731bfbfa5"),
    "wrwc.lit": ("Reachable", 21_789, 4_732, 3_281, 6_340, 16, "2e0599f0ec47"),
    "iriw.lit": ("Unreachable", 754, 192, 98, 171, 0, "67c79a8faf11"),
    "mp.lit": ("Unreachable", 33_849, 6_797, 3_228, 6_146, 0, "67c79a8faf11"),
    "dekker-simple.lit": ("Reachable", 457, 137, 96, 176, 8, "319f7f2c08d1"),
    "dekker.lit": ("Reachable", 23_296, 4_150, 5_335, 9_288, 8, "a52b88049129"),
    "peterson.lit": ("Reachable", 3_304, 770, 614, 1_250, 12, "9889036c2c0e"),
    "peterson-repeat.lit": ("Reachable", 11_610, 2_170, 2_454, 4_564, 12, "9889036c2c0e"),
    "sb-param.lit": ("Reachable", 360, 83, 38, 94, 10, "ce6cea60abbc"),
    "lb-param.lit": ("Unreachable", 307, 70, 30, 59, 0, "67c79a8faf11"),
    "mp-param.lit": ("Unreachable", 857, 151, 61, 144, 0, "67c79a8faf11"),
    "wrc-param.lit": ("Unreachable", 1_818, 357, 144, 328, 0, "67c79a8faf11"),
    "isa2-param.lit": ("Unreachable", 11_852, 1_527, 637, 1_448, 0, "67c79a8faf11"),
    "rwc-param.lit": ("Reachable", 1_566, 343, 139, 380, 13, "2af03e7367b6"),
    "wrwc-param.lit": ("Reachable", 8_317, 1_152, 561, 1_510, 15, "07c2a4c9c249"),
    "iriw-param.lit": ("Unreachable", 3_623, 613, 189, 590, 0, "67c79a8faf11"),
}


def test_pinned_counters(fixed_stats, param_stats):
    stats = {**fixed_stats, **param_stats}
    for name, expected in PINNED_COUNTERS.items():
        s = stats[name]
        got = (s.verdict, s.configs_generated, s.iterations, s.frontier_peak, s.minors,
               len(s.witness or ()), hashlib.sha256(repr((s.witness, s.chain)).encode()).hexdigest()[:12])
        assert got == expected, name


# BackwardStats.dead per corpus file: candidates the search looked at
# and found dead, seeds not counted.  The fixed-size files sum to 24,340.
PINNED_DEAD = {
    "sb.lit": 2_496,
    "lb.lit": 264,
    "wrc.lit": 1_920,
    "isa2.lit": 1_152,
    "rwc.lit": 236,
    "wrwc.lit": 4_708,
    "iriw.lit": 228,
    "mp.lit": 12_288,
    "dekker-simple.lit": 0,
    "dekker.lit": 192,
    "peterson.lit": 484,
    "peterson-repeat.lit": 372,
    "sb-param.lit": 24,
    "lb-param.lit": 44,
    "mp-param.lit": 128,
    "wrc-param.lit": 288,
    "isa2-param.lit": 1_856,
    "rwc-param.lit": 144,
    "wrwc-param.lit": 788,
    "iriw-param.lit": 552,
}


def test_pinned_dead_counts(fixed_stats, param_stats):
    stats = {**fixed_stats, **param_stats}
    assert {name: stats[name].dead for name in PINNED_DEAD} == PINNED_DEAD
    assert sum(PINNED_DEAD[name] for name in FIXED_EXPECTED) == 24_340


# BackwardStats.subsumed per corpus file: candidates that a member of
# the antichain lay below.  With configs_generated, dead and minors
# pinned, the accounting test below then pins inserted and evicted too.
# The fixed-size files sum to 63,157.
PINNED_SUBSUMED = {
    "sb.lit": 16_116,
    "lb.lit": 216,
    "wrc.lit": 2_090,
    "isa2.lit": 1_081,
    "rwc.lit": 1_039,
    "wrwc.lit": 8_757,
    "iriw.lit": 286,
    "mp.lit": 13_230,
    "dekker-simple.lit": 225,
    "dekker.lit": 12_620,
    "peterson.lit": 1_320,
    "peterson-repeat.lit": 6_177,
    "sb-param.lit": 211,
    "lb-param.lit": 169,
    "mp-param.lit": 552,
    "wrc-param.lit": 1_082,
    "isa2-param.lit": 8_079,
    "rwc-param.lit": 912,
    "wrwc-param.lit": 5_665,
    "iriw-param.lit": 2_349,
}


def test_pinned_subsumed_counts(fixed_stats, param_stats):
    stats = {**fixed_stats, **param_stats}
    assert {name: stats[name].subsumed for name in PINNED_SUBSUMED} == PINNED_SUBSUMED
    assert sum(PINNED_SUBSUMED[name] for name in FIXED_EXPECTED) == 63_157

def test_stats_record_accounts_for_every_candidate(fixed_stats, param_stats):
    """Every candidate a search generates is dead, subsumed or inserted
    (the seeds count as generated and inserted), and the evicted minors
    are those inserted and no longer in the final antichain."""
    for name, s in {**fixed_stats, **param_stats}.items():
        assert s.configs_generated == s.dead + s.subsumed + s.inserted, name
        assert s.evicted == s.inserted - s.minors >= 0, name


@pytest.mark.parametrize("name", ["mp.lit", "dekker.lit"])
def test_max_nodes_boundary(name):
    """A cap of exactly configs_generated gives the pinned result and one
    less raises: every candidate, dead ones included, counts toward it."""
    prog = corpus_program(name)
    generated = PINNED_COUNTERS[name][1]
    assert _pinned(backward_reach(prog, prog.target, max_nodes=generated)) == PINNED_COUNTERS[name]
    with pytest.raises(ResourceLimitError):
        backward_reach(prog, prog.target, max_nodes=generated - 1)


def _pinned(s) -> tuple:
    """s in the form test_pinned_counters compares with PINNED_COUNTERS."""
    return (s.verdict, s.configs_generated, s.iterations, s.frontier_peak, s.minors,
            len(s.witness or ()), hashlib.sha256(repr((s.witness, s.chain)).encode()).hexdigest()[:12])


def _module_sizes(module) -> dict:
    """len() of every sized attribute of `module` and of the default
    arguments of its functions, keyed by name."""
    sizes = {}
    for name, value in vars(module).items():
        if isinstance(value, Sized):
            sizes[name] = len(value)
        for i, default in enumerate(getattr(value, "__defaults__", None) or ()):
            if isinstance(default, Sized):
                sizes[f"{name}.__defaults__[{i}]"] = len(default)
    return sizes


def test_searches_share_no_state():
    """Each search owns its tables: lb.lit, mp.lit, then lb.lit again in
    one process give the pinned lb.lit result twice, and no module
    attribute of the engine or the orderings grows; likewise for the
    parameterized engine on mp-param.lit, wrc-param.lit, mp-param.lit
    and for the load-buffer explorer at bound 1 on wrwc.lit, mp.lit,
    wrwc.lit and the modules of the explorer and its search (no
    module-level coder or table in any).  (The one process-wide cache
    left, own_decompose's lru_cache, is not a sized attribute; removing
    it waits for the benchmark to stop probing it.)"""
    modules = (dualmc.backward, dualmc.ordering, dualmc.runs)
    before = [_module_sizes(m) for m in modules]
    results = []
    for name in ("lb.lit", "mp.lit", "lb.lit"):
        prog = corpus_program(name)
        results.append(_pinned(backward_reach(prog, prog.target)))
        assert [_module_sizes(m) for m in modules] == before, name
    assert results[0] == results[2] == PINNED_COUNTERS["lb.lit"]
    assert results[1] == PINNED_COUNTERS["mp.lit"]

    modules = (dualmc.param, dualmc.backward, dualmc.ordering, dualmc.runs)
    before = [_module_sizes(m) for m in modules]
    results = []
    for name in ("mp-param.lit", "wrc-param.lit", "mp-param.lit"):
        results.append(_pinned(param_backward_reach(corpus_program(name))))
        assert [_module_sizes(m) for m in modules] == before, name
    assert results[0] == results[2] == PINNED_COUNTERS["mp-param.lit"]
    assert results[1] == PINNED_COUNTERS["wrc-param.lit"]

    modules = (dualmc.dtso, dualmc.runs)
    before = [_module_sizes(m) for m in modules]
    results = []
    for name in ("wrwc.lit", "mp.lit", "wrwc.lit"):
        prog = corpus_program(name)
        results.append(_explored(dtso_bounded_reach(prog, 1, prog.target)))
        assert [_module_sizes(m) for m in modules] == before, name
    assert results[0] == results[2] == PINNED_EXPLORERS[("wrwc.lit", "dtso", 1)]
    assert results[1] == PINNED_EXPLORERS[("mp.lit", "dtso", 1)]


def test_tso_explorer_shares_no_state():
    """The store-buffer explorer's twin of the explorer half of
    test_searches_share_no_state: wrwc.lit, mp.lit, then wrwc.lit again
    at bound 1 give the pinned results, and no module attribute of the
    explorer or its search grows (no module-level coder or table)."""
    modules = (dualmc.tso, dualmc.runs)
    before = [_module_sizes(m) for m in modules]
    results = []
    for name in ("wrwc.lit", "mp.lit", "wrwc.lit"):
        prog = corpus_program(name)
        results.append(_explored(tso_bounded_reach(prog, 1, prog.target)))
        assert [_module_sizes(m) for m in modules] == before, name
    assert results[0] == results[2] == PINNED_EXPLORERS[("wrwc.lit", "tso", 1)]
    assert results[1] == PINNED_EXPLORERS[("mp.lit", "tso", 1)]


# sha256 prefixes of repr((actions, configs)) of the concrete run
# concretize_witness builds, of repr(actions) of its dtso_to_tso
# translation, and of repr(actions) of tso_to_dtso of that translation,
# per reachable fixed corpus file.  They pin the run layer the way
# PINNED_COUNTERS pins the engines.
PINNED_RUNS = {
    "sb.lit": ("cf0ccdbcc31f", "c4bb25ff6d61", "64009a4755ad"),
    "rwc.lit": ("1548c572672d", "c8e87450c285", "9971410a9c01"),
    "wrwc.lit": ("e068a00d0f03", "3a69795d1ef9", "5cbda12e1984"),
    "dekker-simple.lit": ("1884a053ad83", "5355bd643fc1", "915871cc44a1"),
    "dekker.lit": ("5bba794165a6", "ba40bc397426", "a2931a936191"),
    "peterson.lit": ("c6a985f7571a", "8376b840ba13", "6b37fd2ef15f"),
    "peterson-repeat.lit": ("c6a985f7571a", "8376b840ba13", "6b37fd2ef15f"),
}


def test_pinned_concrete_runs(fixed_stats):
    def digest(x) -> str:
        return hashlib.sha256(repr(x).encode()).hexdigest()[:12]

    for name, expected in PINNED_RUNS.items():
        prog = corpus_program(name)
        dtso_run = concretize_witness(prog, fixed_stats[name])
        tso_run = dtso_to_tso(dtso_run, prog)
        back = tso_to_dtso(tso_run, prog)
        got = (digest((dtso_run.actions, dtso_run.configs)), digest(tso_run.actions), digest(back.actions))
        assert got == expected, name


# (chain length, minors of the chain no longer in the final antichain)
# per reachable corpus file: those minors were evicted by a smaller one
# after they were queued, yet are links of the witness all the same.
EVICTED_CHAIN_MINORS = {
    "sb.lit": (21, 5),
    "rwc.lit": (19, 5),
    "wrwc.lit": (17, 4),
    "dekker-simple.lit": (9, 2),
    "dekker.lit": (9, 2),
    "peterson.lit": (13, 2),
    "peterson-repeat.lit": (13, 2),
    "sb-param.lit": (11, 2),
    "rwc-param.lit": (14, 3),
    "wrwc-param.lit": (16, 3),
}


def test_witness_provenance_survives_eviction(monkeypatch):
    """Each reachable search's chain, of (length, minors gone from the
    final antichain) as pinned, is still a witness: a fixed-size chain
    replays concretely through concretize_witness, and every step of a
    parameterized one is a canonical one-rule predecessor of the next
    minor under the recorded action (check_param_chain).  A chain of a
    reduced search is unwound: its minors' representatives are what
    the antichain holds."""
    antichains = []
    coders = []
    canonicalisers = []
    real = dualmc.backward.fixpoint

    def keep_antichain(minors, *args):
        antichains.append(minors)
        return real(minors, *args)

    def keep(make, made_list):
        def made(*args):
            made_list.append(make(*args))
            return made_list[-1]

        return made

    monkeypatch.setattr(dualmc.backward, "fixpoint", keep_antichain)
    monkeypatch.setattr(dualmc.param, "fixpoint", keep_antichain)
    # both antichains hold codes: each chain minor's, interned by the
    # search, and for a program with symmetries its orbit representative's
    monkeypatch.setattr(dualmc.backward, "backward_coder", keep(dualmc.backward.backward_coder, coders))
    monkeypatch.setattr(dualmc.param, "ParamCoder", keep(dualmc.param.ParamCoder, coders))
    monkeypatch.setattr(dualmc.backward, "Canonicaliser", keep(dualmc.backward.Canonicaliser, canonicalisers))
    monkeypatch.setattr(dualmc.param, "ParamCanonicaliser", keep(dualmc.param.ParamCanonicaliser, canonicalisers))
    for name, expected in EVICTED_CHAIN_MINORS.items():
        prog = corpus_program(name)
        param = name in PARAM_EXPECTED
        canonicalisers.clear()
        s = param_backward_reach(prog) if param else backward_reach(prog, prog.target)
        held = [coders[-1].encode(c) for c in s.chain]
        if canonicalisers:
            held = list(map(canonicalisers[-1].rep, held))
        assert (len(s.chain), sum(c not in antichains[-1] for c in held)) == expected, name
        if not param:
            replay(concretize_witness(prog, s), prog, dtso_successors)
            continue
        check_param_chain(prog, prog.target, s)


# (reachable, bound_exceeded, explored, sha256 prefix of repr(witness
# actions), or of repr(None) without a witness) of both bounded explorers
# on every fixed corpus file at buffer bounds 0 and 1.  The successor
# order fixes every one of these, bound_exceeded included: a search that
# stops at its target never looks at the steps after it.  sb.lit's
# load-buffer space at bound 1 exceeds two million configurations and is
# left out, as the benchmark leaves it out.
PINNED_EXPLORERS = {
    ("dekker-simple.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("dekker-simple.lit", "dtso", 1): (False, True, 158, "dc937b598926"),
    ("dekker-simple.lit", "tso", 0): (False, True, 8, "dc937b598926"),
    ("dekker-simple.lit", "tso", 1): (True, True, 36, "55bdcf156e24"),
    ("dekker.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("dekker.lit", "dtso", 1): (False, True, 2_536, "dc937b598926"),
    ("dekker.lit", "tso", 0): (False, True, 86, "dc937b598926"),
    ("dekker.lit", "tso", 1): (True, True, 69, "55bdcf156e24"),
    ("iriw.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("iriw.lit", "dtso", 1): (False, True, 4_497, "dc937b598926"),
    ("iriw.lit", "tso", 0): (False, True, 15, "dc937b598926"),
    ("iriw.lit", "tso", 1): (False, False, 24, "dc937b598926"),
    ("isa2.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("isa2.lit", "dtso", 1): (False, True, 819, "dc937b598926"),
    ("isa2.lit", "tso", 0): (False, True, 6, "dc937b598926"),
    ("isa2.lit", "tso", 1): (False, True, 9, "dc937b598926"),
    ("lb.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("lb.lit", "dtso", 1): (False, True, 64, "dc937b598926"),
    ("lb.lit", "tso", 0): (False, False, 1, "dc937b598926"),
    ("lb.lit", "tso", 1): (False, False, 1, "dc937b598926"),
    ("mp.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("mp.lit", "dtso", 1): (False, True, 14_521, "dc937b598926"),
    ("mp.lit", "tso", 0): (False, True, 8, "dc937b598926"),
    ("mp.lit", "tso", 1): (False, True, 12, "dc937b598926"),
    ("peterson-repeat.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("peterson-repeat.lit", "dtso", 1): (False, True, 676, "dc937b598926"),
    ("peterson-repeat.lit", "tso", 0): (False, True, 20, "dc937b598926"),
    ("peterson-repeat.lit", "tso", 1): (True, True, 84, "e3be3c51e0dc"),
    ("peterson.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("peterson.lit", "dtso", 1): (False, True, 455, "dc937b598926"),
    ("peterson.lit", "tso", 0): (False, True, 16, "dc937b598926"),
    ("peterson.lit", "tso", 1): (True, True, 49, "e3be3c51e0dc"),
    ("rwc.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("rwc.lit", "dtso", 1): (False, True, 72_215, "dc937b598926"),
    ("rwc.lit", "tso", 0): (False, True, 65, "dc937b598926"),
    ("rwc.lit", "tso", 1): (True, False, 145, "615ff254ece5"),
    ("sb.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("sb.lit", "tso", 0): (False, True, 242, "dc937b598926"),
    ("sb.lit", "tso", 1): (True, False, 3_125, "aa8fafac7e20"),
    ("wrc.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("wrc.lit", "dtso", 1): (False, True, 5_491, "dc937b598926"),
    ("wrc.lit", "tso", 0): (False, True, 7, "dc937b598926"),
    ("wrc.lit", "tso", 1): (False, False, 10, "dc937b598926"),
    ("wrwc.lit", "dtso", 0): (False, True, 1, "dc937b598926"),
    ("wrwc.lit", "dtso", 1): (False, True, 41_917, "dc937b598926"),
    ("wrwc.lit", "tso", 0): (False, True, 20, "dc937b598926"),
    ("wrwc.lit", "tso", 1): (True, True, 50, "71279bf1638e"),
}


def _explored(r) -> tuple:
    """r in the form test_pinned_explorer_results compares with
    PINNED_EXPLORERS."""
    witness = None if r.run is None else r.run.actions
    return (r.reachable, r.bound_exceeded, r.explored, hashlib.sha256(repr(witness).encode()).hexdigest()[:12])


# (expanded, generated) of both bounded explorers on every fixed corpus
# file at buffer bound 1, sb.lit's load-buffer search left out as above:
# the configurations taken off the queue and the successors looked at,
# cut entries not counted.  A search that runs out expands every
# configuration it explores; one that stops at its target expands fewer.
PINNED_EXPLORER_COUNTERS = {
    ("dekker-simple.lit", "dtso"): (158, 450),
    ("dekker-simple.lit", "tso"): (28, 74),
    ("dekker.lit", "dtso"): (2_536, 8_086),
    ("dekker.lit", "tso"): (40, 119),
    ("iriw.lit", "dtso"): (4_497, 23_822),
    ("iriw.lit", "tso"): (24, 34),
    ("isa2.lit", "dtso"): (819, 3_536),
    ("isa2.lit", "tso"): (9, 9),
    ("lb.lit", "dtso"): (64, 288),
    ("lb.lit", "tso"): (1, 0),
    ("mp.lit", "dtso"): (14_521, 86_523),
    ("mp.lit", "tso"): (12, 12),
    ("peterson-repeat.lit", "dtso"): (676, 2_040),
    ("peterson-repeat.lit", "tso"): (69, 181),
    ("peterson.lit", "dtso"): (455, 1_373),
    ("peterson.lit", "tso"): (46, 91),
    ("rwc.lit", "dtso"): (72_215, 489_299),
    ("rwc.lit", "tso"): (141, 317),
    ("sb.lit", "tso"): (3_116, 13_121),
    ("wrc.lit", "dtso"): (5_491, 31_044),
    ("wrc.lit", "tso"): (10, 9),
    ("wrwc.lit", "dtso"): (41_917, 250_431),
    ("wrwc.lit", "tso"): (48, 82),
}


def test_pinned_explorer_results():
    explorers = {"tso": tso_bounded_reach, "dtso": dtso_bounded_reach}
    for (name, semantics, bound), expected in PINNED_EXPLORERS.items():
        prog = corpus_program(name)
        r = explorers[semantics](prog, bound, prog.target)
        assert _explored(r) == expected, (name, semantics, bound)
        assert r.expanded <= r.explored and (r.reachable or r.expanded == r.explored), (name, semantics, bound)
        if bound == 1:
            assert (r.expanded, r.generated) == PINNED_EXPLORER_COUNTERS[name, semantics], (name, semantics)


@pytest.mark.parametrize("semantics", ["tso", "dtso"])
def test_explorer_max_nodes_boundary(semantics):
    """On mp.lit at bound 1, which each explorer runs out, a cap of
    exactly `explored` gives the pinned result and one less raises."""
    reach = {"tso": tso_bounded_reach, "dtso": dtso_bounded_reach}[semantics]
    prog = corpus_program("mp.lit")
    expected = PINNED_EXPLORERS[("mp.lit", semantics, 1)]
    explored = expected[2]
    assert _explored(reach(prog, 1, prog.target, max_nodes=explored)) == expected
    with pytest.raises(ResourceLimitError):
        reach(prog, 1, prog.target, max_nodes=explored - 1)


def test_param_witness_names_acting_process(param_stats):
    """Each step of a parameterized witness names, by position in the
    canonical predecessor the chain stores, a process at the step's
    source state."""
    steps = 0
    for name, s in param_stats.items():
        for i, a in enumerate(s.witness or ()):
            if isinstance(a, Step):
                assert s.chain[i].procs[a.proc][0] == a.t.src, (name, i)
                steps += 1
    assert steps > 0


@pytest.mark.xfail(
    strict=True,
    reason="unsatisfiable as stated: the one-step biconditional requires "
    "strong monotonicity, but the load-buffer system is only run-monotonic; "
    "a probe strictly above a delete-case predecessor may need several "
    "deletes before any single step re-enters the target closure",
)
def test_criterion_3_minpre_oracle_as_stated():
    assert minpre_oracle_mismatches(0, 1000, sharp=False) == 0


@pytest.mark.xfail(strict=True, reason="same strong-monotonicity gap, parameterized")
def test_criterion_3_param_oracle_as_stated():
    assert param_oracle_mismatches(0, 500, sharp=False) == 0


def test_criterion_3_minpre_oracle_corrected():
    """Exact characterization: probe covers minpre({c}) iff it covers
    {c} or an element of its downward closure is a one-step
    predecessor; 1000 fixed-size and 500 parameterized samples."""
    assert minpre_oracle_mismatches(0, 1000, sharp=True) == 0
    assert param_oracle_mismatches(0, 500, sharp=True) == 0
    announce(
        3,
        "minimal-predecessor oracle: literal one-step biconditional is "
        "unsatisfiable (expected failure recorded); exact downward-closure "
        "form passes 1000 + 500 samples with zero mismatches",
    )


def test_criterion_4_semantics_equivalence():
    rng = random.Random(2026)
    cap = 150_000
    done = 0
    checks = 0
    while done < 50:
        prog = random_program(rng, n_procs=2, max_states=4, n_vars=2, n_vals=2)
        try:
            tso_sets = [tso_reachable_empty_buffer_states(prog, k, max_nodes=cap) for k in range(5)]
            dtso_sets = [dtso_reachable_empty_buffer_states(prog, k, max_nodes=cap) for k in range(5)]
        except ResourceLimitError:
            continue
        stable = next(
            (k + 1 for k in range(4) if tso_sets[k] == tso_sets[k + 1] and dtso_sets[k] == dtso_sets[k + 1]),
            None,
        )
        if stable is None:
            continue
        assert tso_sets[stable] == dtso_sets[stable], prog
        for target in all_global_states(prog):
            verdict = backward_reach(prog, target).verdict
            assert (verdict == "Reachable") == (target in dtso_sets[stable]), (prog, target)
            checks += 1
        done += 1
    announce(4, f"both semantics and the backward engine agree on {done} random programs ({checks} targets)")


def test_criterion_5_monotonicity():
    rng = random.Random(77)
    checked = 0
    while checked < 500:
        prog = random_program(rng, n_procs=2, max_states=3)
        c1 = random_dtso_config(rng, prog, max_buf=2)
        succs = dtso_successors(c1, prog)
        if not succs:
            continue
        action, c2 = rng.choice(succs)
        c3 = pad_with_plains(rng, prog, c1, 2)
        assert config_leq(c1, c3)
        p = action.proc
        probe = c3
        found = False
        for _ in range(len(c3.buffers[p]) + 1):
            succs3 = dict(dtso_successors(probe, prog))
            if action in succs3 and config_leq(c2, succs3[action]):
                found = True
                break
            if Delete(p) not in succs3:
                break
            probe = succs3[Delete(p)]
        assert found, (prog, c1, action, c3)
        checked += 1
    announce(5, "500 sampled steps re-fire above any larger configuration within |buffer|+1 moves")


def test_criterion_6_translation_tables(write_read):
    from dualmc import compute_index_view, compute_match_label_pos, compute_phase_configs
    from dualmc import Propagate, Step, TsoConfig, Update
    from dualmc.model import Op, Transition

    run = example_dtso_run(write_read)
    tables = compute_index_view(run, write_read)
    assert [row[0] for row in tables.index] == [(), (1,), (1, 1), (1,), (1,), ()]
    assert [row[0] for row in tables.view] == [0, 1, 1, 1, 1, 1]

    sched = compute_phase_configs(run, write_read)
    assert sched.alpha[(0, 0, 0)] == 0
    assert sched.alpha[(1, 0, 0)] == 1
    assert sched.alpha[(1, 0, 1)] == 4
    assert sched.sharp[(0, 0)] == 0 and sched.sharp[(1, 0)] == 1
    assert sched.configs[(0, 0, 0)] == TsoConfig(("q0",), ((),), (0, 0))
    assert sched.configs[(1, 0, 0)] == TsoConfig(("q1",), ((),), (1, 0))
    assert sched.configs[(1, 0, 1)] == TsoConfig(("q2",), ((),), (1, 0))

    W = Transition("q0", Op("w", "x", 1), "q1")
    R = Transition("q1", Op("r", "y", 0), "q2")
    out = dtso_to_tso(run, write_read)
    assert out.actions == [Step(0, W), Update(0), Step(0, R)]

    tso_run = example_tso_run(write_read)
    t2 = compute_match_label_pos(tso_run, write_read)
    assert t2.match == {2: 1}
    assert t2.label[0][0] is None
    assert t2.label[1][0] == ("x", 1, True)
    assert t2.label[2][0] == ("y", 0, False)
    assert t2.pos[(-1, 0)] == 0 and t2.pos[(0, 0)] == 1

    back = tso_to_dtso(tso_run, write_read)
    assert back.actions == [Step(0, W), Propagate(0, "y"), Delete(0), Step(0, R), Delete(0)]
    announce(6, "index/view, scheduling, match/label/pos, and both example runs match exactly")


def test_criterion_7_translation_replay(fixed_stats):
    replayed = 0
    for name, safe in FIXED_EXPECTED.items():
        if safe:
            continue
        prog = corpus_program(name)
        stats = fixed_stats[name]
        dtso_run = concretize_witness(prog, stats)
        replay(dtso_run, prog, dtso_successors)
        out = dtso_to_tso(dtso_run, prog)
        replay(out, prog, tso_successors)
        assert out.final.states == dtso_run.final.states
        replayed += 1

        bound = WITNESS_BOUNDS[name]
        forward = tso_bounded_reach(prog, bound, prog.target)
        assert forward.reachable, name
        back = tso_to_dtso(forward.run, prog)
        replay(back, prog, dtso_successors)
        assert back.final.states == forward.run.final.states
        replayed += 1
    announce(7, f"{replayed} corpus witness translations replay with matching final states")


def test_criterion_8_ordering_laws(sb2):
    rng = random.Random(99)
    msgs = [(x, v, own) for x in "xy" for v in (0, 1) for own in (False, True)]

    def rand_word(max_len=6):
        return tuple(rng.choice(msgs) for _ in range(rng.randint(0, max_len)))

    def brute_subword(u, v):
        if not u:
            return True
        if not v:
            return False
        return (u[0] == v[0] and brute_subword(u[1:], v[1:])) or brute_subword(u, v[1:])

    for _ in range(1000):
        u, v = rand_word(4), rand_word(6)
        assert subword(u, v) == brute_subword(u, v)
        assert subword(u, u)

    for _ in range(1000):
        w = rand_word()
        d = own_decompose(w)
        assert rebuild(d) == w
        assert word_leq(w, w)

    for _ in range(1000):
        a, b, c = rand_word(4), rand_word(5), rand_word(6)
        if word_leq(a, b) and word_leq(b, c):
            assert word_leq(a, c)

    from dualmc import ParamConfig

    def rand_pconfig(n_max):
        procs = tuple(
            (rng.choice("ab"), rand_word(2)) for _ in range(rng.randint(0, n_max))
        )
        return ParamConfig(procs, (rng.choice((0, 1)),))

    for _ in range(1000):
        a, b = rand_pconfig(3), rand_pconfig(4)
        assert param_leq(a, b) == param_leq_oracle(a, b)
        assert param_leq(a, a)
    announce(8, "subword/word/config/param ordering laws hold on 1000 cases per suite")
