import random

import pytest

from dualmc import (
    ConcurrentProgram,
    ParamProgram,
    ParseError,
    ResourceLimitError,
    backward_reach,
    dtso_bounded_reach,
    format_program,
    initial_dtso_config,
    initial_tso_config,
    instantiate,
    param_backward_reach,
    parse_program,
    tso_bounded_reach,
    validate,
)
from dualmc.model import Automaton, Op, Transition

from conftest import SB2_TEXT, corpus_program, random_program


def test_parse_sb2():
    prog = parse_program(SB2_TEXT)
    assert isinstance(prog, ConcurrentProgram)
    assert prog.vars == ("x", "y")
    assert prog.values == (0, 1, 2)
    assert len(prog.processes) == 2
    assert prog.processes[0].transitions[0].op == Op("w", "x", 2)
    assert prog.target == ("q2", "q3")


def test_parse_minimal_single_process():
    prog = parse_program("vars x\nvalues 0\nprocess P\n init q0\nend\ntarget P=q0\n")
    assert isinstance(prog, ConcurrentProgram)
    assert prog.processes[0].transitions == ()
    assert prog.target == ("q0",)


def test_domain_must_contain_zero():
    with pytest.raises(ParseError, match="domain must contain 0"):
        parse_program("vars x\nvalues 1 2\nprocess P\n init q0\nend\ntarget P=q0\n")


def test_neither_target_rejected():
    with pytest.raises(ParseError, match="neither"):
        parse_program("vars x\nvalues 0\nprocess P\n init q0\nend\n")


def test_both_targets_rejected():
    text = "vars x\nvalues 0\nprocess P\n init q0\nend\ntarget P=q0\nptarget q0\n"
    with pytest.raises(ParseError, match="duplicate target"):
        parse_program(text)


def test_duplicate_process_name():
    text = (
        "vars x\nvalues 0\n"
        "process P\n init q0\nend\nprocess P\n init q0\nend\n"
        "target P=q0\n"
    )
    with pytest.raises(ParseError, match="duplicate process name"):
        parse_program(text)


def test_undeclared_value_rejected():
    text = "vars x\nvalues 0\nprocess P\n init q0\n trans q0 q1 w x 7\nend\ntarget P=q1\n"
    with pytest.raises(ParseError, match="undeclared value"):
        parse_program(text)


def test_syntax_error_reports_line():
    try:
        parse_program("vars x\nvalues 0\nbogus line here\n")
    except ParseError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a ParseError")


def test_ptarget_requires_single_process():
    text = (
        "vars x\nvalues 0\n"
        "process P\n init q0\nend\nprocess Q\n init q0\nend\n"
        "ptarget q0\n"
    )
    with pytest.raises(ParseError, match="exactly one process"):
        parse_program(text)


def test_parse_param_mode():
    prog = corpus_program("sb-param.lit")
    assert isinstance(prog, ParamProgram)
    assert prog.target == ("a2", "b2")
    assert "a1" in prog.template.states


def test_implicit_state_declaration_is_valid():
    auto = Automaton("P", "q0", (Transition("q0", Op("nop"), "q9"),))
    prog = ConcurrentProgram(("x",), (0,), (auto,), ("q9",))
    assert validate(prog) == []
    assert auto.states == {"q0", "q9"}


def test_validate_flags_unknown_target_state():
    auto = Automaton("P", "q0", ())
    prog = ConcurrentProgram(("x",), (0,), (auto,), ("nowhere",))
    diags = validate(prog)
    assert len(diags) == 1
    assert "unknown state" in diags[0]


def test_format_parse_roundtrip(sb2):
    assert parse_program(format_program(sb2)) == sb2
    param = corpus_program("mp-param.lit")
    assert parse_program(format_program(param)) == param


def test_initial_tso_config(sb2):
    c = initial_tso_config(sb2)
    assert c.states == ("q0", "q0")
    assert c.buffers == ((), ())
    assert c.mem == (0, 0)
    assert initial_tso_config(sb2) == c  # pure


def test_initial_dtso_config_matches_tso_shape(sb2):
    c = initial_dtso_config(sb2)
    t = initial_tso_config(sb2)
    assert c.states == t.states and c.mem == t.mem
    assert c.buffers == ((), ())


def test_initial_config_is_minimal(sb2):
    # nothing distinct sits below the initial configuration: the ordering
    # fixes states and memory and only the empty word embeds into ()
    from dualmc import config_leq

    init = initial_dtso_config(sb2)
    candidates = [
        initial_dtso_config(sb2),
        initial_dtso_config(sb2)._replace(mem=(1, 0)),
        initial_dtso_config(sb2)._replace(states=("q1", "q0")),
    ]
    below = [c for c in candidates if config_leq(c, init)]
    assert below == [init]


def test_instantiate_param_program():
    param = corpus_program("sb-param.lit")
    inst = instantiate(param, 3)
    assert len(inst.processes) == 3
    assert all(a.init == param.template.init for a in inst.processes)
    c = initial_dtso_config(inst)
    assert c.states == ("q0", "q0", "q0") and c.mem == (0, 0)


def test_instantiate_rejects_an_unknown_target_state():
    """An instance target naming a state the template lacks raises
    ValueError where the instance is made, with the message validate
    would give for the instance; a known one passes validate."""
    param = corpus_program("sb-param.lit")
    with pytest.raises(ValueError, match="^target names unknown state 'nope' of process 'proc1'$"):
        instantiate(param, 2, ("nope", "nope"))
    with pytest.raises(ValueError, match="^target names unknown state 'zz' of process 'proc2'$"):
        instantiate(param, 2, ["a2", "zz"])
    assert validate(instantiate(param, 2, ["a2", "b2"])) == []


@pytest.mark.parametrize("target", [(), ("a2",), ("a2", "b2", "a2")])
def test_instantiate_rejects_a_target_of_the_wrong_length(target):
    param = corpus_program("sb-param.lit")
    with pytest.raises(ValueError, match="^target must name one state per process$"):
        instantiate(param, 2, target)


FIXED_ENGINES = {
    "backward": lambda p, target: backward_reach(p, target, max_nodes=10_000),
    "tso": lambda p, target: tso_bounded_reach(p, 1, target),
    "dtso": lambda p, target: dtso_bounded_reach(p, 1, target),
}


@pytest.mark.parametrize("engine", sorted(FIXED_ENGINES))
@pytest.mark.parametrize(
    "target, message",
    [
        (("CS",), "target must name one state per process"),
        (("CS", "CS", "zz"), "target must name one state per process"),
        (("nope", "nope"), "target names unknown state 'nope' of process 'p0'"),
        (("CS", "nope"), "target names unknown state 'nope' of process 'p1'"),
    ],
)
def test_fixed_engines_reject_a_malformed_target(engine, target, message):
    """A target that would fail validate as the program's own raises
    ValueError with validate's first message in every fixed-mode
    engine.  Unchecked, too short a target is encoded into the buffer
    fields and reads as unreachable, and too long a one or an unknown
    state raises IndexError or KeyError."""
    prog = corpus_program("dekker-simple.lit")
    with pytest.raises(ValueError) as err:
        FIXED_ENGINES[engine](prog, target)
    assert str(err.value) == message
    FIXED_ENGINES[engine](prog, prog.target)  # the program's own is accepted


def test_param_engine_rejects_unknown_target_states():
    """Unknown template states raise ValueError, not a KeyError from
    the dominance fields; an empty target stays valid (the zero-process
    configuration covers the initial one)."""
    prog = corpus_program("sb-param.lit")
    with pytest.raises(ValueError, match="ptarget names unknown state 'nope'"):
        param_backward_reach(prog, ("nope",))
    assert param_backward_reach(prog, ()).verdict == "Reachable"
    assert validate(ParamProgram(prog.vars, prog.values, prog.template, ())) == []


@pytest.mark.parametrize("n", [0, -1])
def test_instantiate_rejects_fewer_than_one_copy(n):
    """No instance has fewer than one process, as no parsed program
    does: unchecked, the zero-process instance sent backward_reach
    into an IndexError while both explorers answered reachable."""
    with pytest.raises(ValueError, match="^program declares no process$"):
        instantiate(corpus_program("sb-param.lit"), n, ())


def _outcome(search) -> str | bool | None:
    """search()'s verdict as a bool, or the ValueError's message, or
    "limit" at a ResourceLimitError; any other exception fails."""
    try:
        result = search()
    except ValueError as err:
        return str(err)
    except ResourceLimitError:
        return "limit"
    if hasattr(result, "verdict"):
        return result.verdict == "Reachable"
    # an explorer's complete safe verdict is exact; a bound-relative one says nothing
    return True if result.reachable else None if result.bound_exceeded else False


def _with_unknown_variable(auto: Automaton) -> Automaton:
    """auto with one more transition, a write of the undeclared "zz"."""
    return Automaton(auto.name, auto.init, auto.transitions + (Transition(auto.init, Op("w", "zz", 0), auto.init),))


def _mutants(prog: ConcurrentProgram) -> list:
    """prog with no process, with a transition naming an undeclared
    variable, and with its first automaton emptied of transitions (its
    target there its initial state), each as (the ValueError message
    the engines must raise, or None, program)."""
    first = prog.processes[0]
    unknown = _with_unknown_variable(first)
    empty = Automaton(first.name, first.init, ())
    rest, target = prog.processes[1:], prog.target
    return [
        ("program declares no process", ConcurrentProgram(prog.vars, prog.values, (), ())),
        (
            f"undeclared variable 'zz' in process {first.name!r}",
            ConcurrentProgram(prog.vars, prog.values, (unknown,) + rest, target),
        ),
        (None, ConcurrentProgram(prog.vars, prog.values, (empty,) + rest, (first.init,) + target[1:])),
    ]


def test_library_built_programs_get_a_verdict_or_a_value_error():
    """Programs built through the library, not the parser: instances of
    random templates at n = 0..3 with random targets, and each instance
    with no process, with an undeclared variable and with an automaton
    emptied.  Every engine gives a verdict or raises ValueError or
    ResourceLimitError, a malformed program raises validate's message
    in every fixed-mode engine, and the explorers' verdicts are the
    exact search's wherever both are conclusive."""
    rng = random.Random(15)
    verdicts = rejected = 0
    for _ in range(25):
        template = random_program(rng, n_procs=1, max_states=3, n_vars=2, n_vals=1).processes[0]
        states = sorted(template.states)
        ptarget = tuple(rng.choice(states) for _ in range(rng.randint(0, 2)))
        param = ParamProgram(("x", "y"), (0, 1), template, ptarget)
        assert _outcome(lambda: param_backward_reach(param, ptarget, max_nodes=3_000)) in (True, False, "limit")
        unknown = ParamProgram(param.vars, param.values, _with_unknown_variable(template), ptarget)
        message = f"undeclared variable 'zz' in process {template.name!r}"
        assert _outcome(lambda: param_backward_reach(unknown, ptarget)) == message
        for n in range(4):
            target = tuple(rng.choice(states) for _ in range(n))
            if n == 0:
                with pytest.raises(ValueError, match="^program declares no process$"):
                    instantiate(param, n, target)
                continue
            inst = instantiate(param, n, target)
            for message, prog in [(None, inst), *_mutants(inst)]:
                exact = _outcome(lambda: backward_reach(prog, prog.target, max_nodes=3_000))
                bounded = [
                    _outcome(lambda: explore(prog, 1, prog.target, max_nodes=3_000))
                    for explore in (tso_bounded_reach, dtso_bounded_reach)
                ]
                if message:
                    assert exact == bounded[0] == bounded[1] == message
                    rejected += 1
                    continue
                assert exact in (True, False, "limit"), exact
                for verdict in bounded:
                    assert verdict in (True, False, None, "limit"), verdict
                    if exact != "limit" and verdict in (True, False):
                        assert verdict == exact, (prog, verdict, exact)
                verdicts += 1
    assert verdicts > 100 and rejected > 100
