import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import dualmc
from dualmc import (
    MinorSet,
    Run,
    Step,
    Update,
    backward_reach,
    concretize_witness,
    format_program,
    initial_tso_config,
    parse_program,
    tso_successors,
)
from dualmc.cli import SEARCH_COUNTERS, Report, emit_report, run
from dualmc.model import Op
from dualmc.runs import drive, format_run, parse_action, parse_run_text
from dualmc.translate import SEMANTICS

from conftest import CORPUS, corpus_program
from test_acceptance import PINNED_EXPLORER_COUNTERS, PINNED_EXPLORERS
from test_param import wide_writer


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_sb_is_unsafe(capsys):
    code, out, _ = invoke(capsys, "check", str(CORPUS / "sb.lit"), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "reachable"
    assert payload["mode"] == "check"
    assert "witness" not in payload


def test_check_lb_is_safe(capsys):
    code, out, _ = invoke(capsys, "check", str(CORPUS / "lb.lit"), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "unreachable"


def test_param_sb_is_unsafe(capsys):
    code, out, _ = invoke(capsys, "param", str(CORPUS / "sb-param.lit"))
    assert code == 1
    assert "verdict=reachable" in out


def test_witness_flag_adds_actions(capsys):
    code, out, _ = invoke(
        capsys, "check", str(CORPUS / "dekker-simple.lit"), "--format", "json", "--witness"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["witness"], "a reachable check with --witness must carry actions"


def test_explore_modes(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "explore-tso", str(CORPUS / "dekker-simple.lit"), "--buffer-bound", "1"
    )
    assert code == 1 and "verdict=reachable" in out
    code, out, _ = invoke(
        capsys, "explore-dtso", str(CORPUS / "lb.lit"), "--buffer-bound", "2"
    )
    assert code == 0 and "verdict=" in out


def test_explore_reports_real_counters(capsys):
    """The explorers report the successors generated and the
    configurations expanded, not the explored count twice."""
    for semantics, name in (("tso", "rwc.lit"), ("dtso", "lb.lit")):
        argv = (f"explore-{semantics}", str(CORPUS / name), "--buffer-bound", "1", "--format", "json")
        _c, out, _ = invoke(capsys, *argv)
        payload = json.loads(out)
        expanded, generated = PINNED_EXPLORER_COUNTERS[name, semantics]
        assert (payload["iterations"], payload["configs_generated"]) == (expanded, generated), semantics


def test_explore_bound_exceeded_label(capsys, tmp_path):
    # one process that can stack two writes; an impossible target at
    # bound 1 makes the pruning observable
    prog = tmp_path / "two-writes.lit"
    prog.write_text(
        "vars x\nvalues 0 1\n"
        "process P\n init q0\n trans q0 q1 w x 1\n trans q1 q2 w x 1\n"
        " trans q2 q3 r x 0\nend\ntarget P=q3\n"
    )
    code, out, _ = invoke(capsys, "explore-dtso", str(prog), "--buffer-bound", "1")
    assert code == 0
    assert "verdict=bound-exceeded" in out


def test_usage_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.lit"
    bad.write_text("vars x\nvalues 1\nprocess P\n init q0\nend\ntarget P=q0\n")
    code, _out, err = invoke(capsys, "check", str(bad))
    assert code == 2
    assert "domain must contain 0" in err
    code, _out, err = invoke(capsys, "param", str(CORPUS / "sb.lit"))
    assert code == 2


def _bad_input(tmp_path, case):
    """argv for one bad-input case; files are written under tmp_path."""
    shutil.copy(CORPUS / "dekker-simple.lit", tmp_path / "dekker-simple.lit")
    header = "program dekker-simple.lit\nsemantics tso\n"
    latin1 = "# caf\xe9\n".encode("latin-1")
    if case == "missing-run-file":
        return ["translate", str(tmp_path / "absent.run"), "--from", "tso"]
    if case == "non-utf8-program":
        (tmp_path / "bad.lit").write_bytes(latin1 + (CORPUS / "lb.lit").read_bytes())
        return ["check", str(tmp_path / "bad.lit")]
    if case == "non-utf8-run-file":
        (tmp_path / "bad.run").write_bytes(header.encode() + latin1)
        return ["translate", str(tmp_path / "bad.run"), "--from", "tso"]
    if case == "non-integer-action-value":
        (tmp_path / "bad.run").write_text(header + "p0 w f0 one L1\n")
        return ["translate", str(tmp_path / "bad.run"), "--from", "tso"]
    if case == "non-ascii-digit-value":
        (tmp_path / "bad.lit").write_text("vars x\nvalues 0 \u00b2\nprocess P\n init q0\nend\ntarget P=q0\n")
        return ["check", str(tmp_path / "bad.lit")]
    if case == "negative-bound-tso":
        return ["explore-tso", str(CORPUS / "lb.lit"), "--buffer-bound", "-1"]
    if case == "negative-bound-dtso":
        return ["explore-dtso", str(CORPUS / "lb.lit"), "--buffer-bound", "-1"]
    if case == "negative-max-nodes":
        return ["check", str(CORPUS / "lb.lit"), "--max-nodes", "-5"]
    if case == "nul-byte-program-label":
        (tmp_path / "bad.run").write_text("program sb\x00.lit\nsemantics tso\n")
        return ["translate", str(tmp_path / "bad.run"), "--from", "tso"]
    if case == "unknown-mode":
        return ["frob", str(CORPUS / "lb.lit")]
    if case == "empty-ptarget":
        (tmp_path / "bad.lit").write_text("vars x\nvalues 0 1\nprocess P\n init q0\nend\nptarget\n")
        return ["param", str(tmp_path / "bad.lit")]
    if case == "missing-buffer-bound":
        return ["explore-tso", str(CORPUS / "lb.lit")]
    if case == "translate-ignored-option":
        (tmp_path / "c.run").write_text("program dekker-simple.lit\nsemantics dtso\n")
        return ["translate", str(tmp_path / "c.run"), "--from", "dtso", "--witness", "--format", "json",
                "--max-nodes", "1"]
    action = {"action-wrong-arity": "p0 r f0 L1", "action-unknown-op": "p0 frob L1", "action-no-destination": "p0 nop"}
    if case in action:
        (tmp_path / "bad.run").write_text(header + action[case] + "\n")
        return ["translate", str(tmp_path / "bad.run"), "--from", "tso"]
    raise ValueError(case)


@pytest.mark.parametrize(
    "case",
    [
        "missing-run-file",
        "non-utf8-program",
        "non-utf8-run-file",
        "non-integer-action-value",
        "non-ascii-digit-value",
        "nul-byte-program-label",
        "negative-bound-tso",
        "negative-bound-dtso",
        "negative-max-nodes",
        "unknown-mode",
        "missing-buffer-bound",
        "empty-ptarget",
        "translate-ignored-option",
        "action-wrong-arity",
        "action-unknown-op",
        "action-no-destination",
    ],
)
def test_bad_input_exits_2(capsys, tmp_path, case):
    code, out, err = invoke(capsys, *_bad_input(tmp_path, case))
    assert code == 2, err
    assert out == ""
    assert err.startswith("dualmc: ") and err.count("\n") == 1, err
    assert "usage:" not in err and "Traceback" not in err


def test_python_m_dualmc_keeps_the_exit_codes(tmp_path):
    """`python -m dualmc` is the command line, exit codes included: 0
    safe, 1 unsafe, 2 with one `dualmc:` line for a bad file."""
    src = os.path.dirname(os.path.dirname(dualmc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", "dualmc", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=600,
        )

    assert python_m("check", str(CORPUS / "lb.lit")).returncode == 0
    assert python_m("check", str(CORPUS / "sb.lit")).returncode == 1
    bad = tmp_path / "bad.lit"
    bad.write_text("vars x\nprocess p\n  nonsense\n")
    done = python_m("check", str(bad))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("dualmc: ") and done.stderr.count("\n") == 1, done.stderr


def test_help_exits_0(capsys):
    code, out, _err = invoke(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: dualmc")


def test_resource_limit_exit_3(capsys):
    code, _out, err = invoke(capsys, "check", str(CORPUS / "sb.lit"), "--max-nodes", "10")
    assert code == 3
    assert "exceeded" in err


@pytest.mark.parametrize(
    "argv, engine, error, code, line",
    [
        (("check", "sb.lit"), "backward.backward_reach", MemoryError(), 3, "dualmc: out of memory"),
        (
            ("param", "sb-param.lit"),
            "param.param_backward_reach",
            RecursionError("maximum recursion depth exceeded"),
            4,
            "dualmc: internal error: RecursionError: maximum recursion depth exceeded",
        ),
        (
            ("explore-dtso", "dekker-simple.lit", "--buffer-bound", "1"),
            "dtso.dtso_bounded_reach",
            KeyError("q9"),
            4,
            "dualmc: internal error: KeyError: 'q9'",
        ),
    ],
)
def test_engine_errors_never_exit_1(capsys, monkeypatch, argv, engine, error, code, line):
    """An error escaping the engine, on a file whose verdict is
    reachable, exits 3 if it is a MemoryError and 4 otherwise, with one
    `dualmc:` line and no traceback: never 1, the "unsafe" code."""
    module, name = engine.split(".")

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(importlib.import_module(f"dualmc.{module}"), name, fail)
    mode, file, *rest = argv
    got, out, err = invoke(capsys, mode, str(CORPUS / file), *rest)
    assert (got, out, err) == (code, "", line + "\n")


@pytest.mark.parametrize("mode", ["check", "param"])
def test_max_nodes_caps_the_seeds(capsys, monkeypatch, tmp_path, mode):
    """The seeds, one per writable memory valuation (here 2**16, as the
    program writes 1 to each variable), count against --max-nodes
    before any of them is built."""
    inserts = 0
    insert = MinorSet.insert

    def counting_insert(minors, elem):
        nonlocal inserts
        inserts += 1
        return insert(minors, elem)

    monkeypatch.setattr(MinorSet, "insert", counting_insert)
    names = " ".join(f"x{i}" for i in range(16))
    target = "target P=q1" if mode == "check" else "ptarget q1"
    writes = "".join(f" trans q0 q0 w x{i} 1\n" for i in range(16))
    (tmp_path / "wide.lit").write_text(
        f"vars {names}\nvalues 0 1\nprocess P\n init q0\n{writes} trans q0 q1 nop\nend\n{target}\n"
    )
    code, _out, err = invoke(capsys, mode, str(tmp_path / "wide.lit"), "--max-nodes", "10")
    assert code == 3 and "exceeded" in err
    assert inserts <= 11


def test_fresh_writer_words_exit_3(capsys, tmp_path):
    """A template whose seeds fit --max-nodes but whose fresh writers
    hold about 1.3e9 words exits 3 with one `dualmc:` line."""
    (tmp_path / "wide.lit").write_text(wide_writer(12))
    code, _out, err = invoke(capsys, "param", str(tmp_path / "wide.lit"), "--max-nodes", "10000")
    assert code == 3
    assert err.startswith("dualmc: ") and "exceeded" in err and err.count("\n") == 1, err


def test_reports_deterministic_except_time(capsys):
    def strip_time(payload):
        payload = json.loads(payload)
        payload.pop("time_ms")
        return payload

    _c, out1, _ = invoke(capsys, "check", str(CORPUS / "peterson.lit"), "--format", "json", "--witness")
    _c, out2, _ = invoke(capsys, "check", str(CORPUS / "peterson.lit"), "--format", "json", "--witness")
    assert strip_time(out1) == strip_time(out2)


def test_search_counters_in_json_are_deterministic(capsys):
    """check and param print the search's stats record in JSON,
    identical across two runs of every corpus file; the text line does
    not carry them."""
    for path in sorted(CORPUS.glob("*.lit")):
        mode = "param" if path.name.endswith("-param.lit") else "check"
        runs = []
        for _ in range(2):
            _c, out, _ = invoke(capsys, mode, str(path), "--format", "json")
            payload = json.loads(out)
            runs.append({name: payload[name] for name in SEARCH_COUNTERS})
        assert runs[0] == runs[1], path.name
        assert runs[0]["evicted"] == runs[0]["inserted"] - runs[0]["minors"], path.name
    _c, out, _ = invoke(capsys, "check", str(CORPUS / "lb.lit"))
    assert not any(f"{name}=" in out for name in SEARCH_COUNTERS)


def test_emit_report_shapes():
    report = Report("unreachable", "check", 5, 2, 7, None)
    assert "witness" not in json.loads(emit_report(report, "json"))
    text = emit_report(report, "text")
    assert text == "mode=check verdict=unreachable configs_generated=5 iterations=2 time_ms=7"


def test_translate_mode_round_trip(capsys, tmp_path):
    shutil.copy(CORPUS / "dekker-simple.lit", tmp_path / "dekker-simple.lit")
    prog = corpus_program("dekker-simple.lit")
    c = initial_tso_config(prog)
    actions = []
    configs = [c]
    from dualmc.model import Op, Transition

    script = [
        Step(0, Transition("L0", Op("w", "f0", 1), "L1")),
        Step(1, Transition("L0", Op("w", "f1", 1), "L1")),
        Step(0, Transition("L1", Op("r", "f1", 0), "CS")),
        Step(1, Transition("L1", Op("r", "f0", 0), "CS")),
        Update(0),
        Update(1),
    ]
    for a in script:
        configs.append(dict(tso_successors(configs[-1], prog))[a])
        actions.append(a)
    run_obj = Run("tso", configs, actions)
    run_file = tmp_path / "witness.run"
    run_file.write_text(format_run(run_obj, prog, "dekker-simple.lit"))

    code = run(["translate", str(run_file), "--from", "tso"])
    out = capsys.readouterr().out
    assert code == 0
    label, semantics, lines = parse_run_text(out)
    assert label == "dekker-simple.lit" and semantics == "dtso"
    assert any(line.endswith("delete") for line in lines)


def test_exit_code_contract_across_corpus(capsys):
    # every corpus file maps safe -> 0 and unsafe -> 1; the slow 5-process
    # store-buffering case is exercised by test_check_sb_is_unsafe
    expectations = {
        "lb.lit": 0, "wrc.lit": 0, "isa2.lit": 0, "iriw.lit": 0, "mp.lit": 0,
        "rwc.lit": 1, "wrwc.lit": 1, "dekker-simple.lit": 1, "dekker.lit": 1,
        "peterson.lit": 1, "peterson-repeat.lit": 1,
    }
    for name, code in expectations.items():
        got, _out, _err = invoke(capsys, "check", str(CORPUS / name))
        assert got == code, name
    param_expectations = {
        "sb-param.lit": 1, "rwc-param.lit": 1, "wrwc-param.lit": 1,
        "lb-param.lit": 0, "mp-param.lit": 0, "wrc-param.lit": 0,
        "isa2-param.lit": 0, "iriw-param.lit": 0,
    }
    for name, code in param_expectations.items():
        got, _out, _err = invoke(capsys, "param", str(CORPUS / name))
        assert got == code, name


def test_action_parse_format_round_trip(sb2):
    c = initial_tso_config(sb2)
    from dualmc.runs import action_str

    step = Step(0, sb2.processes[0].transitions[0])
    text = action_str(step, sb2.processes[0].name)
    assert parse_action(text, sb2, lambda p: c.states[p]) == step
    upd = action_str(Update(1), sb2.processes[1].name)
    assert parse_action(upd, sb2, lambda p: c.states[p]) == Update(1)


def test_explore_json_reports_explored_and_bound_exceeded(capsys):
    """The explorers' JSON report also carries the explored count and
    the bound_exceeded flag; the text line does not."""
    for semantics, name in (("tso", "rwc.lit"), ("dtso", "lb.lit")):
        argv = (f"explore-{semantics}", str(CORPUS / name), "--buffer-bound", "1")
        _c, out, _ = invoke(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        _reachable, bound_exceeded, explored, _witness = PINNED_EXPLORERS[name, semantics, 1]
        assert (payload["explored"], payload["bound_exceeded"]) == (explored, bound_exceeded), semantics
        _c, out, _ = invoke(capsys, *argv)
        assert "explored=" not in out and "bound_exceeded=" not in out


def test_text_witness_line(capsys):
    """With --witness, the text report's second line is `witness=`
    followed by the JSON report's actions, joined by `;`."""
    argv = ("check", str(CORPUS / "dekker-simple.lit"), "--witness")
    code, out, _ = invoke(capsys, *argv)
    assert code == 1
    first, second = out.splitlines()
    assert first.startswith("mode=check verdict=reachable ")
    _c, json_out, _ = invoke(capsys, *argv, "--format", "json")
    assert second == "witness=" + ";".join(json.loads(json_out)["witness"])


THREE_WRITERS = "vars x\nvalues 0 1\nprocess proc\n  init q0\n  trans q0 q1 w x 1\nend\nptarget q1 q1 q1\n"


def test_param_witness_labels_are_positions(capsys, tmp_path):
    """In a param witness, #k is the acting process's position in the
    minor the step is taken from (chain[i]), which keeps its processes
    sorted: each writer is #1 at q0 and, holding its write, sorts last
    among the three, so it deletes as #3."""
    path = tmp_path / "writers.lit"
    path.write_text(THREE_WRITERS)
    code, out, _ = invoke(capsys, "param", str(path), "--witness")
    assert code == 1
    assert out.splitlines()[1] == "witness=" + ";".join(["#1 w x 1 q1", "#3 delete"] * 3)
    stats = dualmc.param_backward_reach(parse_program(THREE_WRITERS))
    written = ("q1", (("x", 1, True),))
    for i, action in enumerate(stats.witness):
        k = action.proc
        if isinstance(action, Step):
            assert stats.chain[i].procs[k] == ("q0", ()) and stats.chain[i + 1].procs[2] == written
        else:
            assert stats.chain[i].procs[k] == written


def test_explore_safe_within_bound(capsys, tmp_path):
    """A program without writes never fills a store buffer: an
    unreachable target is safe within the bound, not bound-exceeded."""
    prog = tmp_path / "no-writes.lit"
    prog.write_text("vars x\nvalues 0 1\nprocess P\n init q0\n trans q0 q1 r x 1\nend\ntarget P=q1\n")
    code, out, _ = invoke(capsys, "explore-tso", str(prog), "--buffer-bound", "1")
    assert code == 0 and "verdict=safe-within-bound" in out
    code, out, _ = invoke(capsys, "explore-tso", str(prog), "--buffer-bound", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "safe-within-bound"
    assert (payload["explored"], payload["bound_exceeded"]) == (1, False)


def _driven(text: str, prog) -> tuple[str, Run]:
    """A run file's semantics and its run, built by runs.drive, which
    raises at the first action that is not enabled."""
    _label, semantics, lines = parse_run_text(text)
    initial, successors = SEMANTICS[semantics]
    states = list(initial(prog).states)
    actions = []
    for line in lines:
        action = parse_action(line, prog, states.__getitem__)
        if isinstance(action, Step):
            states[action.proc] = action.t.dst
        actions.append(action)
    return semantics, drive(semantics, initial(prog), actions, prog, successors)


def test_translate_from_dtso_round_trip(capsys, tmp_path):
    """A concretized dekker witness, written as a run file, translates
    dtso -> tso -> dtso through the command line; each output replays
    under its semantics and ends at the target with empty buffers."""
    shutil.copy(CORPUS / "dekker.lit", tmp_path / "dekker.lit")
    prog = corpus_program("dekker.lit")
    text = format_run(concretize_witness(prog, backward_reach(prog, prog.target)), prog, "dekker.lit")
    lines = parse_run_text(text)[2]
    assert any(" propagate " in line for line in lines) and any(line.endswith(" delete") for line in lines)
    for source, expected in (("dtso", "tso"), ("tso", "dtso")):
        run_file = tmp_path / f"witness-{source}.run"
        run_file.write_text(text)
        code, text, err = invoke(capsys, "translate", str(run_file), "--from", source)
        assert code == 0, err
        semantics, out = _driven(text, prog)
        assert semantics == expected
        assert out.final.states == prog.target and not any(out.final.buffers)


_PROGRAM = ["vars x", "values 0 1", "process P", " init q0", " trans q0 q1 w x 1", "end", "target P=q1"]


def _edited(index: int, *lines: str) -> str:
    """_PROGRAM with its line `index` replaced by `lines`."""
    return "\n".join(_PROGRAM[:index] + list(lines) + _PROGRAM[index + 1 :]) + "\n"


# case -> (program text, message fragment, line number or None)
PARSE_ERRORS = {
    "duplicate-vars": (_edited(0, "vars x", "vars y"), "duplicate vars line", 2),
    "empty-vars": (_edited(0, "vars"), "vars line needs at least one variable", 1),
    "duplicate-values": (_edited(1, "values 0 1", "values 0"), "duplicate values line", 3),
    "empty-values": (_edited(1, "values"), "values line needs at least one value", 2),
    "duplicate-variable": (_edited(0, "vars x x"), "duplicate variable name", 1),
    "process-arity": (_edited(2, "process P Q"), "process takes exactly one name", 3),
    "init-arity": (_edited(3, " init q0 q1"), "init takes exactly one state", 4),
    "trans-arity": (_edited(4, " trans q0 q1"), "trans takes a source, a destination", 5),
    "init-outside": (_edited(1, "values 0 1", "init q0"), "init outside a process block", 3),
    "trans-outside": (_edited(1, "values 0 1", "trans q0 q1 nop"), "trans outside a process block", 3),
    "end-outside": (_edited(1, "values 0 1", "end"), "end outside a process block", 3),
    "directive-inside": (_edited(3, " init q0", " vars y"), "expected init/trans/end inside process block", 5),
    "duplicate-init": (_edited(3, " init q0", " init q1"), "duplicate init line", 5),
    "duplicate-transition": (_edited(4, " trans q0 q1 w x 1", " trans q0 q1 w x 1"), "duplicate transition", 6),
    "second-target": (_edited(6, "target P=q1", "target P=q0"), "duplicate target directive", 8),
    "malformed-target": (_edited(6, "target P"), "target entries look like", 7),
    "empty-target": (_edited(6, "target"), "target needs at least one entry", 7),
    "unclosed-block": (
        "\n".join(_PROGRAM[:2] + _PROGRAM[6:] + _PROGRAM[2:5]) + "\n", "process 'P' not closed with end", 4
    ),
    "missing-vars": (_edited(0), "missing vars line", None),
    "missing-values": (_edited(1), "missing values line", None),
    "no-process": ("vars x\nvalues 0 1\ntarget P=q0\n", "program declares no process", None),
    "process-without-init": (_edited(3), "process 'P' has no init line", 5),
    "target-unknown-process": (_edited(6, "target Q=q1"), "target names unknown process 'Q'", None),
    "target-twice": (_edited(6, "target P=q1 P=q0"), "target names process 'P' twice", None),
    "target-missing-process": (
        _edited(5, "end", "process R", " init r0", "end"), "target misses process 'R'", None
    ),
    "nop-arguments": (_edited(4, " trans q0 q1 nop x"), "nop takes no arguments", 5),
    "fence-arguments": (_edited(4, " trans q0 q1 fence x"), "fence takes no arguments", 5),
    "arw-arity": (_edited(4, " trans q0 q1 arw x 1"), "arw takes a variable and two values", 5),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_errors_exit_2(capsys, tmp_path, case):
    """Each malformed program is refused with exit 2 and one `dualmc:`
    line naming the fault, and its line number where the parser has
    one."""
    text, message, line = PARSE_ERRORS[case]
    path = tmp_path / "bad.lit"
    path.write_text(text)
    code, out, err = invoke(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"dualmc: {message}") and err.count("\n") == 1, err
    if line is None:
        assert "(line" not in err, err
    else:
        assert f"(line {line}" in err, err


def test_format_parse_round_trip_with_fence_and_arw():
    """A program with fence and arw transitions survives format_program
    then parse_program."""
    text = _edited(4, " trans q0 q1 w x 1", " trans q1 q2 fence", " trans q2 q3 arw x 1 0")
    prog = parse_program(text)
    assert [t.op for t in prog.processes[0].transitions][1:] == [Op("fence"), Op("arw", "x", 1, 0)]
    assert parse_program(format_program(prog)) == prog
