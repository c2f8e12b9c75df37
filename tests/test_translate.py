import random

import pytest

from dualmc import (
    Delete,
    DtsoConfig,
    Propagate,
    Run,
    RunError,
    Step,
    TsoConfig,
    Update,
    compute_index_view,
    compute_match_label_pos,
    compute_phase_configs,
    compute_scheduling,
    dtso_bounded_reach,
    dtso_successors,
    dtso_to_tso,
    initial_dtso_config,
    initial_tso_config,
    replay,
    tso_bounded_reach,
    tso_successors,
    tso_to_dtso,
)
from dualmc.model import Op, Transition

from conftest import random_program

own = lambda x, v: (x, v, True)
plain = lambda x, v: (x, v, False)

W = Transition("q0", Op("w", "x", 1), "q1")
R = Transition("q1", Op("r", "y", 0), "q2")


def example_dtso_run(write_read) -> Run:
    """The five-step single-process run used by the worked tables:
    write x, speculate on y, drop the own-message, read y, drain."""
    prog = write_read
    c0 = initial_dtso_config(prog)
    actions = [Step(0, W), Propagate(0, "y"), Delete(0), Step(0, R), Delete(0)]
    configs = [c0]
    for a in actions:
        configs.append(dict(dtso_successors(configs[-1], prog))[a])
    return Run("dtso", configs, actions)


def example_tso_run(write_read) -> Run:
    prog = write_read
    c0 = initial_tso_config(prog)
    actions = [Step(0, W), Update(0), Step(0, R)]
    configs = [c0]
    for a in actions:
        configs.append(dict(tso_successors(configs[-1], prog))[a])
    return Run("tso", configs, actions)


def test_example_run_configurations(write_read):
    run = example_dtso_run(write_read)
    bufs = [c.buffers[0] for c in run.configs]
    assert bufs == [
        (),
        (own("x", 1),),
        (plain("y", 0), own("x", 1)),
        (plain("y", 0),),
        (plain("y", 0),),
        (),
    ]
    assert run.configs[5].mem == (1, 0)


def test_index_table_matches_example(write_read):
    tables = compute_index_view(example_dtso_run(write_read), write_read)
    assert tables.write_indices == (1,)
    assert [row[0] for row in tables.index] == [(), (1,), (1, 1), (1,), (1,), ()]


def test_view_table_matches_example(write_read):
    tables = compute_index_view(example_dtso_run(write_read), write_read)
    assert [row[0] for row in tables.view] == [0, 1, 1, 1, 1, 1]


def test_no_writes_means_zero_views(write_read):
    prog = write_read
    c0 = initial_dtso_config(prog)
    actions = [Propagate(0, "x"), Delete(0)]
    configs = [c0]
    for a in actions:
        configs.append(dict(dtso_successors(configs[-1], prog))[a])
    tables = compute_index_view(Run("dtso", configs, actions), prog)
    assert tables.write_indices == ()
    assert all(v == 0 for row in tables.view for v in row)
    assert all(all(i == 0 for i in word) for row in tables.index for word in row)


def test_scheduling_matches_example(write_read):
    tables = compute_scheduling(example_dtso_run(write_read), write_read)
    assert tables.alpha[(0, 0, 0)] == 0
    assert tables.alpha[(1, 0, 0)] == 1
    assert tables.alpha[(1, 0, 1)] == 4
    assert tables.sharp[(0, 0)] == 0
    assert tables.sharp[(1, 0)] == 1


def test_phase_configurations_match_example(write_read):
    tables = compute_phase_configs(example_dtso_run(write_read), write_read)
    assert tables.configs[(0, 0, 0)] == TsoConfig(("q0",), ((),), (0, 0))
    assert tables.configs[(1, 0, 0)] == TsoConfig(("q1",), ((),), (1, 0))
    assert tables.configs[(1, 0, 1)] == TsoConfig(("q2",), ((),), (1, 0))


def test_dtso_to_tso_three_step_run(write_read):
    out = dtso_to_tso(example_dtso_run(write_read), write_read)
    assert out.actions == [Step(0, W), Update(0), Step(0, R)]
    replay(out, write_read, tso_successors)
    assert out.final.states == ("q2",)


def test_dtso_to_tso_empty_run(write_read):
    out = dtso_to_tso(Run("dtso", [initial_dtso_config(write_read)], []), write_read)
    assert out.actions == []


def test_match_table(write_read):
    tables = compute_match_label_pos(example_tso_run(write_read), write_read)
    assert tables.update_indices == (2,)
    assert tables.match == {2: 1}


def test_label_table(write_read):
    tables = compute_match_label_pos(example_tso_run(write_read), write_read)
    assert tables.label[0][0] is None
    assert tables.label[1][0] == own("x", 1)
    assert tables.label[2][0] == plain("y", 0)


def test_pos_table(write_read):
    tables = compute_match_label_pos(example_tso_run(write_read), write_read)
    assert tables.pos[(-1, 0)] == 0
    assert tables.pos[(0, 0)] == 1


def test_tso_to_dtso_five_step_run(write_read):
    out = tso_to_dtso(example_tso_run(write_read), write_read)
    assert out.actions == [Step(0, W), Propagate(0, "y"), Delete(0), Step(0, R), Delete(0)]
    replay(out, write_read, dtso_successors)
    assert out.final.states == ("q2",)
    assert all(not b for b in out.final.buffers)


def test_tso_to_dtso_empty_run(write_read):
    out = tso_to_dtso(Run("tso", [initial_tso_config(write_read)], []), write_read)
    assert out.actions == []


def test_sb_witness_round_trips(sb2):
    dtso_run = dtso_bounded_reach(sb2, 3, ("q2", "q3")).run
    out = dtso_to_tso(dtso_run, sb2)
    replay(out, sb2, tso_successors)
    assert out.final.states == ("q2", "q3")
    tso_run = tso_bounded_reach(sb2, 2, ("q2", "q3")).run
    back = tso_to_dtso(tso_run, sb2)
    replay(back, sb2, dtso_successors)
    assert back.final.states == ("q2", "q3")


def test_same_update_sequence(sb2):
    def tso_update_sequence(run):
        seq = []
        for i, a in enumerate(run.actions):
            if isinstance(a, Update):
                seq.append(run.configs[i].buffers[a.proc][-1])
            elif isinstance(a, Step) and a.t.op.kind == "arw":
                seq.append((a.t.op.var, a.t.op.wval))
        return seq

    def dtso_write_sequence(run):
        return [
            (a.t.op.var, a.t.op.val if a.t.op.kind == "w" else a.t.op.wval)
            for a in run.actions
            if isinstance(a, Step) and a.t.op.kind in ("w", "arw")
        ]

    dtso_run = dtso_bounded_reach(sb2, 3, ("q2", "q3")).run
    out = dtso_to_tso(dtso_run, sb2)
    assert tso_update_sequence(out) == dtso_write_sequence(dtso_run)


def test_rejects_incomplete_runs(write_read):
    prog = write_read
    c0 = initial_dtso_config(prog)
    c1 = dict(dtso_successors(c0, prog))[Step(0, W)]
    dangling = Run("dtso", [c0, c1], [Step(0, W)])  # buffer not drained
    with pytest.raises(RunError):
        dtso_to_tso(dangling, prog)


def _random_complete_dtso_run(rng, prog, tries=40):
    """Random walk that then drains all buffers."""
    c = initial_dtso_config(prog)
    configs, actions = [c], []
    for _ in range(rng.randint(0, 8)):
        succs = dtso_successors(c, prog)
        if not succs:
            break
        a, c = rng.choice(succs)
        actions.append(a)
        configs.append(c)
    for p in range(len(prog.processes)):
        while c.buffers[p]:
            c = dict(dtso_successors(c, prog))[Delete(p)]
            actions.append(Delete(p))
            configs.append(c)
    return Run("dtso", configs, actions)


def _random_complete_tso_run(rng, prog):
    c = initial_tso_config(prog)
    configs, actions = [c], []
    for _ in range(rng.randint(0, 8)):
        succs = tso_successors(c, prog)
        if not succs:
            break
        a, c = rng.choice(succs)
        actions.append(a)
        configs.append(c)
    for p in range(len(prog.processes)):
        while c.buffers[p]:
            c = dict(tso_successors(c, prog))[Update(p)]
            actions.append(Update(p))
            configs.append(c)
    return Run("tso", configs, actions)


@pytest.mark.parametrize("seed", range(4))
def test_random_runs_translate_and_replay(seed):
    rng = random.Random(seed)
    for _ in range(40):
        prog = random_program(rng, n_procs=2, max_states=3)
        dtso_run = _random_complete_dtso_run(rng, prog)
        out = dtso_to_tso(dtso_run, prog)
        replay(out, prog, tso_successors)
        assert out.final.states == dtso_run.final.states
        assert all(not b for b in out.final.buffers)

        tso_run = _random_complete_tso_run(rng, prog)
        back = tso_to_dtso(tso_run, prog)
        replay(back, prog, dtso_successors)
        assert back.final.states == tso_run.final.states
        assert all(not b for b in back.final.buffers)


@pytest.mark.parametrize("seed", range(3))
def test_index_tables_satisfy_length_and_descent(seed):
    rng = random.Random(seed)
    for _ in range(30):
        prog = random_program(rng, n_procs=2, max_states=3)
        run = _random_complete_dtso_run(rng, prog)
        tables = compute_index_view(run, prog)
        for j, c in enumerate(run.configs):
            for p in range(len(prog.processes)):
                word = tables.index[j][p]
                assert len(word) == len(c.buffers[p])
                # ranks never increase toward the head and stay below j
                assert all(word[i] >= word[i + 1] for i in range(len(word) - 1))
                assert all(r <= j for r in word)
                for i, msg in enumerate(c.buffers[p]):
                    if msg[2] and i + 1 < len(word):
                        assert word[i + 1] < word[i]
        for p in range(len(prog.processes)):
            views = [tables.view[j][p] for j in range(len(run.configs))]
            assert all(a <= b for a, b in zip(views, views[1:]))


def _schedule_by_definition(run, view, k, n_procs):
    """alpha/sharp straight from their definition: phase r of p opens at
    the first configuration at view r (or, if there is none, at the
    previous phase's last scheduled index) and then takes, in order,
    every later configuration at view r reached by a step of p."""
    alpha, sharp = {}, {}
    for r in range(k + 1):
        for p in range(n_procs):
            at_r = [j for j in range(len(run.configs)) if view[j][p] == r]
            start = at_r[0] if at_r else alpha[(r - 1, p, sharp[(r - 1, p)])]
            own = [
                j for j in at_r
                if j > start and isinstance(run.actions[j - 1], Step) and run.actions[j - 1].proc == p
            ]
            for ell, j in enumerate([start, *own]):
                alpha[(r, p, ell)] = j
            sharp[(r, p)] = len(own)
    return alpha, sharp


@pytest.mark.parametrize("seed", range(3))
def test_scheduling_matches_its_definition(seed):
    rng = random.Random(seed)
    for _ in range(30):
        prog = random_program(rng, n_procs=2, max_states=3)
        run = _random_complete_dtso_run(rng, prog)
        tables = compute_scheduling(run, prog)
        expected = _schedule_by_definition(run, tables.view, len(tables.write_indices), len(prog.processes))
        assert (tables.alpha, tables.sharp) == expected


def _ends_boundary(action) -> bool:
    """True for the action that closes a phase boundary of dtso_to_tso:
    an update, or an atomic read-write."""
    return isinstance(action, Update) or action.t.op.kind == "arw"


@pytest.mark.parametrize("n_procs", (2, 3))
def test_phase_configs_are_the_simulation_configurations(n_procs):
    """Walking dtso_to_tso's actions in the order it builds them, the
    configuration reached after process p's ell-th scheduled step of
    phase r (ell = 0: before its first) is configs[(r, p, ell)]: the
    processes before p have finished phase r and those after it have
    not started it."""
    rng = random.Random(41 + n_procs)
    checked = before = after = 0
    for _ in range(100):
        prog = random_program(rng, n_procs=n_procs, max_states=3)
        run = _random_complete_dtso_run(rng, prog)
        tables = compute_phase_configs(run, prog)
        out = dtso_to_tso(run, prog)
        k = len(tables.write_indices)
        i = 0  # index into out.configs
        for r in range(k + 1):
            for p in range(n_procs):
                moved = [q for q in range(n_procs) if q != p and tables.sharp[(r, q)]]
                for ell in range(tables.sharp[(r, p)] + 1):
                    if ell:
                        assert out.actions[i] == run.actions[tables.alpha[(r, p, ell)] - 1]
                        i += 1
                    assert out.configs[i] == tables.configs[(r, p, ell)], (r, p, ell)
                    checked += 1
                    before += any(q < p for q in moved)
                    after += any(q > p for q in moved)
            if r < k:
                while not _ends_boundary(out.actions[i]):
                    i += 1
                i += 1
        assert i == len(out.actions)
    assert checked > 100 and before > 0 and after > 0
