"""Translation between complete runs of the two semantics.

A complete load-buffer run (initial configuration, empty final buffers)
is replayed as a store-buffer run with the same sequence of memory
updates, and vice versa.  Both directions are driven by small tables
computed from the input run: the load-buffer side indexes every buffered
message by the latest write at its append time and derives a per-process
memory view, which schedules processes into phases between consecutive
memory writes; the store-buffer side matches each update with its write
by FIFO position and labels each step with the load-buffer message it
will become.  Where the computed tables violate their documented
properties the translator raises instead of guessing.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .dtso import dtso_successors, initial_dtso_config
from .model import ConcurrentProgram
from .ordering import Msg
from .runs import Delete, Propagate, Run, RunError, Step, Update, drive, replay
from .tso import TsoConfig, initial_tso_config, tso_successors

# semantics tag -> (initial configuration, one-step relation)
SEMANTICS = {
    "tso": (initial_tso_config, tso_successors),
    "dtso": (initial_dtso_config, dtso_successors),
}


@dataclass
class PhaseTables:
    """Bookkeeping for one translation direction.

    Load-buffer side: `index[j][p]` holds, per buffered message, the
    rank of the latest write when the message was appended; `view[j][p]`
    is the process's memory view; `alpha[(r, p, l)]` schedules the l-th
    transition of p in phase r, `sharp[(r, p)]` counts them, and
    `configs[(r, p, l)]` are the derived store-buffer configurations
    (filled by compute_phase_configs only).
    Store-buffer side: `match[j]` pairs update j with its write,
    `label[j - 1][p]` is the message a step becomes in a load buffer,
    and `pos[(r, p)]` is the last simulated index of p after phase r.
    """

    write_indices: tuple[int, ...] = ()
    index: list = field(default_factory=list)
    view: list = field(default_factory=list)
    alpha: dict = field(default_factory=dict)
    sharp: dict = field(default_factory=dict)
    configs: dict = field(default_factory=dict)
    update_indices: tuple[int, ...] = ()
    match: dict = field(default_factory=dict)
    label: list = field(default_factory=list)
    pos: dict = field(default_factory=dict)


def _check_complete(run: Run, program: ConcurrentProgram, semantics: str) -> None:
    if run.semantics != semantics:
        raise RunError(f"expected a {semantics} run")
    initial, successors = SEMANTICS[semantics]
    if run.configs[0] != initial(program):
        raise RunError("run must start at the initial configuration")
    if any(run.final.buffers):
        raise RunError("run must end with empty buffers")
    replay(run, program, successors)


def compute_index_view(run: Run, program: ConcurrentProgram) -> PhaseTables:
    """Message indexing and memory views of a complete load-buffer run."""
    _check_complete(run, program, "dtso")
    n_procs = len(program.processes)
    writes = tuple(
        j
        for j, a in enumerate(run.actions, start=1)
        if isinstance(a, Step) and a.t.op.kind in ("w", "arw")
    )

    def rank_at(j: int) -> int:
        return bisect_right(writes, j)

    index: list[tuple[tuple[int, ...], ...]] = [tuple(() for _ in range(n_procs))]
    for j, action in enumerate(run.actions, start=1):
        cur = list(index[-1])
        if isinstance(action, Step) and action.t.op.kind == "w":
            cur[action.proc] = (rank_at(j),) + cur[action.proc]
        elif isinstance(action, Propagate):
            cur[action.proc] = (rank_at(j),) + cur[action.proc]
        elif isinstance(action, Delete):
            cur[action.proc] = cur[action.proc][:-1]
        index.append(tuple(cur))

    view: list[tuple[int, ...]] = []
    for j, c in enumerate(run.configs):
        row = []
        for p in range(n_procs):
            if len(index[j][p]) != len(c.buffers[p]):
                raise RunError("message index table out of step with a buffer")
            row.append(index[j][p][-1] if c.buffers[p] else rank_at(j))
        view.append(tuple(row))
    for p in range(n_procs):
        if any(view[j][p] > view[j + 1][p] for j in range(len(run.actions))):
            raise RunError("memory view must be non-decreasing")

    return PhaseTables(write_indices=writes, index=index, view=view)


def compute_scheduling(run: Run, program: ConcurrentProgram) -> PhaseTables:
    """Extend the index/view tables with the phase schedule."""
    tables = compute_index_view(run, program)
    view = tables.view
    k = len(tables.write_indices)
    n_procs = len(program.processes)
    alpha: dict[tuple[int, int, int], int] = {}
    sharp: dict[tuple[int, int], int] = {}
    # stepper[j]: the process whose program step reached configuration j
    stepper = [None] + [a.proc if isinstance(a, Step) else None for a in run.actions]
    for p in range(n_procs):
        phases: list[list[int]] = [[] for _ in range(k + 1)]
        for j, row in enumerate(view):
            phases[row[p]].append(j)
        last = 0
        for r, phase in enumerate(phases):
            # a phase opens at its first configuration (or where the last
            # one closed), then takes p's own steps within it
            sched = phase[:1] or [last]
            sched += [j for j in phase[1:] if stepper[j] == p]
            for ell, j in enumerate(sched):
                alpha[(r, p, ell)] = j
            sharp[(r, p)] = len(sched) - 1
            last = sched[-1]
    tables.alpha = alpha
    tables.sharp = sharp
    return tables


def compute_phase_configs(run: Run, program: ConcurrentProgram) -> PhaseTables:
    """Extend the scheduling tables with the derived store-buffer
    configurations; dtso_to_tso does not need them."""
    tables = compute_scheduling(run, program)
    alpha = tables.alpha
    sharp = tables.sharp
    k = len(tables.write_indices)
    n_procs = len(program.processes)

    def to_store_buffer(word) -> tuple:
        if not word:
            return ()
        return tuple((x, v) for x, v, own in word[:-1] if own)

    mem_of_phase = [
        run.configs[tables.write_indices[r - 1]].mem if r else run.configs[0].mem
        for r in range(k + 1)
    ]
    for r in range(k + 1):
        for p in range(n_procs):
            for ell in range(sharp[(r, p)] + 1):
                states = []
                buffers = []
                for q in range(n_procs):
                    if q == p:
                        at = alpha[(r, q, ell)]
                    elif q < p:
                        at = alpha[(r, q, sharp[(r, q)])]
                    else:
                        at = alpha[(r, q, 0)]
                    states.append(run.configs[at].states[q])
                    buffers.append(to_store_buffer(run.configs[at].buffers[q]))
                tables.configs[(r, p, ell)] = TsoConfig(tuple(states), tuple(buffers), mem_of_phase[r])
    return tables


def dtso_to_tso(run: Run, program: ConcurrentProgram) -> Run:
    """Simulate a complete load-buffer run under the store-buffer
    semantics, phase by phase, with the same memory-update sequence."""
    tables = compute_scheduling(run, program)
    view = tables.view
    k = len(tables.write_indices)
    actions: list = []
    for r in range(k + 1):
        for p in range(len(program.processes)):
            for ell in range(1, tables.sharp[(r, p)] + 1):
                j = tables.alpha[(r, p, ell)]
                actions.append(run.actions[j - 1])
        if r < k:
            j = tables.write_indices[r]
            boundary = run.actions[j - 1]
            if boundary.t.op.kind == "arw":
                actions.append(boundary)
            elif view[j][boundary.proc] == r + 1:
                # the write was not simulated in-phase: its buffer was empty
                actions.append(boundary)
                actions.append(Update(boundary.proc))
            else:
                actions.append(Update(boundary.proc))
    out = drive("tso", initial_tso_config(program), actions, program, tso_successors)
    if out.final.states != run.final.states or any(out.final.buffers):
        raise RunError("store-buffer simulation missed the final global state")
    return out


def _arwized_kind(action) -> str:
    """Operation kind with fences bookkept as atomic read-writes."""
    if isinstance(action, Update):
        return "update"
    kind = action.t.op.kind
    return "arw" if kind == "fence" else kind


def compute_match_label_pos(run: Run, program: ConcurrentProgram) -> PhaseTables:
    """Write/update matching, message labels, and per-phase positions of
    a complete store-buffer run."""
    _check_complete(run, program, "tso")
    n_procs = len(program.processes)
    kinds = [None] + [_arwized_kind(a) for a in run.actions]
    updates = tuple(j for j in range(1, len(kinds)) if kinds[j] in ("update", "arw"))
    writes = tuple(j for j in range(1, len(kinds)) if kinds[j] in ("w", "arw"))

    match: dict[int, int] = {}
    for p in range(n_procs):
        ip = [j for j in updates if run.actions[j - 1].proc == p]
        ipw = [j for j in writes if run.actions[j - 1].proc == p]
        if len(ip) != len(ipw):
            raise RunError("unmatched writes remain in a buffer at the end of the run")
        for u, w in zip(ip, ipw):
            if kinds[u] == "arw" and u != w:
                raise RunError("an atomic read-write must match itself")
            match[u] = w

    label: list[tuple[Msg | None, ...]] = []
    for j, action in enumerate(run.actions, start=1):
        row: list[Msg | None] = [None] * n_procs
        if isinstance(action, Step) and action.t.op.kind == "r":
            p = action.proc
            x = action.t.op.var
            if all(m[0] != x for m in run.configs[j - 1].buffers[p]):
                row[p] = (x, action.t.op.val, False)
        elif isinstance(action, Update):
            wt = run.actions[match[j] - 1].t
            row[action.proc] = (wt.op.var, wt.op.val, True)
        label.append(tuple(row))

    pos: dict[tuple[int, int], int] = {(-1, p): 0 for p in range(n_procs)}
    for r in range(len(updates)):
        active = run.actions[updates[r] - 1].proc
        for p in range(n_procs):
            pos[(r, p)] = match[updates[r]] if p == active else pos[(r - 1, p)]

    return PhaseTables(update_indices=updates, match=match, label=label, pos=pos)


def tso_to_dtso(run: Run, program: ConcurrentProgram) -> Run:
    """Simulate a complete store-buffer run under the load-buffer
    semantics: per phase, propagate the upcoming read values of every
    process, then replay the active process's steps, turning each
    memory read into read-then-delete and each update into a delete."""
    tables = compute_match_label_pos(run, program)
    updates = tables.update_indices
    label = tables.label
    pos = tables.pos
    m = len(updates)
    n_procs = len(program.processes)
    n = len(run.actions)
    actions: list = []
    filled = [0] * n_procs

    def propagate_stage(limit: int) -> None:
        for p in range(n_procs):
            for idx in range(filled[p] + 1, limit + 1):
                lbl = label[idx - 1][p]
                if lbl is not None and not lbl[2]:
                    actions.append(Propagate(p, lbl[0]))
            filled[p] = limit

    def simulate(p: int, lo: int, hi: int) -> None:
        """Replay p's own steps with TSO indices in (lo, hi]."""
        for idx in range(lo + 1, hi + 1):
            action = run.actions[idx - 1]
            if isinstance(action, Update):
                if action.proc == p:
                    actions.append(Delete(p))
                continue
            if action.proc != p:
                continue
            kind = action.t.op.kind
            actions.append(action)
            if kind == "r" and label[idx - 1][p] is not None:
                actions.append(Delete(p))

    for r in range(m):
        propagate_stage(updates[r] - 1)
        active = run.actions[updates[r] - 1].proc
        simulate(active, pos[(r - 1, active)], tables.match[updates[r]])
    propagate_stage(n)
    for p in range(n_procs):
        simulate(p, pos[(m - 1, p)], n)

    out = drive("dtso", initial_dtso_config(program), actions, program, dtso_successors)
    if out.final.states != run.final.states or any(out.final.buffers) or out.final.mem != run.final.mem:
        raise RunError("load-buffer simulation missed the final configuration")
    return out
