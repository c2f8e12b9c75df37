"""scripts/ab_bench.py with perfbench runs and git replaced by stubs; the
working-tree copy is checked against a real git repository."""
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"


def load_script():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def ab_bench(monkeypatch):
    """The script with git stubbed and its two trees recorded, not
    written, as module.trees: side to the directory it runs in; the
    trees it byte-compiles are recorded, in order, as module.compiled."""
    module = load_script()
    answers = {"rev-parse": b"0" * 40 + b"\n", "status": b""}
    monkeypatch.setattr(module, "git", lambda *args: answers[args[0]])
    module.trees = {}
    monkeypatch.setattr(module, "extract", lambda rev, dest: module.trees.setdefault("base", dest))
    monkeypatch.setattr(module, "snapshot", lambda dest: module.trees.setdefault("change", dest))
    module.compiled = []
    monkeypatch.setattr(module, "compile_sources", module.compiled.append)
    return module


def stub_runs(module, monkeypatch, values):
    """run_once returning values[side][pair] as every metric's value,
    the side told by the tree it runs in; calls records (side, seed,
    tree)."""
    calls = []

    def run_once(tree, workload, seed, seconds):
        side = next(side for side, t in module.trees.items() if t == tree)
        calls.append((side, seed, tree))
        value = values[side][seed - 1]
        return {
            "attempted": 4,
            "failed": int(side == "base"),
            "metrics": {name: {"value": value} for name in ("verdict_rel", "setup_s", "peak_rss_mb")},
        }

    monkeypatch.setattr(module, "run_once", run_once)
    return calls


def test_pairs_won_and_medians(ab_bench, monkeypatch, tmp_path, capsys):
    values = {"base": [10.0, 20.0, 30.0, 40.0, 50.0], "change": [9.0, 21.0, 29.0, 39.0, 50.0]}
    calls = stub_runs(ab_bench, monkeypatch, values)
    out = tmp_path / "r.json"
    assert ab_bench.main(["--workload", "w", "--pairs", "5", "--out", str(out)]) == 0
    # the base runs first in even pairs, the working tree in odd ones
    assert [side for side, _seed, _tree in calls[:4]] == ["base", "change", "change", "base"]
    result = json.loads(out.read_text())["workloads"]["w"]
    assert result["pairs_won"]["verdict_rel"] == 3  # lower is better: pairs 1, 3 and 4
    assert result["pairs_won"]["peak_rss_mb"] == 3
    assert result["sides"]["base"]["metrics"]["verdict_rel"] == {"median": 30.0, "q1": 20.0, "q3": 40.0}
    assert result["sides"]["change"]["metrics"]["verdict_rel"] == {"median": 29.0, "q1": 21.0, "q3": 39.0}
    assert (result["sides"]["base"]["failed"], result["sides"]["base"]["attempted"]) == (5, 20)
    summary = json.loads(capsys.readouterr().out.split(" ", 1)[1])
    assert summary["failed"] == {"base": "5/20", "change": "0/20"}
    assert summary["medians"]["change"]["verdict_rel"]["median"] == 29.0


def test_one_pair(ab_bench, monkeypatch, tmp_path):
    stub_runs(ab_bench, monkeypatch, {"base": [7.0], "change": [6.0]})
    out = tmp_path / "r.json"
    assert ab_bench.main(["--workload", "w", "--pairs", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["workloads"]["w"]
    assert result["pairs_won"]["verdict_rel"] == 1
    assert result["sides"]["change"]["metrics"]["verdict_rel"] == {"median": 6.0, "q1": 6.0, "q3": 6.0}


def test_no_pairs_is_refused(ab_bench, tmp_path):
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(["--workload", "w", "--pairs", "0", "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2


def test_neither_side_runs_in_the_repository(ab_bench, monkeypatch, tmp_path):
    """Both sides run from fresh trees under one temporary directory."""
    calls = stub_runs(ab_bench, monkeypatch, {"base": [7.0, 8.0], "change": [6.0, 9.0]})
    assert ab_bench.main(["--workload", "w", "--pairs", "2", "--out", str(tmp_path / "r.json")]) == 0
    base, change = ab_bench.trees["base"], ab_bench.trees["change"]
    assert base != change and base.parent == change.parent
    assert {tree for _side, _seed, tree in calls} == {base, change}
    assert all(ab_bench.ROOT not in (tree, *tree.parents) for tree in (base, change))


def test_both_trees_are_compiled_before_any_run(ab_bench, monkeypatch, tmp_path):
    """Each tree's src/ is byte-compiled once, before the first run."""
    compiled_at_run = []
    calls = stub_runs(ab_bench, monkeypatch, {"base": [7.0, 8.0], "change": [6.0, 9.0]})
    run_once = ab_bench.run_once

    def recording(tree, *args):
        compiled_at_run.append(list(ab_bench.compiled))
        return run_once(tree, *args)

    monkeypatch.setattr(ab_bench, "run_once", recording)
    assert ab_bench.main(["--workload", "w", "--pairs", "2", "--out", str(tmp_path / "r.json")]) == 0
    trees = sorted(ab_bench.trees.values())
    assert len(calls) == 4
    assert all(sorted(compiled) == trees for compiled in compiled_at_run)


def test_compile_sources_writes_bytecode_without_the_environment(monkeypatch, tmp_path):
    """compileall writes the bytecode also where PYTHONDONTWRITEBYTECODE
    is set, the setting under which a worker would not."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    load_script().compile_sources(tmp_path)
    assert [f.name.split(".")[0] for f in (tmp_path / "src" / "pkg" / "__pycache__").glob("*.pyc")] == ["mod"]


def test_snapshot_copies_the_working_tree(monkeypatch, tmp_path):
    """The change side's tree holds the tracked files with their
    uncommitted edits and the untracked files that are not ignored; it
    leaves out ignored files and tracked files deleted on disk."""
    module = load_script()
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    for name in ("src/kept.py", "src/edited.py", "src/deleted.py", ".gitignore"):
        (repo / name).write_text("ignored.txt\n" if name == ".gitignore" else "committed\n")

    def run(*args):
        ident = ["-c", "user.name=t", "-c", "user.email=t@example.org"]
        subprocess.run(["git", *ident, *args], cwd=repo, check=True, capture_output=True)

    run("init", "-q")
    run("add", "-A")
    run("commit", "-q", "-m", "base")
    (repo / "src/edited.py").write_text("edited\n")
    (repo / "src/deleted.py").unlink()
    (repo / "src/new.py").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")
    monkeypatch.setattr(module, "ROOT", repo)
    module.snapshot(tmp_path / "copy")
    copied = {str(f.relative_to(tmp_path / "copy")): f.read_text() for f in (tmp_path / "copy").rglob("*") if f.is_file()}
    assert copied == {
        ".gitignore": "ignored.txt\n",
        "src/kept.py": "committed\n",
        "src/edited.py": "edited\n",
        "src/new.py": "untracked\n",
    }


# A perfbench/run.py stand-in: it starts one worker, as perfbench's
# does, writes "run-pid worker-pid" to the file named by its template,
# then waits.
FAKE_RUN = """
import os, subprocess, sys, time
worker = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
with open({pids!r} + ".part", "w") as f:
    f.write(f"{{os.getpid()}} {{worker.pid}}")
os.replace({pids!r} + ".part", {pids!r})
time.sleep(120)
"""

# The script with git stubbed, both trees holding FAKE_RUN and nothing
# compiled; argv: the fake run.py, the --out path.
RUNNER = """
import importlib.util, shutil, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("ab_bench", {script!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.git = lambda *args: {{"rev-parse": b"0" * 40, "status": b""}}[args[0]]

def tree(dest):
    (dest / "perfbench").mkdir(parents=True)
    shutil.copy(sys.argv[1], dest / "perfbench" / "run.py")

module.extract = lambda rev, dest: tree(dest)
module.snapshot = tree
module.compile_sources = lambda tree: None
sys.exit(module.main(["--workload", "w", "--pairs", "1", "--out", sys.argv[2]]))
"""


def _alive(pid: int) -> bool:
    """pid names a process that is neither gone nor a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_signal_stops_the_run_and_its_worker_and_cleans_up(signum, tmp_path):
    """Stopped mid-run, the script kills the perfbench run and its
    worker, removes its ab_bench-* directory, writes no --out file and
    exits non-zero.  Three processes at most: the script, the run and
    its worker."""
    pids_file, out, tmp = tmp_path / "pids", tmp_path / "r.json", tmp_path / "tmp"
    tmp.mkdir()
    fake = tmp_path / "run.py"
    fake.write_text(FAKE_RUN.format(pids=str(pids_file)))
    runner = tmp_path / "runner.py"
    runner.write_text(RUNNER.format(script=str(SCRIPT)))
    env = {**os.environ, "TMPDIR": str(tmp)}
    proc = subprocess.Popen([sys.executable, str(runner), str(fake), str(out)], env=env, stderr=subprocess.PIPE)
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while not pids_file.exists():
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "the fake run never started"
            time.sleep(0.05)
        pids = [int(pid) for pid in pids_file.read_text().split()]
        assert list(tmp.glob("ab_bench-*")) != []
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == 128 + signum
        deadline = time.monotonic() + 10
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if _alive(pid)] == []
        assert list(tmp.iterdir()) == [] and not out.exists()
    finally:
        for pid in [proc.pid, *pids]:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stderr.close()
