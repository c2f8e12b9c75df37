"""scripts/ab_bench.py with perfbench runs and git replaced by stubs."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"


@pytest.fixture
def ab_bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    answers = {"rev-parse": b"0" * 40 + b"\n", "status": b""}
    monkeypatch.setattr(module, "git", lambda *args: answers[args[0]])
    monkeypatch.setattr(module, "extract", lambda rev, dest: None)
    return module


def stub_runs(module, monkeypatch, values):
    """run_once returning values[side][pair] as every metric's value,
    side "change" in the working tree and "base" elsewhere."""
    calls = []

    def run_once(tree, workload, seed, seconds):
        side = "change" if tree == module.ROOT else "base"
        calls.append((side, seed))
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
    assert [side for side, _seed in calls[:4]] == ["base", "change", "change", "base"]
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
