"""A/B benchmark of the working tree against a base commit.

Writes two fresh trees under one temporary directory: the base commit
(`git archive`) and a copy of the working tree (tracked files as they
are on disk, uncommitted edits included, plus untracked files that are
not ignored), and byte-compiles each tree's src/.  Then runs
`perfbench/run.py --workload W --seed S --seconds T` of each tree in
that tree, for N pairs, with T the `run_seconds` of BENCHMARK.json.
Pair i uses seed S + i on both sides; the base runs first in even
pairs and the working tree first in odd ones, so a drift of the
machine's speed does not favour one side.
Each run's end-to-end metrics are read from the last line perfbench
prints.

    python3 scripts/ab_bench.py --workload check-param --pairs 10 --out BENCH.json

The output records the ab_bench invocation that wrote it and holds, per
workload and per side, the value of every metric in every run, its
median and quartiles, and, per metric, the number of pairs the working
tree won (a strictly better value, in the direction
BENCHMARK.json gives for it).  Standard library only; run it from the
repository root on an otherwise idle machine.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, dest: Path) -> None:
    """The tree of `rev` written under dest, without touching the repository."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev)), mode="r:") as tar:
        tar.extractall(dest, filter="data")


def snapshot(dest: Path) -> None:
    """The working tree written under dest: tracked files as they are on
    disk and untracked files that are not ignored."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
    for name in listed.split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def compile_sources(tree: Path) -> None:
    """Byte-compile the tree's src/, so that its workers import bytecode
    also where PYTHONDONTWRITEBYTECODE is set; otherwise each worker
    compiles the sources at import, and peak RSS tracks their size."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True, capture_output=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `tree`: its summary line, parsed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ab_bench: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles; a single value is its own quartiles."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(workload: str, trees: dict, pairs: int, seed: int, seconds: float, better: dict) -> dict:
    runs: dict = {side: [] for side in trees}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            summary = run_once(trees[side], workload, seed + i, seconds)
            runs[side].append({
                "seed": seed + i,
                "first": side == order[0],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {name: summary["metrics"][name]["value"] for name in better},
            })
            print(f"{workload} pair {i + 1}/{pairs} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
    out: dict = {"sides": {}, "pairs_won": {}}
    for side, rs in runs.items():
        out["sides"][side] = {
            "runs": rs,
            "failed": sum(r["failed"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "metrics": {name: spread([r["metrics"][name] for r in rs]) for name in better},
        }
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        out["pairs_won"][name] = sum(
            sign * (c["metrics"][name] - b["metrics"][name]) < 0
            for b, c in zip(runs["base"], runs["change"])
        )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    ap.add_argument("--base", default="HEAD^", help="base commit (default HEAD^; HEAD compares uncommitted changes)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    base = git("rev-parse", "--verify", args.base + "^{commit}").decode().strip()
    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain").strip())
    record = {
        "invocation": shlex.join(["python3", "scripts/ab_bench.py", *(sys.argv[1:] if argv is None else argv)]),
        "base": base,
        "change": {"head": head, "uncommitted_changes": dirty},
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds}",
        "pairs": args.pairs,
        "seed": args.seed,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        extract(base, trees["base"])
        snapshot(trees["change"])
        for tree in trees.values():
            compile_sources(tree)
        for workload in args.workload:
            record["workloads"][workload] = compare(workload, trees, args.pairs, args.seed, seconds, better)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, result in record["workloads"].items():
        sides = result["sides"]
        failed = {side: f"{s['failed']}/{s['attempted']}" for side, s in sides.items()}
        medians = {side: s["metrics"] for side, s in sides.items()}
        print(workload, json.dumps({"pairs_won": result["pairs_won"], "failed": failed, "medians": medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
