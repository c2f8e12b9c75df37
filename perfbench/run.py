"""Corpus benchmark for dualmc.

Usage (from the repository root):

    python3 perfbench/run.py --workload check-fixed --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --self-check

A run is a closed loop with one client: it runs whole passes of the
workload, one after another, for --seconds (at least one pass; another
pass starts only if one as long as the last still fits).  Each pass is
a fresh single-threaded worker process, because the engines keep
process-wide caches whose cold cost every CLI user pays.
The seed only permutes the order of the files within a pass.

With --trace 0 the run reports the end-to-end metrics: set-up time
(spawn until the worker has imported dualmc and parsed the pass's
files, median of several set-ups), engine time in references (the CPU
time of each engine call over that of a fixed computation timed beside
and during it, see speed.py; median per file over the passes, summed
over the files) and peak RSS of the worker.  The engine's CPU seconds,
summed the same way, are in the detailed record.  With --trace 1 it
runs one untraced and one traced pass and reports the per-layer metrics
of the traced pass, plus the tracing overhead against the untraced one.

Every verdict is checked against the classical TSO verdict and every
witness is validated; a wrong verdict, a bad witness, an exception or a
resource limit counts the file as failed.  The second-to-last line of
output is a detailed JSON record (per-file counters, per-file layers,
spans, errors); the last line is the summary the metrics are read from.
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CALLS, EXTRA, EXTRA2, INSERT, LAYERS, SELF, stat_dict
from workloads import WORKLOADS, item_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # a run gives up, with an error, rather than overrun 180 s
COUNTERS = ("verdict", "configs_generated", "iterations", "frontier_peak", "minors", "explored", "bound_exceeded")

END_TO_END_UNITS = {"verdict_rel": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


# -- workers ---------------------------------------------------------------


def run_worker(
    items: list, trace: bool, deadline: float, setup_only: bool = False, probe: bool = False
) -> tuple[float, dict]:
    """Run one pass in a fresh process; return (set-up seconds, pass record).
    With `probe` the engine calls are timed with speed probes (speed.py)."""
    spec = json.dumps({
        "root": str(ROOT), "items": items, "trace": trace, "setup_only": setup_only, "probe": probe,
    })
    start = time.perf_counter()
    # Unbuffered, so reading the ready line leaves the rest to communicate().
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), spec],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.decode()[-2000:]}")
    return setup_s, json.loads(out.decode().splitlines()[-1])


def sum_of_medians(records: list[dict], key: str) -> float:
    """Sum over the items of each item's median `key` across the passes."""
    by_item: dict[str, list[float]] = {}
    for r in records:
        by_item.setdefault(r["item"], []).append(r[key])
    return sum(statistics.median(v) for v in by_item.values())


def item_counters(record: dict) -> dict:
    return {k: record[k] for k in COUNTERS if k in record}


# -- per-layer metrics -----------------------------------------------------


def _ratio(a, b):
    if a is None or b is None:
        return None
    return a / b if b else 0.0


def layer_metrics(trace: dict, records: list[dict], untraced_s: float, traced_s: float) -> dict:
    missing_layers = {
        layer for layer, module, path, _ in LAYERS if f"{module}.{path}" in trace["missing"]
    }

    def s(layer: str, slot: int):
        if layer in missing_layers:
            return None
        return sum(table[layer][slot] for table in trace["items"].values())

    def add(*values):
        present = [v for v in values if v is not None]
        return sum(present) if present else None

    def total(counter: str):
        return sum(r.get(counter) or 0 for r in records)

    bp, bl, ins = "backward.predecessor_candidates", "backward.live", INSERT
    pp, pl = "param.predecessor_candidates", "param.live"
    live_calls, dead = s(bl, CALLS), s(bl, EXTRA)
    leq_calls = add(s("ordering.config_leq", EXTRA), s("ordering.param_leq", EXTRA))
    inserts = s(ins, CALLS)
    inserted = s(ins, EXTRA)
    return {
        f"{bp}.calls": s(bp, CALLS),
        f"{bp}.candidates": s(bp, EXTRA),
        f"{bp}.self_s": s(bp, SELF),
        f"{bl}.calls": live_calls,
        f"{bl}.dead": dead,
        f"{bl}.self_s": s(bl, SELF),
        f"{bl}.live_ratio": _ratio(None if dead is None else live_calls - dead, live_calls),
        f"{ins}.calls": inserts,
        f"{ins}.inserted": inserted,
        f"{ins}.subsumed": None if inserted is None else inserts - inserted,
        f"{ins}.evicted": s(ins, EXTRA2),
        f"{ins}.self_s": s(ins, SELF),
        "ordering.leq.calls": leq_calls,
        "ordering.leq.per_insert": _ratio(leq_calls, inserts),
        "ordering.config_leq.calls": s("ordering.config_leq", CALLS),
        "ordering.config_leq.self_s": s("ordering.config_leq", SELF),
        "ordering.word_leq.calls": s("ordering.word_leq", CALLS),
        "ordering.word_leq.self_s": s("ordering.word_leq", SELF),
        "ordering.param_leq.calls": s("ordering.param_leq", CALLS),
        "ordering.param_leq.self_s": s("ordering.param_leq", SELF),
        "ordering.param_leq.per_insert": _ratio(s("ordering.param_leq", EXTRA), inserts),
        "ordering.own_decompose.cache_entries": trace["own_decompose_cache_entries"],
        f"{pp}.calls": s(pp, CALLS),
        f"{pp}.candidates": s(pp, EXTRA),
        f"{pp}.self_s": s(pp, SELF),
        f"{pl}.calls": s(pl, CALLS),
        f"{pl}.dead": s(pl, EXTRA),
        "param.canonical.calls": s("param.canonical", CALLS),
        "param.canonical.self_s": s("param.canonical", SELF),
        "dtso.dtso_successors.calls": s("dtso.dtso_successors", CALLS),
        "dtso.dtso_successors.self_s": s("dtso.dtso_successors", SELF),
        "tso.tso_successors.calls": s("tso.tso_successors", CALLS),
        "tso.tso_successors.self_s": s("tso.tso_successors", SELF),
        "explore.explored": total("explored"),
        "explore.bound_exceeded": total("bound_exceeded"),
        "backward.concretize_witness.self_s": s("backward.concretize_witness", SELF),
        "translate.dtso_to_tso.self_s": s("translate.dtso_to_tso", SELF),
        "translate.tso_to_dtso.self_s": s("translate.tso_to_dtso", SELF),
        "runs.replay.self_s": s("runs.replay", SELF),
        "model.parse_program.self_s": s("model.parse_program", SELF),
        "stats.configs_generated": total("configs_generated"),
        "stats.iterations": total("iterations"),
        "stats.frontier_peak": total("frontier_peak"),
        "stats.minors": total("minors"),
        "trace.verdict_s": traced_s,
        "trace.overhead": _ratio(traced_s, untraced_s),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "per_insert", "overhead")):
        return "ratio"
    return "count"


# -- a run -----------------------------------------------------------------


def measure(items: list, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run over `items`; returns the detailed record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    rng = random.Random(seed)

    def order() -> list:
        shuffled = list(items)
        rng.shuffle(shuffled)
        return shuffled

    passes = []
    setups = []
    if trace:
        for traced in (False, True):
            passes.append(run_worker(order(), traced, deadline)[1])
    else:
        # A set-up alone before each pass spreads the set-up samples over
        # the run; another pass starts only if one as long as the last fits.
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            setups.append(run_worker(order(), False, deadline, setup_only=True)[0])
            setup_s, result = run_worker(order(), False, deadline, probe=True)
            setups.append(setup_s)
            passes.append(result)
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(order(), False, deadline, setup_only=True)[0])

    records = [r for p in passes for r in p["items"]]
    by_item: dict[str, list[dict]] = {}
    for r in records:
        by_item.setdefault(r["item"], []).append(item_counters(r))
    unstable = sorted(name for name, seen in by_item.items() if any(c != seen[0] for c in seen))
    failed = [r for r in records if not r["ok"]]
    record = {
        "workload_items": [item_name(i) for i in items],
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "attempted": len(records),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(records),
        "errors": {r["item"]: r["error"] for r in failed},
        "unstable_counters": unstable,
        "correct": not failed and not unstable,
        "items": {
            name: dict(seen[0], **{
                key: statistics.median(r[key] for r in records if r["item"] == name)
                for key in ("engine_s", "engine_rel")
            })
            for name, seen in sorted(by_item.items())
        },
    }
    if trace:
        untraced, traced = passes
        tr = traced["trace"]
        record["metrics"] = layer_metrics(tr, traced["items"], untraced["verdict_s"], traced["verdict_s"])
        record["missing"] = tr["missing"]
        record["layers_per_item"] = {
            item: {layer: stat_dict(layer, st) for layer, st in table.items() if st[CALLS]}
            for item, table in sorted(tr["items"].items())
        }
        record["spans"] = tr["spans"]
    else:
        record["metrics"] = {
            "verdict_rel": sum_of_medians(records, "engine_rel"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        record["verdict_s"] = sum_of_medians(records, "engine_s")
        record["ref_s"] = statistics.median([r["ref_s"] for r in records if "ref_s" in r] or [0.0])
        record["verdict_rel_per_pass"] = [p["verdict_rel"] for p in passes]
        record["verdict_s_per_pass"] = [p["verdict_s"] for p in passes]
        record["setup_s_samples"] = setups
    return record


def summary(record: dict) -> dict:
    metrics = record["metrics"]
    units = END_TO_END_UNITS if not record["trace"] else {n: layer_unit(n) for n in metrics}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


# -- self-check ------------------------------------------------------------


def smallest_items(items: list, n_files: int = 2) -> list:
    files = sorted({f for _, f in items}, key=lambda f: ((ROOT / "corpus" / f).stat().st_size, f))
    keep = set(files[:n_files])
    return [i for i in items if i[1] in keep]


def traced_counters(record: dict) -> dict:
    layers = {
        item: {layer: {k: v for k, v in st.items() if not k.endswith("_s")} for layer, st in table.items()}
        for item, table in record["layers_per_item"].items()
    }
    counts = {k: v for k, v in record["metrics"].items() if layer_unit(k) == "count"}
    items = {name: item_counters(r) for name, r in record["items"].items()}
    return {"items": items, "layers": layers, "metrics": counts}


def self_check() -> int:
    """Run every workload on its two smallest files and check the metric
    names against BENCHMARK.json and the counters across two seeds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload, definition in WORKLOADS.items():
        items = smallest_items(definition["items"])
        timed = measure(items, seed=1, seconds=0, trace=False)
        traced = [measure(items, seed=seed, seconds=0, trace=True) for seed in (1, 2)]
        for rec in (timed, *traced):
            if not rec["correct"]:
                problems.append(f"{workload}: incorrect run: {rec['errors'] or rec['unstable_counters']}")
        for key, rec in (("end_to_end", timed), ("per_layer", traced[0])):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            reported = {n: m["unit"] for n, m in summary(rec)["metrics"].items()}
            if declared != reported:
                diff = sorted(set(declared.items()) ^ set(reported.items()))
                problems.append(f"{workload}: {key} (name, unit) differ from BENCHMARK.json: {diff}")
        for rec in traced:
            if rec["missing"]:
                problems.append(f"{workload}: wrapped names missing: {rec['missing']}")
        if traced_counters(traced[0]) != traced_counters(traced[1]):
            problems.append(f"{workload}: counters differ between seeds 1 and 2")
        print(f"{workload}: {[item_name(i) for i in items]} checked", file=sys.stderr)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


# -- entry point -----------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dualmc" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no dualmc sources (src/dualmc, corpus/) under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        record = measure(WORKLOADS[args.workload]["items"], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "why": WORKLOADS[args.workload]["why"], **record}
    print(json.dumps(record))
    print(json.dumps(summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
