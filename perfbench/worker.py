"""One pass of a workload in a fresh, single-threaded process.

Usage: python3 worker.py '<json spec>'

The spec names the repository root, the items to run in order, whether
to trace and whether to probe the machine's speed (speed.py).  The
worker imports dualmc from the root's src/, parses every file of the
pass, prints "ready", then runs each item through the library call the
CLI makes for its mode, times that call alone (thread CPU seconds and,
when probing, its cost in references), and checks the verdict and any
witness outside the timed region.
The last line of its output is one JSON object describing the pass.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from speed import SpeedProbe
from workloads import BUFFER_BOUND, MAX_NODES, item_name, verdict_consistent


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import dualmc

    if Path(dualmc.__file__).resolve().parent != (src / "dualmc").resolve():
        raise SystemExit(f"dualmc imported from {dualmc.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    items = [tuple(i) for i in spec["items"]]
    texts = {f: (root / "corpus" / f).read_text() for _, f in items}
    programs = {}
    with _span(tracer, "pass"):
        with _span(tracer, "parse"):
            for f, text in texts.items():
                with _span(tracer, f"parse:{f}", item=f"parse:{f}"):
                    programs[f] = dualmc.parse_program(text)
        print("ready", flush=True)
        if spec.get("setup_only"):
            return {}
        results = []
        for item in items:
            name = item_name(item)
            with _span(tracer, name, item=name):
                results.append(run_item(dualmc, item, programs[item[1]], tracer, spec["probe"]))

    out = {
        "items": results,
        "verdict_s": sum(r["engine_s"] for r in results),
        "verdict_rel": sum(r["engine_rel"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        info = getattr(getattr(dualmc.ordering, "own_decompose", None), "cache_info", None)
        if info is None:
            tracer.missing.append("ordering.own_decompose.cache_info")
        out["trace"] = {
            "missing": tracer.missing,
            "spans": tracer.spans,
            "items": tracer.items,
            "own_decompose_cache_entries": info().currsize if info else None,
        }
    return out


def _span(tracer, name: str, item: str | None = None):
    if tracer is None:
        return nullcontext()
    return tracer.span(name, item)


def run_item(dualmc, item: tuple[str, str], program, tracer, probe: bool) -> dict:
    mode, file = item
    record = {"item": item_name(item), "ok": False, "engine_s": 0.0, "engine_rel": 0.0, "error": None}
    try:
        with _span(tracer, "engine"):
            if probe:
                with SpeedProbe() as speed:
                    result = engine_call(dualmc, mode, program)
                record.update(engine_s=speed.cpu_s, ref_s=speed.ref_s, engine_rel=speed.rel)
            else:
                cpu = time.thread_time()
                result = engine_call(dualmc, mode, program)
                record["engine_s"] = time.thread_time() - cpu
        if mode in ("check", "param"):
            record["verdict"] = "reachable" if result.verdict == "Reachable" else "unreachable"
            for counter in ("configs_generated", "iterations", "frontier_peak", "minors"):
                record[counter] = getattr(result, counter)
        else:
            if result.reachable:
                record["verdict"] = "reachable"
            elif result.bound_exceeded:
                record["verdict"] = "bound-exceeded"
            else:
                record["verdict"] = "safe-within-bound"
            record["explored"] = result.explored
            record["bound_exceeded"] = bool(result.bound_exceeded)
        if not verdict_consistent(file, record["verdict"]):
            raise AssertionError(f"verdict {record['verdict']} contradicts the classical TSO verdict")
        with _span(tracer, "validate"):
            validate(dualmc, mode, program, result)
        record["ok"] = True
    except Exception:  # the pass goes on; the item counts as failed
        record["error"] = traceback.format_exc(limit=3)
    return record


def engine_call(dualmc, mode: str, program):
    if mode == "check":
        return dualmc.backward.backward_reach(program, program.target, max_nodes=MAX_NODES)
    if mode == "param":
        return dualmc.param.param_backward_reach(program, max_nodes=MAX_NODES)
    explorer = dualmc.tso.tso_bounded_reach if mode == "explore-tso" else dualmc.dtso.dtso_bounded_reach
    return explorer(program, BUFFER_BOUND, program.target, max_nodes=MAX_NODES)


def validate(dualmc, mode: str, program, result) -> None:
    """Check a reachable verdict's witness against both semantics."""
    runs = dualmc.runs
    if mode == "check" and result.verdict == "Reachable":
        run = dualmc.backward.concretize_witness(program, result)
        runs.replay(run, program, dualmc.dtso.dtso_successors)
        tso_run = dualmc.translate.dtso_to_tso(run, program)
        runs.replay(tso_run, program, dualmc.tso.tso_successors)
        _check_at_target(tso_run, program)
        _check_at_target(dualmc.translate.tso_to_dtso(tso_run, program), program)
    elif mode == "explore-tso" and result.reachable:
        _check_at_target(result.run, program)
        dtso_run = dualmc.translate.tso_to_dtso(result.run, program)
        runs.replay(dtso_run, program, dualmc.dtso.dtso_successors)
        _check_at_target(dtso_run, program)
    elif mode == "explore-dtso" and result.reachable:
        runs.replay(result.run, program, dualmc.dtso.dtso_successors)
        _check_at_target(result.run, program)


def _check_at_target(run, program) -> None:
    final = run.configs[-1]
    if final.states != tuple(program.target) or any(final.buffers):
        raise AssertionError(f"{run.semantics} witness does not end at the target with empty buffers")


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
