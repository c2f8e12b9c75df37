"""cProfile of one benchmark workload, in-process.

    python3 scripts/profile_workload.py --workload check-fixed [--file sb.lit] [--top 25]

Parses the items of one perfbench/workloads.py workload (only those on
corpus file F with --file), then runs each through the library call
the CLI makes for its mode (perfbench/worker.py's engine_call, at the
CLI's default --max-nodes and the benchmark's --buffer-bound) under
one cProfile, and prints the top N functions by self time.  Parsing
is not profiled.  Times are under the profiler, which adds a cost to
every Python call, so compare two trees only by profiles taken in one
session.  The header's total call count can differ by a few hundred
between runs of one tree: pstats keys a function by file, line and
name, every NamedTuple constructor is `<string>:1(<lambda>)`, and one
of them stands for all.  The package is imported from the src/ beside
this script; standard library only.
"""
from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import dualmc  # noqa: E402
from worker import engine_call  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def profile(workload: str, file: str | None, top: int) -> str:
    """The pstats report of the workload's items, top `top` rows by self time."""
    items = [item for item in WORKLOADS[workload]["items"] if file is None or item[1] == file]
    if not items:
        raise SystemExit(f"workload {workload} has no item on {file}")
    programs = {f: dualmc.parse_program((ROOT / "corpus" / f).read_text()) for _, f in items}
    profiler = cProfile.Profile()
    for mode, f in items:
        profiler.runcall(engine_call, dualmc, mode, programs[f])
    out = io.StringIO()
    pstats.Stats(profiler, stream=out).strip_dirs().sort_stats("tottime").print_stats(top)
    return out.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--file", help="profile only the workload's items on this corpus file")
    parser.add_argument("--top", type=int, default=25, help="rows to print (default 25)")
    args = parser.parse_args(argv)
    print(profile(args.workload, args.file, args.top), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
