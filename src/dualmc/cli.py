"""Command-line entry point.

Exit codes: 0 the target is unreachable/safe, 1 reachable/unsafe,
2 usage or input error, 3 resource limit exceeded or out of memory,
4 internal error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import backward, dtso, param, runs, translate, tso
from .model import ConcurrentProgram, ParamProgram, ParseError, parse_program

DEFAULT_MAX_NODES = 10**7
# BackwardStats fields that check and param add to their JSON report
SEARCH_COUNTERS = ("frontier_peak", "minors", "dead", "subsumed", "inserted", "evicted")


@dataclass
class Report:
    verdict: str  # reachable | unreachable | safe-within-bound | bound-exceeded
    mode: str
    configs_generated: int
    iterations: int
    time_ms: int
    witness: list[str] | None = None
    counters: dict = field(default_factory=dict)  # JSON only


def emit_report(report: Report, fmt: str = "text") -> str:
    if fmt == "json":
        payload = {
            "verdict": report.verdict,
            "mode": report.mode,
            "configs_generated": report.configs_generated,
            "iterations": report.iterations,
            "time_ms": report.time_ms,
            **report.counters,
        }
        if report.witness is not None:
            payload["witness"] = report.witness
        return json.dumps(payload)
    line = (
        f"mode={report.mode} verdict={report.verdict} "
        f"configs_generated={report.configs_generated} "
        f"iterations={report.iterations} time_ms={report.time_ms}"
    )
    if report.witness is not None:
        line += "\nwitness=" + ";".join(report.witness)
    return line


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ParseError, reported like every other
    input error, instead of printing the usage block and exiting."""

    def error(self, message: str):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualmc", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("check", "param", "explore-tso", "explore-dtso", "translate"):
        sp = sub.add_parser(mode)
        sp.add_argument("file")
        if mode == "translate":
            sp.add_argument("--from", dest="source", choices=("tso", "dtso"), required=True)
            continue
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--max-nodes", type=_non_negative, default=DEFAULT_MAX_NODES)
        sp.add_argument("--witness", action="store_true")
        if mode.startswith("explore"):
            sp.add_argument("--buffer-bound", type=_non_negative, required=True)
    return parser


def _non_negative(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _read_text(path) -> str:
    """A program or run file's text; unreadable or non-UTF-8 files and
    paths with a NUL byte are input errors."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        raise ParseError(f"cannot read {path}: {exc}") from exc


def run(argv: list[str]) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except SystemExit as exc:  # --help
        return 2 if exc.code else 0
    except ParseError as exc:
        print(f"dualmc: {exc}", file=sys.stderr)
        return 2
    except runs.ResourceLimitError as exc:
        print(f"dualmc: {exc}", file=sys.stderr)
        return 3
    except runs.RunError as exc:
        print(f"dualmc: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("dualmc: out of memory", file=sys.stderr)
        return 3
    except Exception as exc:  # a RecursionError or a bug: never exit 1, the "unsafe" code
        print(f"dualmc: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    started = time.monotonic()

    def elapsed_ms() -> int:
        return int((time.monotonic() - started) * 1000)

    if args.mode == "translate":
        return _translate(args)

    program = parse_program(_read_text(args.file))
    if args.mode == "param":
        if not isinstance(program, ParamProgram):
            raise ParseError("param mode needs a ptarget program")
    elif not isinstance(program, ConcurrentProgram):
        raise ParseError(f"{args.mode} mode needs a fixed-mode (target) program")

    if args.mode in ("check", "param"):
        if args.mode == "param":
            stats = param.param_backward_reach(program, max_nodes=args.max_nodes)
        else:
            stats = backward.backward_reach(program, program.target, max_nodes=args.max_nodes)
        reachable = stats.verdict == "Reachable"
        verdict = "reachable" if reachable else "unreachable"
        counts = (stats.configs_generated, stats.iterations)
        counters = {name: getattr(stats, name) for name in SEARCH_COUNTERS}
        actions = stats.witness
    else:
        reach = tso.tso_bounded_reach if args.mode == "explore-tso" else dtso.dtso_bounded_reach
        result = reach(program, args.buffer_bound, program.target, max_nodes=args.max_nodes)
        reachable = result.reachable
        if reachable:
            verdict = "reachable"
        elif result.bound_exceeded:
            verdict = "bound-exceeded"
        else:
            verdict = "safe-within-bound"
        counts = (result.generated, result.expanded)
        counters = {"explored": result.explored, "bound_exceeded": result.bound_exceeded}
        actions = result.run.actions if result.run is not None else None
    witness = None
    if args.witness and actions is not None:
        # a parameterized witness names each process by its position
        witness = [
            runs.action_str(a, f"#{a.proc + 1}" if args.mode == "param" else program.processes[a.proc].name)
            for a in actions
        ]
    print(emit_report(Report(verdict, args.mode, *counts, elapsed_ms(), witness, counters), args.format))
    return 1 if reachable else 0


def _translate(args) -> int:
    label, semantics, action_lines = runs.parse_run_text(_read_text(args.file))
    if semantics != args.source:
        raise ParseError(f"run file is tagged {semantics}, --from says {args.source}")
    program = parse_program(_read_text(Path(args.file).parent / label))
    if not isinstance(program, ConcurrentProgram):
        raise ParseError("translate mode needs a fixed-mode program")

    initial, successors = translate.SEMANTICS[semantics]
    # only a program step moves a process's local state
    states = list(initial(program).states)
    actions = []
    for line in action_lines:
        action = runs.parse_action(line, program, states.__getitem__)
        if isinstance(action, runs.Step):
            states[action.proc] = action.t.dst
        actions.append(action)
    source_run = runs.drive(semantics, initial(program), actions, program, successors)
    if semantics == "tso":
        out = translate.tso_to_dtso(source_run, program)
    else:
        out = translate.dtso_to_tso(source_run, program)
    sys.stdout.write(runs.format_run(out, program, label))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
