"""Digests of every BackwardStats field of the corpus searches.

    python3 scripts/stats_digest.py [FILE ...]

Runs each corpus file's exact search, backward_reach at the file's
target for a fixed-size program and param_backward_reach for a
parameterized one, and prints one line per file: its name and a
sha256 prefix of the repr of every BackwardStats field in order,
verdict, witness and decoded chain included.  Then one line per mode,
`fixed` then `param`, with a sha256 prefix over that mode's file
lines.  Two trees that print equal lines ran the same searches to the
same verdicts, counters, witnesses and chains.  FILE arguments name
corpus files, all of corpus/ without any.  The package is imported
from the src/ beside this script; standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "src"))

from dualmc import ParamProgram, backward_reach, param_backward_reach, parse_program  # noqa: E402


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stats_digest(stats) -> str:
    """The digest of every field of one BackwardStats."""
    return sha(repr(tuple(getattr(stats, f.name) for f in fields(stats))))


def digest_lines(names: list[str]) -> list[str]:
    """One line per corpus file named, then one per mode searched."""
    lines = []
    modes: dict[str, list[str]] = {"fixed": [], "param": []}
    for name in names:
        program = parse_program((CORPUS / name).read_text())
        if isinstance(program, ParamProgram):
            mode, stats = "param", param_backward_reach(program)
        else:
            mode, stats = "fixed", backward_reach(program, program.target)
        lines.append(f"{name} {stats_digest(stats)}")
        modes[mode].append(lines[-1])
    return lines + [f"{mode} {sha(chr(10).join(found))}" for mode, found in modes.items() if found]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="corpus file names (default: every corpus file)")
    args = parser.parse_args(argv)
    names = args.files or sorted(path.name for path in CORPUS.glob("*.lit"))
    print("\n".join(digest_lines(names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
