"""scripts/stats_digest.py on two small corpus files."""
import dataclasses
import importlib.util
from pathlib import Path

from dualmc import backward_reach

from conftest import corpus_program

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stats_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("stats_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_pin_two_small_files(capsys):
    """One line per file, pinned, then one per mode over that mode's
    lines.  Neither program has a symmetry, so both are searched
    unreduced."""
    module = load_script()
    assert module.main(["isa2.lit", "mp-param.lit"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["isa2.lit 142ea7ebb757c731", "mp-param.lit 43b81ed0d9a3f0ac"]
    assert lines[2:] == [f"fixed {module.sha(lines[0])}", f"param {module.sha(lines[1])}"]


def test_digest_reads_every_field():
    """Changing any one BackwardStats field changes the digest."""
    module = load_script()
    prog = corpus_program("isa2.lit")
    stats = backward_reach(prog, prog.target)
    digest = module.stats_digest(stats)
    for f in dataclasses.fields(stats):
        changed = dataclasses.replace(stats, **{f.name: "changed"})
        assert module.stats_digest(changed) != digest, f.name
