"""scripts/stats_digest.py on two small corpus files and on the whole corpus."""
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


# every corpus file's line, then each mode's: a change to the engines
# that moves a counter, a witness or a chain moves one of these, and
# must re-pin them and say why
CORPUS_DIGEST = [
    "dekker-simple.lit 2536de3b9238bcc9",
    "dekker.lit bb6aa31679e1142b",
    "iriw-param.lit 5c9ca1eb6279842d",
    "iriw.lit e8a33a1b31bd6756",
    "isa2-param.lit d7e2c02cf07823d4",
    "isa2.lit 142ea7ebb757c731",
    "lb-param.lit 44ecf3bd856bdea4",
    "lb.lit ff6e398a6ee20bf7",
    "mp-param.lit 43b81ed0d9a3f0ac",
    "mp.lit dec4fda9d81c5f09",
    "peterson-repeat.lit 78923288c3eecb48",
    "peterson.lit 19f796c0628be906",
    "rwc-param.lit a2cfb809d5f45a6b",
    "rwc.lit 46a50627dc118943",
    "sb-param.lit 758a20ea40707410",
    "sb.lit 1a6c647898c24932",
    "wrc-param.lit 8ac9a667770b1756",
    "wrc.lit 1ff7723571148038",
    "wrwc-param.lit 5d018731e24f77da",
    "wrwc.lit 207d7ba98dbab3fc",
    "fixed e3cc84c7e747f316",
    "param 675c2c7fd58f8d06",
]


def test_digest_lines_pin_the_whole_corpus(capsys):
    """Without arguments the script searches all 20 corpus files and
    prints these 22 lines."""
    assert load_script().main([]) == 0
    assert capsys.readouterr().out.splitlines() == CORPUS_DIGEST


def test_digest_reads_every_field():
    """Changing any one BackwardStats field changes the digest."""
    module = load_script()
    prog = corpus_program("isa2.lit")
    stats = backward_reach(prog, prog.target)
    digest = module.stats_digest(stats)
    for f in dataclasses.fields(stats):
        changed = dataclasses.replace(stats, **{f.name: "changed"})
        assert module.stats_digest(changed) != digest, f.name
