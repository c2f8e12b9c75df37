"""Workloads of the corpus benchmark and the expected verdict of every file.

The expected verdicts are the classical TSO verdicts listed in the corpus
section of the README, written out by hand; they are not produced by any
engine, so a wrong engine verdict shows up as a failure.
"""
from __future__ import annotations

# True: the target is reachable under classical TSO (the program is unsafe).
UNSAFE = {
    "sb.lit": True,
    "rwc.lit": True,
    "wrwc.lit": True,
    "dekker-simple.lit": True,
    "dekker.lit": True,
    "peterson.lit": True,
    "peterson-repeat.lit": True,
    "lb.lit": False,
    "mp.lit": False,
    "wrc.lit": False,
    "isa2.lit": False,
    "iriw.lit": False,
    "sb-param.lit": True,
    "rwc-param.lit": True,
    "wrwc-param.lit": True,
    "lb-param.lit": False,
    "mp-param.lit": False,
    "wrc-param.lit": False,
    "isa2-param.lit": False,
    "iriw-param.lit": False,
}

FIXED = sorted(f for f in UNSAFE if not f.endswith("-param.lit"))
PARAM = sorted(f for f in UNSAFE if f.endswith("-param.lit"))

# The CLI's defaults: --max-nodes 10**7; the explorers run at --buffer-bound 1.
MAX_NODES = 10**7
BUFFER_BOUND = 1

# An item is (mode, corpus file); the modes are the CLI's.
WORKLOADS = {
    "check-fixed": {
        "why": (
            "fixed-size predecessors, the liveness cut and the config_leq/word_leq antichain; "
            "early-exit reachable searches mixed with full-fixpoint unreachable ones"
        ),
        "items": [("check", f) for f in FIXED],
    },
    "check-param": {
        "why": (
            "the same antichain under param_leq with memory-only buckets, fresh-process "
            "predecessors and canonical; a fixed-mode antichain change should not move it"
        ),
        "items": [("param", f) for f in PARAM],
    },
    "explore-k1": {
        "why": (
            "both bounded forward explorers at K=1; bypasses the backward engine and the "
            "antichain, so it is the should-not-move control for backward-engine changes"
        ),
        # sb.lit is left out of the load-buffer explorer: its K=1 space exceeds
        # two million configurations and takes minutes.
        "items": [("explore-dtso", f) for f in FIXED if f != "sb.lit"]
        + [("explore-tso", f) for f in FIXED],
    },
}


def item_name(item: tuple[str, str]) -> str:
    mode, file = item
    return f"{mode}:{file}"


def verdict_consistent(file: str, verdict: str) -> bool:
    """Whether a CLI verdict agrees with the classical TSO verdict.

    An exact verdict must match; a bounded one must not contradict it,
    and bound-exceeded is consistent with either.
    """
    unsafe = UNSAFE[file]
    if verdict == "reachable":
        return unsafe
    if verdict in ("unreachable", "safe-within-bound"):
        return not unsafe
    return verdict == "bound-exceeded"
