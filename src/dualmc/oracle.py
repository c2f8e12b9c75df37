"""One-step reference oracles over whole configurations.

The engines search coded configurations through move tables.  These
functions state one backward step on plain configurations instead,
from the candidate lists of backward.predecessor_candidates and
param.predecessor_candidates, so that a verdict can be checked apart
from the engine that produced it; the tests compare the engines with
them.  This module imports the engines, and no engine imports it.
"""
from __future__ import annotations

from . import backward, param
from .dtso import DtsoConfig
from .model import ConcurrentProgram, ParamProgram
from .ordering import MinorSet, config_leq, param_leq
from .param import ParamConfig, param_antichain, param_dominance


def minpre_config(c: DtsoConfig, program: ConcurrentProgram) -> MinorSet:
    """Minimal elements of predecessors-plus-self of the closure of c."""
    minors = MinorSet(config_leq, key=lambda d: (d.states, d.mem))
    minors.insert(c)
    for _action, pred in backward.predecessor_candidates(c, program):
        minors.insert(pred)
    return minors


def param_minpre(alpha: ParamConfig, program: ParamProgram) -> MinorSet:
    """Minimal elements of predecessors-plus-self of the closure of alpha."""
    minors = param_antichain(param_leq, param_dominance(program.template.states))
    minors.insert(alpha)
    for _action, pred in param.predecessor_candidates(alpha, program):
        minors.insert(pred)
    return minors


def param_covers_initial(alpha: ParamConfig, program: ParamProgram) -> bool:
    """True iff alpha embeds into the initial configuration of every
    large-enough instance: all processes initial with empty buffers,
    all-zero memory.  The zero-process configuration qualifies."""
    if any(v != 0 for v in alpha.mem):
        return False
    init = program.template.init
    return all(s == init and not b for s, b in alpha.procs)
