"""dualmc: TSO reachability checking through a load-buffer semantics.

The package decides state reachability for concurrent finite-state
programs under TSO by running the equivalent load-buffer semantics
backwards over a well-quasi-ordering, covers the parameterized case of
unboundedly many identical processes, provides bounded forward
explorers for both semantics as oracles, and translates complete
witness runs between the two semantics.
"""
from .backward import BackwardStats, backward_reach, concretize_witness
from .dtso import (
    DtsoConfig,
    dtso_bounded_reach,
    dtso_reachable_empty_buffer_states,
    dtso_successors,
    initial_dtso_config,
)
from .model import (
    Automaton,
    ConcurrentProgram,
    Op,
    ParamProgram,
    ParseError,
    Transition,
    format_program,
    instantiate,
    parse_program,
    validate,
)
from .ordering import (
    MinorSet,
    OwnDecomposition,
    config_leq,
    own_decompose,
    param_leq,
    subword,
    word_leq,
)
from .param import ParamConfig, param_backward_reach
from .runs import Delete, Propagate, ResourceLimitError, Run, RunError, Step, Update, replay
from .translate import (
    PhaseTables,
    compute_index_view,
    compute_match_label_pos,
    compute_phase_configs,
    compute_scheduling,
    dtso_to_tso,
    tso_to_dtso,
)
from .tso import (
    TsoConfig,
    initial_tso_config,
    tso_bounded_reach,
    tso_reachable_empty_buffer_states,
    tso_successors,
)

__all__ = [name for name in dir() if not name.startswith("_")]
