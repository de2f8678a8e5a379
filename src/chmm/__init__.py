"""Hidden Markov models with declarative side-constraints.

Classical Viterbi decoding explores one best partial path per state; adding
side-constraints (cardinality bounds, all-different, locked regions, sliding
windows) changes the bookkeeping to one best partial path per (state,
checker-store) pair. This package provides the constraint checkers, the
store-keyed decoder that merges partial paths with equal (state, store) keys,
a constrained pair-HMM global aligner, brute-force reference implementations
for all of it, and a CLI with a benchmark harness.
"""

from .constraints import (
    AllDiff,
    Cardinality,
    ConstraintSpec,
    ConstraintStore,
    ConstraintSyntaxError,
    ForRange,
    ForallSubseq,
    LockToSequence,
    LockToSet,
    StateSpecific,
    StateUpdate,
    UpdatePattern,
    as_pattern,
    check_constraints,
    check_sat,
    declarative_satisfies,
    format_constraint,
    init_aggregate,
    init_store,
    parse_constraint,
    validate_spec,
)
from .decoder import (
    Chmm,
    DecodeStats,
    brute_force_constrained,
    constrained_viterbi,
    validate_chmm,
)
from .hmm import Hmm, Run, run_log_probability, validate_model, viterbi
from .modelio import (
    ModelParseError,
    format_model,
    parse_constraints,
    parse_model,
    read_fasta,
)
from .pairhmm import (
    AMINO_ACIDS,
    Alignment,
    PairChmm,
    PairHmmParams,
    align,
    align_plain,
    alignment_log_probability,
    brute_force_align,
    build_pair_chmm,
    gapped_strings,
    ops_from_letters,
    uniform_pair_params,
    validate_pair_params,
)

__version__ = "0.1.0"

__all__ = [
    "AllDiff",
    "AMINO_ACIDS",
    "Alignment",
    "Cardinality",
    "Chmm",
    "ConstraintSpec",
    "ConstraintStore",
    "ConstraintSyntaxError",
    "DecodeStats",
    "ForRange",
    "ForallSubseq",
    "Hmm",
    "LockToSequence",
    "LockToSet",
    "ModelParseError",
    "PairChmm",
    "PairHmmParams",
    "Run",
    "StateSpecific",
    "StateUpdate",
    "UpdatePattern",
    "align",
    "align_plain",
    "alignment_log_probability",
    "as_pattern",
    "brute_force_align",
    "brute_force_constrained",
    "build_pair_chmm",
    "check_constraints",
    "check_sat",
    "constrained_viterbi",
    "declarative_satisfies",
    "format_constraint",
    "format_model",
    "gapped_strings",
    "init_aggregate",
    "init_store",
    "ops_from_letters",
    "parse_constraint",
    "parse_constraints",
    "parse_model",
    "read_fasta",
    "run_log_probability",
    "uniform_pair_params",
    "validate_chmm",
    "validate_model",
    "validate_pair_params",
    "validate_spec",
    "viterbi",
]
