"""gencomp: a finitary workbench for density-1 computability constructions.

Exact rational density and gap combinatorics over dyadic blocks, bit
codings recoverable from dense partial descriptions, a staged universal
reflexive relation, enumeration operators compiled from stage machines,
and a replayable diagonalization engine with pluggable path selectors and
opponent enumerators.
"""

from .codings import (
    AsymmetricJoin,
    IntervalCoding,
    ValuationCoding,
    asymmetric_join_bit,
    decode_interval,
    decode_valuation,
    encode_interval,
    encode_valuation,
    two_adic_valuation,
)
from .density import (
    Block,
    DensityProfile,
    GapCensus,
    block_of,
    density_profile,
    density_threshold,
    gap_census,
    gap_density_upper,
    prefix_density,
)
from .diagonal import (
    GapRule,
    GapRuleTable,
    LeftmostSelector,
    MarkerRecord,
    RightmostSelector,
    RunConfig,
    ScriptedSelector,
    StrategySpec,
    Trace,
    TreeState,
    audit_trace,
    functional_value_set,
    run_construction,
    run_pair,
    run_single,
    select_marker_node,
    trace_from_jsonable,
    trace_to_jsonable,
    trap_status,
)
from .enumops import (
    EnumerationOperator,
    FunctionalSpec,
    apply_operator,
    finite_assignment,
    functional_to_operator,
    generic_computation_from_subset_enumeration,
    subset_enumeration_from_generic_computation,
    union_over_labeled_orderings,
)
from .harness import builtin_adversaries, run_experiment, verify_trace_file
from .reals import (
    BitPrefix,
    Enumerator,
    EventuallyPeriodicReal,
    ExplicitPrefixReal,
    GenericDescription,
    RealSpec,
    SeededReal,
    TimeDependentDescription,
    all_ones,
    all_zeros,
    validate_description,
)
from .relations import (
    Embedding,
    FiniteReflexiveRelation,
    UElement,
    embed_relation,
    pair_code,
    pair_decode,
    related,
    relation_member_bit,
    stage_interval,
    universal_rel,
)

__version__ = "0.1.0"
