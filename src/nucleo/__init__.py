"""Exact nucleolus computation and weight/power diagnostics for weighted
majority games."""

__version__ = "0.1.0"

from .games import (
    Representation,
    NormalizedRepresentation,
    WeightTypeTable,
    GameError,
    EmptyPlayerSet,
    NegativeWeight,
    NonPositiveQuota,
    QuotaExceedsTotalWeight,
    ZeroTotalWeight,
    representation,
    validate,
)
from .gameio import ParseError, format_game, parse_game
from .exactlp import (
    ExactLinearProgram,
    LinearConstraint,
    LpSolution,
    MalformedProgram,
    solve,
)
from .coalitions import (
    DimensionMismatch,
    EnumerationLimit,
    ExcessRecord,
    NonIntegerWeights,
    ProfileCoalition,
    excess,
    minimal_winning_count_vectors,
    ordered_excess_vector,
)
from .nucleolus import (
    Level,
    NoImputation,
    NucleolusResult,
    NucleusBox,
    nucleolus,
    nucleus_box,
)
from .theory import (
    CoincidenceReport,
    DegenerateQuota,
    GapReport,
    RegularityReport,
    WeightAbsent,
    coincidence_report,
    distance_bound,
    gap_report,
    interchangeable_pairs,
    interchangeable_type_pairs,
    is_constant_sum,
    is_homogeneous_rep,
    null_players,
    permits_homogeneous_rep,
    regularity_statistic,
    replica_threshold,
)
from .experiments import (
    ConvergenceRow,
    RatioPair,
    SequenceSpec,
    UnknownFormat,
    emit_report,
    eq3_representation,
    run_sequence,
)
