"""Non-binary quasi-cyclic LDPC code construction and validation toolkit."""

from .gf import Field, NonPrimitivePolyError, min_lambda
from .protograph import (
    CycleRecord,
    DegreeProfile,
    Protograph,
    WalkEnumerationOverflow,
    WalkTable,
    degree_profile,
    enumerate_closed_walks,
    from_base_matrix,
)
from .codec import (
    DecodeResult,
    Encoder,
    QspaDecoder,
    RankDeficiencyError,
    SparseGfMatrix,
    encode,
    is_full_rank,
    qspa_decode,
    rank,
)
from .lift import (
    INF,
    AceConstraint,
    AceSpectrum,
    CanonicalCycleMatrix,
    LiftedCycleClass,
    QcCode,
    ShiftCollisionError,
    UnsupportedStructureError,
    binary_ace_spectrum,
    expand,
    expand_binary,
    frc_canonical,
    frc_lifted,
    lift_cycle,
    nb_ace_spectrum,
    walk_table,
)
from .optimize import (
    OptimizeResult,
    OptimizerConfig,
    ProblemSet,
    assign_labels,
    assign_shifts,
    find_problematic_binary,
    spectrum_search,
)

__version__ = "0.1.0"
