"""absix: exact weight-graded cohomology for complements of NC divisors.

The package computes, over exact rationals, the weight-graded ordinary,
compactly supported, boundary, and absolute intersection cohomology of a
smooth open variety presented as a smooth proper compactification minus a
normal-crossing divisor, together with the comparison tables against the
one-point compactification.  See the README for the atlas file format and
the command-line interface.
"""

__version__ = "0.1.0"

from .errors import (
    AbsixError,
    DimensionError,
    InternalError,
    InvalidAtlas,
    MissingSelfIntersections,
    NotIdempotent,
    PairingNotPerfect,
    ParseError,
    PreconditionViolated,
    UnknownCorpusItem,
    WeightMismatch,
)
from .qmat import Matrix
from .hodgecore import (
    CohomologyTable,
    MixedGraded,
    PureMorphism,
    PureObject,
    table,
    weight_support,
)
from .factor import ChDecomposition, ch_factorization, idempotent_kernel, versal_embed
from .atlas import (
    StratumAtlas,
    dump_atlas,
    dumps_atlas,
    load_atlas,
    loads_atlas,
    read_atlas,
    require_valid,
    validate_atlas,
)
from .corpus import builtin
from .wss import (
    WeightComplex,
    grW,
    grW_c,
    gysin_complex,
    lowest_weight_compact,
    restriction_complex,
    u_map,
)
from .absic import (
    AbsicResult,
    absolute_ic,
    boundary_cohomology,
    compact_table,
    direct_factor_check,
    plain_table,
)
from .plus import (
    ComparisonReport,
    CriteriaReport,
    DichotomyResult,
    compare_candidates,
    ih_one_point,
    intersection_matrix,
    intersection_matrix_rank,
    plus_dichotomy,
    weight_criteria,
)

__all__ = [
    "__version__",
    "AbsixError",
    "DimensionError",
    "InternalError",
    "InvalidAtlas",
    "MissingSelfIntersections",
    "NotIdempotent",
    "PairingNotPerfect",
    "ParseError",
    "PreconditionViolated",
    "UnknownCorpusItem",
    "WeightMismatch",
    "Matrix",
    "CohomologyTable",
    "MixedGraded",
    "PureMorphism",
    "PureObject",
    "table",
    "weight_support",
    "ChDecomposition",
    "ch_factorization",
    "idempotent_kernel",
    "versal_embed",
    "StratumAtlas",
    "builtin",
    "dump_atlas",
    "dumps_atlas",
    "load_atlas",
    "loads_atlas",
    "read_atlas",
    "require_valid",
    "validate_atlas",
    "WeightComplex",
    "grW",
    "grW_c",
    "gysin_complex",
    "lowest_weight_compact",
    "restriction_complex",
    "u_map",
    "AbsicResult",
    "absolute_ic",
    "boundary_cohomology",
    "compact_table",
    "direct_factor_check",
    "plain_table",
    "ComparisonReport",
    "CriteriaReport",
    "DichotomyResult",
    "compare_candidates",
    "ih_one_point",
    "intersection_matrix",
    "intersection_matrix_rank",
    "plus_dichotomy",
    "weight_criteria",
]
