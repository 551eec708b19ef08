"""Exact tools for the k-sum multiset reconstruction problem.

The package answers, with exact rational arithmetic throughout, when a
multiset of n numbers is determined by the multiset of its k-element
sums: symmetric-function identities linking the power sums of the k-sums
to those of the base set, an elimination pipeline that reduces the
(n, k) = (12, 4) case to a quadratic, residual checks certifying known
ambiguous pairs, and a bounded exhaustive collision search.
"""

from .algebra import (
    Monomial,
    Poly,
    UnboundVariableError,
    Var,
    evar,
    svar,
)
from .elimination import (
    EliminationTables,
    NonLinearPivotError,
    QuadraticInS6,
    build_elimination_tables,
    coefficient_report,
    fourteenth_quadratic,
    quadratic_at,
    residual_equation_indices,
    residual_relations,
    second_root,
    s7_linear_condition,
    solve_quadratic,
)
from .known import COLLISION_FIRST, COLLISION_SECOND, DOUBLE_ROOT_SET
from .multisets import (
    BadKError,
    NumberMultiset,
    PowerSumVector,
    SumMultiset,
    affine_image,
    as_multiset,
    centred_power_sums,
    collision_class_key,
    format_multiset,
    ksums,
    parse_multiset,
    power_sum,
    power_sum_vector,
)
from .search import (
    CollisionRecord,
    SearchSpec,
    dedupe_records,
    find_collisions,
    verify_record,
)
from .symfunc import (
    BadRangeError,
    e_expansion,
    e_power_sums,
    elementary_in_power_sums,
    load_identity_fixtures,
    macmahon_reduce,
    newton_extend,
)

__version__ = "0.1.0"

__all__ = [
    "BadKError",
    "BadRangeError",
    "COLLISION_FIRST",
    "COLLISION_SECOND",
    "CollisionRecord",
    "DOUBLE_ROOT_SET",
    "EliminationTables",
    "Monomial",
    "NonLinearPivotError",
    "NumberMultiset",
    "Poly",
    "PowerSumVector",
    "QuadraticInS6",
    "SearchSpec",
    "SumMultiset",
    "UnboundVariableError",
    "Var",
    "affine_image",
    "as_multiset",
    "build_elimination_tables",
    "centred_power_sums",
    "coefficient_report",
    "collision_class_key",
    "dedupe_records",
    "e_expansion",
    "e_power_sums",
    "elementary_in_power_sums",
    "evar",
    "find_collisions",
    "format_multiset",
    "fourteenth_quadratic",
    "ksums",
    "load_identity_fixtures",
    "macmahon_reduce",
    "newton_extend",
    "parse_multiset",
    "power_sum",
    "power_sum_vector",
    "quadratic_at",
    "residual_equation_indices",
    "residual_relations",
    "second_root",
    "s7_linear_condition",
    "solve_quadratic",
    "svar",
    "verify_record",
]
