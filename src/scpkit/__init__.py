"""Sparse complementary pairs with exact correlation verification.

Build complementary sequence pairs that contain controlled runs of zeros
and keep a zero-correlation zone, generate their mutually orthogonal
mates, and verify every claimed correlation property with exact
arithmetic over roots of unity.

All types are immutable values and every operation is a pure function of
its arguments, so instances can be shared freely across threads.  Sweep
results do not depend on the order the cells are visited in: the per-cell
seeds derive from the cell identity.
"""

from .construct import (
    ScpPair,
    ScpParams,
    construct_mate,
    construct_scp,
    pair_function,
    params_from_dict,
    params_from_restricted_set,
    params_to_dict,
)
from .correlate import (
    CorrelationProfile,
    CyclotomicInt,
    autocorrelation,
    conj_symmetry_check,
    correlation_profile,
    cross_correlation,
    cyclotomic_polynomial,
    write_profile_csv,
)
from .rgbf import (
    GeneralizedBooleanFunction,
    Restriction,
    SparseSequence,
    restrict,
    restricted_sequence,
    truncate,
    truncation_bounds,
)
from .verify import (
    CatalogRow,
    ConditionCheck,
    DEFAULT_SEED,
    SweepCell,
    SweepSummary,
    VerificationReport,
    check_mate,
    check_scp,
    exhaustive_sweep,
    float_cross_correlation,
    length_catalog,
    measure_zcz,
    valid_permutations,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogRow",
    "ConditionCheck",
    "CorrelationProfile",
    "CyclotomicInt",
    "DEFAULT_SEED",
    "GeneralizedBooleanFunction",
    "Restriction",
    "ScpPair",
    "ScpParams",
    "SparseSequence",
    "SweepCell",
    "SweepSummary",
    "VerificationReport",
    "autocorrelation",
    "check_mate",
    "check_scp",
    "conj_symmetry_check",
    "construct_mate",
    "construct_scp",
    "correlation_profile",
    "cross_correlation",
    "cyclotomic_polynomial",
    "exhaustive_sweep",
    "float_cross_correlation",
    "length_catalog",
    "measure_zcz",
    "pair_function",
    "params_from_dict",
    "params_from_restricted_set",
    "params_to_dict",
    "restrict",
    "restricted_sequence",
    "truncate",
    "truncation_bounds",
    "valid_permutations",
    "write_profile_csv",
]
