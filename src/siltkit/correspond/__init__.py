"""Collection verification, lockstep mutation walks, and duality checks."""

from .checks import (
    CheckItem,
    CheckReport,
    CorrespondenceCertificate,
    check_pattern,
    check_presilting,
    check_silting,
    check_smc,
    k0_matrix,
    pattern_table,
    support_window,
)
from .pipeline import (
    graded_algebra_isomorphism,
    koszul_pair_check,
    lockstep_walk,
    standard_pair,
)

__all__ = [
    "CheckItem",
    "CheckReport",
    "CorrespondenceCertificate",
    "check_pattern",
    "check_presilting",
    "check_silting",
    "check_smc",
    "graded_algebra_isomorphism",
    "k0_matrix",
    "koszul_pair_check",
    "lockstep_walk",
    "pattern_table",
    "standard_pair",
    "support_window",
]
