"""Collection verification, mutation pipelines, and duality checks."""

from .checks import (
    CheckItem,
    CheckReport,
    CorrespondenceCertificate,
    check_pattern,
    check_presilting,
    check_silting,
    check_smc,
    derived_projective_cover_check,
    derived_projective_test,
    k0_matrix,
    membership,
    pattern_table,
    support_window,
)
from .pipeline import (
    PipelineResult,
    graded_algebra_isomorphism,
    koszul_pair_check,
    lockstep_walk,
    standard_pair,
    wt_pipeline,
)

__all__ = [
    "CheckItem",
    "CheckReport",
    "CorrespondenceCertificate",
    "PipelineResult",
    "check_pattern",
    "check_presilting",
    "check_silting",
    "check_smc",
    "derived_projective_cover_check",
    "derived_projective_test",
    "graded_algebra_isomorphism",
    "k0_matrix",
    "koszul_pair_check",
    "lockstep_walk",
    "membership",
    "pattern_table",
    "standard_pair",
    "support_window",
    "wt_pipeline",
]
