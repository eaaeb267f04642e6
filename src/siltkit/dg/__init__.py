"""Differential graded algebras, their simple modules, and dual constructions."""

from .dga import (
    DGAlgebra,
    GradedAlgebraMap,
    cohomology_algebra,
    dg_end,
    find_formality_witness,
    path_algebra_to_dg,
    positive_model,
    smart_truncation,
    verify_dg_quasi_iso,
)
from .dgmod import (
    SemifreeResolution,
    ext_algebra,
    koszul_dual,
    semifree_resolution,
    simple_dg_modules,
)

__all__ = [
    "DGAlgebra",
    "GradedAlgebraMap",
    "SemifreeResolution",
    "cohomology_algebra",
    "dg_end",
    "ext_algebra",
    "find_formality_witness",
    "koszul_dual",
    "path_algebra_to_dg",
    "positive_model",
    "semifree_resolution",
    "simple_dg_modules",
    "smart_truncation",
    "verify_dg_quasi_iso",
]
