"""Differential graded algebras, their modules, and dual constructions."""

from .dga import (
    DGAlgebra,
    GradedAlgebraMap,
    cohomology_algebra,
    dg_end,
    find_formality_witness,
    identity_dg_map,
    path_algebra_to_dg,
    smart_truncation,
    verify_dg_quasi_iso,
)
from .dgmod import (
    DGModule,
    SemifreeResolution,
    koszul_dual,
    semifree_resolution,
    simple_dg_modules,
)

__all__ = [
    "DGAlgebra",
    "DGModule",
    "GradedAlgebraMap",
    "SemifreeResolution",
    "cohomology_algebra",
    "dg_end",
    "find_formality_witness",
    "identity_dg_map",
    "koszul_dual",
    "path_algebra_to_dg",
    "semifree_resolution",
    "simple_dg_modules",
    "smart_truncation",
    "verify_dg_quasi_iso",
]
