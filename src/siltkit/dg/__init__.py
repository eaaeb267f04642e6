"""Differential graded algebras, their modules, and dual constructions."""

from .dga import (
    DGAlgebra,
    GradedAlgebraMap,
    cohomology_algebra,
    dg_end,
    find_formality_witness,
    path_algebra_to_dg,
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
    "koszul_dual",
    "path_algebra_to_dg",
    "semifree_resolution",
    "simple_dg_modules",
    "verify_dg_quasi_iso",
]
