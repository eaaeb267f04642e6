"""Complexes of projectives, their homotopy category, and mutation."""

from .compare import find_isomorphism, is_indecomposable, is_isomorphic
from .complexes import (
    ChainMap,
    ProjComplex,
    complex_cohomology_dims,
    cone,
    direct_sum,
    identity_map,
    minimize,
    shift,
    single_projective,
)
from .homs import (
    HomComplex,
    HomSpace,
    cartan_pairing,
    hom_space,
    trusted_window,
)
from .mutation import (
    Approximation,
    left_approximation,
    right_approximation,
    silting_mutate,
    smc_mutate,
)

__all__ = [
    "Approximation",
    "ChainMap",
    "HomComplex",
    "HomSpace",
    "ProjComplex",
    "cartan_pairing",
    "complex_cohomology_dims",
    "cone",
    "direct_sum",
    "find_isomorphism",
    "hom_space",
    "identity_map",
    "is_indecomposable",
    "is_isomorphic",
    "left_approximation",
    "minimize",
    "right_approximation",
    "shift",
    "silting_mutate",
    "single_projective",
    "smc_mutate",
    "trusted_window",
]
