"""Quivers, bound path-algebra quotients, and the minimal projective
resolutions of their simple modules."""

from .algebras import AlgebraElement, PathAlgebra, build_algebra
from .modules import minimal_projective_resolution
from .quivers import Arrow, Path, Quiver, compose, enumerate_paths, path_from_arrows

__all__ = [
    "AlgebraElement",
    "Arrow",
    "Path",
    "PathAlgebra",
    "Quiver",
    "build_algebra",
    "compose",
    "enumerate_paths",
    "minimal_projective_resolution",
    "path_from_arrows",
]
