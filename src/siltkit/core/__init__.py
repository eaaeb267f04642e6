"""Quivers, bound path-algebra quotients, and their right modules."""

from .algebras import AlgebraElement, PathAlgebra, build_algebra
from .modules import (
    ModuleMap,
    ProjectiveSumModule,
    RightModule,
    entries_to_map,
    map_to_entries,
    minimal_projective_resolution,
    projective_cover,
    simple_module,
    top_data,
)
from .quivers import Arrow, Path, Quiver, compose, enumerate_paths, path_from_arrows

__all__ = [
    "AlgebraElement",
    "Arrow",
    "ModuleMap",
    "Path",
    "PathAlgebra",
    "ProjectiveSumModule",
    "Quiver",
    "RightModule",
    "build_algebra",
    "compose",
    "entries_to_map",
    "enumerate_paths",
    "map_to_entries",
    "minimal_projective_resolution",
    "path_from_arrows",
    "projective_cover",
    "simple_module",
    "top_data",
]
