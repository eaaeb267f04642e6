"""siltkit: exact computations with silting and simple-minded collections
over bound path algebra quotients.

The package is organised in layers: ``core`` builds algebras and the
minimal projective resolutions of their simples, ``homotopy`` handles
complexes of projectives up to homotopy, ``dg`` works with differential
graded endomorphism algebras and their dual descriptions, and
``correspond`` ties the two kinds of collections together with checks,
mutation walks, and replayable certificates.
"""

from .core import build_algebra
from .errors import (
    ChainConditionViolated,
    IdempotentLiftMissing,
    Inconclusive,
    MalformedRelation,
    NonAdmissible,
    ParseError,
    PatternFailed,
    SiltkitError,
    SimpleNotOneDimensional,
    TruncationUnsound,
    UnknownVertex,
)

__version__ = "0.1.0"

__all__ = [
    "ChainConditionViolated",
    "IdempotentLiftMissing",
    "Inconclusive",
    "MalformedRelation",
    "NonAdmissible",
    "ParseError",
    "PatternFailed",
    "SiltkitError",
    "SimpleNotOneDimensional",
    "TruncationUnsound",
    "UnknownVertex",
    "build_algebra",
    "__version__",
]
