"""siltkit: exact computations with silting and simple-minded collections
over bound path algebra quotients.

The package is organised in layers: ``core`` builds algebras and modules,
``homotopy`` handles complexes of projectives up to homotopy, ``dg`` works
with differential graded endomorphism algebras and their dual descriptions,
and ``correspond`` ties the two kinds of collections together with checks,
mutation walks, and replayable certificates.
"""

from .core import build_algebra
from .errors import (
    ChainConditionViolated,
    CharacteristicUnsupported,
    IdempotentLiftMissing,
    Inconclusive,
    MalformedRelation,
    NonAdmissible,
    NotInAmbient,
    ParseError,
    PatternFailed,
    SiltkitError,
    SimpleNotOneDimensional,
    StepFailed,
    TruncationUnsound,
    UnknownVertex,
    ZeroModule,
)

__version__ = "0.1.0"

__all__ = [
    "ChainConditionViolated",
    "CharacteristicUnsupported",
    "IdempotentLiftMissing",
    "Inconclusive",
    "MalformedRelation",
    "NonAdmissible",
    "NotInAmbient",
    "ParseError",
    "PatternFailed",
    "SiltkitError",
    "SimpleNotOneDimensional",
    "StepFailed",
    "TruncationUnsound",
    "UnknownVertex",
    "ZeroModule",
    "build_algebra",
    "__version__",
]
