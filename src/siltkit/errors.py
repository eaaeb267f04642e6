"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own class
here; plain ``ValueError`` is reserved for programming errors (bad shapes,
unknown names in internal APIs) that no caller should catch selectively.
``Inconclusive`` means undecided, never a negative answer.
"""

from __future__ import annotations


class SiltkitError(Exception):
    """Base class for all library-specific errors."""


class MalformedRelation(SiltkitError):
    """A relation mixes non-parallel paths, uses unknown arrows, or has a
    term of length < 2.

    Carries optional ``line``/``column`` attributes when raised by the file
    parser so the CLI can point at the offending token.
    """

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class NonAdmissible(SiltkitError):
    """Some path of length equal to the nilpotency bound survives reduction
    modulo the relation ideal, so the quotient cannot be certified
    finite-dimensional at this bound.  ``witness`` holds one surviving path."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class UnknownVertex(SiltkitError):
    """A vertex id that is not declared in the quiver."""


class ChainConditionViolated(SiltkitError):
    """A would-be complex is not one: a differential has the wrong shape,
    an entry outside its e_v A e_w block, or a nonzero square."""


class TruncationUnsound(SiltkitError):
    """A resolution did not end within its cap: the minimal projective
    resolution of a simple within ``RESOLUTION_BOUND``, or a semifree
    resolution within the stages its caller allows.  The message names
    the cap; the object is refused, never cut off."""


class Inconclusive(SiltkitError):
    """A procedure could not decide: indecomposability over the rationals
    when End modulo its radical shows no split, a one-sided model
    (``dg.smart_truncation``, ``dg.positive_model``) whose cohomology
    condition fails, or ``dg.find_formality_witness`` when the cocycle
    section is not a quasi-isomorphism, naming its first violation.
    Deliberately distinct from a ``False`` answer: callers must not treat
    this as "decomposable" or "not formal".
    """


class SimpleNotOneDimensional(SiltkitError):
    """No one-dimensional degree-0 module exists for an idempotent e: the
    corner algebra e E^0 e modulo its radical is not the field, or the
    character read off it is not multiplicative on E^0."""


class IdempotentLiftMissing(SiltkitError):
    """The degree-0 idempotent decomposition is incompatible with the
    differential or with the other idempotents, so the candidate character
    cannot satisfy the required normalization."""


class PatternFailed(SiltkitError):
    """The orthogonality pattern does not hold for any bijection.  Carries
    one offending table entry ``(i, j, m, dimension)`` and the full table."""

    def __init__(self, message: str, witness: tuple | None = None, table=None):
        super().__init__(message)
        self.witness = witness
        self.table = table


class ParseError(SiltkitError):
    """An input file could not be parsed.  Carries the 1-based ``line`` and
    ``column`` it points at, or None for both when the condition concerns
    the whole file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = "" if line is None else f"line {line}, column {column}: "
        super().__init__(where + message)
        self.line = line
        self.column = column
