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


class ZeroModule(SiltkitError):
    """An operation that needs a nonzero module received the zero module."""


class ChainConditionViolated(SiltkitError):
    """A would-be chain map does not commute with the differentials (up to
    the sign required by its degree)."""


class TruncationUnsound(SiltkitError):
    """A Hom computation was requested in a degree that an incomplete
    (truncated) complex cannot answer reliably."""

    def __init__(self, message: str, degree: int | None = None, window=None):
        super().__init__(message)
        self.degree = degree
        self.window = window


class Inconclusive(SiltkitError):
    """A bounded procedure could not decide.  An isomorphism or
    indecomposability test raises it when the endomorphism ring is not
    known to be local and the coefficient search would exceed
    ``SEARCH_BUDGET``; ``dg.find_formality_witness`` raises it when its
    coboundary correction finds no witness, naming where it stopped.
    Deliberately distinct from a ``False`` answer: callers must not treat
    this as "not isomorphic" or "not formal".
    """


class CharacteristicUnsupported(SiltkitError):
    """Indecomposability testing has no sound procedure for this coefficient
    field within the configured budget."""


class SimpleNotOneDimensional(SiltkitError):
    """No one-dimensional degree-0 module exists for an idempotent: the
    multiplicative character forced by the idempotent does not exist."""


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


class NotInAmbient(SiltkitError):
    """A weight-side membership test was requested without a certified
    generating partner collection, so the ambient category is not pinned
    down."""


class StepFailed(SiltkitError):
    """A pipeline step failed verification.  ``step`` is 0 for the starting
    pair and k for the k-th script entry."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class ParseError(SiltkitError):
    """An input file could not be parsed.  Always carries ``line`` and
    ``column`` (1-based) for diagnostics."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
