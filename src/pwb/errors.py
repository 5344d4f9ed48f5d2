"""Exception taxonomy. Every failure mode a caller can act on gets its own class."""
from __future__ import annotations


class PwbError(Exception):
    """Base class for all errors raised by this package."""


class ScalarError(PwbError):
    pass


class ZeroElementError(ScalarError):
    """Operation undefined on the zero scalar (inverse, multiplicative order)."""


class ParseError(PwbError):
    """Bad source text; carries the 0-based offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    pass


class DivisorZeroError(PwbError):
    pass


class SingularMatrixError(PwbError):
    pass


class DegreeBudgetExceededError(PwbError):
    """Groebner computation hit the S-polynomial degree cap.  The message names
    the least budget that gets past this stop: the degree it reached."""

    def __init__(self, degree: int, budget: int):
        super().__init__(f"S-polynomial degree {degree} exceeds budget {budget}; "
                         f"budget {degree} gets past this stop")
        self.degree = degree
        self.budget = budget


class UnsplittableConditionError(PwbError):
    """A univariate condition has roots outside the cyclotomic numbers."""

    def __init__(self, condition):
        super().__init__(f"univariate condition {condition} does not split over cyclotomic numbers")


class NotSkewError(PwbError):
    pass


class NotQuadraticError(PwbError):
    pass


class JacobiFailsError(PwbError):
    """Bracket table violates the Jacobi identity; carries the witness triple."""

    def __init__(self, triple: tuple[str, str, str]):
        super().__init__(f"Jacobi identity fails on ({triple[0]}, {triple[1]}, {triple[2]})")
        self.triple = triple


class LieJacobiFailsError(PwbError):
    def __init__(self, triple: tuple[int, int, int]):
        super().__init__(f"Lie Jacobi identity fails on basis triple {triple}")
        self.triple = triple


class ZeroPotentialError(PwbError):
    pass


class NotAutomorphismError(PwbError):
    pass


class NotReflectionError(PwbError):
    pass


class BoundExceededError(PwbError):
    """Group closure grew past the configured element bound."""


class InfiniteOrderError(BoundExceededError):
    """A group generator, or an eigenvalue of one, has infinite order, so no
    closure bound suffices; `index` is the generator's position when known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DegreeBoundTooSmallError(PwbError):
    """Invariant generators are incomplete at the requested degree bound."""

    def __init__(self, degree: int, message: str = ""):
        super().__init__(message or f"degree bound too small: mismatch at degree {degree}")
        self.degree = degree


class InducedBracketNotClosedError(PwbError):
    """Bracket of invariants left the generated subalgebra (upstream bug for true fixed rings)."""


class NotMonomialError(PwbError):
    """Component decomposition requested for a non-monomial ideal."""


class CapExceededError(PwbError):
    pass


class InvalidDegreeError(PwbError):
    """A requested degree is outside the range the computation accepts."""


class FileFormatError(PwbError):
    pass


class UsageError(PwbError):
    """A command-line option is missing, or names more files than it takes."""
