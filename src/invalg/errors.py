"""Exception types used across the library.

Every error raised on a mathematical precondition or a numerical certificate
failure derives from :class:`InvalgError`, so callers (and the CLI) can
distinguish domain failures from programming bugs.
"""


class InvalgError(Exception):
    """Base class for all library-specific errors."""


class NotAGroup(InvalgError):
    """A multiplication table violates the group axioms.

    Carries a ``witness`` attribute: the offending triple ``(a, b, c)`` for an
    associativity failure, or ``None`` for identity/inverse failures.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CapExceeded(InvalgError):
    """An enumeration grew past its configured size cap."""


class NotARepresentation(InvalgError):
    """Matrices fail the homomorphism (or cocycle) law.

    Carries ``worst_pair``, the element pair with the largest deviation.
    """

    def __init__(self, message, worst_pair=None, deviation=None):
        super().__init__(message)
        self.worst_pair = worst_pair
        self.deviation = deviation


class RoundingAmbiguous(InvalgError):
    """A value that must be an integer is not within tolerance of one."""


class ToleranceFailure(InvalgError):
    """A numerical certificate could not be established within tolerance."""


class NotSemisimple(InvalgError):
    """The trace form of an algebra is degenerate.

    Carries ``witness``: a matrix in the radical direction, when one was found.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAnIdeal(InvalgError):
    """A subspace is not closed under the required one-sided multiplication."""


class InfiniteLattice(InvalgError):
    """The invariant lattice is not a finite list.

    Carries ``parametrization`` describing the continuous families.
    """

    def __init__(self, message, parametrization=None):
        super().__init__(message)
        self.parametrization = parametrization


class NotAnAutomorphism(InvalgError):
    """An action matrix is not an algebra automorphism of the matrix algebra."""


class MatchFailure(InvalgError):
    """A permuted idempotent could not be matched to any list member."""


class AssertionFailure(InvalgError):
    """A theory-guaranteed identity failed at runtime (numerical fault)."""


class BlocksNotDirect(InvalgError):
    """Translated copies of a subspace do not span a direct sum."""


class NotCentralSimple(InvalgError):
    """A subalgebra expected to be central simple is not."""


class FactorRecoveryFailure(InvalgError):
    """A tensor factor could not be recovered (rearrangement not rank one)."""


class NonIntegerDimension(InvalgError):
    """The Weyl dimension product did not reduce to an integer."""
