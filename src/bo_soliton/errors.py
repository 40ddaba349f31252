"""Exception hierarchy.

Two families: ``DomainError`` for inputs that violate a documented domain
invariant (CLI exit code 3), ``NumericalError`` for computations that broke
down or produced results contradicting a structural guarantee (exit code 4).
"""


class BOSolitonError(Exception):
    pass


class DomainError(BOSolitonError):
    """Input violates a domain invariant."""


class NumericalError(BOSolitonError):
    """A numerical computation failed or broke a structural guarantee."""


# -- domain errors ----------------------------------------------------------

class DegenerateParameters(DomainError):
    """Poles/roots collide within the degeneracy tolerance."""


class DegreeError(DomainError):
    """Polynomial degree outside the admissible range."""


class NotSquareIntegrable(DomainError):
    """Rational function has a nonzero constant part, hence is not in L2."""


class PoleProximity(DomainError):
    """Evaluation point too close to a pole."""


class OrderingViolation(DomainError):
    """Action variables are not strictly increasing and negative."""


class BoundaryNotDecayed(DomainError):
    """Grid field does not decay at the domain edges."""


class GridMismatch(DomainError):
    """Two grid fields do not share the same grid."""


class NonFiniteInput(DomainError):
    """A parameter, action, angle or shift is NaN or infinite, or a closed
    form built from them (M, E_n, H_lambda, Omega) overflows."""


# -- numerical errors -------------------------------------------------------

class InvariantViolation(NumericalError):
    """A structurally guaranteed cancellation or bound failed."""


class DegenerateSpectrum(NumericalError):
    """Eigenvalue gap below the simplicity tolerance."""


class PositivityFailure(NumericalError):
    """An eigenvalue or pairing that must be negative/positive is not."""


class GramIllConditioned(NumericalError):
    """Gram matrix condition number exceeds the trusted range.

    No longer raised by the forward map, which works in an orthonormal
    basis; kept because callers (the benchmark among them) import it.
    """


class EigensolveFailed(NumericalError):
    """A LAPACK eigensolver returned a nonzero info."""


class RootsNotInLowerHalfPlane(NumericalError):
    """Recovered translation-scaling parameters left the lower half-plane."""


class SingularResolvent(NumericalError):
    """Resolvent shift on an eigenvalue to rounding, or non-finite pairing."""


class BlowupDetected(NumericalError):
    """Time integration produced non-finite values."""


class BoundaryContamination(NumericalError):
    """Wave content reached the edges of the periodic domain."""
