"""Exception types shared across the package."""

from __future__ import annotations


class AffinvarError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(AffinvarError):
    pass


class NotSymmetricError(AffinvarError):
    pass


class ParseError(AffinvarError):
    """Model file could not be parsed against the JSON schema."""


class NotAdmissibleError(AffinvarError):
    """A necessary condition fails; ``margin``, if set, is the refuting number."""

    margin: float | None = None


class RankDeficiencyError(AffinvarError):
    pass


class ModelInconsistencyError(NotAdmissibleError):
    """The state space is not contained in the PSD region of the diffusion."""


class NotRepresentableError(AffinvarError):
    """No PSD facet decomposition exists; carries the infeasibility diagnostic."""

    def __init__(self, message: str, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic


class NumericalFailureError(AffinvarError):
    """Search was inconclusive; not a proof of nonexistence."""


class NotInSpanError(NotAdmissibleError):
    """The diffusion is not in the span of the conical basis."""


class NotNormalizedError(AffinvarError):
    pass


class NegativeCError(NotAdmissibleError):
    """The parabolic upper-left block is a negative multiple of zeta."""


class PhiVMismatchError(AffinvarError):
    pass


class PreconditionFailedError(AffinvarError):
    pass


class InteriorEmptyError(PreconditionFailedError):
    """The polyhedron has no interior point: the set may collapse onto a
    facet, where coupling rows and facet multipliers would be arbitrary."""


class ZeroQuadraticPartError(PreconditionFailedError):
    """The quadric has no quadratic part: a hyperplane, not a quadric."""


class NotAdmissibleQuadricError(NotAdmissibleError):
    """Quadric is not affinely equivalent to one of the three canonical forms."""


class SigmaMismatchError(AffinvarError):
    pass


class ToleranceWarning(UserWarning):
    """An LP box bound or tolerance was active; result may be conservative."""
