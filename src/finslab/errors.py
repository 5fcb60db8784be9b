"""Exception types shared across the library."""


class FinslabError(Exception):
    """Base class for all library errors."""


class ExpressionError(FinslabError):
    """Parse or validation failure in the metric expression language.

    Carries the character offset of the offending token when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class EvaluationDomainError(FinslabError):
    """An expression hit an invalid operand (log/sqrt/pow of a non-positive
    base, or division by zero) during evaluation."""


class InadmissibleSample(FinslabError):
    """The tangent sample lies outside the metric's conic domain."""


class NoAdmissibleSample(FinslabError):
    """Rejection sampling exhausted its budget without an admissible hit."""


class SingularMetric(FinslabError):
    """The fundamental tensor is numerically degenerate at the sample."""


class DomainExit(FinslabError):
    """An integration stage left the conic domain."""

    def __init__(self, t: float):
        super().__init__(f"trajectory left the metric domain near t={t!r}")
        self.t = t


class NoConvergence(FinslabError):
    """An iterative solve did not converge within its iteration budget."""


class TransversalityFailure(FinslabError):
    """The probe vector pairs to ~zero with the base vector, so the cone
    cannot be reached along it."""


class PositivityFailure(FinslabError):
    """A conformal factor is not strictly positive on the sampled domain."""


class GridMismatch(FinslabError):
    """Field samples do not line up with the curve grid."""


class IncompatiblePair(FinslabError, ValueError):
    """The two metrics of a conformal pair differ in dimension or domain, or
    a metric and its conformal factor differ in dimension or do not have
    degrees 2 and 0."""


class CurveCheckFailure(FinslabError, ValueError):
    """A curve given to a curve operation is not lightlike, or not a
    geodesic, of the metric the operation needs it to be."""


class ConfigError(FinslabError):
    """Bad experiment configuration (missing file, unknown key, bad value)."""
