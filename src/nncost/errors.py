"""Exception types shared across the toolkit."""


class NNCostError(Exception):
    """Base class for all toolkit errors."""


class SpecSyntaxError(NNCostError):
    """Architecture document is not well-formed JSON."""


class SchemaError(NNCostError):
    """Architecture document violates the schema.

    Carries the path of the offending field, e.g. ``layers[2].s_p``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DomainError(NNCostError):
    """Argument outside the mathematical domain of an operation."""


class ShapeError(NNCostError):
    """Array or mask shape inconsistent with the owning layer."""


class EmptyOutput(NNCostError):
    """Layer emits no features: a convolution with no kernel placement."""


class ValidationError(NNCostError):
    """Network failed structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid network: {lines}")


class DimensionMismatch(NNCostError):
    """Vectors of unequal dimension passed to a kernel evaluation."""


class SingularCovariance(NNCostError):
    """Covariance matrix not positive definite even after jitter escalation."""


class InfeasibleSpace(NNCostError):
    """No candidate in the search space satisfies the complexity constraint."""


class ObjectiveError(NNCostError):
    """Objective evaluation failed; carries the offending parameter vector."""

    def __init__(self, theta, cause):
        self.theta = theta
        self.cause = cause
        super().__init__(f"objective failed at theta={theta!r}: {cause}")
