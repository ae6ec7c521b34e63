"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class BoundaryError(DomainError):
    """Inputs sit on a regime boundary where the classification is not unique."""


class RegimeError(DomainError):
    """Derived quantities contradict the regime the inputs were classified into."""


class FeasibilityError(ValueError):
    """A mechanism violates the supply constraint (two strict winners)."""


class InfeasibleError(DomainError):
    """Nature's LP has no feasible point: the means lie outside the grid's box."""


class UnboundedError(ValueError):
    """A linear program is unbounded below."""


class SizeError(ValueError):
    """An enumeration guard was exceeded."""


class NumericalError(RuntimeError):
    """An iterative routine failed to converge."""
