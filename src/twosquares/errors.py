"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A computation would pass one of its limits: the search-bound cap or
    the Pollard rho budget of factorization."""


class FactorizationError(ResourceLimitError):
    """Factorization effort budget exhausted before completion."""
