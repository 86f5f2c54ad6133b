"""Exception types shared across the engine."""


class HodgeRepError(Exception):
    """Base class for engine errors."""


class InvalidTypeError(HodgeRepError, ValueError):
    """A Lie type outside the catalogued rank bounds."""


class NonDominantError(HodgeRepError, ValueError):
    """An operation required a dominant weight and got something else."""


class ResourceLimitError(HodgeRepError, RuntimeError):
    """A weight-system computation exceeded the configured size guard."""

    def __init__(self, message: str, dimension: int):
        super().__init__(message)
        self.dimension = dimension


class ShapeError(HodgeRepError, ValueError):
    """A candidate fits no Hodge-assembly case: the assembly rule in
    `products` rejects its factor levels, reality type or top eigenspace."""


class ConsistencyError(HodgeRepError, AssertionError):
    """An internal invariant failed (e.g. a non-integral parity pairing)."""
