"""Exception types shared across the package."""


class JeffreysError(Exception):
    """Base class for all package errors."""


class DomainError(JeffreysError):
    """An outcome or prediction falls outside the game's declared spaces."""


class ConfigError(JeffreysError):
    """A run configuration is malformed or internally inconsistent."""


class ProtocolViolationError(JeffreysError):
    """A strategy emitted an out-of-domain move during a protocol run."""

    def __init__(self, message: str, step: int):
        super().__init__(f"step {step}: {message}")
        self.step = step


class PoolCollapseError(JeffreysError):
    """Every expert in an aggregating pool has been eliminated."""


class MixabilityViolation(JeffreysError):
    """A pool's mix found no move that dominates the mixture loss within
    ``DOMINATION_TOL``, or a strategy requiring a mixable game was given one
    that is not."""


class DivergenceOverestimate(JeffreysError):
    """The level-2 move has no finite divergence to achieve: the numeric
    move's gap search found no canonical point below the weighted mean
    (its gap exceeds ``DOMINATION_TOL``), or log loss's predictions have
    disjoint support, so the divergence is infinite."""
