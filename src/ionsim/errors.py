"""Exception types shared across the package.

Every error raised deliberately by library code derives from IonsimError,
so callers (and the command-line runner) can separate physics/model errors
from programming errors. Two warning types exist: TruncationWarning signals
that a truncated oscillator basis is leaking probability, and RegimeWarning
flags inputs that stretch a model assumption without invalidating the run
outright. A warnings filter set to "error" (as `ionsim run --strict`
installs) raises either warning itself.
"""


class IonsimError(Exception):
    """Base class for all errors raised by this package."""


class InstabilityError(IonsimError):
    """Trap parameters lie outside the stable (perturbative) regime."""


class ConvergenceError(IonsimError):
    """An iterative solver failed to reach its residual target."""


class RangeError(IonsimError):
    """An input lies outside the validity range of the model used."""


class ModelInputError(IonsimError):
    """A required input for the selected model variant is missing or invalid."""


class DimensionError(IonsimError):
    """Operands have incompatible shapes or basis sizes."""


class TruncationError(IonsimError):
    """Probability leaked into the top of the truncated oscillator basis."""


class TruncationWarning(UserWarning):
    """Non-fatal version of TruncationError (default behaviour)."""


class NoRootError(IonsimError):
    """A requested root does not exist in the search interval."""


class SingularSystemError(IonsimError):
    """A linear system required by the model is singular or near-singular."""


class IllConditionedError(IonsimError):
    """A least-squares inversion is too ill-conditioned to be meaningful."""


class RegimeError(IonsimError):
    """Inputs violate the regime assumption of a closed-form limit."""


class RegimeWarning(UserWarning):
    """Inputs stretch a model assumption; results may lose accuracy."""


class ConfigError(IonsimError):
    """An experiment configuration file is malformed.

    The message always names the offending key (dotted path).
    """
