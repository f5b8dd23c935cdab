"""Exception types shared across the package.

Every error raised deliberately by library code derives from IonsimError,
so callers (and the command-line runner) can separate physics/model errors
from programming errors. A class exists only where a caller tells it
apart: `ionsim run` exits 2 on ConfigError and 3 on any other IonsimError.
RangeError covers every input outside a model's validity range, including
the failures the physics names (an unstable trap, unresolved sidebands, a
chain that will not settle, a root that does not exist, a degenerate or
ill-conditioned system); its message says which. Two warning types exist:
TruncationWarning signals that a truncated oscillator basis is leaking
probability, and RegimeWarning flags inputs that stretch a model
assumption without invalidating the run outright. A warnings filter set
to "error" (as `ionsim run --strict` installs) raises either warning
itself.
"""


class IonsimError(Exception):
    """Base class for all errors raised by this package."""


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


class RegimeWarning(UserWarning):
    """Inputs stretch a model assumption; results may lose accuracy."""


class ConfigError(IonsimError):
    """An experiment configuration file is malformed.

    The message always names the offending key (dotted path).
    """
