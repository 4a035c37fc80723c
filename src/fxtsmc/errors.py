"""Exception types shared across the package.

The command line maps each base to one exit code: ``ConfigError`` and
``ParameterError`` (both ValueErrors) to 2, ``NumericError`` to 4. Other
runtime errors, such as ``RecursionError`` or ``NotImplementedError``, are
bugs and are left to surface as tracebacks.
"""

import numpy as np


class ParameterError(ValueError):
    """A parameter lies outside the domain a formula or law requires."""


class GainTooSmallError(ParameterError):
    """A gain violates the lower-bound inequality its stability result needs.

    The message states the violated inequality; ``channel`` identifies the
    offending channel when the check was made per channel (None otherwise).
    """

    def __init__(self, message, channel=None):
        super().__init__(message)
        self.channel = channel


class NumericError(RuntimeError):
    """A numeric failure of a run or a fit on valid input.

    ``t`` is the time and ``channel`` the channel where it happened, None
    where unknown.
    """

    def __init__(self, message, t=None, channel=None):
        super().__init__(message)
        self.t = t
        self.channel = channel


class SimulationDivergedError(NumericError):
    """State or accumulator became non-finite, or stepping collapsed."""


class RunErrors(Exception):
    """Errors of single runs, found while a block of runs was stepped together.

    ``errors`` maps the block row of each failed run to the exception that
    run raises when it is simulated on its own.
    """

    def __init__(self, errors):
        super().__init__(f"{len(errors)} run(s) failed")
        self.errors = errors

    @classmethod
    def where(cls, bad, make_error) -> "RunErrors":
        """make_error(r) for every block row r where ``bad`` holds."""
        return cls({int(r): make_error(r) for r in np.flatnonzero(bad)})

    def at(self, rows) -> "RunErrors":
        """The same errors keyed by ``rows[r]`` instead of block row r."""
        return RunErrors({int(rows[r]): err for r, err in self.errors.items()})


class IllConditionedDataError(NumericError):
    """A Gram matrix could not be factorized even after jitter escalation.

    ``pair`` holds the indices of the closest (duplicate or near-duplicate)
    pair of inputs when that diagnosis applies.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class ConfigError(ValueError):
    """A configuration document failed parsing or validation."""
