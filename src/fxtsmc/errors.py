"""Exception types shared across the package.

The command line maps each base to one exit code: ``ConfigError`` and
``ParameterError`` (both ValueErrors) to 2, ``NumericError`` to 4. Other
runtime errors, such as ``RecursionError`` or ``NotImplementedError``, are
bugs and are left to surface as tracebacks.
"""

import numpy as np


class ParameterError(ValueError):
    """A parameter lies outside the domain a formula or law requires."""


class NumericError(RuntimeError):
    """A numeric failure of a run or a fit on valid input. The message names
    the time and the channel where they are known."""


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

    The message names the closest (duplicate or near-duplicate) pair of
    inputs."""


class ConfigError(ValueError):
    """A configuration document failed parsing or validation."""
