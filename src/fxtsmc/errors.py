"""Exception types shared across the package."""


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


class SingularGainError(RuntimeError):
    """An input gain g_i(x) evaluated to zero."""

    def __init__(self, message, channel=None):
        super().__init__(message)
        self.channel = channel


class SimulationDivergedError(RuntimeError):
    """State or accumulator became non-finite, or stepping collapsed."""

    def __init__(self, message, t=None, channel=None):
        super().__init__(message)
        self.t = t
        self.channel = channel


class RunErrors(Exception):
    """Errors of single runs, found while a block of runs was stepped together.

    ``errors`` maps the block row of each failed run to the exception that
    run raises when it is simulated on its own.
    """

    def __init__(self, errors):
        super().__init__(f"{len(errors)} run(s) failed")
        self.errors = errors

    def at(self, rows) -> "RunErrors":
        """The same errors keyed by ``rows[r]`` instead of block row r."""
        return RunErrors({int(rows[r]): err for r, err in self.errors.items()})


class IllConditionedDataError(RuntimeError):
    """A Gram matrix could not be factorized even after jitter escalation.

    ``pair`` holds the indices of the closest (duplicate or near-duplicate)
    pair of inputs when that diagnosis applies.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class UnfitGPError(RuntimeError):
    """A gp-based run was requested without fitted models for every channel."""


class PerturbationBoundError(RuntimeError):
    """A declared perturbation bound was exceeded on the simulation grid."""

    def __init__(self, message, t=None, channel=None):
        super().__init__(message)
        self.t = t
        self.channel = channel


class ConfigError(ValueError):
    """A configuration document failed parsing or validation."""
