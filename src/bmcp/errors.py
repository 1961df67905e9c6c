"""Exception types shared across the package."""


class FormatError(ValueError):
    """An instance file violates the BMCP text format.

    Carries the 1-based line number of the offending line when known; the
    number is baked into the message so CLI output stays one line.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ValueError):
    """A generator spec, solver config, or parameter value is invalid."""


class InfeasibleError(ValueError):
    """A selection or move would exceed the knapsack capacity."""


class BuildError(RuntimeError):
    """The compiled move scan could not be built or loaded."""
