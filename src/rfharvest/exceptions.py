"""Exception types shared across the package."""


class InfeasibleError(ValueError):
    """A requested physical state cannot be reached (e.g. charging to full)."""


class SolverError(RuntimeError):
    """The offline scheduler did not converge, or its optimum failed the
    feasibility check."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class GenerationError(RuntimeError):
    """Random scenario generation exhausted its retry budget."""


class BudgetError(RuntimeError):
    """A brute-force enumeration would exceed its evaluation budget."""


class ConfigError(ValueError):
    """A configuration file is missing, malformed, or inconsistent."""
