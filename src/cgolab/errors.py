"""Exception types shared across the toolkit."""


class CgolabError(Exception):
    """Base class for toolkit errors; ``diagnostics`` is a JSON-ready dict
    that explains the failure, or None."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConfigError(CgolabError):
    """A run configuration violates the schema; the message names the field."""


class CoefficientError(ValueError):
    """A sampled medium coefficient is out of range; ``name`` is eps, mu, sigma or omega."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


class DivergenceError(CgolabError):
    """Neumann iteration failed to contract (conjugation parameter too small)."""


class ResonantGridError(CgolabError):
    """Too many lattice frequencies fell inside the symbol clamp region."""


class StudyError(CgolabError):
    """A sampled experiment aborted (excessive per-sample failures)."""
