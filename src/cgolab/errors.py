"""Exception types shared across the toolkit."""


class CgolabError(Exception):
    """Base class for toolkit errors."""


class ConfigError(CgolabError):
    """A run configuration violates the schema; the message names the field."""


class CoefficientError(ValueError):
    """A sampled medium coefficient is out of range; ``name`` is eps, mu or sigma."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


class DivergenceError(CgolabError):
    """Neumann iteration failed to contract (conjugation parameter too small)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ResonantGridError(CgolabError):
    """Too many lattice frequencies fell inside the symbol clamp region."""

    def __init__(self, message, clamp_report=None):
        super().__init__(message)
        self.clamp_report = clamp_report


class StudyError(CgolabError):
    """A sampled experiment aborted (excessive per-sample failures)."""
