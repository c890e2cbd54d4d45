"""Exception taxonomy shared by all modules.

The CLI reports the class name and maps these onto its exit codes:
CapacityError -> 3, every other LabError -> 2.
"""


class LabError(Exception):
    """Base class for all package errors."""


class DimensionError(LabError):
    """Shape/dimension mismatch between operands."""


class DomainError(LabError):
    """Input outside the mathematical domain of an operation."""


class ModelError(LabError):
    """A chain, graph or measure violates its structural invariants."""


class CapacityError(LabError):
    """Exact enumeration budget exceeded (state count or table bytes too large)."""


class NumericError(LabError):
    """A numerical routine failed to meet its accuracy contract."""


class ConfigError(LabError):
    """An experiment configuration is malformed or inconsistent."""
