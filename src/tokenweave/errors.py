"""Exception taxonomy shared by all modules.

The CLI maps these onto its exit codes: ValidationError -> 3,
GuardError -> 4 (as it does an OSError from a file that cannot be read),
InvariantError -> 5.
"""


class ValidationError(ValueError):
    """Bad input data, configuration, or arguments."""


class GuardError(RuntimeError):
    """A resource guard refused the request (table too large)."""


class InvariantError(RuntimeError):
    """An internal invariant was breached; indicates a bug, not bad input."""
