"""Exception taxonomy shared by all modules, and the one array check.

The CLI maps these onto its exit codes: ValidationError -> 3,
GuardError -> 4 (as it does an OSError from a file that cannot be read),
InvariantError -> 5.

Every array a value holds or a function takes (token grids, pitch classes,
latents, conditions, probabilities, checkpoint members) is coerced and
checked by checked_array, so malformed numbers of any kind end in a
ValidationError. Pitch classes and conditions are plain arrays, checked
where a function takes them (a condition where the model routes it).
"""

import numpy as np


class ValidationError(ValueError):
    """Bad input data, configuration, or arguments."""


class GuardError(RuntimeError):
    """A resource guard refused the request (table too large)."""


class InvariantError(RuntimeError):
    """An internal invariant was breached; indicates a bug, not bad input."""


def checked_array(values, what: str, ndim: int, whole: bool = False, low=None, high=None):
    """values as an ndim-dimensional int64 array of whole numbers (whole=True)
    or float64 array of finite numbers, each in low..high where given.

    Only bool, int, uint and float input is accepted; text, ragged nesting, a
    fraction where whole numbers are required, NaN and inf raise
    ValidationError naming `what`. An input that already has the target dtype
    is returned as is, not copied.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"{what} must be a rectangular array: {exc}") from exc
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must be numbers, got dtype {arr.dtype}")
    if arr.ndim != ndim:
        raise ValidationError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    if whole and arr.dtype != np.int64:
        with np.errstate(invalid="ignore"):  # NaN, inf and overflow cast to garbage
            cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise ValidationError(f"{what} must be whole numbers")
        arr = cast
    elif not whole:
        arr = arr.astype(np.float64, copy=False)
        if not np.isfinite(arr).all():
            raise ValidationError(f"{what} must be finite")
    if arr.size and (low is not None and arr.min() < low or high is not None and arr.max() > high):
        span = (f"be >= {low}" if high is None else f"be <= {high}" if low is None
                else f"lie in {low}..{high}")
        raise ValidationError(f"{what} must {span}")
    return arr
