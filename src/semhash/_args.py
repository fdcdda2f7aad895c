"""The public API's rules for number, sequence and array arguments, one rule per kind: each takes
the argument, its name and its caller's ``SemhashError`` class (``finite``'s is ``NonFiniteInput``),
returns the argument as the caller uses it, and formats a message only when its check fails."""
from __future__ import annotations

import numbers

import numpy as np

from .errors import NonFiniteInput

# the most float64 entries in one array: numpy makes none over intp-max bytes
MAX_ITEMS = np.iinfo(np.intp).max // 8
_FLOAT_MAX = float(np.finfo(np.float64).max)  # a Python float compares exactly with an int


def count(value, name: str, error: type, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int if it is an integer (Python or numpy, not a bool) in [low, high]."""
    # a Python int skips the slow abstract-class test
    if ((type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool))
            and low <= value and (high is None or value <= high)):
        return int(value)
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise error(f"{name} must be an integer {bounds}, got {value!r}")


def real(value, name: str, error: type, low: float = 0, high: float | None = None,
         open_low: bool = False) -> float:
    """``value`` as a float if it is a finite real number (not a bool) below ``high`` and
    above ``low``, or at ``low`` unless ``open_low``."""
    # a numpy number is compared as a Python one: a float32 would overflow on _FLOAT_MAX
    x = value if type(value) is float else value.item() if isinstance(value, np.generic) else value
    # the bounds on _FLOAT_MAX reject NaN, the infinities and an int that no float holds
    if ((type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool))
            and -_FLOAT_MAX <= x <= _FLOAT_MAX and (low < x if open_low else low <= x)
            and (high is None or x < high)):
        return float(x)
    bounds = f"{'>' if open_low else '>='} {low}" if high is None else (
        f"in {'(' if open_low else '['}{low}, {high})")
    raise error(f"{name} must be a finite real number {bounds}, got {value!r}")


def _array(values, dtype=None) -> np.ndarray | None:
    try:  # None for a ragged nesting, which has no shape
        return np.asarray(values, dtype=dtype)
    except ValueError:
        return None


def sequence(values, name: str, error: type) -> np.ndarray:
    """``values`` as a 1-D object array, whose entries stay as given (a bool stays a bool)."""
    if (items := np.asarray(values, dtype=object)).ndim != 1:
        raise error(f"{name} must be a 1-D sequence, got {values!r}")
    return items


def integers(values, name: str, error: type, high: int, dtype=np.int64) -> np.ndarray:
    """``values`` as a ``dtype`` array if each is an integer in [0, high)."""
    array = values
    if not isinstance(values, np.ndarray):
        # entry by entry, as count reads one: numpy would make a bool among ints 0 or 1,
        # and ints beyond int64 floats or objects
        items = _array(values, object)
        array = items.astype(dtype) if items is not None and all(
            (type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool))
            and 0 <= v < high for v in items.flat) else None
    if array is None or array.size and (
            array.dtype.kind not in "iu" or array.min() < 0 or int(array.max()) >= high):
        raise error(f"{name} must be integers in [0, {high})")
    return array.astype(dtype, copy=False)


def floats(values, name: str, error: type, ndim: int, dtype=np.float64) -> np.ndarray:
    """``values`` as a ``dtype`` array of rank ``ndim`` if they are real numbers (a bool is 0
    or 1); ``dtype=None`` keeps the array's own type."""
    array = _array(values)
    if array is None or array.ndim != ndim or array.dtype.kind not in "biuf":
        got = "a ragged sequence" if array is None else f"{array.dtype} of shape {array.shape}"
        raise error(f"{name} must be a {ndim}-D array of real numbers, got {got}")
    return array if dtype is None else array.astype(dtype, copy=False)


def finite(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` if no entry is NaN or inf, found by min and max: no entry-sized temporary."""
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise NonFiniteInput(f"{name} must not contain NaN or inf")
    return values
