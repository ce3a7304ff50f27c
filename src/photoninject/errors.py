"""Exception types and argument checks shared across the toolkit.

Every public constructor and function checks its arguments with the
same few helpers, so that a bad value raises ValueError with one message
shape: the argument's name first and, for a scalar, its value last.

- `_check_positive(name, v)`: 0 < v < inf
- `_check_nonnegative(name, v)`: 0 <= v < inf
- `_check_integer(name, v, minimum=None)`: an integer, and at least
  `minimum` when one is given
- `_check_sample_rate(rate)`: a positive integral rate, returned as int
- `_check_samples(name, values, ndim=1, nonnegative=False, copy=True)`:
  a finite, non-empty float64 array of rank `ndim`, all >= 0 if
  `nonnegative`, as a read-only copy, or without `copy` as the input
  itself if it is float64

Only `_check_samples` imports numpy, when called, so that the planners
can use the others without loading numpy. Checks that relate two values,
or test a bounded interval, are written where the values live.
"""

import math
import operator


class PhotonInjectError(Exception):
    """Base class for toolkit-specific failures."""


class FormatError(PhotonInjectError):
    """A file does not conform to its expected on-disk format."""


class BudgetError(PhotonInjectError, ValueError):
    """An optical power budget cannot be met by the diode model."""


class FitError(PhotonInjectError, ValueError):
    """A calibration fit has no usable solution."""


class ProfileNotFoundError(PhotonInjectError, LookupError):
    """Unknown device, diode or microphone name, with nearest-match
    suggestions; `kind` says which table was searched."""

    def __init__(self, kind: str, name: str, suggestions=()):
        self.kind = kind
        self.name = name
        self.suggestions = list(suggestions)
        hint = ""
        if self.suggestions:
            hint = "; closest matches: " + ", ".join(self.suggestions)
        super().__init__(f"unknown {kind} {name!r}{hint}")


# chained comparisons with inf: NaN fails every one of them
def _check_positive(name: str, value) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_nonnegative(name: str, value) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")


def _check_integer(name: str, value, minimum: int | None = None) -> None:
    # operator.index takes int and numpy integers but no float; bool is an
    # int subclass, yet never a meaningful count or seed
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_sample_rate(rate) -> int:
    try:
        ok = rate > 0 and int(rate) == rate
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"sample_rate must be a positive integer, got {rate}")
    return int(rate)


def _check_samples(name: str, values, ndim: int = 1, nonnegative: bool = False,
                   copy: bool = True):
    import numpy as np

    # without copy a float64 view, say a frame slice of a recording, is
    # used as it is: making it contiguous would copy it
    arr = (np.array if copy else np.asarray)(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must hold at least one sample, "
                         f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must all be finite")
    if nonnegative and (arr < 0).any():
        raise ValueError(f"{name} must all be >= 0")
    if copy:
        arr.flags.writeable = False
    return arr
