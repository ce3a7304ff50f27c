"""Exception types and argument checks shared across the toolkit.

The checks are plain Python, so that the planners can use them without
loading numpy.
"""

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


DeviceNotFoundError = ProfileNotFoundError


def _check_integer(name: str, value) -> None:
    # operator.index takes int and numpy integers but no float; bool is an
    # int subclass, yet never a meaningful count or seed
    if not isinstance(value, bool):
        try:
            operator.index(value)
            return
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_sample_rate(rate) -> None:
    try:
        ok = rate > 0 and int(rate) == rate
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"sample_rate must be a positive integer, got {rate}")
