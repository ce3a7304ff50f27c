"""Profile CSV loading: devices, diodes, microphones.

Profiles ship as CSV files inside the package; setting the environment
variable PHOTONINJECT_PROFILE_DIR points the loaders at a directory with
replacement files of the same names. Lines starting with '#' are
comments.

A table is a dict from the lower-cased profile name to the profile, in
file order. One cache, keyed by file name, holds each table with the
text it was built from, or None for a packaged file: a packaged table is
read once per process, a replacement file on every load but parsed again
only when its text changes. `_lookup` reads a cached table without
copying it; the `load_*` functions hand out copies of the frozen
profiles. `_parse_value` parses table columns and scenario-file values
alike. The profile classes are imported by the table that builds them,
so listing devices loads neither the diode model nor the microphone's
waveform code (and numpy).
"""

from __future__ import annotations

import csv
import math
import os

from .errors import FormatError, ProfileNotFoundError

PROFILE_DIR_ENV = "PHOTONINJECT_PROFILE_DIR"

# next to this file rather than through importlib.resources, whose import
# (with pathlib and zipfile) would dominate a cold start
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# file name -> (text read, or None for the packaged file; built table)
_cache: dict[str, tuple[str | None, dict]] = {}


def _read_text(filename: str) -> str:
    override = os.environ.get(PROFILE_DIR_ENV)
    if override:
        path = os.path.join(override, filename)
        if not os.path.isfile(path):
            raise FormatError(f"{path}: profile file not found "
                              f"({PROFILE_DIR_ENV} is set to {override!r})")
    else:
        path = os.path.join(_DATA_DIR, filename)
    with open(path) as fh:
        return fh.read()


def _parse_rows(text: str, filename: str) -> list[tuple[int, dict]]:
    """(line number in the file, row) pairs, comments and blanks skipped."""
    numbered = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
                if ln.strip() and not ln.lstrip().startswith("#")]
    reader = csv.DictReader(ln for _, ln in numbered)
    try:
        return [(numbered[reader.line_num - 1][0], row) for row in reader]
    except csv.Error as exc:
        raise FormatError(f"{filename}: {exc}") from exc


def _table(filename: str, make) -> dict:
    """{lower-cased name: make(row)} of the table, in file order, from the
    cache unless a replacement file's text has changed. A ValueError from
    `make` is reported at `file:line`."""
    text = _read_text(filename) if os.environ.get(PROFILE_DIR_ENV) else None
    entry = _cache.get(filename)
    if entry is None or entry[0] != text:
        rows = _parse_rows(_read_text(filename) if text is None else text,
                           filename)
        table = {}
        for line, row in rows:
            try:
                profile = make(row)
            except ValueError as exc:
                raise FormatError(f"{filename}:{line}: {exc}") from None
            key = profile.name.lower()
            if key in table:
                raise FormatError(f"{filename}:{line}: duplicate name "
                                  f"{profile.name!r}")
            table[key] = profile
        entry = _cache[filename] = (text, table)
    return entry[1]


def _lookup(table: dict, name: str, kind: str):
    """The profile called `name` in `table`, ignoring case and surrounding
    blanks; a miss raises ProfileNotFoundError naming the `kind`."""
    profile = table.get(name.strip().lower())
    if profile is None:
        import difflib  # only a miss pays for it

        raise ProfileNotFoundError(kind, name, difflib.get_close_matches(
            name, [p.name for p in table.values()], n=3, cutoff=0.3))
    return profile


# yes/no spellings a boolean value may take
_BOOLEANS = {"yes": True, "true": True, "1": True,
             "no": False, "false": False, "0": False}


def _parse_value(text: str, kind, what: str):
    """`text` as a finite float, an int or a yes/no bool, as `kind` says.

    A bad value raises ValueError naming `what`, the column or key; the
    caller knows the file and line to report it at.
    """
    value = text.strip()
    try:
        parsed = _BOOLEANS[value.lower()] if kind is bool else kind(value)
        # a comparison, not math.isfinite, which overflows on a huge int
        if -math.inf < parsed < math.inf:
            return parsed
    except (KeyError, ValueError):
        pass
    if kind is bool:
        raise ValueError(f"bad boolean {value!r} for {what}")
    word = "integer" if kind is int else "number"
    raise ValueError(f"bad {word} for {what}: {value!r}")


def _column(row: dict, key: str, filename: str, kind=str):
    """Column `key` of a row: its stripped text, or that text parsed as
    `kind`."""
    value = row.get(key)
    if value is None:
        raise FormatError(f"{filename}: missing column {key!r}")
    if kind is str:
        return value.strip()
    return _parse_value(value, kind, f"column {key!r}")


def _diode(row: dict) -> DiodeProfile:
    from .diode import DiodeProfile

    fn = "diodes.csv"
    return DiodeProfile(
        name=_column(row, "name", fn),
        threshold_ma=_column(row, "i_th_ma", fn, float),
        slope_mw_per_ma=_column(row, "slope_mw_per_ma", fn, float),
        max_current_ma=_column(row, "i_max_ma", fn, float),
        wavelength_nm=_column(row, "wavelength_nm", fn, float),
    )


def _mic(row: dict) -> MicProfile:
    from .mic import MicProfile

    fn = "mics.csv"
    return MicProfile(
        name=_column(row, "name", fn),
        responsivity_per_mw=_column(row, "responsivity", fn, float),
        band_low_hz=_column(row, "band_low_hz", fn, float),
        band_high_hz=_column(row, "band_high_hz", fn, float),
        saturation_mw=_column(row, "saturation_mw", fn, float),
        noise_rms=_column(row, "noise_rms", fn, float),
    )


def load_diodes() -> dict[str, DiodeProfile]:
    return dict(_table("diodes.csv", _diode))


def get_diode(name: str) -> DiodeProfile:
    return _lookup(_table("diodes.csv", _diode), name, "diode")


def load_mics() -> dict[str, MicProfile]:
    return dict(_table("mics.csv", _mic))


def get_mic(name: str) -> MicProfile:
    return _lookup(_table("mics.csv", _mic), name, "microphone")


def device_rows() -> list[dict]:
    """Raw device table rows, in file order."""
    fn = "devices.csv"
    return [row for _, row in _parse_rows(_read_text(fn), fn)]
