"""Profile CSV loading: devices, diodes, microphones.

Profiles ship as CSV files inside the package; setting the environment
variable PHOTONINJECT_PROFILE_DIR points the loaders at a directory with
replacement files of the same names. Lines starting with '#' are
comments.

A packaged table is read and parsed once per process. A replacement file
is read on every load but parsed only when its text differs from the
text last parsed for that file name, so an edited or redirected file is
always picked up. Loaders hand out copies of the parsed table; the
profiles themselves are frozen. The profile classes are imported by the
table that builds them, so listing devices loads neither the diode model
nor the microphone's waveform code (and numpy).
"""

from __future__ import annotations

import csv
import math
import os

from .errors import FormatError

PROFILE_DIR_ENV = "PHOTONINJECT_PROFILE_DIR"

# next to this file rather than through importlib.resources, whose import
# (with pathlib and zipfile) would dominate a cold start
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

_packaged: dict[str, object] = {}      # file name -> built table
_replaced: dict[str, tuple] = {}       # file name -> (text, built table)


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


def _table(filename: str, build):
    """`build(rows)` of the table: a packaged file is built once per
    process, a replacement file again whenever its text changes."""
    if not os.environ.get(PROFILE_DIR_ENV):
        built = _packaged.get(filename)
        if built is None:
            built = build(_parse_rows(_read_text(filename), filename))
            _packaged[filename] = built
        return built
    text = _read_text(filename)
    entry = _replaced.get(filename)
    if entry is None or entry[0] != text:
        entry = (text, build(_parse_rows(text, filename)))
        _replaced[filename] = entry
    return entry[1]


def _field(row: dict, key: str, filename: str) -> str:
    value = row.get(key)
    if value is None:
        raise FormatError(f"{filename}: missing column {key!r}")
    return value.strip()


def _number(row: dict, key: str, filename: str, line: int, kind=float):
    """Column `key` as a finite `kind` (float or int)."""
    value = _field(row, key, filename)
    try:
        number = kind(value)
        if math.isfinite(number):
            return number
    except (ValueError, OverflowError):
        pass
    raise FormatError(f"{filename}:{line}: bad number for column "
                      f"{key!r}: {value!r}")


def _parse_bool(text: str, where: str) -> bool:
    """A yes/no value from a table or scenario file, which `where` names."""
    v = text.strip().lower()
    if v in ("yes", "true", "1"):
        return True
    if v in ("no", "false", "0"):
        return False
    raise FormatError(f"{where}: bad boolean {text!r}")


def _build(profile_cls, filename: str, line: int, **fields):
    """`profile_cls(**fields)`, its ValueError reported at `file:line`."""
    try:
        return profile_cls(**fields)
    except ValueError as exc:
        raise FormatError(f"{filename}:{line}: {exc}") from None


def _build_diodes(rows) -> dict[str, DiodeProfile]:
    from .diode import DiodeProfile

    fn = "diodes.csv"
    out = {}
    for line, row in rows:
        profile = _build(
            DiodeProfile, fn, line,
            name=_field(row, "name", fn),
            threshold_ma=_number(row, "i_th_ma", fn, line),
            slope_mw_per_ma=_number(row, "slope_mw_per_ma", fn, line),
            max_current_ma=_number(row, "i_max_ma", fn, line),
            wavelength_nm=_number(row, "wavelength_nm", fn, line),
        )
        out[profile.name.lower()] = profile
    return out


def _build_mics(rows) -> dict[str, MicProfile]:
    from .mic import MicProfile

    fn = "mics.csv"
    out = {}
    for line, row in rows:
        profile = _build(
            MicProfile, fn, line,
            name=_field(row, "name", fn),
            responsivity_per_mw=_number(row, "responsivity", fn, line),
            band_low_hz=_number(row, "band_low_hz", fn, line),
            band_high_hz=_number(row, "band_high_hz", fn, line),
            saturation_mw=_number(row, "saturation_mw", fn, line),
            noise_rms=_number(row, "noise_rms", fn, line),
        )
        out[profile.name.lower()] = profile
    return out


def load_diodes() -> dict[str, DiodeProfile]:
    return dict(_table("diodes.csv", _build_diodes))


def get_diode(name: str) -> DiodeProfile:
    diodes = load_diodes()
    try:
        return diodes[name.lower()]
    except KeyError:
        raise FormatError(
            f"unknown diode profile {name!r}; available: "
            + ", ".join(sorted(p.name for p in diodes.values()))) from None


def load_mics() -> dict[str, MicProfile]:
    return dict(_table("mics.csv", _build_mics))


def get_mic(name: str) -> MicProfile:
    mics = load_mics()
    try:
        return mics[name.lower()]
    except KeyError:
        raise FormatError(
            f"unknown microphone profile {name!r}; available: "
            + ", ".join(sorted(p.name for p in mics.values()))) from None


def device_rows() -> list[dict]:
    """Raw device table rows, in file order."""
    fn = "devices.csv"
    return [row for _, row in _parse_rows(_read_text(fn), fn)]
