"""Target device profiles and lookup."""

from __future__ import annotations

import difflib
from dataclasses import dataclass

from . import profiles
from .profiles import _field
from .errors import DeviceNotFoundError, FormatError


@dataclass(frozen=True)
class DeviceProfile:
    """One voice-controllable target: recognition backend plus geometry."""

    name: str
    backend: str
    category: str
    requires_auth: bool
    min_power_mw: float      # port-level activation threshold at close range
    port_diameter_m: float
    port_count: int
    wake_word: str
    note: str = ""

    def __post_init__(self):
        if self.min_power_mw <= 0:
            raise ValueError("min_power_mw must be positive")
        if self.port_diameter_m <= 0:
            raise ValueError("port_diameter_m must be positive")
        if self.port_count < 1:
            raise ValueError("port_count must be >= 1")


def _parse_bool(text: str, filename: str) -> bool:
    v = text.strip().lower()
    if v in ("yes", "true", "1"):
        return True
    if v in ("no", "false", "0"):
        return False
    raise FormatError(f"{filename}: bad boolean {text!r}")


def load_devices() -> list[DeviceProfile]:
    """The embedded dataset, in file order."""
    fn = "devices.csv"
    out = []
    for row in profiles.device_rows():
        out.append(DeviceProfile(
            name=_field(row, "name", fn),
            backend=_field(row, "backend", fn),
            category=_field(row, "category", fn),
            requires_auth=_parse_bool(_field(row, "requires_auth", fn), fn),
            min_power_mw=float(_field(row, "min_power_mw", fn)),
            port_diameter_m=float(_field(row, "port_diameter_m", fn)),
            port_count=int(_field(row, "port_count", fn)),
            wake_word=_field(row, "wake_word", fn),
            note=(row.get("note") or "").strip(),
        ))
    return out


def lookup_device(name: str) -> DeviceProfile:
    """Exact, case-insensitive name match against the embedded dataset."""
    devices = load_devices()
    wanted = name.strip().lower()
    for device in devices:
        if device.name.lower() == wanted:
            return device
    suggestions = difflib.get_close_matches(
        name, [d.name for d in devices], n=3, cutoff=0.3)
    raise DeviceNotFoundError(name, suggestions)
