"""Target device profiles and lookup."""

from __future__ import annotations

from dataclasses import dataclass

from . import profiles
from .profiles import _build, _field, _number, _parse_bool
from .errors import DeviceNotFoundError


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


def _build_devices(rows) -> list[DeviceProfile]:
    fn = "devices.csv"
    return [_build(
        DeviceProfile, fn, line,
        name=_field(row, "name", fn),
        backend=_field(row, "backend", fn),
        category=_field(row, "category", fn),
        requires_auth=_parse_bool(_field(row, "requires_auth", fn),
                                  f"{fn}:{line}"),
        min_power_mw=_number(row, "min_power_mw", fn, line),
        port_diameter_m=_number(row, "port_diameter_m", fn, line),
        port_count=_number(row, "port_count", fn, line, kind=int),
        wake_word=_field(row, "wake_word", fn),
        note=(row.get("note") or "").strip(),
    ) for line, row in rows]


def load_devices() -> list[DeviceProfile]:
    """The embedded dataset, in file order."""
    return list(profiles._table("devices.csv", _build_devices))


def lookup_device(name: str) -> DeviceProfile:
    """Exact, case-insensitive name match against the embedded dataset."""
    devices = load_devices()
    wanted = name.strip().lower()
    for device in devices:
        if device.name.lower() == wanted:
            return device
    import difflib  # only a miss pays for it

    suggestions = difflib.get_close_matches(
        name, [d.name for d in devices], n=3, cutoff=0.3)
    raise DeviceNotFoundError(name, suggestions)
