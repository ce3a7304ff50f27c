"""Target device profiles and lookup."""

from __future__ import annotations

from dataclasses import dataclass

from . import profiles
from .errors import _check_integer, _check_positive
from .profiles import _column


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
        _check_positive("min_power_mw", self.min_power_mw)
        _check_positive("port_diameter_m", self.port_diameter_m)
        _check_integer("port_count", self.port_count, minimum=1)


def _device(row: dict) -> DeviceProfile:
    return DeviceProfile(
        name=_column(row, "name"),
        backend=_column(row, "backend"),
        category=_column(row, "category"),
        requires_auth=_column(row, "requires_auth", bool),
        min_power_mw=_column(row, "min_power_mw", float),
        port_diameter_m=_column(row, "port_diameter_m", float),
        port_count=_column(row, "port_count", int),
        wake_word=_column(row, "wake_word"),
        note=(row.get("note") or "").strip(),
    )


def load_devices() -> list[DeviceProfile]:
    """The embedded dataset, in file order."""
    return list(profiles._table("devices.csv", _device).values())


def lookup_device(name: str) -> DeviceProfile:
    """Name match against the embedded dataset, ignoring case and
    surrounding blanks."""
    return profiles._lookup(profiles._table("devices.csv", _device), name,
                            "device")
