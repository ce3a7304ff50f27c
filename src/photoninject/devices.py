"""Target device profiles and lookup."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import profiles
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
        if not 0 < self.min_power_mw < math.inf:
            raise ValueError("min_power_mw must be positive and finite")
        if not 0 < self.port_diameter_m < math.inf:
            raise ValueError("port_diameter_m must be positive and finite")
        if self.port_count < 1:
            raise ValueError("port_count must be >= 1")


def _device(row: dict) -> DeviceProfile:
    fn = "devices.csv"
    return DeviceProfile(
        name=_column(row, "name", fn),
        backend=_column(row, "backend", fn),
        category=_column(row, "category", fn),
        requires_auth=_column(row, "requires_auth", fn, bool),
        min_power_mw=_column(row, "min_power_mw", fn, float),
        port_diameter_m=_column(row, "port_diameter_m", fn, float),
        port_count=_column(row, "port_count", fn, int),
        wake_word=_column(row, "wake_word", fn),
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
