"""Free-space link budget: spot growth, aperture capture, transmissions.

The beam is modeled as a uniform-intensity (top-hat) disk whose diameter
is the larger of the diffraction limit and geometric defocus, widened by
pointing jitter:

    spot(d) = max(2.44 * lambda * d / D,  D * |d - f| / f) + 2 * sigma_j

The fraction of emitted power entering a microphone port is the exact
two-circle intersection area ratio, then window and mesh transmissions
and the cosine of the incidence angle are applied multiplicatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

# bisection cap: beyond this the link is reported unbounded at model scale
MAX_RANGE_CAP_M = 10_000.0
RANGE_RESOLUTION_M = 0.01
RANGE_FLOOR_M = 0.01

DEFAULT_LENS_DIAMETER_M = 0.086       # telephoto front element
DEFAULT_MESH_TRANSMISSION = 0.9       # port dust mesh, configurable


@dataclass(frozen=True)
class OpticalPath:
    """Lens, focus, wavelength, jitter and loss terms of the link."""

    lens_diameter_m: float
    focus_distance_m: float
    wavelength_nm: float
    pointing_jitter_m: float = 0.0
    window_transmission: float = 1.0
    mesh_transmission: float = DEFAULT_MESH_TRANSMISSION
    incidence_angle_deg: float = 0.0

    def __post_init__(self):
        # chained comparisons with inf: NaN fails every one of them
        if not 0 < self.lens_diameter_m < math.inf:
            raise ValueError("lens_diameter_m must be positive and finite")
        if not 0 < self.focus_distance_m < math.inf:
            raise ValueError("focus_distance_m must be positive and finite")
        if not 0 < self.wavelength_nm < math.inf:
            raise ValueError("wavelength_nm must be positive and finite")
        if not 0 <= self.pointing_jitter_m < math.inf:
            raise ValueError("pointing_jitter_m must be >= 0 and finite")
        for name in ("window_transmission", "mesh_transmission"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 <= self.incidence_angle_deg < 90.0:
            raise ValueError("incidence_angle_deg must be in [0, 90)")

    @classmethod
    def default(cls, focus_distance_m: float,
                wavelength_nm: float = 450.0) -> "OpticalPath":
        """Telephoto link with the stock mesh loss and no jitter."""
        return cls(DEFAULT_LENS_DIAMETER_M, focus_distance_m, wavelength_nm)

    @classmethod
    def ideal(cls, focus_distance_m: float,
              wavelength_nm: float = 450.0) -> "OpticalPath":
        """Lossless link: unit transmissions, zero jitter, normal incidence."""
        return cls(DEFAULT_LENS_DIAMETER_M, focus_distance_m, wavelength_nm,
                   mesh_transmission=1.0)

    def focused_at(self, distance_m: float) -> "OpticalPath":
        return replace(self, focus_distance_m=distance_m)

    @property
    def beam_visible(self) -> bool:
        """True for wavelengths inside the visible band (400-700 nm)."""
        return 400.0 <= self.wavelength_nm <= 700.0


@dataclass(frozen=True)
class Aperture:
    """Microphone port geometry: diameter and lateral aiming error."""

    port_diameter_m: float
    offset_m: float = 0.0

    def __post_init__(self):
        if not 0 < self.port_diameter_m < math.inf:
            raise ValueError("port_diameter_m must be positive and finite")
        if not 0 <= self.offset_m < math.inf:
            raise ValueError("offset_m must be >= 0 and finite")


def _check_distance(distance_m: float) -> None:
    if not 0 < distance_m < math.inf:
        raise ValueError(
            f"distance must be positive and finite, got {distance_m}")


def _spot(path: OpticalPath, distance_m: float, focus_m: float) -> float:
    d_diff = 2.44 * path.wavelength_nm * 1e-9 * distance_m / path.lens_diameter_m
    d_defocus = path.lens_diameter_m * abs(distance_m - focus_m) / focus_m
    return max(d_diff, d_defocus) + 2.0 * path.pointing_jitter_m


def spot_diameter(path: OpticalPath, distance_m: float) -> float:
    """Beam diameter at the target for the given path."""
    _check_distance(distance_m)
    return _spot(path, distance_m, path.focus_distance_m)


def disk_overlap_area(r1: float, r2: float, center_distance: float) -> float:
    """Intersection area of two disks (standard lens formula)."""
    d = center_distance
    if d >= r1 + r2:
        return 0.0
    # one disk inside the other, or centres so close that the 2*d*r
    # denominators below underflow to 0: the smaller disk's area
    if d <= abs(r1 - r2) or d * min(r1, r2) == 0:
        r = min(r1, r2)
        return math.pi * r * r
    # clamp acos arguments against float dust at tangency
    a1 = math.acos(max(-1.0, min(1.0, (d * d + r1 * r1 - r2 * r2) / (2 * d * r1))))
    a2 = math.acos(max(-1.0, min(1.0, (d * d + r2 * r2 - r1 * r1) / (2 * d * r2))))
    k = (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
    return r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * math.sqrt(max(k, 0.0))


def capture_fraction(spot_diameter_m: float, aperture: Aperture) -> float:
    """Fraction of a top-hat spot falling inside the port disk."""
    if not 0 <= spot_diameter_m < math.inf:
        raise ValueError(
            f"spot diameter must be >= 0 and finite, got {spot_diameter_m}")
    r_spot = spot_diameter_m / 2
    r_port = aperture.port_diameter_m / 2
    # decided without dividing by the spot area, which underflows to 0 for
    # a tiny spot
    if aperture.offset_m <= r_port - r_spot:
        return 1.0    # the spot lies wholly inside the port
    if aperture.offset_m >= r_spot + r_port:
        return 0.0    # the spot misses the port
    area = disk_overlap_area(r_spot, r_port, aperture.offset_m)
    return min(1.0, area / (math.pi * r_spot * r_spot))


def received_power(path: OpticalPath, aperture: Aperture, distance_m: float,
                   emitted_avg_mw: float) -> float:
    """Average power entering the port, mW. Never exceeds the emitted power."""
    if not 0 <= emitted_avg_mw < math.inf:
        raise ValueError(
            f"emitted_avg_mw must be >= 0 and finite, got {emitted_avg_mw}")
    _check_distance(distance_m)
    return _received(path, aperture, distance_m, path.focus_distance_m,
                     emitted_avg_mw)


def _received(path: OpticalPath, aperture: Aperture, distance_m: float,
              focus_m: float, emitted_avg_mw: float) -> float:
    """`received_power` of `path` refocused at `focus_m`, unchecked."""
    frac = capture_fraction(_spot(path, distance_m, focus_m), aperture)
    return (emitted_avg_mw * frac * path.window_transmission *
            path.mesh_transmission * math.cos(math.radians(path.incidence_angle_deg)))


def max_range(path: OpticalPath, aperture: Aperture, emitted_avg_mw: float,
              required_mw: float) -> float:
    """Largest distance with received >= required, refocusing per distance.

    Bisection on [0.01 m, 10 km] to 0.01 m resolution. Returns 0 when the
    requirement already fails at 0.01 m and the 10 km cap when it still
    holds there (unbounded at model scale).
    """
    if not 0 < emitted_avg_mw < math.inf:
        raise ValueError(
            f"emitted_avg_mw must be positive and finite, got {emitted_avg_mw}")
    if not 0 < required_mw < math.inf:
        raise ValueError(
            f"required_mw must be positive and finite, got {required_mw}")

    # received_power(path.focused_at(d), aperture, d, emitted), without
    # building a path per probe
    def feasible(d: float) -> bool:
        return _received(path, aperture, d, d, emitted_avg_mw) >= required_mw

    if not feasible(RANGE_FLOOR_M):
        return 0.0
    if feasible(MAX_RANGE_CAP_M):
        return MAX_RANGE_CAP_M
    lo, hi = RANGE_FLOOR_M, MAX_RANGE_CAP_M
    while hi - lo > RANGE_RESOLUTION_M:
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def attenuate(light, path: OpticalPath, aperture: Aperture, distance_m: float):
    """Scale a LightWaveform by the link's total transmission factor."""
    from .diode import LightWaveform

    mean = light.mean_mw
    if mean <= 0:
        return light
    factor = received_power(path, aperture, distance_m, mean) / mean
    return LightWaveform(light.powers_mw * factor, light.sample_rate)

