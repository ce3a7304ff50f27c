"""Free-space link budget: spot growth, aperture capture, transmissions.

The beam is modeled as a uniform-intensity (top-hat) disk whose diameter
is the larger of the diffraction limit and geometric defocus, widened by
pointing jitter:

    spot(d) = max(2.44 * lambda * d / D,  D * |d - f| / f) + 2 * sigma_j

The fraction of emitted power entering a microphone port is the share of
the spot's disk that overlaps the port's disk. The overlap is the sum of
the two circular segments cut off by the disks' common chord, each
written so that it keeps its digits when one disk is millions of times
smaller than the other. Window and mesh transmissions and the cosine of
the incidence angle are then applied multiplicatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import _check_nonnegative, _check_positive

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
        _check_positive("lens_diameter_m", self.lens_diameter_m)
        _check_positive("focus_distance_m", self.focus_distance_m)
        _check_positive("wavelength_nm", self.wavelength_nm)
        _check_nonnegative("pointing_jitter_m", self.pointing_jitter_m)
        for name in ("window_transmission", "mesh_transmission"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 <= self.incidence_angle_deg < 90.0:
            raise ValueError(f"incidence_angle_deg must be in [0, 90), "
                             f"got {self.incidence_angle_deg}")

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
        _check_positive("port_diameter_m", self.port_diameter_m)
        _check_nonnegative("offset_m", self.offset_m)


def _spot(path: OpticalPath, distance_m: float, focus_m: float) -> float:
    d_diff = 2.44 * path.wavelength_nm * 1e-9 * distance_m / path.lens_diameter_m
    d_defocus = path.lens_diameter_m * abs(distance_m - focus_m) / focus_m
    return max(d_diff, d_defocus) + 2.0 * path.pointing_jitter_m


def spot_diameter(path: OpticalPath, distance_m: float) -> float:
    """Beam diameter at the target for the given path."""
    _check_positive("distance_m", distance_m)
    return _spot(path, distance_m, path.focus_distance_m)


def disk_overlap_area(r1: float, r2: float, center_distance: float) -> float:
    """Intersection area of two disks, as the sum of the two circular
    segments that their common chord cuts off.

    With R >= r the radii, d the centre distance, h the chord's half-length
    and x a centre's signed distance to the chord (positive towards the
    other centre), each segment is rho^2 (t - sin t) / 2 with t =
    2 atan2(h, x). Every quantity is formed from differences that are exact
    or sums of terms of one sign, so a spot microns wide on the rim of a
    port millimetres wide keeps its digits.
    """
    big, small = max(r1, r2), min(r1, r2)
    d = center_distance
    # d - big is exact for big/2 <= d <= 2 big (Sterbenz), and outside
    # that range the answer is not close, so no rounding decides it
    if (d - big) - small >= 0:
        return 0.0
    # gap = d + small - big and the small disk's x, each from a difference
    # that is exact: big - d when d >= big/2, and otherwise big - small,
    # since then small > big/2 unless the small disk lies inside the big one
    exact_big_minus_d = d >= big / 2
    gap = small - (big - d) if exact_big_minus_d else d - (big - small)
    if gap <= 0:
        return math.pi * small * small
    if exact_big_minus_d:
        x_small = ((d - big) * (d + big) + small * small) / (2 * d)
    else:
        x_small = (d * d - (big - small) * (big + small)) / (2 * d)
    x_big = (d * d + (big - small) * (big + small)) / (2 * d)
    # Heron's 16 * (triangle of the centres and a chord end)^2 over 16 d^2,
    # with gap and the third factor divided by d first, which keeps a tiny
    # d from underflowing
    h = 0.5 * math.sqrt(((big - d) + small) * (d + big + small)
                        * (gap / d) * ((d + (big - small)) / d))
    return _segment(small, h, x_small) + _segment(big, h, x_big)


def _segment(radius: float, h: float, x: float) -> float:
    """Area cut from a disk by a chord of half-length h at signed distance
    x from its centre."""
    t = 2.0 * math.atan2(h, x)
    if t < 0.1:
        # t - sin t by its series, which does not cancel
        t2 = t * t
        f = t * t2 / 6.0 * (1 - t2 / 20 * (1 - t2 / 42 * (1 - t2 / 72 * (
            1 - t2 / 110 * (1 - t2 / 156)))))
    else:
        f = t - math.sin(t)
    return 0.5 * radius * radius * f


def capture_fraction(spot_diameter_m: float, aperture: Aperture) -> float:
    """Fraction of a top-hat spot falling inside the port disk."""
    _check_nonnegative("spot_diameter_m", spot_diameter_m)
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
    _check_nonnegative("emitted_avg_mw", emitted_avg_mw)
    _check_positive("distance_m", distance_m)
    frac = capture_fraction(_spot(path, distance_m, path.focus_distance_m),
                            aperture)
    return _transmit(path, frac, emitted_avg_mw)


def _transmit(path: OpticalPath, frac: float, emitted_avg_mw: float) -> float:
    """Power through the port, mW: the captured share `frac` of the emitted
    power after the window, the mesh and the incidence cosine. Unchecked."""
    return (emitted_avg_mw * frac * path.window_transmission *
            path.mesh_transmission * math.cos(math.radians(path.incidence_angle_deg)))


def max_range(path: OpticalPath, aperture: Aperture, emitted_avg_mw: float,
              required_mw: float) -> float:
    """Largest distance with received >= required, refocusing per distance.

    Bisection on [0.01 m, 10 km] to 0.01 m resolution. Returns 0 when the
    requirement already fails at 0.01 m and the 10 km cap when it still
    holds there (unbounded at model scale). An offset port can miss the
    small spot near the lens yet catch the wider spot further out, so when
    it fails at 0.01 m the bisection starts from the distance of peak
    received power instead, and 0 means it fails there too. An emitted
    power of 0 reaches no port, so it returns 0.
    """
    _check_nonnegative("emitted_avg_mw", emitted_avg_mw)
    _check_positive("required_mw", required_mw)

    # received_power(path.focused_at(d), aperture, d, emitted), without
    # building a path per probe; feasible repeats it rather than calling it,
    # so a bisection probe costs no extra call
    def received(d: float) -> float:
        return _transmit(path, capture_fraction(_spot(path, d, d), aperture),
                         emitted_avg_mw)

    def feasible(d: float) -> bool:
        return _transmit(path, capture_fraction(_spot(path, d, d), aperture),
                         emitted_avg_mw) >= required_mw

    lo = RANGE_FLOOR_M
    if not feasible(lo):
        if aperture.offset_m == 0:
            return 0.0
        lo = _peak_distance(received)
        if not feasible(lo):
            return 0.0
    if feasible(MAX_RANGE_CAP_M):
        return MAX_RANGE_CAP_M
    hi = MAX_RANGE_CAP_M
    while hi - lo > RANGE_RESOLUTION_M:
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# points of the log-spaced grid on [RANGE_FLOOR_M, MAX_RANGE_CAP_M] that
# brackets the peak of received power
_PEAK_GRID_POINTS = 256


def _peak_distance(power) -> float:
    """The distance in [RANGE_FLOOR_M, MAX_RANGE_CAP_M] where `power`, a
    function that rises to one peak and then falls, is largest: the best
    grid point, refined by golden-section search between its neighbours."""
    ratio = MAX_RANGE_CAP_M / RANGE_FLOOR_M
    last = _PEAK_GRID_POINTS - 1
    grid = [RANGE_FLOOR_M * ratio ** (i / last) for i in range(last)]
    grid.append(MAX_RANGE_CAP_M)
    best = max(range(len(grid)), key=lambda i: power(grid[i]))
    a, b = _golden_min(lambda d: -power(d), grid[max(best - 1, 0)],
                       grid[min(best + 1, last)])
    # the grid point stands if rounding left the search below it
    return max(grid[best], (a + b) / 2, key=power)


def _golden_min(f, a: float, b: float) -> tuple[float, float]:
    """The bracket, narrowed to 1e-9, that golden-section search on [a, b]
    leaves around the minimum of `f`. On a tie it keeps the lower part, so
    a flat `f` collapses onto `a`."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-9:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return a, b


def attenuate(light, path: OpticalPath, aperture: Aperture, distance_m: float):
    """Scale a LightWaveform by the link's total transmission factor."""
    from .diode import LightWaveform

    mean = light.mean_mw
    if mean <= 0:
        return light
    factor = received_power(path, aperture, distance_m, mean) / mean
    return LightWaveform(light.powers_mw * factor, light.sample_rate)

