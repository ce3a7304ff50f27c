import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photoninject import optics
from photoninject.diode import LightWaveform
from photoninject.optics import (Aperture, OpticalPath, attenuate,
                                 capture_fraction, disk_overlap_area,
                                 max_range, received_power, spot_diameter)


def ideal(focus, **kw):
    return OpticalPath.ideal(focus, **kw)


def decimal_atan(z):
    """atan of a Decimal z >= 0: halved by atan z = 2 atan(z / (1 +
    sqrt(1 + z^2))) until z < 0.01, then the alternating series."""
    halvings = 0
    while z >= Decimal("0.01"):
        z = z / (1 + (1 + z * z).sqrt())
        halvings += 1
    total, term, k = Decimal(0), z, 0
    tiny = Decimal(10) ** -(decimal.getcontext().prec + 5)
    while abs(term) > tiny:
        total += term / (2 * k + 1)
        term *= -z * z
        k += 1
    return total * 2 ** halvings


def decimal_overlap(r1, r2, d):
    """Intersection area of two disks by the lens formula, in Decimal.

    The formula is r1^2 a1 + r2^2 a2 - sqrt(f1 f2 f3 f4) / 2, with f1..f4
    the four factors of Heron's formula and each half angle a from its
    tangent, tan^2(a1 / 2) = f1 f3 / (f2 f4), so that no angle is taken
    from a cosine within rounding of 1. The sum cancels terms up to
    (R / r)^2 times the result, so at 50 digits it keeps about 36 for
    radius ratios up to 1e7.
    """
    f1, f2, f3, f4 = -d + r1 + r2, d + r1 - r2, d - r1 + r2, d + r1 + r2
    if f1 <= 0:
        return Decimal(0)
    if f2 <= 0 or f3 <= 0:    # one disk inside the other
        return 4 * decimal_atan(Decimal(1)) * min(r1, r2) ** 2
    a1 = 2 * decimal_atan((f1 * f3 / (f2 * f4)).sqrt())
    a2 = 2 * decimal_atan((f1 * f2 / (f3 * f4)).sqrt())
    return r1 * r1 * a1 + r2 * r2 * a2 - (f1 * f2 * f3 * f4).sqrt() / 2


class TestSpotDiameter:
    def test_diffraction_limit_at_focus(self):
        path = ideal(110.0)
        expected = 2.44 * 450e-9 * 110.0 / 0.086
        assert spot_diameter(path, 110.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.40e-3, rel=0.01)

    def test_jitter_is_additive(self):
        base = OpticalPath(0.086, 50.0, 450.0, pointing_jitter_m=0.001)
        more = OpticalPath(0.086, 50.0, 450.0, pointing_jitter_m=0.002)
        assert (spot_diameter(more, 50.0) - spot_diameter(base, 50.0)
                == pytest.approx(0.002, rel=1e-12))

    def test_defocus_term(self):
        path = ideal(10.0)
        d = 20.0
        defocus = 0.086 * abs(d - 10.0) / 10.0
        assert spot_diameter(path, d) == pytest.approx(defocus, rel=1e-9)

    def test_never_below_diffraction_limit(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            path = OpticalPath(rng.uniform(0.01, 0.2), rng.uniform(1, 200),
                               rng.uniform(400, 1000),
                               pointing_jitter_m=rng.uniform(0, 0.01))
            d = rng.uniform(0.1, 500)
            limit = 2.44 * path.wavelength_nm * 1e-9 * d / path.lens_diameter_m
            assert spot_diameter(path, d) >= limit

    def test_distance_positive(self):
        with pytest.raises(ValueError, match="distance"):
            spot_diameter(ideal(1.0), 0.0)


class TestOverlap:
    def test_contained_disk(self):
        assert disk_overlap_area(2.0, 1.0, 0.5) == pytest.approx(math.pi)

    def test_disjoint(self):
        assert disk_overlap_area(1.0, 1.0, 3.0) == 0.0

    def test_symmetric(self):
        assert disk_overlap_area(1.0, 2.0, 1.5) == pytest.approx(
            disk_overlap_area(2.0, 1.0, 1.5))

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            r_spot = rng.uniform(0.5, 2.0)
            r_port = rng.uniform(0.3, 1.5)
            d = rng.uniform(0.0, 0.8 * (r_spot + r_port))
            frac = capture_fraction(2 * r_spot, Aperture(2 * r_port, d))
            n = 200_000
            rr = r_spot * np.sqrt(rng.random(n))
            th = 2 * np.pi * rng.random(n)
            inside = ((rr * np.cos(th) - d) ** 2 + (rr * np.sin(th)) ** 2
                      <= r_port ** 2)
            mc = inside.mean()
            if mc > 0.05:
                assert frac == pytest.approx(mc, rel=0.02)

    @settings(deadline=None)
    @given(st.floats(1e-5, 1e-1), st.floats(1e-7, 1e-2))
    def test_spot_on_the_rim_of_a_larger_port(self, r_port, ratio):
        # a spot centred on the port's rim: half of it, less a crescent
        # of r / (3 pi R) for the rim's curvature
        r_spot = ratio * r_port
        q = r_spot / r_port
        frac = capture_fraction(2 * r_spot, Aperture(2 * r_port, r_port))
        assert abs(frac - (0.5 - q / (3 * math.pi))) <= q * q + 1e-15

    @settings(deadline=None)
    @given(st.floats(1e-8, 1e-1), st.floats(0.0, 7.0), st.floats(0.0, 1.0))
    def test_matches_the_lens_formula_in_decimal(self, small, log_ratio, u):
        big = small * 10.0 ** log_ratio
        d = (big - small) + u * 2 * small
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            want = decimal_overlap(Decimal(small), Decimal(big), Decimal(d))
            area = Decimal(math.pi) * Decimal(min(small, big)) ** 2
            err = abs(Decimal(disk_overlap_area(small, big, d)) - want) / area
        assert err <= 2e-15, (small, big, d)


class TestReceivedPower:
    def test_lossless_full_capture(self):
        # spot well inside the port at close range
        p = received_power(ideal(0.3), Aperture(0.001), 0.3, 5.0)
        assert p == pytest.approx(5.0, rel=1e-9)

    def test_quarter_capture_for_double_diameter_spot(self):
        # spot diameter twice the port: uniform disk puts 1/4 inside
        path = ideal(10.0)
        spot = spot_diameter(path, 10.0)
        p = received_power(path, Aperture(spot / 2), 10.0, 8.0)
        assert p == pytest.approx(2.0, rel=1e-9)

    def test_zero_overlap(self):
        path = ideal(10.0)
        spot = spot_diameter(path, 10.0)
        p = received_power(path, Aperture(spot / 2, offset_m=spot), 10.0, 8.0)
        assert p == 0.0

    def test_transmissions_multiply(self):
        path = OpticalPath(0.086, 0.3, 450.0, window_transmission=0.8,
                           mesh_transmission=0.5)
        p = received_power(path, Aperture(0.001), 0.3, 10.0)
        assert p == pytest.approx(4.0, rel=1e-9)

    def test_incidence_cosine(self):
        path = OpticalPath(0.086, 0.3, 450.0, mesh_transmission=1.0,
                           incidence_angle_deg=21.8)
        p = received_power(path, Aperture(0.001), 0.3, 10.0)
        assert p == pytest.approx(10.0 * math.cos(math.radians(21.8)), rel=1e-9)

    def test_never_exceeds_emitted(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            path = OpticalPath(rng.uniform(0.01, 0.2), rng.uniform(0.5, 100),
                               rng.uniform(400, 1000),
                               pointing_jitter_m=rng.uniform(0, 0.005),
                               window_transmission=rng.uniform(0, 1),
                               mesh_transmission=rng.uniform(0, 1),
                               incidence_angle_deg=rng.uniform(0, 89))
            ap = Aperture(rng.uniform(1e-4, 5e-3), rng.uniform(0, 5e-3))
            emitted = rng.uniform(0, 100)
            assert received_power(path, ap, rng.uniform(0.1, 200), emitted) \
                <= emitted + 1e-12

    def test_monotone_in_distance_with_focus_tracking(self):
        ap = Aperture(0.001)
        ds = np.linspace(1, 300, 80)
        ps = [received_power(ideal(d), ap, d, 5.0) for d in ds]
        assert np.all(np.diff(ps) <= 1e-15)

    def test_monotone_in_offset(self):
        path = ideal(100.0)
        offs = np.linspace(0, 0.005, 50)
        ps = [received_power(path, Aperture(0.001, o), 100.0, 5.0) for o in offs]
        assert np.all(np.diff(ps) <= 1e-15)

    def test_monotone_in_incidence(self):
        angles = np.linspace(0, 89, 30)
        ps = [received_power(
            OpticalPath(0.086, 100.0, 450.0, incidence_angle_deg=a),
            Aperture(0.001), 100.0, 5.0) for a in angles]
        assert np.all(np.diff(ps) <= 1e-15)


class TestMaxRange:
    def test_required_above_emitted_infeasible(self):
        assert max_range(ideal(1.0), Aperture(0.001), 5.0, 6.0) == 0.0

    @pytest.mark.parametrize("offset", [0.0, 0.0008])
    def test_nothing_emitted_reaches_nowhere(self, offset):
        path = OpticalPath.default(1.0)
        assert max_range(path, Aperture(0.001, offset), 0.0, 0.5) == 0.0

    def test_reaches_the_corridor_scale(self):
        # 1 mm port, 5 mW emitted, 0.5 mW required: holds past 110 m
        r = max_range(OpticalPath.default(1.0), Aperture(0.001), 5.0, 0.5)
        assert r >= 110.0

    def test_smaller_port_never_reaches_farther(self):
        path = OpticalPath.default(1.0)
        ports = [0.002, 0.001, 0.0005, 0.00025]
        ranges = [max_range(path, Aperture(p), 5.0, 0.5) for p in ports]
        assert all(a >= b for a, b in zip(ranges, ranges[1:]))

    def test_monotone_in_emitted_power(self):
        path = OpticalPath.default(1.0)
        ap = Aperture(0.001)
        ranges = [max_range(path, ap, e, 0.5) for e in (1.0, 2.0, 5.0, 10.0)]
        assert all(b >= a for a, b in zip(ranges, ranges[1:]))

    def test_unbounded_at_model_scale(self):
        # huge port relative to any spot the model produces within 10 km
        r = max_range(ideal(1.0), Aperture(10.0), 5.0, 1.0)
        assert r == optics.MAX_RANGE_CAP_M

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_arguments_rejected(self, bad):
        path, ap = OpticalPath.default(1.0), Aperture(0.001)
        for call in (lambda: spot_diameter(path, bad),
                     lambda: received_power(path, ap, bad, 5.0),
                     lambda: received_power(path, ap, 10.0, bad),
                     lambda: max_range(path, ap, bad, 0.5),
                     lambda: max_range(path, ap, 5.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_resolution(self):
        r = max_range(OpticalPath.default(1.0), Aperture(0.001), 5.0, 0.5)
        # received at r feasible, at r + 2 cm not
        assert received_power(OpticalPath.default(r), Aperture(0.001), r, 5.0) >= 0.5
        r2 = r + 0.02
        assert received_power(OpticalPath.default(r2), Aperture(0.001), r2, 5.0) < 0.5


class TestHelpers:
    def test_attenuate_scales_pointwise(self):
        light = LightWaveform(np.array([0.0, 1.0, 2.0]), 48000)
        path = OpticalPath(0.086, 10.0, 450.0, mesh_transmission=0.5)
        spot = spot_diameter(path, 10.0)
        out = attenuate(light, path, Aperture(spot * 2), 10.0)
        np.testing.assert_allclose(out.powers_mw, 0.5 * light.powers_mw)
        assert out.sample_rate == 48000

    def test_beam_visibility(self):
        assert ideal(1.0, wavelength_nm=450.0).beam_visible
        assert not ideal(1.0, wavelength_nm=980.0).beam_visible

    def test_path_validation(self):
        with pytest.raises(ValueError):
            OpticalPath(0.0, 1.0, 450.0)
        with pytest.raises(ValueError):
            OpticalPath(0.086, 1.0, 450.0, window_transmission=1.5)
        with pytest.raises(ValueError):
            OpticalPath(0.086, 1.0, 450.0, incidence_angle_deg=90.0)
        with pytest.raises(ValueError):
            Aperture(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_geometry_rejected(self, bad):
        for field in range(4):
            values = [0.086, 1.0, 450.0, 0.0]
            values[field] = bad
            with pytest.raises(ValueError, match="finite"):
                OpticalPath(*values)
        with pytest.raises(ValueError, match="finite"):
            Aperture(bad)
        with pytest.raises(ValueError, match="finite"):
            Aperture(0.001, bad)


def reference_max_range(path, aperture, emitted_avg_mw, required_mw):
    """The bisection as first written: one refocused path per probe."""
    if emitted_avg_mw <= 0:
        raise ValueError("emitted_avg_mw must be positive")
    if required_mw <= 0:
        raise ValueError("required_mw must be positive")

    def feasible(d: float) -> bool:
        return received_power(path.focused_at(d), aperture, d,
                              emitted_avg_mw) >= required_mw

    if not feasible(optics.RANGE_FLOOR_M):
        return 0.0
    if feasible(optics.MAX_RANGE_CAP_M):
        return optics.MAX_RANGE_CAP_M
    lo, hi = optics.RANGE_FLOOR_M, optics.MAX_RANGE_CAP_M
    while hi - lo > optics.RANGE_RESOLUTION_M:
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# --- physics invariants over random links -----------------------------------

def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


paths = st.builds(
    OpticalPath,
    lens_diameter_m=finite(1e-3, 0.3),
    focus_distance_m=finite(1e-2, 1e4),
    wavelength_nm=finite(200.0, 2000.0),
    pointing_jitter_m=st.one_of(st.just(0.0), finite(0.0, 1e-2)),
    window_transmission=finite(0.0, 1.0),
    mesh_transmission=finite(0.0, 1.0),
    incidence_angle_deg=finite(0.0, 89.9),
)
apertures = st.builds(
    Aperture,
    port_diameter_m=finite(1e-5, 1e-1),
    offset_m=st.one_of(st.just(0.0), finite(0.0, 1e-1)),
)
offset_apertures = st.builds(
    Aperture,
    port_diameter_m=finite(1e-5, 1e-2),
    offset_m=finite(1e-6, 1e-2),
)
distances = finite(1e-3, 1e4)
powers = finite(0.0, 1e4)

# 4000 log-spaced distances from the range floor to the cap
SCAN = [optics.RANGE_FLOOR_M * (optics.MAX_RANGE_CAP_M
                                / optics.RANGE_FLOOR_M) ** (i / 3999)
        for i in range(4000)]


def feasible_at(path, aperture, emitted, required, d):
    return received_power(path.focused_at(d), aperture, d, emitted) >= required


class TestInvariants:
    @settings(deadline=None)
    @given(paths, distances)
    def test_spot_is_finite(self, path, distance):
        assert spot_diameter(path, distance) > 0

    @settings(deadline=None)
    @given(finite(0.0, 10.0), apertures)
    # two nearly tangent disks, where the lens formula cancels to about
    # -2e-9 of the spot area
    @example(1.0000000000000003e-05, Aperture(1.0000000000000003e-05, 1e-05))
    def test_capture_fraction_in_unit_interval(self, spot, aperture):
        assert 0.0 <= capture_fraction(spot, aperture) <= 1.0

    @pytest.mark.parametrize("spot", [-1e-3, float("nan"), float("inf")])
    def test_capture_fraction_rejects_bad_spot(self, spot):
        with pytest.raises(ValueError, match="^spot_diameter_m must be"):
            capture_fraction(spot, Aperture(0.001))

    @settings(deadline=None)
    @given(paths, apertures, distances, powers)
    def test_received_never_exceeds_emitted(self, path, aperture, distance,
                                            emitted):
        received = received_power(path, aperture, distance, emitted)
        assert 0.0 <= received <= emitted

    @settings(deadline=None)
    @given(paths, apertures, finite(1e-6, 1e3), finite(1e-6, 1e3),
           finite(1e-6, 1e2))
    def test_range_non_decreasing_in_emitted_power(self, path, aperture, p1,
                                                   p2, required):
        low, high = sorted((p1, p2))
        assert (max_range(path, aperture, low, required)
                <= max_range(path, aperture, high, required))

    @settings(deadline=None, max_examples=300)
    @given(paths, apertures, finite(1e-6, 1e4), finite(1e-9, 1e4))
    # unbounded at model scale, and infeasible already at the floor
    @example(OpticalPath.ideal(1.0), Aperture(10.0), 5.0, 1.0)
    @example(OpticalPath.default(1.0), Aperture(0.001), 5.0, 6.0)
    # jitter, an offset port, incidence and a tinted window at once
    @example(OpticalPath(0.086, 3.0, 638.0, pointing_jitter_m=0.002,
                         window_transmission=0.7, incidence_angle_deg=30.0),
             Aperture(0.002, 0.001), 60.0, 0.5)
    def test_range_matches_reference(self, path, aperture, emitted, required):
        got = max_range(path, aperture, emitted, required)
        want = reference_max_range(path, aperture, emitted, required)
        if want == 0.0 and aperture.offset_m > 0:
            # the reference gives up when the floor fails, while an offset
            # port can be reached further out; the scan below checks these
            assert got == 0.0 or feasible_at(path, aperture, emitted,
                                             required, got)
        else:
            assert got == want

    @settings(deadline=None)
    @given(paths, offset_apertures, finite(1e-6, 1e4), distances,
           finite(1e-3, 1.0))
    # Google Home at 5 mW needing 0.5 mW, through a 1 mm port aimed 0.6,
    # 0.8 and 1.0 mm off: the near spot misses the port (at the drawn
    # 0.5 m too, so the requirement is the fixed 0.5 mW)
    @example(OpticalPath.default(1.0), Aperture(0.001, 0.0006), 5.0, 0.5, 1.0)
    @example(OpticalPath.default(1.0), Aperture(0.001, 0.0008), 5.0, 0.5, 1.0)
    @example(OpticalPath.default(1.0), Aperture(0.001, 0.001), 5.0, 0.5, 1.0)
    # so far off that no spot within the cap reaches the port
    @example(OpticalPath.default(1.0), Aperture(0.001, 0.05), 5.0, 0.5, 1.0)
    # a spot microns wide on the rim of a 1 cm port, where an overlap that
    # cancels its terms scatters the feasible distances
    @example(OpticalPath(0.25, 1.0, 200.0),
             Aperture(0.009999999999999998, 0.005), 1.0, 1.0, 1.0)
    def test_offset_range_against_a_dense_scan(self, path, aperture, emitted,
                                                distance, share):
        # a requirement met at the drawn distance (or, where nothing
        # reaches the port there, a fixed 0.5 mW), so that most draws
        # have a far edge to find
        required = share * received_power(path.focused_at(distance),
                                          aperture, distance, emitted) or 0.5
        reach = max_range(path, aperture, emitted, required)
        scan = [feasible_at(path, aperture, emitted, required, d)
                for d in SCAN]
        feasible = [d for d, ok in zip(SCAN, scan) if ok]
        # the feasible distances are one interval: False*, True*, False*
        first = scan.index(True) if feasible else len(scan)
        assert all(scan[first:first + len(feasible)])
        if reach == 0.0:
            assert not feasible
        else:
            assert feasible_at(path, aperture, emitted, required, reach)
            assert all(d <= reach + optics.RANGE_RESOLUTION_M
                       for d in feasible)

    def test_offset_port_reaches_the_far_edge(self):
        # the link of the first example above is feasible from about 25 m
        # out to about 235 m, the same far edge as an aligned port
        path, required = OpticalPath.default(1.0), 0.5
        aligned = max_range(path, Aperture(0.001), 5.0, required)
        reach = max_range(path, Aperture(0.001, 0.0006), 5.0, required)
        assert 230.0 < reach < 240.0
        assert abs(reach - aligned) <= 2 * optics.RANGE_RESOLUTION_M
