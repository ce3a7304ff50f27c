import math

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
distances = finite(1e-3, 1e4)
powers = finite(0.0, 1e4)


class TestInvariants:
    @settings(deadline=None)
    @given(paths, distances)
    def test_spot_is_finite(self, path, distance):
        assert spot_diameter(path, distance) > 0

    @settings(deadline=None)
    @given(finite(0.0, 10.0), apertures)
    # two nearly tangent disks: the lens formula cancels to about -2e-9
    # of the spot area
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
        assert (max_range(path, aperture, emitted, required)
                == reference_max_range(path, aperture, emitted, required))
