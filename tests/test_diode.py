import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoninject import diode, wavio
from photoninject.diode import (DiodeProfile, DriveWaveform, LightWaveform,
                                OperatingPoint, average_power, emitted_light,
                                modulate, optical_power,
                                optimize_operating_point)
from photoninject.errors import BudgetError
from photoninject.signals import AudioSignal, generate_tone


def reference_drive_csv(drive, path):
    """The csv.writer form of save_drive_csv, kept as the byte oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "current_ma"])
        for i, c in enumerate(drive.currents_ma):
            writer.writerow([f"{i / drive.sample_rate:.9f}", f"{c:.6f}"])


def reference_drive_wav(drive, op, path, sidecar_path):
    """The csv.writer form of save_drive_wav, kept as the byte oracle."""
    half = op.peak_to_peak_ma / 2
    if half > 0:
        normalized = (drive.currents_ma - op.bias_ma) / half
    else:
        normalized = np.zeros_like(drive.currents_ma)
    wavio.save_wav(AudioSignal(normalized, drive.sample_rate), path)
    with open(sidecar_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value"])
        writer.writerow(["i_dc_ma", f"{op.bias_ma:.6f}"])
        writer.writerow(["i_pp_ma", f"{op.peak_to_peak_ma:.6f}"])
        writer.writerow(["sample_rate_hz", str(drive.sample_rate)])


def simple(i_th=100.0, slope=1.0, i_max=400.0):
    return DiodeProfile("test", i_th, slope, i_max, 450.0)


class TestOpticalPower:
    def test_zero_at_threshold(self, blue):
        assert optical_power(blue, blue.threshold_ma) == 0.0
        assert optical_power(simple(), 100.0) == 0.0

    def test_zero_below_threshold(self):
        assert optical_power(simple(), 40.0) == 0.0

    def test_linear_above_threshold(self):
        assert optical_power(simple(), 160.0) == pytest.approx(60.0)

    def test_blue_anchor_point(self, blue):
        # the shipped fit pins 5 mW of output at a 26.2 mA bias
        assert optical_power(blue, 26.2) == pytest.approx(5.0, rel=0.01)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            optical_power(simple(), -1.0)
        with pytest.raises(ValueError, match="outside"):
            optical_power(simple(), 400.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_current_and_operating_point_rejected(self, bad):
        with pytest.raises(ValueError, match="outside"):
            optical_power(simple(), bad)
        with pytest.raises(ValueError, match="bias_ma must be finite"):
            OperatingPoint(bad, 10.0)
        with pytest.raises(ValueError, match="peak_to_peak_ma must be >= 0"):
            OperatingPoint(200.0, bad)

    def test_monotone_nondecreasing(self, blue):
        grid = np.linspace(0, blue.max_current_ma, 500)
        powers = [optical_power(blue, c) for c in grid]
        assert np.all(np.diff(powers) >= 0)
        assert all(p == 0 for c, p in zip(grid, powers) if c <= blue.threshold_ma)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DiodeProfile("x", -1, 1, 100, 450)
        with pytest.raises(ValueError):
            DiodeProfile("x", 10, 0, 100, 450)
        with pytest.raises(ValueError):
            DiodeProfile("x", 10, 1, 10, 450)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_profile_rejects_non_finite(self, bad):
        for field in range(4):
            values = [10.0, 1.0, 100.0, 450.0]
            values[field] = bad
            with pytest.raises(ValueError, match="finite"):
                DiodeProfile("x", *values)


class TestModulate:
    def test_zero_audio_gives_constant_bias(self, blue):
        audio = AudioSignal(np.zeros(100), 48000)
        drive = modulate(blue, OperatingPoint(26.2, 7.0), audio)
        assert np.all(drive.currents_ma == 26.2)

    def test_reference_tone_waveform(self, blue):
        tone = generate_tone(1000, 1.0, 48000, 1.0)
        drive = modulate(blue, OperatingPoint(26.2, 7.0), tone)
        t = np.arange(48000) / 48000
        expected = 26.2 + 3.5 * np.sin(2 * np.pi * 1000 * t)
        assert np.max(np.abs(drive.currents_ma - expected)) <= 1e-12
        assert drive.currents_ma.min() == pytest.approx(22.7, abs=1e-9)
        assert drive.currents_ma.max() == pytest.approx(29.7, abs=1e-9)
        assert drive.sample_rate == 48000

    def test_wide_swing_accepted_on_blue(self, blue):
        # bias 200 mA with a 150 mA swing keeps the floor at 125 mA, in range
        tone = generate_tone(1000, 0.01, 48000, 1.0)
        drive = modulate(blue, OperatingPoint(200.0, 150.0), tone)
        assert drive.currents_ma.min() >= blue.threshold_ma

    def test_clipping_rejected_before_output(self, blue):
        tone = generate_tone(1000, 0.01, 48000, 1.0)
        with pytest.raises(ValueError, match="below threshold"):
            modulate(blue, OperatingPoint(25.0, 50.0), tone)
        with pytest.raises(ValueError, match="max current"):
            modulate(blue, OperatingPoint(290.0, 50.0), tone)

    def test_unnormalized_audio_rejected(self, blue):
        # a peak within 1e-12 of full scale is float rounding, not overdrive
        op = OperatingPoint(26.2, 7.0)
        modulate(blue, op, AudioSignal(np.array([0.0, 1.0 + 1e-13]), 48000))
        for peak in (1.0 + 1e-11, 1.5):
            audio = AudioSignal(np.array([0.0, peak]), 48000)
            with pytest.raises(ValueError, match="normalized"):
                modulate(blue, op, audio)

    def test_output_bounded_by_swing(self, blue):
        rng = np.random.default_rng(3)
        audio = AudioSignal(rng.uniform(-1, 1, 1000), 48000)
        op = OperatingPoint(100.0, 60.0)
        drive = modulate(blue, op, audio)
        assert drive.currents_ma.min() >= op.min_current_ma - 1e-12
        assert drive.currents_ma.max() <= op.max_current_ma + 1e-12


class TestOptimizeOperatingPoint:
    def test_closed_form(self):
        op = optimize_operating_point(simple(), 60.0)
        assert op.bias_ma == pytest.approx(160.0)
        assert op.peak_to_peak_ma == pytest.approx(120.0)

    def test_zero_budget_limit(self):
        op = optimize_operating_point(simple(), 1e-9)
        assert op.bias_ma == pytest.approx(100.0, abs=1e-6)
        assert op.peak_to_peak_ma == pytest.approx(0.0, abs=1e-6)

    def test_swing_clipped_at_max_current(self):
        profile = simple(i_th=100, slope=1.0, i_max=150)
        op = optimize_operating_point(profile, 40.0)
        assert op.max_current_ma == pytest.approx(150.0)
        assert op.min_current_ma == pytest.approx(100.0)
        assert average_power(profile, op) <= 40.0

    def test_infeasible_budget(self):
        with pytest.raises(BudgetError, match="budget"):
            optimize_operating_point(simple(i_th=100, slope=1.0, i_max=120), 30.0)

    def test_budget_positive(self):
        with pytest.raises(ValueError, match="budget"):
            optimize_operating_point(simple(), 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_budget_finite(self, bad):
        # inf is a usage error, not an unreachable budget (BudgetError)
        with pytest.raises(ValueError, match="positive and finite") as info:
            optimize_operating_point(simple(), bad)
        assert not isinstance(info.value, BudgetError)

    def test_average_power_meets_budget(self, blue):
        tone = generate_tone(1000, 1.0, 48000, 1.0)
        for budget in (0.5, 5.0, 60.0):
            op = optimize_operating_point(blue, budget)
            light = emitted_light(blue, modulate(blue, op, tone))
            assert light.mean_mw == pytest.approx(budget, rel=1e-3)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            i_th = rng.uniform(5, 30)
            i_max = i_th + rng.uniform(10, 60)
            slope = rng.uniform(0.3, 2.0)
            profile = DiodeProfile("g", i_th, slope, i_max, 450)
            budget = rng.uniform(0.05, 1.0) * slope * (i_max - i_th)
            op = optimize_operating_point(profile, budget)
            best = _grid_best_ipp(profile, budget)
            assert op.peak_to_peak_ma >= best - 0.15
            op.validate_for(profile)
            assert average_power(profile, op) <= budget + 1e-9


def _grid_best_ipp(profile, budget, step=0.1):
    """Brute-force oracle: largest swing over a 0.1 mA (I_DC, I_pp) grid."""
    i_dc = np.arange(profile.threshold_ma, profile.max_current_ma + step / 2, step)
    i_pp = np.arange(0.0, 2 * (profile.max_current_ma - profile.threshold_ma)
                     + step / 2, step)
    dc = i_dc[:, None]
    pp = i_pp[None, :]
    ok = ((dc - pp / 2 >= profile.threshold_ma - 1e-9)
          & (dc + pp / 2 <= profile.max_current_ma + 1e-9)
          & (profile.slope_mw_per_ma * (dc - profile.threshold_ma) <= budget + 1e-9))
    return float(np.where(ok, np.broadcast_to(pp, ok.shape), -1.0).max())


class TestEmittedLight:
    def test_constant_threshold_drive_is_dark(self, blue):
        drive = DriveWaveform(np.full(50, blue.threshold_ma), 48000)
        light = emitted_light(blue, drive)
        assert np.all(light.powers_mw == 0.0)

    def test_optimized_full_scale_touches_zero(self, blue):
        tone = generate_tone(1000, 0.1, 48000, 1.0)
        op = optimize_operating_point(blue, 5.0)
        light = emitted_light(blue, modulate(blue, op, tone))
        assert light.powers_mw.min() <= 1e-9
        assert light.powers_mw.min() >= 0.0

    def test_linear_above_threshold(self, blue):
        base = blue.threshold_ma
        d1 = DriveWaveform(base + np.array([1.0, 2.0, 5.0]), 48000)
        d2 = DriveWaveform(base + np.array([2.0, 4.0, 10.0]), 48000)
        l1 = emitted_light(blue, d1)
        l2 = emitted_light(blue, d2)
        np.testing.assert_allclose(l2.powers_mw, 2 * l1.powers_mw, rtol=1e-12)

    def test_out_of_range_sample_reported_with_index(self, blue):
        drive = DriveWaveform(np.array([25.0, 30.0, 500.0]), 48000)
        with pytest.raises(ValueError, match="sample 2"):
            emitted_light(blue, drive)

    def test_tone_spectrum_is_clean(self, blue):
        from conftest import thd_ratio
        tone = generate_tone(1000, 1.0, 48000, 1.0)
        op = optimize_operating_point(blue, 5.0)
        light = emitted_light(blue, modulate(blue, op, tone))
        ac = light.powers_mw - light.powers_mw.mean()
        assert thd_ratio(ac, 48000, 1000) <= 1e-3


class TestExports:
    def test_drive_csv_format(self, tmp_path, blue):
        tone = generate_tone(1000, 0.001, 48000, 1.0)
        drive = modulate(blue, OperatingPoint(26.2, 7.0), tone)
        out = tmp_path / "drive.csv"
        diode.save_drive_csv(drive, out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time_s", "current_ma"]
        assert len(rows) == 1 + len(drive.currents_ma)
        assert rows[2][0] == f"{1 / 48000:.9f}"
        assert len(rows[2][1].split(".")[1]) == 6

    def test_drive_wav_round_trip(self, tmp_path, blue):
        tone = generate_tone(1000, 0.01, 48000, 1.0)
        op = OperatingPoint(26.2, 7.0)
        drive = modulate(blue, op, tone)
        wav = tmp_path / "drive.wav"
        sidecar = tmp_path / "drive.params.csv"
        diode.save_drive_wav(drive, op, wav, sidecar)
        with open(sidecar) as fh:
            params = dict(tuple(r) for r in list(csv.reader(fh))[1:])
        i_dc = float(params["i_dc_ma"])
        i_pp = float(params["i_pp_ma"])
        back = wavio.load_wav(wav)
        rebuilt = i_dc + (i_pp / 2) * back.samples
        assert np.max(np.abs(rebuilt - drive.currents_ma)) <= (i_pp / 2) / 32768


class TestWaveformValidation:
    def test_negative_current_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            DriveWaveform(np.array([-1.0]), 48000)

    def test_drive_rate_must_be_a_positive_integer(self):
        for rate in (0, -48000, 2.5):
            with pytest.raises(ValueError, match="sample_rate"):
                DriveWaveform(np.ones(3), rate)

    def test_light_rate_must_be_a_positive_integer(self):
        for rate in (0, -3, 2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sample_rate"):
                LightWaveform(np.ones(3), rate)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            LightWaveform(np.array([-0.1]), 48000)

    def test_non_finite_power_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LightWaveform(np.array([1.0, np.nan, np.inf]), 48000)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                LightWaveform(np.array([0.5, bad]), 48000)

    def test_operating_point_negative_swing(self):
        with pytest.raises(ValueError, match="peak_to_peak"):
            OperatingPoint(100.0, -1.0)


# .6f rounds half-way cases and prints every digit of huge currents
EDGE_CURRENTS = [0.0, 5e-324, 4.9999995e-7, 5e-7, 5.0000005e-7, 0.1, 26.2,
                 123456.0000005, 1e15, 1e300, 1.7976931348623157e308]


@settings(deadline=None)
@given(currents=st.lists(st.one_of(st.sampled_from(EDGE_CURRENTS),
                                   st.floats(0.0, 1e6, allow_nan=False,
                                             allow_infinity=False)),
                         min_size=1, max_size=300),
       sample_rate=st.sampled_from([1, 7, 8000, 44100, 48000]))
def test_drive_csv_bytes_match_csv_writer(tmp_path_factory, currents,
                                          sample_rate):
    drive = DriveWaveform(np.array(currents, dtype=np.float64), sample_rate)
    out = tmp_path_factory.mktemp("drive")
    diode.save_drive_csv(drive, out / "new.csv")
    reference_drive_csv(drive, out / "ref.csv")
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


BLOCK = diode._DRIVE_BLOCK_ROWS


@pytest.mark.parametrize("sample_rate", [7, 48000])
@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_drive_csv_bytes_match_csv_writer_across_blocks(tmp_path, n,
                                                        sample_rate):
    # lengths on both sides of one and two block edges; the edge currents
    # (with -0.0 and the exact binary tie 0.0078125) recur throughout
    currents = np.random.default_rng(n).uniform(0.0, 1e6, n)
    edges = EDGE_CURRENTS + [-0.0, 0.0078125]
    currents[::3] = np.resize(edges, currents[::3].size)
    currents[-len(edges):] = edges
    drive = DriveWaveform(currents, sample_rate)
    diode.save_drive_csv(drive, tmp_path / "new.csv")
    reference_drive_csv(drive, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@settings(deadline=None)
@given(bias=st.floats(0.0, 1e4), swing=st.floats(0.0, 1e4),
       n=st.integers(1, 50),
       sample_rate=st.sampled_from([1, 7, 8000, 44100, 48000]))
def test_drive_wav_sidecar_bytes_match_csv_writer(tmp_path_factory, bias,
                                                  swing, n, sample_rate):
    op = OperatingPoint(bias, swing)
    phase = np.linspace(-1.0, 1.0, n)
    drive = DriveWaveform(np.maximum(bias + swing / 2 * phase, 0.0),
                          sample_rate)
    out = tmp_path_factory.mktemp("sidecar")
    diode.save_drive_wav(drive, op, out / "new.wav", out / "new.csv")
    reference_drive_wav(drive, op, out / "ref.wav", out / "ref.csv")
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()
    assert (out / "new.wav").read_bytes() == (out / "ref.wav").read_bytes()
