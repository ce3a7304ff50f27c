import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoninject import signals
from photoninject.signals import (AudioSignal, Spectrogram, generate_chirp,
                                  generate_tone, ridge_line_fit, spectrogram)


def reference_spectrogram_csv(spec, path):
    """The csv.writer form of Spectrogram.to_csv, kept as the byte oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "freq_hz", "magnitude"])
        for i, t in enumerate(spec.times_s):
            for j, f in enumerate(spec.freqs_hz):
                writer.writerow([f"{t:.9f}", f"{f:.3f}",
                                 f"{spec.magnitudes[i, j]:.9g}"])


def stepped_smooth_fft_len(n):
    """The least 2*3*5-smooth length >= n by stepping n upward: the
    oracle for `_smooth_fft_len`'s direct search."""
    n = max(n, 1)
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def test_smooth_fft_len_matches_stepping_up_to_20000():
    # stepping up from n reaches the same length as from n - 1 unless
    # n - 1 was smooth itself, so one walk serves every n
    expected = stepped_smooth_fft_len(1)
    for n in range(-2, 20001):
        if n > expected:
            expected = stepped_smooth_fft_len(n)
        assert signals._smooth_fft_len(n) == expected, n


@given(st.integers(1, 10**7))
def test_smooth_fft_len_matches_stepping(n):
    assert signals._smooth_fft_len(n) == stepped_smooth_fft_len(n)


class TestAudioSignal:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            AudioSignal(np.zeros(4), 0)

    def test_rejects_nonfinite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            AudioSignal(np.array([0.0, np.nan]), 48000)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            AudioSignal(np.zeros((2, 4)), 48000)

    def test_samples_are_immutable(self):
        sig = generate_tone(1000, 0.01, 48000)
        with pytest.raises(ValueError):
            sig.samples[0] = 1.0


class TestTone:
    def test_length_and_first_sample(self):
        sig = generate_tone(1000, 1.0, 48000, 1.0)
        assert len(sig) == 48000
        assert sig.samples[0] == 0.0

    def test_quarter_period_peak(self):
        sig = generate_tone(1000, 1.0, 48000, 1.0)
        assert sig.samples[12] == pytest.approx(1.0, abs=1e-12)

    def test_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            generate_tone(30000, 1.0, 48000, 1.0)
        with pytest.raises(ValueError, match="Nyquist"):
            generate_tone(24000, 1.0, 48000, 1.0)

    @pytest.mark.parametrize("rate", [0, -48000, 2.5])
    def test_bad_sample_rate_named_before_the_frequency(self, rate):
        with pytest.raises(ValueError, match=re.escape(
                f"sample_rate must be a positive integer, got {rate}")):
            generate_tone(440, 1.0, rate)

    def test_amplitude_range(self):
        with pytest.raises(ValueError, match="amplitude"):
            generate_tone(1000, 1.0, 48000, 0.0)
        with pytest.raises(ValueError, match="amplitude"):
            generate_tone(1000, 1.0, 48000, 1.5)

    def test_duration_positive(self):
        with pytest.raises(ValueError, match="duration"):
            generate_tone(1000, 0.0, 48000)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"),
                                          float("-inf"), 1e-9, 0.5 / 8000])
    def test_duration_without_a_sample_rejected(self, duration):
        # 0.5 / 8000 s is half a sample, which rounds to none
        message = f"got {duration} s at 8000 Hz"
        with pytest.raises(ValueError, match=message):
            generate_tone(1000, duration, 8000)
        with pytest.raises(ValueError, match=message):
            generate_chirp(0, 1000, duration, 8000)

    def test_shortest_duration_gives_one_sample(self):
        assert len(generate_tone(1000, 0.6 / 8000, 8000)) == 1
        assert len(generate_chirp(0, 1000, 0.6 / 8000, 8000)) == 1

    def test_deterministic(self):
        a = generate_tone(997.3, 0.25, 44100, 0.7)
        b = generate_tone(997.3, 0.25, 44100, 0.7)
        assert np.array_equal(a.samples, b.samples)

    def test_closed_form(self):
        sig = generate_tone(250, 0.01, 8000, 0.5)
        t = np.arange(len(sig)) / 8000
        np.testing.assert_allclose(sig.samples, 0.5 * np.sin(2 * np.pi * 250 * t),
                                   atol=1e-15)


class TestChirp:
    def test_length(self):
        assert len(generate_chirp(0, 10000, 5.0, 48000)) == 240000

    def test_instantaneous_frequency_at_midpoint(self):
        sig = generate_chirp(0, 10000, 5.0, 48000)
        spec = spectrogram(sig, 2048, 512)
        mid = np.argmin(np.abs(spec.times_s - 2.5))
        assert spec.ridge_hz()[mid] == pytest.approx(5000, abs=48000 / 2048)

    def test_degenerate_sweep_equals_tone(self):
        tone = generate_tone(440, 1.0, 48000, 1.0)
        sweep = generate_chirp(440, 440, 1.0, 48000)
        assert np.array_equal(tone.samples, sweep.samples)

    def test_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            generate_chirp(0, 10000, 5.0, 8000)

    @pytest.mark.parametrize("rate", [0, -48000, 2.5])
    def test_bad_sample_rate_named_before_the_frequency(self, rate):
        with pytest.raises(ValueError, match=re.escape(
                f"sample_rate must be a positive integer, got {rate}")):
            generate_chirp(0, 1000, 1.0, rate)

    def test_deterministic(self):
        a = generate_chirp(100, 5000, 0.3, 48000)
        b = generate_chirp(100, 5000, 0.3, 48000)
        assert np.array_equal(a.samples, b.samples)


class TestSpectrogram:
    def test_pure_tone_ridge(self):
        spec = spectrogram(generate_tone(1000, 0.5, 48000), 1024, 512)
        bin_hz = 48000 / 1024
        assert np.all(np.abs(spec.ridge_hz() - 1000) <= bin_hz)

    def test_zero_signal(self):
        spec = spectrogram(AudioSignal(np.zeros(4096), 48000), 1024, 512)
        assert np.all(spec.magnitudes == 0)

    def test_chirp_ridge_line(self):
        spec = spectrogram(generate_chirp(0, 10000, 5.0, 48000), 2048, 512)
        slope, _, r2 = ridge_line_fit(spec)
        assert r2 >= 0.99
        assert slope == pytest.approx(2000, rel=0.01)

    @pytest.mark.filterwarnings("error")
    def test_ridge_line_needs_three_time_bins(self):
        # a line fits any one or two ridge points exactly, so R^2 there
        # says nothing
        def spec(n):
            return spectrogram(generate_chirp(0, 10000, n / 48000, 48000),
                               2048, 512)

        for n, bins in ((2048, 1), (2559, 1), (2560, 2), (3071, 2)):
            assert spec(n).times_s.size == bins
            with pytest.raises(ValueError, match=re.escape(
                    f"spec must hold at least 3 time bins, got {bins}")):
                ridge_line_fit(spec(n))
        assert spec(3072).times_s.size == 3
        ridge_line_fit(spec(3072))

    def test_bin_count(self):
        spec = spectrogram(generate_tone(1000, 0.1, 48000), 512, 256)
        assert spec.magnitudes.shape[1] == 257

    def test_energy_scales_quadratically(self):
        lo = spectrogram(generate_tone(1000, 0.2, 48000, 0.5), 1024, 512)
        hi = spectrogram(generate_tone(1000, 0.2, 48000, 1.0), 1024, 512)
        e_lo = np.sum(lo.magnitudes ** 2)
        e_hi = np.sum(hi.magnitudes ** 2)
        assert e_hi == pytest.approx(4 * e_lo, rel=1e-6)

    def test_frame_validation(self):
        sig = generate_tone(1000, 0.1, 48000)
        with pytest.raises(ValueError, match="power of two"):
            spectrogram(sig, 1000, 100)
        with pytest.raises(ValueError, match="power of two"):
            spectrogram(sig, 8, 4)
        with pytest.raises(ValueError, match="hop"):
            spectrogram(sig, 1024, 0)
        with pytest.raises(ValueError, match="hop"):
            spectrogram(sig, 1024, 2048)

    @pytest.mark.parametrize("name, frame_length, hop", [
        ("frame_length", 256.0, 128), ("frame_length", True, 1),
        ("hop", 256, 2.5), ("hop", 256, 128.0), ("hop", 256, None)])
    def test_non_integer_frame_or_hop_rejected(self, name, frame_length, hop):
        sig = generate_tone(1000, 0.1, 48000)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            spectrogram(sig, frame_length, hop)

    def test_non_finite_magnitudes_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Spectrogram(np.full((2, 513), np.nan), 1024, 512, 48000)
        for bad in (np.nan, np.inf, -np.inf):
            mags = np.ones((3, 9))
            mags[1, 4] = bad
            with pytest.raises(ValueError, match="finite"):
                Spectrogram(mags, 16, 8, 48000)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("frame_length, hop, rate, message", [
        (16, 0, 16, r"^hop must be in \(0, frame_length\], got 0$"),
        (16, -8, 16, r"^hop must be in \(0, frame_length\], got -8$"),
        (16, 17, 16, r"^hop must be in \(0, frame_length\], got 17$"),
        (16, 2.5, 16, r"^hop must be an integer, got 2.5$"),
        (16, True, 16, r"^hop must be an integer, got True$"),
        (16.0, 8, 16, r"^frame_length must be an integer, got 16.0$"),
        (16, 8, 0, "^sample_rate must be a positive integer"),
        (16, 8, -48000, "^sample_rate must be a positive integer"),
        (16, 8, 2.5, "^sample_rate must be a positive integer"),
        (16, 8, float("nan"), "^sample_rate must be a positive integer"),
    ])
    def test_direct_construction_checks_fields(self, frame_length, hop, rate,
                                               message):
        # the checks spectrogram() applies, so no infinite or negative
        # times and frequencies reach ridge_hz or to_csv
        with pytest.raises(ValueError, match=message):
            Spectrogram(np.ones((2, 9)), frame_length, hop, rate)

    def test_magnitude_width_message_gives_both_shapes(self):
        with pytest.raises(ValueError, match=re.escape(
                "magnitudes must be (time bins, frame_length/2 + 1 = 9), "
                "got shape (3, 8)")):
            Spectrogram(np.ones((3, 8)), 16, 8, 48000)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="shorter than one"):
            spectrogram(AudioSignal(np.zeros(100), 48000), 1024, 512)

    def test_csv_export(self, tmp_path):
        spec = spectrogram(generate_tone(1000, 0.05, 48000), 512, 512)
        out = tmp_path / "spec.csv"
        spec.to_csv(out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time_s", "freq_hz", "magnitude"]
        assert len(rows) == 1 + spec.magnitudes.size
        assert float(rows[1][2]) == pytest.approx(spec.magnitudes[0, 0], rel=1e-6)


# .9g switches to exponent form below 1e-4 and from 1e9 (after rounding)
EDGE_MAGNITUDES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                   1e300, 1.7976931348623157e308, 1e-4, 9.99999999e-5,
                   9.999999995e-5, 0.0001000000005, 999999999.0,
                   999999999.4, 999999999.5, 1e9, 123456789.5, 0.5, 1.0]


@st.composite
def spectrograms(draw):
    frame_length = draw(st.sampled_from([16, 32, 64, 128, 256]))
    hop = draw(st.integers(1, frame_length))
    sample_rate = draw(st.one_of(st.sampled_from([7, 44100, 48000]),
                                 st.integers(1, 192000)))
    n_time = draw(st.integers(1, 5))
    n_freq = frame_length // 2 + 1
    value = st.one_of(st.sampled_from(EDGE_MAGNITUDES),
                      st.floats(0.0, 1e12, allow_nan=False,
                                allow_infinity=False))
    values = draw(st.lists(value, min_size=n_time * n_freq,
                           max_size=n_time * n_freq))
    mags = np.array(values, dtype=np.float64).reshape(n_time, n_freq)
    return Spectrogram(mags, frame_length, hop, sample_rate)


@settings(deadline=None)
@given(spectrograms())
def test_to_csv_bytes_match_csv_writer(tmp_path_factory, spec):
    out = tmp_path_factory.mktemp("spec")
    spec.to_csv(out / "new.csv")
    reference_spectrogram_csv(spec, out / "ref.csv")
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


def test_to_csv_bytes_match_csv_writer_on_a_chirp(tmp_path):
    # chirp-test's 2048-sample frames: 1025 bins per time bin
    spec = spectrogram(generate_chirp(0, 10000, 1.0, 48000), 2048, 512)
    mags = spec.magnitudes.copy()
    mags[0, :len(EDGE_MAGNITUDES)] = EDGE_MAGNITUDES
    mags[-1, -len(EDGE_MAGNITUDES):] = EDGE_MAGNITUDES
    spec = Spectrogram(mags, 2048, 512, 48000)
    spec.to_csv(tmp_path / "new.csv")
    reference_spectrogram_csv(spec, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
