import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import thd_ratio
from photoninject import mic, optics, profiles, signals
from photoninject.diode import (LightWaveform, OperatingPoint, emitted_light,
                                modulate, optimize_operating_point)
from photoninject.mic import MicProfile, bandpass_fft, output_vpp, transduce
from photoninject.signals import generate_chirp, generate_tone


def quiet(saturation=10.0, band=(20.0, 20000.0)):
    """Noise-free profile with headroom for bench-style drives."""
    return MicProfile("bench", 4.0, band[0], band[1], saturation, 0.0)


def tone_light(amp_mw, freq=1000.0, duration=0.2, rate=48000, dc=5.0):
    tone = generate_tone(freq, duration, rate, 1.0)
    return LightWaveform(dc + amp_mw * tone.samples, rate)


def reference_bandpass(samples, sample_rate, low_hz, high_hz):
    """The band-pass as two length-n transforms at every length, without
    input checks: the oracle for both of bandpass_fft's routes."""
    n = samples.size
    if n == 0:
        return samples.copy()
    spec = np.fft.rfft(samples)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    mask = np.ones_like(freqs)

    lo_stop = low_hz / 2
    rising = (freqs > lo_stop) & (freqs < low_hz)
    mask[freqs <= lo_stop] = 0.0
    mask[rising] = 0.5 - 0.5 * np.cos(
        np.pi * (freqs[rising] - lo_stop) / (low_hz - lo_stop))

    hi_stop = min(2 * high_hz, sample_rate / 2)
    if hi_stop > high_hz:
        falling = (freqs > high_hz) & (freqs < hi_stop)
        mask[freqs >= hi_stop] = 0.0
        mask[falling] = 0.5 + 0.5 * np.cos(
            np.pi * (freqs[falling] - high_hz) / (hi_stop - high_hz))
    return np.fft.irfft(spec * mask, n)


def largest_prime_factor(n):
    p, largest = 2, 1
    while p * p <= n:
        while n % p == 0:
            n //= p
            largest = p
        p += 1
    return max(largest, n)


PRIMES = [p for p in range(2, 5001) if largest_prime_factor(p) == p]
BANDPASS_LENGTHS = st.one_of(
    st.integers(1, 5000),
    st.sampled_from(PRIMES),
    st.sampled_from([2 * p for p in PRIMES if 2 * p <= 5000]),
    st.sampled_from([p * q for p in PRIMES if p > 700
                     for q in range(3, 8) if p * q <= 5000]),
    st.sampled_from([n for n in range(1, 5001)
                     if largest_prime_factor(n) <= 5]))


@st.composite
def bandpass_inputs(draw):
    n = draw(BANDPASS_LENGTHS)
    rate = draw(st.integers(1000, 192000))
    low = draw(st.floats(1.0, rate / 4))
    high = draw(st.floats(low, rate, exclude_min=True))
    scale = draw(st.sampled_from([1e-6, 1.0, 0.4, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return scale * rng.normal(size=n), rate, low, high


class TestTransduce:
    def test_constant_light_is_silent(self):
        light = LightWaveform(np.full(5000, 3.0), 48000)
        out = transduce(quiet(), light, rng_seed=1)
        assert np.all(out.samples == 0.0)

    def test_reference_injection_recovers_tone(self, blue):
        # feasibility-style drive: 26.2 mA bias, 7 mA swing, 1 kHz
        tone = generate_tone(1000, 0.5, 48000, 1.0)
        light = emitted_light(blue, modulate(blue, OperatingPoint(26.2, 7.0), tone))
        out = transduce(quiet(), light, rng_seed=0)
        spec = np.abs(np.fft.rfft(out.samples))
        bin_hz = 48000 / len(out)
        assert abs(np.argmax(spec) * bin_hz - 1000) <= bin_hz

    def test_linear_gain_below_saturation(self):
        a = transduce(quiet(), tone_light(0.02), rng_seed=0)
        b = transduce(quiet(), tone_light(0.04), rng_seed=0)
        ratio = np.ptp(b.samples) / np.ptp(a.samples)
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_saturation_bounds_output(self):
        profile = MicProfile("sat", 4.0, 20.0, 20000.0, 0.1, 0.0)
        out = transduce(profile, tone_light(1.0), rng_seed=0)
        limit = profile.responsivity_per_mw * profile.saturation_mw
        # band-pass ringing may overshoot the clip slightly, never by much
        assert np.max(np.abs(out.samples)) <= limit * 1.2
        # doubling an already-clipped drive no longer doubles the output
        out2 = transduce(profile, tone_light(2.0), rng_seed=0)
        assert np.ptp(out2.samples) <= np.ptp(out.samples) * 1.1

    def test_sample_rate_must_cover_band(self):
        light = LightWaveform(np.ones(100), 8000)
        with pytest.raises(ValueError, match="sample rate"):
            transduce(quiet(), light, rng_seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            transduce(quiet(), tone_light(0.02), rng_seed=-1)

    @pytest.mark.parametrize("seed", [2.5, 3.0, None, True, "1"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError,
                           match=rf"^seed must be an integer, got {seed!r}$"):
            transduce(quiet(), tone_light(0.02), rng_seed=seed)

    def test_numpy_integer_seed_matches_int(self):
        profile = MicProfile("n", 4.0, 20.0, 20000.0, 0.1, 0.005)
        a = transduce(profile, tone_light(0.02), rng_seed=np.int64(42))
        b = transduce(profile, tone_light(0.02), rng_seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_seeded_noise_reproducible(self):
        profile = MicProfile("n", 4.0, 20.0, 20000.0, 0.1, 0.005)
        a = transduce(profile, tone_light(0.02), rng_seed=42)
        b = transduce(profile, tone_light(0.02), rng_seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = transduce(profile, tone_light(0.02), rng_seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_noise_rms_level(self):
        profile = MicProfile("n", 4.0, 20.0, 20000.0, 0.1, 0.01)
        light = LightWaveform(np.full(200_000, 2.0), 48000)
        out = transduce(profile, light, rng_seed=3)
        assert np.std(out.samples) == pytest.approx(0.01, rel=0.02)


@settings(deadline=None)
@given(bandpass_inputs())
def test_bandpass_routes_match_reference(inputs):
    x, rate, low, high = inputs
    n = x.size
    expected = reference_bandpass(x, rate, low, high)
    out = bandpass_fft(x, rate, low, high)
    convolved = mic._has_prime_factor_above(n, 700)
    assert convolved == (largest_prime_factor(n) > 700)
    if convolved:
        tolerance = 1e-12 * max(1.0, np.max(np.abs(x)))
        assert np.max(np.abs(out - expected)) <= tolerance
    else:
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("n, convolved", [
    (36001, False),   # 7 * 37 * 139
    (24001, True),    # prime
    (48001, True),    # 23 * 2087
    (48017, True),    # prime
    (72001, True),    # 89 * 809
])
def test_bandpass_route_pinned(n, convolved):
    assert mic._has_prime_factor_above(n, 700) is convolved
    x = np.random.default_rng(n).normal(size=n)
    out = bandpass_fft(x, 48000, 20.0, 20000.0)
    expected = reference_bandpass(x, 48000, 20.0, 20000.0)
    if convolved:
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(out, expected)


class TestBandpass:
    def test_passband_is_flat(self):
        tone = generate_tone(1000, 0.5, 48000, 1.0)
        out = bandpass_fft(tone.samples, 48000, 100.0, 8000.0)
        gain = np.linalg.norm(out) / np.linalg.norm(tone.samples)
        assert abs(20 * np.log10(gain)) <= 0.5

    def test_octave_outside_rejected(self):
        low_tone = generate_tone(50, 0.5, 48000, 1.0)    # one octave below 100
        high_tone = generate_tone(16000, 0.5, 48000, 1.0)  # one octave above 8k
        for tone in (low_tone, high_tone):
            out = bandpass_fft(tone.samples, 48000, 100.0, 8000.0)
            rejection = np.linalg.norm(out) / np.linalg.norm(tone.samples)
            assert 20 * np.log10(max(rejection, 1e-300)) <= -40

    def test_dc_removed(self):
        x = np.full(4096, 0.7)
        out = bandpass_fft(x, 48000, 20.0, 20000.0)
        assert np.max(np.abs(out)) <= 1e-12

    @pytest.mark.parametrize("rate, low, high, message", [
        (48000, float("nan"), 8000.0, "low_hz must be positive and finite"),
        (48000, -5.0, 8000.0, "low_hz must be positive and finite"),
        (48000, 0.0, 8000.0, "low_hz must be positive and finite"),
        (48000, float("inf"), 8000.0, "low_hz must be positive and finite"),
        (48000, 2000.0, 1000.0, "high_hz must be finite and above low_hz"),
        (48000, 2000.0, 2000.0, "high_hz must be finite and above low_hz"),
        (48000, 100.0, float("nan"), "high_hz must be finite and above"),
        (48000, 100.0, float("inf"), "high_hz must be finite and above"),
        (0, 100.0, 8000.0, "sample_rate must be a positive integer"),
        (-48000, 100.0, 8000.0, "sample_rate must be a positive integer"),
    ])
    def test_bad_band_or_rate_rejected(self, rate, low, high, message):
        with pytest.raises(ValueError, match=message):
            bandpass_fft(np.ones(64), rate, low, high)

    @pytest.mark.parametrize("shape", [(2, 64), (64, 1), ()])
    def test_not_one_dimensional_rejected(self, shape):
        with pytest.raises(ValueError,
                           match=rf"^samples must be 1-D, got shape "
                                 rf"{re.escape(str(shape))}$"):
            bandpass_fft(np.ones(shape), 48000, 100.0, 8000.0)

    def test_array_like_accepted(self):
        x = np.random.default_rng(2).normal(size=64)
        assert np.array_equal(bandpass_fft(x.tolist(), 48000, 100.0, 8000.0),
                              bandpass_fft(x, 48000, 100.0, 8000.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        x = np.ones(64)
        x[17] = bad
        with pytest.raises(ValueError, match="^samples must all be finite$"):
            bandpass_fft(x, 48000, 100.0, 8000.0)

    def test_flat_across_voice_band(self):
        # equal drives from 100 Hz to 10 kHz stay within a 3 dB window
        vpps = []
        for freq in (100, 300, 1000, 3000, 10000):
            periods = max(round(0.2 * freq), 1)
            duration = periods / freq
            light = tone_light(0.02, freq=freq, duration=duration)
            out = transduce(quiet(), light, rng_seed=0)
            vpps.append(np.ptp(out.samples))
        spread_db = 20 * np.log10(max(vpps) / min(vpps))
        assert spread_db <= 3.0


class TestOutputVpp:
    def test_zero(self):
        assert output_vpp(quiet(), 0.0) == 0.0

    def test_saturates(self):
        profile = MicProfile("s", 4.0, 20.0, 20000.0, 0.1, 0.0)
        assert output_vpp(profile, 0.5) == pytest.approx(0.4)
        assert output_vpp(profile, 5.0) == pytest.approx(0.4)

    def test_linear_below_saturation(self):
        profile = MicProfile("s", 4.0, 20.0, 20000.0, 0.1, 0.0)
        assert output_vpp(profile, 0.04) == pytest.approx(2 * output_vpp(profile, 0.02))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            output_vpp(quiet(), -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            output_vpp(quiet(), bad)


class TestProfileValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_fields_rejected(self, bad):
        for field in range(5):
            values = [4.0, 20.0, 20000.0, 0.1, 0.005]
            values[field] = bad
            with pytest.raises(ValueError, match="finite"):
                MicProfile("m", *values)

    def test_bad_band(self):
        with pytest.raises(ValueError):
            MicProfile("x", 1.0, 100.0, 50.0, 0.1, 0.0)

    def test_bad_responsivity(self):
        with pytest.raises(ValueError):
            MicProfile("x", 0.0, 20.0, 20000.0, 0.1, 0.0)


class TestRoundTrip:
    def test_tone_through_full_chain(self, blue):
        tone = generate_tone(1000, 0.5, 48000, 1.0)
        op = optimize_operating_point(blue, 0.08)
        light = emitted_light(blue, modulate(blue, op, tone))
        path = optics.OpticalPath.ideal(0.3)
        at_port = optics.attenuate(light, path, optics.Aperture(0.001), 0.3)
        out = transduce(profiles.get_mic("mems-default"), at_port, rng_seed=0)
        # noise-free variant for the distortion measurement
        quiet_mems = MicProfile("q", 4.0, 20.0, 20000.0, 0.1, 0.0)
        out = transduce(quiet_mems, at_port, rng_seed=0)
        spec = np.abs(np.fft.rfft(out.samples))
        bin_hz = 48000 / len(out)
        assert abs(np.argmax(spec) * bin_hz - 1000) <= bin_hz
        assert thd_ratio(out.samples, 48000, 1000) <= 0.01

    def test_chirp_through_full_chain(self, blue):
        sweep = generate_chirp(0, 10000, 2.0, 48000)
        op = optimize_operating_point(blue, 0.08)
        light = emitted_light(blue, modulate(blue, op, sweep))
        path = optics.OpticalPath.ideal(0.3)
        at_port = optics.attenuate(light, path, optics.Aperture(0.001), 0.3)
        out = transduce(profiles.get_mic("mems-default"), at_port, rng_seed=7)
        spec = signals.spectrogram(out, 2048, 512)
        slope, _, r2 = signals.ridge_line_fit(spec)
        assert r2 >= 0.99
        assert slope == pytest.approx(5000.0, rel=0.02)
