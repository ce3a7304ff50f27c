import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import thd_ratio
from photoninject import mic, optics, profiles, signals
from photoninject.diode import (LightWaveform, OperatingPoint, emitted_light,
                                modulate)
from photoninject.injection import inject
from photoninject.mic import MicProfile, bandpass_fft, output_vpp, transduce
from photoninject.signals import generate_chirp, generate_tone


def quiet(saturation=10.0, band=(20.0, 20000.0)):
    """Noise-free profile with headroom for bench-style drives."""
    return MicProfile("bench", 4.0, band[0], band[1], saturation, 0.0)


def tone_light(amp_mw, freq=1000.0, duration=0.2, rate=48000, dc=5.0):
    tone = generate_tone(freq, duration, rate, 1.0)
    return LightWaveform(dc + amp_mw * tone.samples, rate)


@st.composite
def bandpass_inputs(draw):
    """Small records and rates, so np.convolve stays cheap as an oracle."""
    rate = draw(st.integers(8, 16000))
    n = draw(st.integers(1, 3000))
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
def test_bandpass_matches_direct_convolution(inputs):
    x, rate, low, high = inputs
    n = x.size
    h = mic._band_taps(rate, low, high)
    k = math.ceil(0.125 * rate)
    assert h.size == 2 * k + 1
    expected = np.convolve(x - x.mean(), h)[k:k + n]
    out = bandpass_fft(x, rate, low, high)
    tolerance = 1e-12 * max(1.0, np.max(np.abs(x)))
    assert np.max(np.abs(out - expected)) <= tolerance


class TestBandpass:
    def test_passband_is_flat(self):
        tone = generate_tone(1000, 0.5, 48000, 1.0)
        out = bandpass_fft(tone.samples, 48000, 100.0, 8000.0)
        gain = np.linalg.norm(out) / np.linalg.norm(tone.samples)
        assert abs(20 * np.log10(gain)) <= 0.5

    def test_octave_outside_rejected(self):
        # steady state only: within K samples of either end the filter
        # passes some of the tone's abrupt start and stop
        k = math.ceil(0.125 * 48000)
        low_tone = generate_tone(50, 0.5, 48000, 1.0)    # one octave below 100
        high_tone = generate_tone(16000, 0.5, 48000, 1.0)  # one octave above 8k
        for tone in (low_tone, high_tone):
            out = bandpass_fft(tone.samples, 48000, 100.0, 8000.0)
            rejection = (np.linalg.norm(out[k:-k])
                         / np.linalg.norm(tone.samples[k:-k]))
            assert 20 * np.log10(max(rejection, 1e-300)) <= -40

    def test_steady_state_gain_is_unity_in_band(self):
        k = math.ceil(0.125 * 48000)
        tone = generate_tone(1000, 0.5, 48000, 1.0).samples
        out = bandpass_fft(tone, 48000, 20.0, 20000.0)
        mid = slice(k, tone.size - k)
        gain = out[mid] @ tone[mid] / (tone[mid] @ tone[mid])
        assert abs(gain - 1) <= 1e-4

    def test_taps_worked_by_hand(self):
        # rate 8 Hz: K = 1, so the mask is sampled at 0, 2 and 4 Hz as
        # [0, 1, 1]; its 4-point inverse transform at lags -1, 0, 1 is
        # [-0.25, 0.75, -0.25], and hanning(5)[1:-1] is [0.5, 1, 0.5]
        np.testing.assert_allclose(mic._band_taps(8, 1.0, 4.0),
                                   [-0.125, 0.75, -0.125], rtol=0, atol=1e-15)
        taps = mic._band_taps(44100, 20.0, 20000.0)
        assert taps.size == 2 * 5513 + 1   # K = ceil(5512.5)
        np.testing.assert_allclose(taps, taps[::-1], rtol=0, atol=1e-15)

    def test_end_does_not_wrap_onto_start(self):
        # a circular filter would carry the doublet's response onto the
        # first samples; a linear one leaves all but the last K + 2 silent
        k = math.ceil(0.125 * 48000)
        x = np.zeros(48000)
        x[-2:] = (1.0, -1.0)
        out = bandpass_fft(x, 48000, 20.0, 20000.0)
        assert np.max(np.abs(out[:-(k + 2)])) <= 1e-12
        assert np.max(np.abs(out[-(k + 2):])) >= 0.1

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
        link = optics.OpticalPath.ideal(0.3), optics.Aperture(0.001), 0.3
        mems = profiles.get_mic("mems-default")
        noisy = inject(tone, blue, 0.08, *link, mems, rng_seed=0)
        # noise-free variant for the distortion measurement
        quiet_mems = MicProfile("q", 4.0, 20.0, 20000.0, 0.1, 0.0)
        out = inject(tone, blue, 0.08, *link, quiet_mems, rng_seed=0)
        # the noisy profile adds the seeded noise and nothing else
        noise = np.random.default_rng(0).normal(0.0, mems.noise_rms, len(out))
        np.testing.assert_allclose(noisy.samples - out.samples, noise,
                                   rtol=0, atol=1e-15)
        spec = np.abs(np.fft.rfft(out.samples))
        bin_hz = 48000 / len(out)
        assert abs(np.argmax(spec) * bin_hz - 1000) <= bin_hz
        assert thd_ratio(out.samples, 48000, 1000) <= 0.01

    def test_chirp_through_full_chain(self, blue):
        sweep = generate_chirp(0, 10000, 2.0, 48000)
        out = inject(sweep, blue, 0.08, optics.OpticalPath.ideal(0.3),
                     optics.Aperture(0.001), 0.3,
                     profiles.get_mic("mems-default"), rng_seed=7)
        spec = signals.spectrogram(out, 2048, 512)
        slope, _, r2 = signals.ridge_line_fit(spec)
        assert r2 >= 0.99
        assert slope == pytest.approx(5000.0, rel=0.02)
