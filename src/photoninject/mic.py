"""Light-to-audio transduction for a MEMS (or electret) microphone port.

One linear responsivity stands in for the whole photoacoustic +
photoelectric pathway: the microphone turns the AC component of optical
power at its port into normalized output amplitude. The pipeline is

    remove DC -> scale by responsivity -> clip at saturation ->
    band-pass -> add seeded Gaussian noise

The band-pass is a zero-phase linear FIR filter. Its target response is
unity on the band with raised-cosine skirts that reach zero one octave
outside it. The taps reach `_TAP_SPAN_S` = 0.125 s either side of lag 0,
so there are 2K + 1 of them with K = ceil(0.125 * rate), and a Hann
window tapers them. Truncating and tapering smooths the target response
by the window's main lobe, +-8 Hz at every sample rate. A skirt much
wider than that keeps its shape: for a 100 Hz edge the response is -48 dB
at 50 Hz, and the gain is within 1e-6 of unity above 121 Hz. The 10 Hz
wide skirt of the packaged microphones' 20 Hz edge is blurred: -21 dB at
10 Hz, -0.8 dB at 20 Hz, and within 1e-6 of unity only above 92 Hz. The
taps depend only on the rate and the band, never on the record length.

The filter is linear, not circular: the record is taken as silent before
its first sample and after its last, so the end of a record never leaks
onto its start. The price is a transient within K samples of each end,
where the filter sees the abrupt start or stop of the record: a tone that
starts at full amplitude passes some of its onset there, however far out
of band it is. Samples at least K from both ends see the steady-state
response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diode import LightWaveform
from .errors import (_check_integer, _check_nonnegative, _check_positive,
                     _check_sample_rate, _check_samples)
from .signals import AudioSignal, _smooth_fft_len

# the band-pass taps reach this far either side of lag 0
_TAP_SPAN_S = 0.125


@dataclass(frozen=True)
class MicProfile:
    """Responsivity, band limits, saturation and noise floor."""

    name: str
    responsivity_per_mw: float   # normalized amplitude per mW of AC power
    band_low_hz: float
    band_high_hz: float
    saturation_mw: float         # AC optical power at which output clips
    noise_rms: float             # ambient noise floor, normalized amplitude

    def __post_init__(self):
        _check_positive("responsivity_per_mw", self.responsivity_per_mw)
        _check_positive("band_low_hz", self.band_low_hz)
        # chained comparison with inf: NaN fails it
        if not self.band_low_hz < self.band_high_hz < math.inf:
            raise ValueError(f"band_high_hz must be finite and above "
                             f"band_low_hz ({self.band_low_hz}), "
                             f"got {self.band_high_hz}")
        _check_positive("saturation_mw", self.saturation_mw)
        _check_nonnegative("noise_rms", self.noise_rms)


def _band_taps(sample_rate: int, low_hz: float, high_hz: float) -> np.ndarray:
    """The band-pass's 2K + 1 zero-phase taps, lag -K first.

    The raised-cosine target is sampled on a 4K-point grid, inverse
    transformed, cut to lags -K..K and Hann-tapered.
    """
    k = math.ceil(_TAP_SPAN_S * sample_rate)
    freqs = np.fft.rfftfreq(4 * k, 1.0 / sample_rate)
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
    h = np.fft.irfft(mask, 4 * k)
    return np.concatenate((h[-k:], h[:k + 1])) * np.hanning(2 * k + 3)[1:-1]


def bandpass_fft(samples: np.ndarray, sample_rate: int, low_hz: float,
                 high_hz: float) -> np.ndarray:
    """Zero-phase linear FIR band-pass with raised-cosine octave-wide skirts.

    The record's mean is subtracted, so DC is always removed. Then the
    2K + 1 taps of `_band_taps`, K = ceil(0.125 s * sample_rate), are
    applied as a linear convolution, aligned so that output sample i is
    centred on input sample i. Samples at least K from both ends see the
    steady-state response: the target (unity on [low_hz, high_hz], zero
    at and beyond low_hz/2 and min(2*high_hz, Nyquist)) smoothed by
    +-8 Hz, which rejects an octave outside the band by 40 dB or more
    when that skirt is much wider than 8 Hz. Within K samples of either
    end the output also carries the transient of the record's abrupt
    start or stop. The samples must be a finite, non-empty 1-D
    array-like.
    """
    samples = _check_samples("samples", samples, copy=False)
    _check_sample_rate(sample_rate)
    _check_positive("low_hz", low_hz)
    # chained comparison with inf: NaN fails it
    if not low_hz < high_hz < math.inf:
        raise ValueError(f"high_hz must be finite and above low_hz "
                         f"({low_hz}), got {high_hz}")
    n = samples.size
    h = _band_taps(sample_rate, low_hz, high_hz)
    k = h.size // 2
    m = _smooth_fft_len(n + 2 * k)
    y = np.fft.irfft(np.fft.rfft(samples - samples.mean(), m)
                     * np.fft.rfft(h, m), m)
    return y[k:k + n].copy()


def transduce(profile: MicProfile, light_at_port: LightWaveform,
              rng_seed: int = 0) -> AudioSignal:
    """Microphone output for the light waveform hitting its port.

    Requires the light sample rate to cover the microphone band
    (sample_rate >= 2 * band_high). Output is bit-reproducible for a
    fixed rng_seed.
    """
    _check_integer("seed", rng_seed, minimum=0)
    rate = light_at_port.sample_rate
    if rate < 2 * profile.band_high_hz:
        raise ValueError(
            f"sample rate {rate} Hz cannot represent the microphone band "
            f"(need >= {2 * profile.band_high_hz:.0f} Hz)")
    x = light_at_port.powers_mw - np.mean(light_at_port.powers_mw)
    x = profile.responsivity_per_mw * x
    limit = profile.responsivity_per_mw * profile.saturation_mw
    x = np.clip(x, -limit, limit)
    x = bandpass_fft(x, rate, profile.band_low_hz, profile.band_high_hz)
    if profile.noise_rms > 0:
        rng = np.random.default_rng(rng_seed)
        x = x + rng.normal(0.0, profile.noise_rms, x.size)
    return AudioSignal(x, rate)


def output_vpp(profile: MicProfile, ipp_effective_mw: float) -> float:
    """Peak-to-peak output for a given AC drive, the planning closed form.

    Linear in the drive up to saturation, constant beyond it:
    min(r * I_pp_effective, r * saturation).
    """
    _check_nonnegative("ipp_effective_mw", ipp_effective_mw)
    return profile.responsivity_per_mw * min(ipp_effective_mw,
                                             profile.saturation_mw)
