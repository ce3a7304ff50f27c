"""Light-to-audio transduction for a MEMS (or electret) microphone port.

One linear responsivity stands in for the whole photoacoustic +
photoelectric pathway: the microphone turns the AC component of optical
power at its port into normalized output amplitude. The pipeline is

    remove DC -> scale by responsivity -> clip at saturation ->
    band-pass -> add seeded Gaussian noise

The band-pass is applied in the frequency domain with raised-cosine
transitions reaching zero exactly one octave outside the band, so the
passband is ripple-free and rejection exceeds 40 dB where it matters.
The filter is circular over the n samples, and one of two routes
computes it, chosen by n alone:

- n whose prime factors are all at most 700 (5-smooth counts included):
  `irfft(rfft(x) * mask, n)`, two transforms of length n.
- n with a prime factor above 700 (every prime count above 700): such a
  transform costs several times a 5-smooth one, so only the impulse
  response `h = irfft(mask, n)` is taken at length n. It is applied as a
  linear convolution at a 5-smooth length m >= 2n - 1, and the tail
  y[n:2n-1] is folded back onto y[:n-1]. That is the same circular
  filter; only float rounding differs, by a few 1e-15 of max|x|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diode import LightWaveform
from .errors import (_check_integer, _check_nonnegative, _check_positive,
                     _check_sample_rate, _check_samples)
from .signals import AudioSignal, _smooth_fft_len

# bandpass_fft convolves at a 5-smooth length when n has a prime factor
# above this. Timed against the direct route at such lengths, the
# convolution took about 0.8 of its time (0.7-1.1); with the largest
# factor in [200, 400) it took up to 2.3 times as long
_CONV_PRIME_FACTOR = 700


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


def _has_prime_factor_above(n: int, bound: int) -> bool:
    p = 2
    while p <= bound and p * p <= n:
        while n % p == 0:
            n //= p
        p += 1
    # what is left is 1, or a product of primes above the last p tried
    return n > bound


def bandpass_fft(samples: np.ndarray, sample_rate: int, low_hz: float,
                 high_hz: float) -> np.ndarray:
    """Zero-phase FFT band-pass with raised-cosine octave-wide skirts.

    Unity gain on [low_hz, high_hz]; the response falls to exactly zero at
    low_hz/2 and at min(2*high_hz, Nyquist). DC is always removed. The
    samples must be a finite, non-empty 1-D array-like.
    """
    samples = _check_samples("samples", samples, copy=False)
    _check_sample_rate(sample_rate)
    _check_positive("low_hz", low_hz)
    # chained comparison with inf: NaN fails it
    if not low_hz < high_hz < math.inf:
        raise ValueError(f"high_hz must be finite and above low_hz "
                         f"({low_hz}), got {high_hz}")
    n = samples.size
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
    if not _has_prime_factor_above(n, _CONV_PRIME_FACTOR):
        return np.fft.irfft(np.fft.rfft(samples) * mask, n)
    m = _smooth_fft_len(2 * n - 1)
    h = np.fft.irfft(mask, n)
    y = np.fft.irfft(np.fft.rfft(samples, m) * np.fft.rfft(h, m), m)
    y[:n - 1] += y[n:2 * n - 1]
    return y[:n].copy()


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
