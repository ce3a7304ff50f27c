"""Light-to-audio transduction for a MEMS (or electret) microphone port.

One linear responsivity stands in for the whole photoacoustic +
photoelectric pathway: the microphone turns the AC component of optical
power at its port into normalized output amplitude. The pipeline is

    remove DC -> scale by responsivity -> clip at saturation ->
    band-pass -> add seeded Gaussian noise

The band-pass is applied in the frequency domain with raised-cosine
transitions reaching zero exactly one octave outside the band, so the
passband is ripple-free and rejection exceeds 40 dB where it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diode import LightWaveform
from .errors import _check_integer, _check_sample_rate
from .signals import AudioSignal

# ambient office noise floor: 0.005 of full scale is -46 dBFS, mirroring
# a ~46 dB(A) room against a 0 dBFS full-scale signal
DEFAULT_NOISE_RMS = 0.005
DEFAULT_RESPONSIVITY = 4.0
DEFAULT_SATURATION_MW = 0.1


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
        # chained comparisons with inf: NaN fails every one of them
        if not 0 < self.responsivity_per_mw < math.inf:
            raise ValueError("responsivity_per_mw must be positive and finite")
        if not 0 < self.band_low_hz < self.band_high_hz < math.inf:
            raise ValueError("need 0 < band_low_hz < band_high_hz, both finite")
        if not 0 < self.saturation_mw < math.inf:
            raise ValueError("saturation_mw must be positive and finite")
        if not 0 <= self.noise_rms < math.inf:
            raise ValueError("noise_rms must be >= 0 and finite")


MEMS_DEFAULT = MicProfile("mems-default", DEFAULT_RESPONSIVITY, 20.0, 20000.0,
                          DEFAULT_SATURATION_MW, DEFAULT_NOISE_RMS)


def bandpass_fft(samples: np.ndarray, sample_rate: int, low_hz: float,
                 high_hz: float) -> np.ndarray:
    """Zero-phase FFT band-pass with raised-cosine octave-wide skirts.

    Unity gain on [low_hz, high_hz]; the response falls to exactly zero at
    low_hz/2 and at min(2*high_hz, Nyquist). DC is always removed.
    """
    _check_sample_rate(sample_rate)
    # chained comparisons with inf: NaN fails every one of them
    if not 0 < low_hz < math.inf:
        raise ValueError(f"low_hz must be positive and finite, got {low_hz}")
    if not low_hz < high_hz < math.inf:
        raise ValueError(f"high_hz must be finite and above low_hz "
                         f"({low_hz}), got {high_hz}")
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


def transduce(profile: MicProfile, light_at_port: LightWaveform,
              rng_seed: int = 0) -> AudioSignal:
    """Microphone output for the light waveform hitting its port.

    Requires the light sample rate to cover the microphone band
    (sample_rate >= 2 * band_high). Output is bit-reproducible for a
    fixed rng_seed.
    """
    _check_integer("seed", rng_seed)
    if rng_seed < 0:
        raise ValueError(f"seed must be >= 0, got {rng_seed}")
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
    if not 0 <= ipp_effective_mw < math.inf:
        raise ValueError(
            f"ipp_effective_mw must be >= 0 and finite, got {ipp_effective_mw}")
    return profile.responsivity_per_mw * min(ipp_effective_mw,
                                             profile.saturation_mw)
