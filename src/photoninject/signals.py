"""Audio signal representation, synthesis, and spectral analysis.

Everything downstream (modulation, transduction, detection) works on
`AudioSignal`: uniformly sampled mono audio with normalized, dimensionless
amplitude. Synthesis functions are deterministic; identical arguments
produce bit-identical sample arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import _check_integer, _check_sample_rate, _check_samples

TWO_PI = 2.0 * math.pi
# rows of spectrogram CSV turned into text at once, in whole time bins:
# about 0.5 MiB of temporaries in `_decimal`, so peak memory stays put
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class AudioSignal:
    """Uniformly sampled mono audio with a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "sample_rate",
                           _check_sample_rate(self.sample_rate))
        object.__setattr__(self, "samples",
                           _check_samples("samples", self.samples))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    @property
    def peak(self) -> float:
        return float(np.max(np.abs(self.samples)))


def _smooth_fft_len(n: int) -> int:
    """Smallest 2*3*5-smooth length >= n (at least 1): a fast FFT size."""
    n = max(n, 1)
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _sample_count(duration: float, sample_rate: int) -> int:
    """Samples in `duration` seconds, rejecting a count that rounds to 0."""
    # chained comparisons with inf: NaN fails every one of them, and a
    # product of 0.5 or less rounds to no sample at all
    if not (0 < duration < math.inf
            and 0.5 < duration * sample_rate < math.inf):
        raise ValueError(f"duration must be positive, finite and at least one "
                         f"sample long, got {duration} s at {sample_rate} Hz")
    return round(duration * sample_rate)


def generate_tone(frequency: float, duration: float, sample_rate: int,
                  amplitude: float = 1.0) -> AudioSignal:
    """Pure sine: samples[i] = amplitude * sin(2*pi*frequency*i/sample_rate).

    The frequency must sit strictly below Nyquist; amplitude in (0, 1].
    """
    _check_sample_rate(sample_rate)
    if not 0.0 < frequency < sample_rate / 2:
        raise ValueError(
            f"frequency {frequency} Hz outside (0, Nyquist={sample_rate / 2}) Hz")
    n = _sample_count(duration, sample_rate)
    if not 0.0 < amplitude <= 1.0:
        raise ValueError(f"amplitude must be in (0, 1], got {amplitude}")
    t = np.arange(n) / sample_rate
    return AudioSignal(amplitude * np.sin(TWO_PI * frequency * t), sample_rate)


def generate_chirp(f_start: float, f_end: float, duration: float,
                   sample_rate: int) -> AudioSignal:
    """Unit-amplitude linear sweep from f_start to f_end over `duration`.

    Instantaneous frequency is f_start + (f_end - f_start) * t / duration;
    the phase integrates to 2*pi*(f_start + rate*t/2)*t. A degenerate sweep
    (f_start == f_end) is bit-identical to generate_tone at that frequency.
    """
    _check_sample_rate(sample_rate)
    for name, f in (("f_start", f_start), ("f_end", f_end)):
        if not 0.0 <= f < sample_rate / 2:
            raise ValueError(
                f"{name} {f} Hz outside [0, Nyquist={sample_rate / 2}) Hz")
    n = _sample_count(duration, sample_rate)
    t = np.arange(n) / sample_rate
    rate = (f_end - f_start) / duration
    return AudioSignal(np.sin(TWO_PI * (f_start + 0.5 * rate * t) * t), sample_rate)


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude STFT: rows are time bins, columns frequency bins."""

    magnitudes: np.ndarray
    frame_length: int
    hop: int
    sample_rate: int
    times_s: np.ndarray = field(init=False)
    freqs_hz: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sample_rate",
                           _check_sample_rate(self.sample_rate))
        _check_integer("frame_length", self.frame_length)
        _check_integer("hop", self.hop)
        if not 0 < self.hop <= self.frame_length:
            raise ValueError(f"hop must be in (0, frame_length], got {self.hop}")
        mags = _check_samples("magnitudes", self.magnitudes, ndim=2,
                              nonnegative=True, copy=False)
        width = self.frame_length // 2 + 1
        if mags.shape[1] != width:
            raise ValueError(f"magnitudes must be (time bins, frame_length/2 + 1"
                             f" = {width}), got shape {mags.shape}")
        object.__setattr__(self, "magnitudes", mags)
        starts = np.arange(mags.shape[0]) * self.hop
        object.__setattr__(
            self, "times_s", (starts + self.frame_length / 2) / self.sample_rate)
        object.__setattr__(
            self, "freqs_hz",
            np.arange(mags.shape[1]) * self.sample_rate / self.frame_length)

    def ridge_hz(self) -> np.ndarray:
        """Frequency of the argmax bin in each time bin."""
        return self.freqs_hz[np.argmax(self.magnitudes, axis=1)]

    def to_csv(self, path) -> None:
        """Write `time_s,freq_hz,magnitude` rows with CRLF line ends.

        The times are written to 9 dp, the frequencies to 3 dp and the
        magnitudes to 9 significant digits, with the same digits as `%`
        and `format()`. `_decimal` turns whole blocks of floats into text
        at once: each time and frequency label once, then the magnitudes a
        block of time bins at a time, so memory stays near one block.
        """
        from . import _decimal

        times = _decimal.fixed(self.times_s, 9)[:, None]
        freqs = _decimal.fixed(self.freqs_hz, 3)
        step = max(1, _CSV_BLOCK_ROWS // self.freqs_hz.size)
        with open(path, "wb") as fh:
            fh.write(b"time_s,freq_hz,magnitude\r\n")
            for start in range(0, self.times_s.size, step):
                mags = self.magnitudes[start:start + step]
                values = _decimal.general9(mags).reshape(mags.shape + (-1,))
                fh.write(_decimal.rows(times[start:start + step], b",",
                                       freqs, b",", values, b"\r\n"))


def spectrogram(signal: AudioSignal, frame_length: int = 1024,
                hop: int = 512) -> Spectrogram:
    """Hann-windowed magnitude STFT with power-of-two frames."""
    _check_integer("frame_length", frame_length)
    _check_integer("hop", hop)
    if frame_length < 16 or frame_length & (frame_length - 1):
        raise ValueError(
            f"frame_length must be a power of two >= 16, got {frame_length}")
    if not 0 < hop <= frame_length:
        raise ValueError(f"hop must be in (0, frame_length], got {hop}")
    n = len(signal)
    if n < frame_length:
        raise ValueError(
            f"signal of {n} samples is shorter than one {frame_length}-sample frame")
    window = np.hanning(frame_length)
    n_frames = (n - frame_length) // hop + 1
    idx = np.arange(frame_length)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = signal.samples[idx] * window
    mags = np.abs(np.fft.rfft(frames, axis=1))
    return Spectrogram(mags, frame_length, hop, signal.sample_rate)


def ridge_line_fit(spec: Spectrogram) -> tuple[float, float, float]:
    """Least-squares line through the spectral ridge.

    Returns (slope Hz/s, intercept Hz, R^2). Used to verify linear sweeps
    recovered from microphone output. It needs at least 3 time bins: a
    line fits any two points, so R^2 over two bins is 1 by construction.
    """
    t = spec.times_s
    if t.size < 3:
        raise ValueError(f"spec must hold at least 3 time bins, got {t.size}")
    f = spec.ridge_hz()
    slope, intercept = np.polyfit(t, f, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((f - pred) ** 2))
    ss_tot = float(np.sum((f - np.mean(f)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
