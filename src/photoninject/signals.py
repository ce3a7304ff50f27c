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

TWO_PI = 2.0 * math.pi


def _as_readonly_f64(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _check_sample_rate(rate) -> None:
    try:
        ok = rate > 0 and int(rate) == rate
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"sample_rate must be a positive integer, got {rate}")


@dataclass(frozen=True)
class AudioSignal:
    """Uniformly sampled mono audio with a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        _check_sample_rate(self.sample_rate)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        arr = _as_readonly_f64(self.samples)
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    @property
    def peak(self) -> float:
        return float(np.max(np.abs(self.samples))) if self.samples.size else 0.0

    def is_normalized(self) -> bool:
        """True when max |sample| <= 1.0."""
        return self.peak <= 1.0


def generate_tone(frequency: float, duration: float, sample_rate: int,
                  amplitude: float = 1.0) -> AudioSignal:
    """Pure sine: samples[i] = amplitude * sin(2*pi*frequency*i/sample_rate).

    The frequency must sit strictly below Nyquist; amplitude in (0, 1].
    """
    if not 0.0 < frequency < sample_rate / 2:
        raise ValueError(
            f"frequency {frequency} Hz outside (0, Nyquist={sample_rate / 2}) Hz")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if not 0.0 < amplitude <= 1.0:
        raise ValueError(f"amplitude must be in (0, 1], got {amplitude}")
    n = round(duration * sample_rate)
    t = np.arange(n) / sample_rate
    return AudioSignal(amplitude * np.sin(TWO_PI * frequency * t), sample_rate)


def generate_chirp(f_start: float, f_end: float, duration: float,
                   sample_rate: int) -> AudioSignal:
    """Unit-amplitude linear sweep from f_start to f_end over `duration`.

    Instantaneous frequency is f_start + (f_end - f_start) * t / duration;
    the phase integrates to 2*pi*(f_start + rate*t/2)*t. A degenerate sweep
    (f_start == f_end) is bit-identical to generate_tone at that frequency.
    """
    for name, f in (("f_start", f_start), ("f_end", f_end)):
        if not 0.0 <= f < sample_rate / 2:
            raise ValueError(
                f"{name} {f} Hz outside [0, Nyquist={sample_rate / 2}) Hz")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    n = round(duration * sample_rate)
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
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        if mags.ndim != 2 or mags.shape[1] != self.frame_length // 2 + 1:
            raise ValueError("magnitudes must be (time bins, frame_length/2 + 1)")
        if not np.all(np.isfinite(mags)):
            raise ValueError("magnitudes must all be finite")
        if np.any(mags < 0):
            raise ValueError("magnitudes must be nonnegative")
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

        Time and frequency labels are formatted once each; every time bin
        is then written as one batch of lines, so memory stays at one row.
        """
        times = [f"{t:.9f}," for t in self.times_s]
        freqs = [f"{f:.3f}," for f in self.freqs_hz]
        with open(path, "w", newline="") as fh:
            fh.write("time_s,freq_hz,magnitude\r\n")
            for t, row in zip(times, self.magnitudes):
                fh.writelines([f"{t}{f}{m:.9g}\r\n"
                               for f, m in zip(freqs, row.tolist())])


def spectrogram(signal: AudioSignal, frame_length: int = 1024,
                hop: int = 512) -> Spectrogram:
    """Hann-windowed magnitude STFT with power-of-two frames."""
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
    recovered from microphone output.
    """
    t = spec.times_s
    f = spec.ridge_hz()
    slope, intercept = np.polyfit(t, f, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((f - pred) ** 2))
    ss_tot = float(np.sum((f - np.mean(f)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
