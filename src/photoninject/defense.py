"""Multi-microphone injection detector.

Sound reaching a hand-sized device arrives at every port with nearly the
same waveform; a single laser beam drives exactly one port. The detector
frames each channel, computes the median over frames of the maximum
normalized cross-correlation within a +/-1 ms lag window for every
channel pair, and implicates channels that carry energy while matching
no other channel.

Known blind spot: a beam wide enough to cover all ports produces
mutually consistent channels and is indistinguishable from ambient
sound here; the verdict notes say so whenever that situation applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FormatError, _check_integer, _check_nonnegative,
                     _check_sample_rate, _check_samples)
from .signals import AudioSignal, _smooth_fft_len
from .wavio import load_wav_channels

# ambient office noise floor: 0.005 of full scale is -46 dBFS, mirroring
# a ~46 dB(A) room against a 0 dBFS full-scale signal
_AMBIENT_NOISE_RMS = 0.005
ENERGY_FLOOR_MARGIN_DB = 6.0

DEFAULT_THRESHOLD = 0.5
DEFAULT_FRAME = 1024
# energy gate 6 dB above the ambient noise power
DEFAULT_ENERGY_FLOOR = _AMBIENT_NOISE_RMS ** 2 * 10 ** (ENERGY_FLOOR_MARGIN_DB / 10)
LAG_WINDOW_S = 0.001   # inter-port acoustic skew bound for hand-sized devices
_BLOCK_BYTES = 1 << 20   # correlation output per block in pairwise_max_ncc

CLEAN = "clean"
INJECTION_SUSPECTED = "injection_suspected"

BLIND_SPOT_NOTE = ("all energized channels carry mutually consistent signals; "
                   "a wide beam covering every port at once would look the "
                   "same as ambient sound and cannot be flagged here")


@dataclass(frozen=True)
class ChannelSet:
    """N >= 2 synchronized equal-length channels sharing one sample rate."""

    channels: np.ndarray   # (n_channels, n_samples)
    sample_rate: int

    def __post_init__(self):
        arr = _check_samples("channels", self.channels, ndim=2, copy=False)
        if arr.shape[0] < 2:
            raise ValueError(f"channels must hold at least 2 channels, "
                             f"got shape {arr.shape}")
        object.__setattr__(self, "sample_rate",
                           _check_sample_rate(self.sample_rate))
        object.__setattr__(self, "channels", arr)

    @classmethod
    def from_signals(cls, signals: list[AudioSignal]) -> "ChannelSet":
        if len(signals) < 2:
            raise ValueError(f"signals must hold at least 2 channels, "
                             f"got {len(signals)}")
        rates = [s.sample_rate for s in signals]
        if len(set(rates)) > 1:
            raise ValueError(f"signals must share one sample rate, "
                             f"got {rates}")
        lengths = [len(s) for s in signals]
        if len(set(lengths)) > 1:
            raise ValueError(f"signals must have equal lengths, got {lengths}")
        return cls(np.stack([s.samples for s in signals]), rates[0])

    @classmethod
    def from_wav(cls, path) -> "ChannelSet":
        """The file's channels; a file that cannot form a channel set, one
        with a single channel say, raises FormatError naming the path."""
        channels, rate = load_wav_channels(path)
        try:
            return cls(channels, rate)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]


@dataclass(frozen=True)
class Verdict:
    status: str
    implicated: tuple[int, ...]
    scores: np.ndarray             # pairwise similarity matrix
    energies: np.ndarray           # per-channel mean square amplitude
    median_similarity: np.ndarray  # per-channel median over other channels
    notes: str = ""

    def csv_rows(self) -> list[tuple]:
        return [(ch, f"{self.energies[ch]:.9g}",
                 f"{self.median_similarity[ch]:.6f}",
                 "yes" if ch in self.implicated else "no")
                for ch in range(self.energies.size)]


def pairwise_max_ncc(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Per-frame maximum normalized cross-correlation of every channel pair.

    frames: (n_ch, n_frames, frame_len) float64, each frame demeaned here.
    Entry (i, j, f) is the maximum over lags in [-max_lag, max_lag] of the
    zero-padded cross-correlation of frame f of channels i and j over the
    product of their norms: (n_ch, n_ch, n_frames), symmetric, in [-1, 1],
    0 where either frame is constant, diagonal exactly 1. Frames go through
    in blocks sized so that every pair's correlations would fit in
    _BLOCK_BYTES, which bounds memory; within a block each channel is
    correlated with every later one in one batch.
    """
    _check_integer("max_lag", max_lag, minimum=0)
    frames = _check_samples("frames", frames, ndim=3, copy=False)
    n_ch, n_frames, frame_len = frames.shape
    # nfft >= frame_len + max_lag: no lag in the window wraps around
    nfft = _smooth_fft_len(frame_len + max_lag)
    n_pairs = n_ch * (n_ch - 1) // 2
    step = max(1, _BLOCK_BYTES // (max(n_pairs, 1) * nfft * 8))
    out = np.ones((n_ch, n_ch, n_frames))
    for f in range(0, n_frames, step):
        block = frames[:, f:f + step]
        block = block - block.mean(axis=-1, keepdims=True)
        spectra = np.fft.rfft(block, nfft, axis=-1)
        norms = np.linalg.norm(block, axis=-1)
        # one reference channel a against every later channel b at once:
        # cc[b - a - 1, f, l] = sum_t block[a, f, t] * block[b, f, t + l]
        for a in range(n_ch - 1):
            cc = np.fft.irfft(np.conj(spectra[a]) * spectra[a + 1:], nfft,
                              axis=-1)
            best = cc[..., :max_lag + 1].max(axis=-1)
            if max_lag > 0:  # negative lags wrap to the end
                best = np.maximum(best, cc[..., nfft - max_lag:].max(axis=-1))
            denom = norms[a] * norms[a + 1:]
            pair = np.divide(best, denom, out=np.zeros_like(best),
                             where=denom > 0)
            out[a, a + 1:, f:f + step] = pair
            out[a + 1:, a, f:f + step] = pair
    return out


def channel_similarity(channel_set: ChannelSet,
                       frame: int = DEFAULT_FRAME) -> np.ndarray:
    """Pairwise similarity matrix, entries in [-1, 1], diagonal 1.

    Entry (i, j) is the median over non-overlapping frames of the maximum
    normalized cross-correlation between channels i and j within the
    +/-1 ms lag window.
    """
    _check_integer("frame", frame, minimum=256)
    n = channel_set.channels.shape[1]
    if n < frame:
        raise ValueError(
            f"channels of {n} samples are shorter than one {frame}-sample frame")
    n_frames = n // frame
    framed = channel_set.channels[:, :n_frames * frame].reshape(
        channel_set.n_channels, n_frames, frame)
    max_lag = min(round(channel_set.sample_rate * LAG_WINDOW_S), frame - 1)
    return np.median(pairwise_max_ncc(framed, max_lag), axis=2)


def detect_injection(channel_set: ChannelSet, threshold: float = DEFAULT_THRESHOLD,
                     energy_floor: float = DEFAULT_ENERGY_FLOOR,
                     frame: int = DEFAULT_FRAME) -> Verdict:
    """Flag channels that carry energy but match no other channel.

    A channel is implicated when its energy exceeds the floor while its
    similarity to every other channel sits below the threshold. With no
    implicated channel the verdict is clean; when the clean set has two
    or more energized, mutually consistent channels the notes spell out
    the wide-beam blind spot.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    _check_nonnegative("energy_floor", energy_floor)
    scores = channel_similarity(channel_set, frame)
    n_ch = channel_set.n_channels
    # one channel at a time: no temporary the size of the recording
    energies = np.array([np.mean(row ** 2) for row in channel_set.channels])
    others = scores[~np.eye(n_ch, dtype=bool)].reshape(n_ch, n_ch - 1)
    median_sim = np.median(others, axis=1)
    loud = [i for i in range(n_ch) if energies[i] > energy_floor]
    implicated = tuple(i for i in loud if np.all(others[i] < threshold))

    status = INJECTION_SUSPECTED if implicated else CLEAN
    notes = ""
    if implicated:
        quiet = [j for j in range(n_ch) if j not in loud]
        notes = (f"channel(s) {', '.join(map(str, implicated))} carry signal "
                 f"unmatched on any other channel"
                 + (f"; channel(s) {', '.join(map(str, quiet))} sit at the "
                    f"noise floor" if quiet else ""))
    elif len(loud) >= 2 and all(median_sim[i] >= threshold for i in loud):
        notes = BLIND_SPOT_NOTE
    return Verdict(status, implicated, scores, energies, median_sim, notes)
