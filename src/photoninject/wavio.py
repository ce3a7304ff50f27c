"""Minimal RIFF/WAVE codec, 16-bit PCM only.

The reader accepts mono or stereo PCM files (stereo is downmixed by
averaging the two channels) plus an N-channel variant for the defense
analyzer. The writer emits a fmt chunk followed by a data chunk, nothing
else. Samples map to [-1, 1] by dividing by 32768; writing quantizes with
round-half-away-from-zero and clamps to [-32768, 32767].
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, _check_sample_rate
from .signals import AudioSignal

PCM_FULL_SCALE = 32768.0


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """Float [-1, 1] to int16, round half away from zero, clamped."""
    x = np.asarray(samples, dtype=np.float64) * PCM_FULL_SCALE
    q = np.copysign(np.floor(np.abs(x) + 0.5), x)
    return np.clip(q, -32768, 32767).astype(np.int16)


def _iter_chunks(blob: bytes):
    """Yield (chunk id, payload) pairs from the RIFF body; each payload is
    a memoryview into blob, not a copy."""
    view = memoryview(blob)
    pos = 12
    while pos + 8 <= len(blob):
        cid = bytes(view[pos:pos + 4])
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        payload = view[pos + 8:pos + 8 + size]
        if len(payload) < size:
            raise FormatError(
                f"{cid.decode('ascii', 'replace')} chunk: truncated "
                f"(declared {size} bytes, {len(payload)} present)")
        yield cid, payload
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if pos != len(blob) and pos + 8 > len(blob) and pos < len(blob):
        raise FormatError("chunk header: truncated")


def _parse(blob: bytes):
    if len(blob) < 12:
        raise FormatError("RIFF header: file shorter than 12 bytes")
    if blob[:4] != b"RIFF":
        raise FormatError("RIFF header: missing 'RIFF' tag")
    if blob[8:12] != b"WAVE":
        raise FormatError("WAVE header: missing 'WAVE' form type")

    fmt = data = None
    for cid, payload in _iter_chunks(blob):
        if cid == b"fmt " and fmt is None:
            fmt = payload
        elif cid == b"data" and data is None:
            data = payload

    if fmt is None:
        raise FormatError("fmt chunk: not found")
    if len(fmt) < 16:
        raise FormatError(f"fmt chunk: {len(fmt)} bytes, need at least 16")
    audio_format, n_channels, sample_rate, _, block_align, bits = \
        struct.unpack_from("<HHIIHH", fmt)
    if audio_format != 1:
        raise FormatError(
            f"fmt chunk: compression code {audio_format} is not PCM (1)")
    if bits != 16:
        raise FormatError(f"fmt chunk: {bits}-bit samples unsupported, need 16")
    if n_channels < 1:
        raise FormatError("fmt chunk: zero channels")
    if block_align != 2 * n_channels:
        raise FormatError(
            f"fmt chunk: block align {block_align} != 2 * {n_channels} channels")

    if data is None:
        raise FormatError("data chunk: not found")
    if len(data) == 0:
        raise FormatError("data chunk: zero-length sample data")
    if len(data) % block_align:
        raise FormatError("data chunk: size is not a whole number of frames")

    raw = np.frombuffer(data, dtype="<i2").reshape(-1, n_channels)
    # one copy, straight into C-contiguous (n_ch, n); scaling by the exact
    # power of two 1/32768 equals dividing by 32768 bit for bit
    channels = raw.T.astype(np.float64, order="C")
    channels *= 1.0 / PCM_FULL_SCALE
    return channels, int(sample_rate)


def load_wav_channels(path) -> tuple[np.ndarray, int]:
    """Read any channel count; returns (channels[n_ch, n], sample_rate)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return _parse(blob)


def load_wav(path) -> AudioSignal:
    """Read a mono or stereo file; stereo is downmixed by averaging."""
    channels, rate = load_wav_channels(path)
    if channels.shape[0] > 2:
        raise FormatError(
            f"fmt chunk: {channels.shape[0]} channels; mono loader accepts 1 or 2")
    mono = channels[0] if channels.shape[0] == 1 else channels.mean(axis=0)
    return AudioSignal(mono, rate)


def _write(path, frames_i16: np.ndarray, sample_rate: int) -> None:
    n_channels = frames_i16.shape[1]
    block_align = 2 * n_channels
    byte_rate = sample_rate * block_align
    # the fmt chunk stores the rate and the byte rate as unsigned 32-bit
    if byte_rate > 0xFFFFFFFF:
        raise ValueError(f"sample_rate {sample_rate} does not fit a WAV "
                         f"header: its byte rate {byte_rate} exceeds 2**32 - 1")
    payload = frames_i16.astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, n_channels, sample_rate, byte_rate,
                      block_align, 16)
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)))
        fh.write(b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
        if len(payload) & 1:
            fh.write(b"\x00")


def save_wav(signal: AudioSignal, path) -> None:
    _write(path, quantize_pcm16(signal.samples)[:, None], signal.sample_rate)


def save_wav_channels(channels: np.ndarray, sample_rate: int, path) -> None:
    """Write an N-channel 16-bit PCM file from float rows in [-1, 1].

    Values outside [-1, 1] clip to full scale; NaN and ±inf have no PCM
    value and are rejected, as is a rate that is not a positive integer.
    """
    _check_sample_rate(sample_rate)
    channels = np.atleast_2d(np.asarray(channels, dtype=np.float64))
    if not np.isfinite(channels).all():
        raise ValueError("samples must all be finite")
    _write(path, quantize_pcm16(channels).T, int(sample_rate))
