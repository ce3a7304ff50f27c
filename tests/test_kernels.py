"""The NCC kernel against a direct lag-loop oracle, and its semantics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoninject.defense import (_BLOCK_BYTES, LAG_WINDOW_S, ChannelSet,
                                  _smooth_fft_len, channel_similarity,
                                  detect_injection, pairwise_max_ncc)


def zero_mean_frames(rng, n_ch=4, n_frames=6, frame_len=512):
    frames = rng.normal(size=(n_ch, n_frames, frame_len))
    frames -= frames.mean(axis=2, keepdims=True)
    return np.ascontiguousarray(frames)


def oracle_max_ncc(frames, max_lag):
    """Direct evaluation: every pair, frame and lag, one dot product each."""
    n_ch, n_frames, frame_len = frames.shape
    norms = np.sqrt(np.sum(frames * frames, axis=-1))
    out = np.ones((n_ch, n_ch, n_frames))
    for i in range(n_ch):
        for j in range(i + 1, n_ch):
            for f in range(n_frames):
                a, b = frames[i, f], frames[j, f]
                best = 0.0
                for lag in range(max_lag + 1):
                    width = max(frame_len - lag, 0)
                    acc = np.dot(a[:width], b[lag:lag + width])
                    rev = np.dot(a[lag:lag + width], b[:width])
                    best = acc if lag == 0 else max(best, acc, rev)
                denom = norms[i, f] * norms[j, f]
                out[i, j, f] = out[j, i, f] = best / denom if denom > 0 else 0.0
    return out


def reference_pairwise_max_ncc(frames, max_lag):
    """The all-pairs kernel over every frame at once: every i < j pair's
    spectra, products and correlations gathered by fancy indexing, on
    frames the caller has demeaned. Kept as the equivalence and memory
    reference for the kernel in defense, which applies the same formula
    to bounded blocks of frames."""
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    n_ch, n_frames, frame_len = frames.shape
    nfft = _smooth_fft_len(frame_len + max_lag)
    spectra = np.fft.rfft(frames, nfft, axis=-1)
    norms = np.linalg.norm(frames, axis=-1)

    i, j = np.triu_indices(n_ch, k=1)
    cc = np.fft.irfft(np.conj(spectra[i]) * spectra[j], nfft, axis=-1)
    best = cc[..., :max_lag + 1].max(axis=-1)
    if max_lag > 0:
        best = np.maximum(best, cc[..., nfft - max_lag:].max(axis=-1))

    denom = norms[i] * norms[j]
    pair = np.divide(best, denom, out=np.zeros_like(best), where=denom > 0)
    out = np.ones((n_ch, n_ch, n_frames))
    out[i, j] = pair
    out[j, i] = pair
    return out


@pytest.mark.parametrize("max_lag", [0, 1, 48, 200, 511])
def test_matches_oracle(max_lag):
    # 511 = frame_len - 1, the cap channel_similarity applies: the widest
    # window, where a too-short FFT would wrap lags around
    for seed in range(3):
        frames = zero_mean_frames(np.random.default_rng(seed))
        np.testing.assert_allclose(pairwise_max_ncc(frames, max_lag),
                                   oracle_max_ncc(frames, max_lag),
                                   rtol=0, atol=1e-12)


def test_matches_oracle_with_silent_channel():
    frames = zero_mean_frames(np.random.default_rng(0))
    frames[1, :, :] = 0.0
    out = pairwise_max_ncc(frames, 48)
    np.testing.assert_allclose(out, oracle_max_ncc(frames, 48), rtol=0, atol=1e-12)
    assert np.all(out[0, 1] == 0.0)
    assert np.all(out[1, 1] == 1.0)


@st.composite
def kernel_inputs(draw, max_channels=5):
    n_ch = draw(st.integers(2, max_channels))
    n_frames = draw(st.integers(1, 3))
    frame_len = draw(st.one_of(st.integers(256, 600),
                               st.sampled_from([257, 263, 401, 509, 599])))
    max_lag = draw(st.integers(0, frame_len - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = zero_mean_frames(rng, n_ch, n_frames, frame_len)
    silent = draw(st.lists(st.tuples(st.integers(0, n_ch - 1),
                                     st.integers(0, n_frames - 1)), max_size=3))
    for ch, f in silent:
        frames[ch, f] = 0.0
    return frames, max_lag


@settings(deadline=None)
@given(kernel_inputs())
def test_kernel_properties(inputs):
    frames, max_lag = inputs
    out = pairwise_max_ncc(frames, max_lag)
    n_ch = frames.shape[0]
    assert np.array_equal(out, out.transpose(1, 0, 2))
    assert np.all(out[np.arange(n_ch), np.arange(n_ch)] == 1.0)
    assert np.all(np.abs(out) <= 1.0 + 1e-12)
    silent = ~np.any(frames, axis=-1)                 # (n_ch, n_frames)
    off_diag = ~np.eye(n_ch, dtype=bool)[:, :, None]
    either = (silent[:, None, :] | silent[None, :, :]) & off_diag
    assert np.all(out[either] == 0.0)
    np.testing.assert_allclose(out, oracle_max_ncc(frames, max_lag),
                               rtol=0, atol=1e-12)


@settings(deadline=None)
@given(kernel_inputs(max_channels=8))
def test_matches_all_pairs_reference(inputs):
    frames, max_lag = inputs
    np.testing.assert_allclose(pairwise_max_ncc(frames, max_lag),
                               reference_pairwise_max_ncc(frames, max_lag),
                               rtol=0, atol=1e-12)


@st.composite
def recordings(draw):
    """A ChannelSet and frame length whose frame count sits one below, at
    or one above a multiple of the kernel's block size."""
    n_ch = draw(st.integers(2, 8))
    rate = draw(st.sampled_from([8000, 16000, 44100, 48000]))
    frame = draw(st.sampled_from([256, 263, 1024]))
    max_lag = min(round(rate * LAG_WINDOW_S), frame - 1)
    n_pairs = n_ch * (n_ch - 1) // 2
    nfft = _smooth_fft_len(frame + max_lag)
    step = max(1, _BLOCK_BYTES // (n_pairs * nfft * 8))
    blocks, offset = draw(st.integers(1, 2)), draw(st.integers(-1, 1))
    n_frames = max(1, blocks * step + offset)
    n = n_frames * frame + draw(st.integers(0, frame - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = rng.normal(0.0, 0.1, (n_ch, n))
    # silent and constant channels demean to all-zero frames
    for ch, level in draw(st.lists(st.tuples(st.integers(0, n_ch - 1),
                                             st.sampled_from([0.0, 0.25])),
                                   max_size=2)):
        channels[ch] = level
    return ChannelSet(channels, rate), frame, max_lag


@settings(deadline=None, max_examples=40)
@given(recordings())
def test_similarity_matches_all_pairs_reference(inputs):
    channel_set, frame, max_lag = inputs
    n_ch, n = channel_set.channels.shape
    framed = channel_set.channels[:, :n // frame * frame].reshape(
        n_ch, -1, frame)
    framed = framed - framed.mean(axis=2, keepdims=True)
    expected = np.median(reference_pairwise_max_ncc(framed, max_lag), axis=2)
    assert np.array_equal(channel_similarity(channel_set, frame), expected)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_ch, seconds", [(8, 2), (2, 8)])
def test_detect_peak_memory_bounded_in_duration(n_ch, seconds):
    # at 10x the duration, only the per-channel energy temporary may grow;
    # the kernel's blocks are full at both lengths
    rate = 16000
    rng = np.random.default_rng(10)
    short, long = (ChannelSet(rng.normal(0.0, 0.01, (n_ch, s * rate)), rate)
                   for s in (seconds, 10 * seconds))
    one_channel = long.channels[0].nbytes
    growth = (traced_peak(detect_injection, long)
              - traced_peak(detect_injection, short))
    assert growth <= one_channel + _BLOCK_BYTES


def test_peak_memory_below_all_pairs_reference():
    # detect's largest shape: 8 channels, 2 s at 48 kHz, +/-1 ms lag window
    frames = zero_mean_frames(np.random.default_rng(9), n_ch=8, n_frames=93,
                              frame_len=1024)
    reference = traced_peak(reference_pairwise_max_ncc, frames, 48)
    assert traced_peak(pairwise_max_ncc, frames, 48) <= 0.6 * reference


class TestKernelSemantics:
    def test_zero_lag_is_normalized_dot(self):
        rng = np.random.default_rng(3)
        frames = zero_mean_frames(rng, n_ch=2, n_frames=3)
        out = pairwise_max_ncc(frames, 0)
        a, b = frames[0], frames[1]
        expected = np.array([
            np.dot(a[f], b[f]) / (np.linalg.norm(a[f]) * np.linalg.norm(b[f]))
            for f in range(3)])
        np.testing.assert_allclose(out[0, 1], expected, atol=1e-12)

    def test_diagonal_is_one(self):
        frames = zero_mean_frames(np.random.default_rng(4))
        out = pairwise_max_ncc(frames, 10)
        for i in range(frames.shape[0]):
            np.testing.assert_allclose(out[i, i], 1.0)

    def test_symmetric(self):
        frames = zero_mean_frames(np.random.default_rng(5))
        out = pairwise_max_ncc(frames, 30)
        np.testing.assert_allclose(out, out.transpose(1, 0, 2), atol=1e-12)

    def test_shifted_copy_overlap_fraction(self):
        # identical signals offset by k samples: zero-padded correlation at
        # the matching lag recovers roughly (1 - k/frame_len) of the energy
        rng = np.random.default_rng(6)
        frame_len, k = 1024, 16
        x = rng.normal(size=frame_len + k)
        a = x[:frame_len].copy()
        b = x[k:frame_len + k].copy()
        frames = np.stack([a, b])[:, None, :]
        frames = np.ascontiguousarray(frames - frames.mean(axis=2, keepdims=True))
        out = pairwise_max_ncc(frames, 48)
        assert out[0, 1, 0] == pytest.approx(1 - k / frame_len, abs=0.05)
        # outside the lag window the match is invisible
        narrow = pairwise_max_ncc(frames, 4)
        assert narrow[0, 1, 0] < 0.3

    def test_bounded_by_one(self):
        frames = zero_mean_frames(np.random.default_rng(7))
        out = pairwise_max_ncc(frames, 64)
        assert np.all(out <= 1.0 + 1e-12)
        assert np.all(out >= -1.0 - 1e-12)

    def test_negative_lag_rejected(self):
        frames = zero_mean_frames(np.random.default_rng(8))
        with pytest.raises(ValueError):
            pairwise_max_ncc(frames, -1)

    @pytest.mark.parametrize("max_lag", [2.5, 3.0, True, None])
    def test_non_integer_lag_rejected(self, max_lag):
        # checked before the FFT length search, which never ends on a
        # non-integer length
        frames = zero_mean_frames(np.random.default_rng(8))
        with pytest.raises(ValueError,
                           match=rf"^max_lag must be an integer, got {max_lag!r}$"):
            pairwise_max_ncc(frames, max_lag)
