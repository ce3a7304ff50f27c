import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoninject import wavio
from photoninject.errors import FormatError
from photoninject.signals import AudioSignal, generate_tone


def _wav_bytes(audio_format=1, n_channels=1, sample_rate=48000, bits=16,
               payload=b"\x00\x00"):
    block = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, n_channels, sample_rate,
                      sample_rate * block, block, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def reference_decode(data, n_channels):
    """The three-copy decode: float copy, divided copy, transposed copy.
    Kept as the oracle for the one-copy decode in wavio."""
    raw = np.frombuffer(data, dtype="<i2").reshape(-1, n_channels)
    return (raw.astype(np.float64) / wavio.PCM_FULL_SCALE).T.copy()


@st.composite
def pcm_frames(draw):
    n_channels = draw(st.integers(1, 8))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.integers(-32768, 32768, (n, n_channels)).astype("<i2")
    # full scale and the values around zero, at drawn positions
    for k, value in draw(st.lists(
            st.tuples(st.integers(0, n * n_channels - 1),
                      st.sampled_from([-32768, -32767, -1, 0, 1, 32767])),
            max_size=8)):
        frames.flat[k] = value
    return frames


@settings(deadline=None)
@given(pcm_frames(), st.sampled_from([8000, 16000, 44100, 48000]))
def test_decode_matches_three_copy_reference(frames, rate):
    data = frames.tobytes()
    n_channels = frames.shape[1]
    channels, got_rate = wavio._parse(_wav_bytes(n_channels=n_channels,
                                                 sample_rate=rate,
                                                 payload=data))
    assert got_rate == rate
    assert channels.dtype == np.float64
    assert channels.flags.c_contiguous
    assert np.array_equal(channels, reference_decode(data, n_channels))


def test_load_wav_channels_decodes_full_scale(tmp_path):
    frames = np.array([[-32768, 32767, 0], [32767, -32768, -1]], dtype="<i2")
    path = tmp_path / "fs.wav"
    path.write_bytes(_wav_bytes(n_channels=3, payload=frames.tobytes()))
    channels, rate = wavio.load_wav_channels(path)
    assert rate == 48000
    assert channels.flags.c_contiguous
    assert np.array_equal(channels, [[-1.0, 32767 / 32768],
                                     [32767 / 32768, -1.0],
                                     [0.0, -1 / 32768]])


class TestQuantize:
    def test_full_scale_clamps(self):
        assert wavio.quantize_pcm16(np.array([1.0]))[0] == 32767
        assert wavio.quantize_pcm16(np.array([-1.0]))[0] == -32768

    def test_round_half_away_from_zero(self):
        assert wavio.quantize_pcm16(np.array([0.5 / 32768]))[0] == 1
        assert wavio.quantize_pcm16(np.array([-0.5 / 32768]))[0] == -1
        assert wavio.quantize_pcm16(np.array([1.49 / 32768]))[0] == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("samples", [[0.5, np.nan], [np.inf],
                                         [[0.0, -np.inf]], np.nan])
    def test_non_finite_rejected(self, samples):
        with pytest.raises(ValueError, match="^samples must all be finite$"):
            wavio.quantize_pcm16(np.array(samples))


class TestRoundTrip:
    def test_tone_round_trip(self, tmp_path):
        sig = generate_tone(1000, 0.1, 48000, 1.0)
        path = tmp_path / "t.wav"
        wavio.save_wav(sig, path)
        back = wavio.load_wav(path)
        assert back.sample_rate == 48000
        assert len(back) == len(sig)
        assert np.max(np.abs(back.samples - sig.samples)) <= 1 / 32768

    def test_random_normalized_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        for seed in range(5):
            x = rng.uniform(-1, 1, 777)
            sig = AudioSignal(x, 16000)
            path = tmp_path / f"r{seed}.wav"
            wavio.save_wav(sig, path)
            back = wavio.load_wav(path)
            assert np.max(np.abs(back.samples - x)) <= 1 / 32768

    def test_full_scale_peak_hits_32767(self, tmp_path):
        sig = generate_tone(1000, 0.01, 48000, 1.0)
        path = tmp_path / "p.wav"
        wavio.save_wav(sig, path)
        blob = path.read_bytes()
        raw = np.frombuffer(blob[44:], dtype="<i2")
        assert raw.max() == 32767

    def test_multichannel_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        chans = rng.uniform(-1, 1, (4, 300))
        path = tmp_path / "m.wav"
        wavio.save_wav_channels(chans, 44100, path)
        back, rate = wavio.load_wav_channels(path)
        assert rate == 44100
        assert back.shape == (4, 300)
        assert np.max(np.abs(back - chans)) <= 1 / 32768

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, tmp_path, bad):
        chans = np.zeros((2, 8))
        chans[1, 3] = bad
        path = tmp_path / "n.wav"
        with pytest.raises(ValueError, match="^channels must all be finite$"):
            wavio.save_wav_channels(chans, 48000, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [-8000, 0, 8000.5, float("nan"), None])
    def test_bad_sample_rate_rejected(self, tmp_path, bad):
        path = tmp_path / "r.wav"
        with pytest.raises(ValueError,
                           match="sample_rate must be a positive integer"):
            wavio.save_wav_channels(np.zeros((1, 8)), bad, path)
        assert not path.exists()

    def test_rate_beyond_the_header_fields_rejected(self, tmp_path):
        path = tmp_path / "big.wav"
        # 2**31 Hz fits the rate field, but not its 16-bit byte rate
        with pytest.raises(ValueError, match="sample_rate 2147483648 does not "
                                             "fit a WAV header"):
            wavio.save_wav_channels(np.zeros((1, 8)), 2**31, path)
        with pytest.raises(ValueError, match="sample_rate 4294967296 "):
            wavio.save_wav(AudioSignal(np.zeros(8), 2**32), path)
        assert not path.exists()
        wavio.save_wav_channels(np.zeros((1, 8)), 2**31 - 1, path)
        assert wavio.load_wav_channels(path)[1] == 2**31 - 1

    def test_integral_float_rate_written_as_integer(self, tmp_path):
        path = tmp_path / "f.wav"
        wavio.save_wav_channels(np.zeros((1, 8)), 8000.0, path)
        assert wavio.load_wav_channels(path)[1] == 8000

    def test_stereo_downmix_averages(self, tmp_path):
        left = np.full(100, 0.5)
        right = np.full(100, -0.25)
        path = tmp_path / "s.wav"
        wavio.save_wav_channels(np.stack([left, right]), 48000, path)
        mono = wavio.load_wav(path)
        assert np.allclose(mono.samples, 0.125, atol=1 / 32768)


class TestFormatRejection:
    def test_non_pcm_compression_code(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(_wav_bytes(audio_format=3))
        with pytest.raises(FormatError, match="fmt chunk.*compression code 3"):
            wavio.load_wav(path)

    def test_wrong_bit_depth(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(_wav_bytes(bits=8, payload=b"\x00"))
        with pytest.raises(FormatError, match="fmt chunk.*8-bit"):
            wavio.load_wav(path)

    def test_zero_length_data(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(_wav_bytes(payload=b""))
        with pytest.raises(FormatError, match="data chunk.*zero-length"):
            wavio.load_wav(path)

    def test_truncated_data(self, tmp_path):
        blob = _wav_bytes(payload=b"\x00\x00\x01\x01")
        path = tmp_path / "bad.wav"
        path.write_bytes(blob[:-2])
        with pytest.raises(FormatError, match="truncated"):
            wavio.load_wav(path)

    @pytest.mark.parametrize("cid, shown", [(b"LIST", "LIST"),
                                            (b"L\xffST", "L\ufffdST")])
    def test_truncated_unknown_chunk_message(self, tmp_path, cid, shown):
        # the chunk id is decoded with replacement for the message
        path = tmp_path / "bad.wav"
        path.write_bytes(_wav_bytes() + cid + struct.pack("<I", 100)
                         + b"\x00" * 10)
        with pytest.raises(FormatError) as err:
            wavio.load_wav(path)
        assert str(err.value) == (
            f"{path}: {shown} chunk: truncated (declared 100 bytes, 10 present)")

    def test_missing_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"JUNK" + _wav_bytes()[4:])
        with pytest.raises(FormatError) as err:
            wavio.load_wav(path)
        assert str(err.value) == f"{path}: RIFF header: missing 'RIFF' tag"

    def test_missing_wave_tag(self, tmp_path):
        blob = _wav_bytes()
        path = tmp_path / "bad.wav"
        path.write_bytes(blob[:8] + b"AVEW" + blob[12:])
        with pytest.raises(FormatError, match="WAVE"):
            wavio.load_wav(path)

    def test_header_too_short(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(FormatError, match="RIFF header"):
            wavio.load_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        blob = _wav_bytes()
        path = tmp_path / "bad.wav"
        path.write_bytes(blob[:36])  # fmt only
        with pytest.raises(FormatError, match="data chunk"):
            wavio.load_wav(path)

    @pytest.mark.parametrize("load", [wavio.load_wav, wavio.load_wav_channels])
    def test_zero_sample_rate(self, tmp_path, load):
        path = tmp_path / "bad.wav"
        path.write_bytes(_wav_bytes(sample_rate=0))
        with pytest.raises(FormatError) as err:
            load(path)
        assert str(err.value) == (
            f"{path}: fmt chunk: sample rate 0 Hz, need a positive rate")

    @pytest.mark.parametrize("tail", [b"\x00", b"LIST", b"LIST\x00\x00\x00"])
    def test_partial_chunk_header(self, tmp_path, tail):
        path = tmp_path / "bad.wav"
        path.write_bytes(_wav_bytes() + tail)
        with pytest.raises(FormatError) as err:
            wavio.load_wav(path)
        assert str(err.value) == f"{path}: chunk header: truncated"

    def test_missing_pad_byte_after_the_last_chunk(self, tmp_path):
        # an odd-sized last chunk may end the file without its pad byte
        path = tmp_path / "odd.wav"
        path.write_bytes(_wav_bytes() + b"LIST" + struct.pack("<I", 3) + b"abc")
        assert wavio.load_wav(path).samples.tolist() == [0.0]

    def test_too_many_channels_for_mono_loader(self, tmp_path):
        path = tmp_path / "m.wav"
        wavio.save_wav_channels(np.zeros((4, 10)) + 0.1, 48000, path)
        with pytest.raises(FormatError) as err:
            wavio.load_wav(path)
        assert str(err.value) == (
            f"{path}: fmt chunk: 4 channels; mono loader accepts 1 or 2")


class TestWriterLayout:
    def test_fmt_then_data_only(self, tmp_path):
        path = tmp_path / "w.wav"
        wavio.save_wav(generate_tone(1000, 0.01, 48000), path)
        blob = path.read_bytes()
        assert blob[:4] == b"RIFF"
        assert blob[8:12] == b"WAVE"
        assert blob[12:16] == b"fmt "
        assert blob[36:40] == b"data"
        (declared,) = struct.unpack_from("<I", blob, 40)
        assert declared == len(blob) - 44
