import numpy as np
import pytest

from conftest import synth_command
from photoninject import defense, wavio
from photoninject.defense import (DEFAULT_ENERGY_FLOOR, ChannelSet,
                                  channel_similarity, detect_injection)
from photoninject.signals import generate_tone

SR = 48000
N = SR // 2


def noise_set(rng, n_ch=4, rms=0.005):
    return rng.normal(0, rms, (n_ch, N))


class TestChannelSet:
    def test_needs_two_channels(self):
        with pytest.raises(ValueError, match="2 channels"):
            ChannelSet(np.zeros((1, 1000)) + 0.1, SR)

    def test_non_finite_samples_rejected(self):
        # a NaN would otherwise read as an energy-less channel
        for bad in (np.nan, np.inf, -np.inf):
            chans = np.random.default_rng(0).normal(0, 0.1, (3, 4096))
            chans[1, 5] = bad
            with pytest.raises(ValueError,
                               match="^channels must all be finite$"):
                ChannelSet(chans, SR)

    def test_sample_rate_must_be_a_positive_integer(self):
        chans = np.random.default_rng(0).normal(0, 0.1, (2, 4096))
        for rate in (0, -SR, 2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sample_rate"):
                ChannelSet(chans, rate)

    def test_from_signals_checks_rate_and_length(self):
        a = generate_tone(1000, 0.1, 48000)
        b = generate_tone(1000, 0.1, 44100)
        with pytest.raises(ValueError, match="sample rate"):
            ChannelSet.from_signals([a, b])
        c = generate_tone(1000, 0.2, 48000)
        with pytest.raises(ValueError, match="length"):
            ChannelSet.from_signals([a, c])

    def test_from_signals(self):
        a = generate_tone(1000, 0.1, 48000)
        cs = ChannelSet.from_signals([a, a, a])
        assert cs.n_channels == 3

    def test_wav_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        chans = rng.uniform(-0.5, 0.5, (4, 4096))
        path = tmp_path / "c.wav"
        wavio.save_wav_channels(chans, SR, path)
        cs = ChannelSet.from_wav(path)
        assert cs.n_channels == 4
        assert np.max(np.abs(cs.channels - chans)) <= 1 / 32768


class TestChannelSimilarity:
    def test_identical_channels(self):
        rng = np.random.default_rng(1)
        x = synth_command(rng, N, SR)
        m = channel_similarity(ChannelSet(np.tile(x, (3, 1)), SR))
        np.testing.assert_allclose(m, 1.0, atol=1e-9)

    def test_tone_against_noise_is_dissimilar(self):
        t = np.arange(N) / SR
        tone = 0.2 * np.sin(2 * np.pi * 1000 * t)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            chans = noise_set(rng)
            chans[0] += tone
            m = channel_similarity(ChannelSet(chans, SR))
            worst = max(worst, float(np.max(np.abs(m[0, 1:]))))
        assert worst <= 0.2

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        chans = noise_set(rng)
        chans[1] += synth_command(rng, N, SR)
        m = channel_similarity(ChannelSet(chans, SR))
        perm = [2, 0, 3, 1]
        mp = channel_similarity(ChannelSet(chans[perm], SR))
        np.testing.assert_allclose(mp, m[np.ix_(perm, perm)], atol=1e-12)

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(3)
        chans = noise_set(rng)
        chans[0] += synth_command(rng, N, SR)
        m1 = channel_similarity(ChannelSet(chans, SR))
        scaled = chans.copy()
        scaled[0] *= 37.5
        scaled[2] *= 0.034
        m2 = channel_similarity(ChannelSet(scaled, SR))
        np.testing.assert_allclose(m1, m2, atol=1e-6)

    def test_silent_channels_score_zero(self):
        chans = np.zeros((3, N))
        chans[0] = 0.1 * np.sin(2 * np.pi * 500 * np.arange(N) / SR)
        m = channel_similarity(ChannelSet(chans, SR))
        assert m[0, 1] == 0.0
        assert m[1, 2] == 0.0
        assert m[0, 0] == 1.0  # diagonal pinned even for silent channels
        assert not np.any(np.isnan(m))

    def test_alignment_tolerates_small_lags(self):
        rng = np.random.default_rng(4)
        x = synth_command(rng, N, SR)
        shift = int(0.0005 * SR)  # half the lag window
        chans = np.stack([x, np.roll(x, shift)])
        m = channel_similarity(ChannelSet(chans, SR))
        assert m[0, 1] >= 0.9

    def test_frame_validation(self):
        cs = ChannelSet(np.zeros((2, 4096)) + 0.1, SR)
        with pytest.raises(ValueError, match=">= 256"):
            channel_similarity(cs, frame=128)
        short = ChannelSet(np.zeros((2, 100)) + 0.1, SR)
        with pytest.raises(ValueError, match="shorter"):
            channel_similarity(short, frame=1024)

    def test_values_in_range(self):
        rng = np.random.default_rng(5)
        chans = noise_set(rng)
        m = channel_similarity(ChannelSet(chans, SR))
        assert np.all(m <= 1.0 + 1e-12)
        assert np.all(m >= -1.0 - 1e-12)


class TestDetectInjection:
    def test_shared_speech_is_clean(self):
        rng = np.random.default_rng(10)
        x = synth_command(rng, N, SR)
        chans = np.tile(x, (4, 1)) + rng.normal(0, 0.005, (4, N))
        v = detect_injection(ChannelSet(chans, SR))
        assert v.status == defense.CLEAN
        assert v.implicated == ()

    def test_single_channel_command_is_flagged(self):
        rng = np.random.default_rng(11)
        chans = noise_set(rng)
        chans[2] += synth_command(rng, N, SR)
        v = detect_injection(ChannelSet(chans, SR))
        assert v.status == defense.INJECTION_SUSPECTED
        assert v.implicated == (2,)
        assert "channel(s) 2" in v.notes

    def test_wide_beam_blind_spot_is_documented(self):
        rng = np.random.default_rng(12)
        x = synth_command(rng, N, SR)
        chans = np.tile(x, (4, 1)) + rng.normal(0, 0.005, (4, N))
        v = detect_injection(ChannelSet(chans, SR))
        assert v.status == defense.CLEAN
        assert v.notes == defense.BLIND_SPOT_NOTE

    def test_gain_spread_acoustic_mix_is_clean(self):
        rng = np.random.default_rng(13)
        x = synth_command(rng, N, SR)
        gains = rng.uniform(0.5, 1.0, 4)
        chans = gains[:, None] * x[None, :] + rng.normal(0, 0.005, (4, N))
        v = detect_injection(ChannelSet(chans, SR))
        assert v.status == defense.CLEAN

    def test_all_quiet_is_clean_without_note(self):
        rng = np.random.default_rng(14)
        v = detect_injection(ChannelSet(noise_set(rng), SR))
        assert v.status == defense.CLEAN
        assert v.notes == ""

    def test_implicated_iff_suspected(self):
        rng = np.random.default_rng(15)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            chans = noise_set(rng)
            if seed % 2:
                chans[seed % 4] += synth_command(rng, N, SR)
            v = detect_injection(ChannelSet(chans, SR))
            assert (v.status == defense.INJECTION_SUSPECTED) == bool(v.implicated)

    def test_permutation_moves_implication(self):
        rng = np.random.default_rng(16)
        chans = noise_set(rng)
        chans[0] += synth_command(rng, N, SR)
        v0 = detect_injection(ChannelSet(chans, SR))
        v3 = detect_injection(ChannelSet(chans[[1, 2, 3, 0]], SR))
        assert v0.implicated == (0,)
        assert v3.implicated == (3,)

    def test_threshold_validated(self):
        rng = np.random.default_rng(17)
        cs = ChannelSet(noise_set(rng), SR)
        with pytest.raises(ValueError, match="threshold"):
            detect_injection(cs, threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            detect_injection(cs, threshold=1.0)

    @pytest.mark.parametrize("floor", [np.nan, np.inf, -np.inf, -1e-9])
    def test_energy_floor_validated(self, floor):
        cs = ChannelSet(noise_set(np.random.default_rng(19)), SR)
        with pytest.raises(ValueError, match="energy_floor must be >= 0"):
            detect_injection(cs, energy_floor=floor)

    def test_frame_must_be_an_integer(self):
        cs = ChannelSet(noise_set(np.random.default_rng(20)), SR)
        with pytest.raises(ValueError, match="frame must be an integer"):
            detect_injection(cs, frame=1024.5)
        # numpy integers are integers
        assert detect_injection(cs, frame=np.int64(1024)).status == defense.CLEAN

    def test_energy_floor_default(self):
        # 6 dB above an ambient 0.005 rms, bit for bit
        assert DEFAULT_ENERGY_FLOOR == 0.005 ** 2 * 10 ** 0.6
        cs = ChannelSet(noise_set(np.random.default_rng(21)), SR)
        default = detect_injection(cs)
        given = detect_injection(cs, energy_floor=DEFAULT_ENERGY_FLOOR)
        assert (default.status, default.implicated, default.notes) == \
            (given.status, given.implicated, given.notes)
        assert np.array_equal(default.scores, given.scores)
        assert np.array_equal(default.energies, given.energies)

    def test_csv_rows(self):
        rng = np.random.default_rng(18)
        chans = noise_set(rng)
        chans[1] += synth_command(rng, N, SR)
        v = detect_injection(ChannelSet(chans, SR))
        rows = v.csv_rows()
        assert len(rows) == 4
        assert rows[1][3] == "yes"
        assert rows[0][3] == "no"
