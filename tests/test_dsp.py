import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofnet.dsp import (FIXED_NUM_SAMPLES, FRAME_LEN, HOP_LEN, LOG_FLOOR,
                          MIN_SAMPLE_RATE, NUM_BINS, NUM_FRAMES, SAMPLE_RATE,
                          FixedWaveform, Waveform, frame_signal, hann_window,
                          ingest, preprocess, stft_features, tokenize,
                          trim_silence, write_wav)
from spoofnet.errors import InvalidAudio, SilentAudio


def naive_dft_bins(frame: np.ndarray, n_bins: int = NUM_BINS) -> np.ndarray:
    """O(N^2) direct DFT of one frame, first n_bins bins."""
    n = frame.size
    k = np.arange(n_bins)[:, None]
    t = np.arange(n)[None, :]
    return (np.exp(-2j * np.pi * k * t / n) * frame[None, :]).sum(axis=1)


class TestIngest:
    def test_native_rate_unchanged(self):
        x = np.random.default_rng(0).standard_normal(16000)
        w = ingest(x, 16000)
        assert w.sample_rate == SAMPLE_RATE
        np.testing.assert_array_equal(w.samples, x)

    def test_2_to_1_decimation_length(self):
        w = ingest(np.ones(32000), 32000)
        assert w.samples.size == 16000

    def test_resampled_sine_keeps_frequency(self):
        # oracle: the dominant DFT bin of the resampler output must sit
        # within 2 Hz of the generator frequency
        rate = 48000
        t = np.arange(rate) / rate
        w = ingest(np.sin(2 * np.pi * 440.0 * t), rate)
        assert w.samples.size == 16000
        spectrum = np.abs(np.fft.rfft(w.samples))
        peak_hz = np.argmax(spectrum) * SAMPLE_RATE / w.samples.size
        assert abs(peak_hz - 440.0) <= 2.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidAudio):
            ingest(np.array([]), 16000)

    def test_stereo_first_channel(self):
        stereo = np.stack([np.ones(100), np.zeros(100)], axis=1)
        w = ingest(stereo, 16000)
        np.testing.assert_array_equal(w.samples, np.ones(100))

    @pytest.mark.parametrize("rate", [-16000, 0, 1, 8, MIN_SAMPLE_RATE - 1])
    def test_rate_below_the_f2_nyquist_floor_rejected(self, rate):
        # below twice the top of the F2 band the audio cannot carry F2
        with pytest.raises(InvalidAudio, match=f"sample rate {rate} Hz"):
            ingest(np.ones(100), rate)

    def test_rate_at_the_floor_accepted(self):
        assert MIN_SAMPLE_RATE == 5400
        w = ingest(np.ones(5400), MIN_SAMPLE_RATE)
        assert w.samples.size == 16000


class TestPreprocess:
    def test_short_signal_tiled_by_repetition(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-1, 1, 16000)
        s[np.argmax(np.abs(s))] = 1.0  # peak exactly 1 so scaling is identity
        out = preprocess(Waveform(s)).samples
        idx = np.arange(FIXED_NUM_SAMPLES)
        np.testing.assert_allclose(out, s[idx % 16000], atol=0)

    def test_peak_normalization_scales_by_4(self):
        t = np.arange(20000) / SAMPLE_RATE
        quiet = 0.25 * np.sin(2 * np.pi * 220.0 * t)
        out = preprocess(Waveform(quiet)).samples
        np.testing.assert_allclose(out[:20000], 4.0 * quiet, rtol=1e-12)
        assert np.max(np.abs(out)) == pytest.approx(1.0, abs=1e-6)

    def test_long_signal_truncated_to_head(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(-1, 1, 50000)
        s[np.argmax(np.abs(s[:FIXED_NUM_SAMPLES]))] = 1.0
        s[FIXED_NUM_SAMPLES:] *= 0.5  # peak lives in the kept region
        out = preprocess(Waveform(s)).samples
        np.testing.assert_allclose(out, s[:FIXED_NUM_SAMPLES], atol=0)

    def test_silent_input_rejected(self):
        with pytest.raises(SilentAudio):
            preprocess(Waveform(np.zeros(16000)))

    def test_edge_silence_removed(self):
        t = np.arange(8000) / SAMPLE_RATE
        tone = np.sin(2 * np.pi * 220.0 * t)
        padded = np.concatenate([np.zeros(3200), tone, np.zeros(3200)])
        trimmed = trim_silence(Waveform(padded))
        assert trimmed.samples.size == pytest.approx(8000, abs=640)

    @given(n=st.integers(min_value=2000, max_value=33000),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_tiling_invariant(self, n, seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(-1, 1, n)
        s[np.argmax(np.abs(s))] = 1.0
        out = preprocess(Waveform(s), silence_threshold_db=-200.0).samples
        period = s.size
        for i in (0, 1, period - 1):
            if i + period < FIXED_NUM_SAMPLES:
                assert out[i] == out[i + period]


class TestStft:
    def test_grid_shape(self, sine_220):
        g = stft_features(sine_220)
        assert g.log_mag.shape == (NUM_FRAMES, NUM_BINS) == (128, 256)
        assert g.sin_phase.shape == (128, 256)

    def test_zero_region_frame(self):
        x = np.zeros(FIXED_NUM_SAMPLES)
        x[:512] = np.sin(np.arange(512) * 0.3)
        g = stft_features(FixedWaveform(x))
        # frames from index 2 on see only zeros
        np.testing.assert_array_equal(g.log_mag[3], np.log(LOG_FLOOR))
        np.testing.assert_array_equal(g.sin_phase[3], 0.0)

    def test_1000hz_peak_bin(self):
        t = np.arange(FIXED_NUM_SAMPLES) / SAMPLE_RATE
        g = stft_features(FixedWaveform(np.cos(2 * np.pi * 1000.0 * t)))
        assert np.all(np.argmax(g.log_mag, axis=1) == 32)  # 1000 / 31.25

    def test_1000hz_peak_bin_matches_direct_dft(self):
        t = np.arange(FRAME_LEN) / SAMPLE_RATE
        frame = np.cos(2 * np.pi * 1000.0 * t) * hann_window(FRAME_LEN)
        oracle = np.abs(naive_dft_bins(frame))
        assert np.argmax(oracle) == 32

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, FIXED_NUM_SAMPLES)
        g = stft_features(FixedWaveform(x))
        win = hann_window(FRAME_LEN)
        for t in (0, 17, 127):
            frame = x[t * HOP_LEN:t * HOP_LEN + FRAME_LEN] * win
            oracle = naive_dft_bins(frame)
            fast = np.exp(g.log_mag[t]) - LOG_FLOOR
            scale = np.max(np.abs(oracle))
            np.testing.assert_allclose(fast, np.abs(oracle), atol=1e-6 * scale)
            np.testing.assert_allclose(g.sin_phase[t], np.sin(np.angle(oracle)),
                                       atol=1e-6)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_phase_bounded_and_magnitude_finite(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, FIXED_NUM_SAMPLES) * rng.uniform(0, 1)
        g = stft_features(FixedWaveform(x))
        assert np.all(np.isfinite(g.log_mag))
        assert np.all(g.sin_phase >= -1.0) and np.all(g.sin_phase <= 1.0)


class TestTokenize:
    def test_token_layout(self, sine_220):
        g = stft_features(sine_220)
        mag, phase = tokenize(g)
        assert mag.shape == (128, 256) and phase.shape == (128, 256)

    def test_single_value_lands_in_one_token(self, silence):
        g = stft_features(silence)
        g.log_mag[41, 77] = 123.0
        mag, _ = tokenize(g)
        hits = np.argwhere(mag == 123.0)
        assert hits.shape == (1, 2) and tuple(hits[0]) == (41, 77)

    def test_round_trip_reconstructs_grid(self, sine_220):
        g = stft_features(sine_220)
        mag, phase = tokenize(g)
        np.testing.assert_array_equal(np.vstack(list(mag)), g.log_mag)
        np.testing.assert_array_equal(np.vstack(list(phase)), g.sin_phase)


def test_frame_count_formula():
    assert (FIXED_NUM_SAMPLES - FRAME_LEN) / HOP_LEN + 1 == 128
    assert frame_signal(np.zeros(FIXED_NUM_SAMPLES)).shape == (128, FRAME_LEN)


@pytest.mark.parametrize("n, frame_len, hop", [(FIXED_NUM_SAMPLES, FRAME_LEN, HOP_LEN),
                                               (1000, 512, 256), (512, 512, 256),
                                               (1001, 100, 7)])
def test_frame_signal_is_a_read_only_view_of_the_gathered_frames(n, frame_len, hop):
    x = np.random.default_rng(n).standard_normal(n)
    frames = frame_signal(x, frame_len, hop)
    starts = hop * np.arange((n - frame_len) // hop + 1)
    np.testing.assert_array_equal(frames, x[starts[:, None] + np.arange(frame_len)])
    assert np.shares_memory(frames, x)
    assert not frames.flags.writeable


class TestWavIO:
    def test_pcm16_round_trip(self, tmp_path):
        from spoofnet.dsp import read_wav, write_wav

        x = 0.5 * np.sin(np.arange(4000) * 0.1)
        write_wav(tmp_path / "a.wav", x)
        w = read_wav(tmp_path / "a.wav")
        assert w.sample_rate == SAMPLE_RATE
        # one quantization step plus the 32767/32768 write/read scale skew
        np.testing.assert_allclose(w.samples, x, atol=2.0 / 32768)

    def test_float32_wav(self, tmp_path):
        from scipy.io import wavfile

        from spoofnet.dsp import read_wav

        x = (0.25 * np.sin(np.arange(4000) * 0.05)).astype(np.float32)
        wavfile.write(tmp_path / "f.wav", SAMPLE_RATE, x)
        w = read_wav(tmp_path / "f.wav")
        np.testing.assert_allclose(w.samples, x.astype(np.float64), atol=1e-7)

    def test_stereo_first_channel(self, tmp_path):
        from scipy.io import wavfile

        from spoofnet.dsp import read_wav

        left = (0.3 * np.sin(np.arange(2000) * 0.1)).astype(np.float32)
        right = np.zeros(2000, dtype=np.float32)
        wavfile.write(tmp_path / "s.wav", SAMPLE_RATE,
                      np.stack([left, right], axis=1))
        w = read_wav(tmp_path / "s.wav")
        np.testing.assert_allclose(w.samples, left.astype(np.float64), atol=1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_wav_rejected(self, tmp_path, bad):
        from scipy.io import wavfile

        from spoofnet.dsp import read_wav

        x = (0.25 * np.sin(np.arange(4000) * 0.05)).astype(np.float32)
        x[[10, 2000]] = bad
        wavfile.write(tmp_path / "n.wav", SAMPLE_RATE, x)
        with pytest.raises(InvalidAudio, match="2 of 4000 samples are non-finite"):
            read_wav(tmp_path / "n.wav")

    def test_signalling_nan_rejected_without_a_warning(self, tmp_path):
        from scipy.io import wavfile

        from spoofnet.dsp import read_wav

        x = np.zeros(4000, dtype=np.float32)
        x.view(np.uint32)[10] = 0x7F800001  # widening it to float64 sets FE_INVALID
        wavfile.write(tmp_path / "s.wav", SAMPLE_RATE, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidAudio, match="1 of 4000 samples are non-finite"):
                read_wav(tmp_path / "s.wav")

    def test_header_rate_below_the_floor_rejected(self, tmp_path):
        # 4,044 bytes that would resample to 32,000,000 samples
        from spoofnet.dsp import read_wav

        write_wav(tmp_path / "slow.wav", np.sin(np.arange(2000) / 5.0), rate=1)
        assert (tmp_path / "slow.wav").stat().st_size == 4044
        with pytest.raises(InvalidAudio, match="sample rate 1 Hz"):
            read_wav(tmp_path / "slow.wav")

    def test_unsupported_format_rejected(self, tmp_path):
        from scipy.io import wavfile

        from spoofnet.dsp import read_wav

        wavfile.write(tmp_path / "u.wav", SAMPLE_RATE,
                      np.zeros(100, dtype=np.uint8))
        with pytest.raises(InvalidAudio):
            read_wav(tmp_path / "u.wav")


# a 16-bit mono WAV as scipy writes it: 12-byte RIFF header, 24-byte fmt
# chunk, then the data chunk's 8-byte header at byte 36 and its payload
PCM = np.round(8000 * np.sin(np.arange(120) / 5.0)).astype(np.int16)


def riff(chunks: bytes) -> bytes:
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


FMT = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16)
DATA = b"data" + struct.pack("<I", PCM.nbytes) + PCM.tobytes()


class TestTruncatedWav:
    @pytest.mark.parametrize("cut", [1, 2, 100, 239])
    def test_data_chunk_cut_short_is_invalid(self, tmp_path, cut):
        from spoofnet.dsp import read_wav

        (tmp_path / "t.wav").write_bytes(riff(FMT + DATA)[:-cut])
        with pytest.raises(InvalidAudio, match="truncated WAV"):
            read_wav(tmp_path / "t.wav")

    def test_data_size_beyond_file_is_invalid(self, tmp_path):
        # the RIFF size matches the file; only the data size claims too much
        from spoofnet.dsp import read_wav

        lying = b"data" + struct.pack("<I", 10_000_000) + PCM.tobytes()
        (tmp_path / "t.wav").write_bytes(riff(FMT + lying))
        with pytest.raises(InvalidAudio, match="ends at byte 10000044"):
            read_wav(tmp_path / "t.wav")

    def test_unknown_chunk_still_loads(self, tmp_path):
        # an odd-sized chunk of an unknown kind, with its pad byte
        from spoofnet.dsp import read_wav

        unknown = b"abcd" + struct.pack("<I", 3) + b"xyz\0"
        (tmp_path / "plain.wav").write_bytes(riff(FMT + DATA))
        (tmp_path / "u.wav").write_bytes(riff(FMT + unknown + DATA))
        np.testing.assert_array_equal(read_wav(tmp_path / "u.wav").samples,
                                      read_wav(tmp_path / "plain.wav").samples)

    def test_rf64_takes_its_data_size_from_ds64(self, tmp_path):
        from spoofnet.dsp import read_wav

        ds64 = b"ds64" + struct.pack("<IQQQI", 28, 0, PCM.nbytes, PCM.size, 0)
        data = b"data" + struct.pack("<I", 0xFFFFFFFF) + PCM.tobytes()
        body = b"WAVE" + ds64 + FMT + data
        whole = bytearray(b"RF64" + struct.pack("<I", 0xFFFFFFFF) + body)
        whole[20:28] = struct.pack("<Q", len(whole) - 8)  # ds64's RIFF size
        (tmp_path / "plain.wav").write_bytes(riff(FMT + DATA))
        (tmp_path / "r.wav").write_bytes(bytes(whole))
        np.testing.assert_array_equal(read_wav(tmp_path / "r.wav").samples,
                                      read_wav(tmp_path / "plain.wav").samples)
        (tmp_path / "r.wav").write_bytes(bytes(whole[:-2]))
        with pytest.raises(InvalidAudio, match="truncated WAV"):
            read_wav(tmp_path / "r.wav")


def wav_file(samples: np.ndarray, big_endian: bool) -> bytes:
    """A mono WAV of 16-bit PCM or float32 samples: little-endian RIFF,
    or big-endian RIFX with every header field and sample byte-swapped."""
    e = ">" if big_endian else "<"
    width = samples.dtype.itemsize
    tag = 3 if samples.dtype.kind == "f" else 1  # IEEE float or PCM
    fmt = b"fmt " + struct.pack(e + "IHHIIHH", 16, tag, 1, SAMPLE_RATE,
                                width * SAMPLE_RATE, width, 8 * width)
    payload = samples.astype(samples.dtype.newbyteorder(e)).tobytes()
    body = b"WAVE" + fmt + b"data" + struct.pack(e + "I", len(payload)) + payload
    return (b"RIFX" if big_endian else b"RIFF") + struct.pack(e + "I", len(body)) + body


class TestByteOrder:
    @pytest.mark.parametrize("samples", [PCM, (PCM / 32768.0).astype(np.float32)],
                             ids=["pcm16", "float32"])
    def test_rifx_loads_like_its_riff_twin(self, tmp_path, samples):
        from spoofnet.dsp import read_wav

        (tmp_path / "le.wav").write_bytes(wav_file(samples, big_endian=False))
        (tmp_path / "be.wav").write_bytes(wav_file(samples, big_endian=True))
        le, be = read_wav(tmp_path / "le.wav"), read_wav(tmp_path / "be.wav")
        np.testing.assert_array_equal(be.samples, le.samples)
        assert np.abs(le.samples).max() > 0.1
