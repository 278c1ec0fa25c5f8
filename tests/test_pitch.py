import numpy as np
import pytest

from spoofnet.dsp import (FIXED_NUM_SAMPLES, FRAME_LEN, SAMPLE_RATE, FixedWaveform,
                          frame_signal, preprocess)
from spoofnet.pitch import (TAU_MAX, cmndf, difference_function, frame_candidates,
                            frame_troughs, track_pitch, viterbi_track)
from spoofnet.synth import SyntheticCorpusSpec, synth_utterance
from tests.conftest import synth_vowel


class TestTrackPitch:
    def test_pure_sine_220(self, sine_220):
        # oracle: the generator frequency
        f0 = track_pitch(sine_220)
        interior = f0[1:-1]
        assert np.mean(np.isfinite(interior)) >= 0.95
        hit = np.isfinite(interior) & (np.abs(interior - 220.0) <= 2.0)
        assert np.mean(hit) >= 0.95

    def test_digital_silence_all_unvoiced(self, silence):
        f0 = track_pitch(silence)
        assert not np.any(np.isfinite(f0))

    def test_sawtooth_100_avoids_octave_error(self, sawtooth_100):
        # strong harmonics invite a 200 Hz octave error; the tracker must
        # stay on the true 100 Hz fundamental
        f0 = track_pitch(sawtooth_100)
        interior = f0[1:-1]
        hit = np.isfinite(interior) & (np.abs(interior - 100.0) <= 2.0)
        assert np.mean(hit) >= 0.90
        octave = np.isfinite(interior) & (interior > 150.0)
        assert np.mean(octave) < 0.05

    def test_outputs_bounded(self):
        rng = np.random.default_rng(4)
        # noisy chirp: whatever is voiced must stay inside [60, 400]
        t = np.arange(FIXED_NUM_SAMPLES) / SAMPLE_RATE
        freq = np.linspace(90.0, 380.0, t.size)
        x = np.sin(2 * np.pi * np.cumsum(freq) / SAMPLE_RATE)
        x += 0.05 * rng.standard_normal(t.size)
        f0 = track_pitch(FixedWaveform(x / np.max(np.abs(x))))
        voiced = np.isfinite(f0)
        assert np.all(f0[voiced] >= 60.0) and np.all(f0[voiced] <= 400.0)

    def test_deterministic(self, sine_220):
        a = track_pitch(sine_220)
        b = track_pitch(sine_220)
        np.testing.assert_array_equal(a, b)


    def test_viterbi_final_tie_goes_to_the_voiced_state(self):
        # one frame and one candidate of probability 0.5: the voiced and the
        # unvoiced state both score log(0.5) + log(0.5), and the decoder's
        # argmax order puts the voiced bins first
        assert viterbi_track([[(220.0, 0.5)]])[0] == 220.0


class TestYinPieces:
    def test_difference_function_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(FRAME_LEN)
        d = difference_function(x)
        assert d.shape == (TAU_MAX + 2,)
        for tau in (0, 1, 13, 64, TAU_MAX + 1):
            direct = np.sum((x[: x.size - tau] - x[tau:]) ** 2)
            np.testing.assert_allclose(d[tau], direct, rtol=1e-9, atol=1e-9)

    def test_cmndf_starts_at_one(self):
        d = difference_function(np.sin(np.arange(512) * 0.1))
        nd = cmndf(d)
        assert nd[0] == 1.0
        assert np.all(np.isfinite(nd))

    def test_silence_yields_no_candidates(self):
        (lag, depth), = frame_troughs(np.zeros((1, 512)))
        assert frame_candidates(lag, depth) == []

    def test_sine_frame_candidate_near_truth(self):
        t = np.arange(512) / SAMPLE_RATE
        (lag, depth), = frame_troughs(np.sin(2 * np.pi * 220.0 * t)[None, :])
        cands = frame_candidates(lag, depth)
        assert cands
        best = max(cands, key=lambda c: c[1])
        assert abs(best[0] - 220.0) <= 2.0
        assert best[1] > 0.9  # a clean sine clears nearly every threshold


@pytest.fixture(scope="module")
def golden_frames() -> np.ndarray:
    """The frames of the golden inputs synth_00, synth_04 and vowel_gap
    (tests/test_annotation_golden.py), then one all-zero frame."""
    waves = []
    for i in (0, 4):
        spec = SyntheticCorpusSpec(duration_s=float(np.linspace(1.0, 3.2, 24)[i]))
        x = synth_utterance(np.random.default_rng(100 + i), spec, fake=bool(i % 2))
        waves.append(preprocess(x).samples)
    gapped = synth_vowel().samples.copy()
    gapped[40 * 256: 44 * 256] = 0.0
    waves.append(gapped)
    return np.concatenate([frame_signal(x) for x in waves] + [np.zeros((1, 512))])


class TestBatchedFrontEnd:
    # the tracks are pinned bit for bit, so a stack of frames must give
    # exactly the bytes of the single-frame calls, row by row
    def test_difference_function_stack_equals_rows(self, golden_frames):
        stacked = difference_function(golden_frames)
        rows = np.stack([difference_function(f) for f in golden_frames])
        assert stacked.tobytes() == rows.tobytes()

    def test_cmndf_stack_equals_rows(self, golden_frames):
        d = difference_function(golden_frames)
        assert cmndf(d).tobytes() == np.stack([cmndf(row) for row in d]).tobytes()

    def test_all_zero_frame_has_flat_cmndf_and_no_trough(self, golden_frames):
        nd = cmndf(difference_function(golden_frames[-1:]))
        assert np.all(nd == 1.0)
        lag, depth = frame_troughs(golden_frames)[-1]
        assert lag.size == depth.size == 0
