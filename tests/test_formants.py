import numpy as np

from spoofnet.dsp import FIXED_NUM_SAMPLES, SAMPLE_RATE, FixedWaveform
from spoofnet.formants import (F1_FALLBACK_HZ, F2_FALLBACK_HZ, burg,
                               lpc_resonances, track_formants)
from tests.conftest import synth_vowel


def ar2_process(freq_hz: float, radius: float, n: int, seed: int) -> np.ndarray:
    """Noise-driven AR(2) with poles at the given frequency and radius."""
    theta = 2.0 * np.pi * freq_hz / SAMPLE_RATE
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.zeros(n)
    for i in range(2, n):
        x[i] = 2.0 * radius * np.cos(theta) * x[i - 1] - radius * radius * x[i - 2] + e[i]
    return x


class TestBurg:
    def test_recovers_ar2_pole_frequency(self):
        x = ar2_process(800.0, 0.95, 8192, seed=0)
        a = burg(x[None, 1000:], order=2)
        resonances = lpc_resonances(a)[0]
        assert len(resonances) == 1
        freq, bandwidth = resonances[0]
        assert abs(freq - 800.0) <= 10.0
        # theoretical bandwidth of a pole at radius r: -ln(r) * sr / pi
        assert abs(bandwidth - (-np.log(0.95) * SAMPLE_RATE / np.pi)) <= 40.0

    def test_polynomial_is_monic_and_stable(self):
        x = ar2_process(1200.0, 0.9, 4096, seed=1)
        a = burg(x[None], order=10)[0]
        assert a[0] == 1.0
        assert np.all(np.abs(np.roots(a)) < 1.0 + 1e-9)


class TestTrackFormants:
    def test_synthetic_vowel_recovered(self, vowel_500_1500):
        f1, f2 = track_formants(vowel_500_1500)
        ok = (np.abs(f1 - 500.0) <= 50.0) & (np.abs(f2 - 1500.0) <= 75.0)
        assert np.mean(ok) >= 0.80

    def test_vowel_with_other_targets(self):
        vowel = synth_vowel(f0=140.0, f1=650.0, bw1=70.0, f2=1900.0, bw2=110.0)
        f1, f2 = track_formants(vowel)
        ok = (np.abs(f1 - 650.0) <= 65.0) & (np.abs(f2 - 1900.0) <= 95.0)
        assert np.mean(ok) >= 0.80

    def test_ordering_invariant(self, vowel_500_1500):
        f1, f2 = track_formants(vowel_500_1500)
        assert np.all(f1 < f2)
        assert np.all(f1 > 0)

    def test_fallback_midpoints_at_frame_zero(self):
        x = np.zeros(FIXED_NUM_SAMPLES)
        x[2048:] = synth_vowel().samples[2048:]
        f1, f2 = track_formants(FixedWaveform(x))
        assert f1[0] == F1_FALLBACK_HZ == 525.0
        assert f2[0] == F2_FALLBACK_HZ == 1750.0

    def test_dropout_holds_previous_value(self, vowel_500_1500):
        x = vowel_500_1500.samples.copy()
        # silence a frame-aligned gap in the middle: frames fully inside
        # the gap yield no candidates and must carry the last estimate
        x[40 * 256: 40 * 256 + 4 * 256] = 0.0
        f1, f2 = track_formants(FixedWaveform(x))
        # frame 41 covers samples [10496, 11008) which are all zero
        assert f1[41] == f1[40]
        assert f2[41] == f2[40]
