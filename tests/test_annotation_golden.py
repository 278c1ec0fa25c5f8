"""Bit-identity of the annotation trackers.

The digests pin the exact cache line (`annotation_to_record`, serialized
with `json.dumps` as the cache writes it) for a fixed set of inputs. They
were computed with the per-frame loop trackers (numpy 2.4, OpenBLAS 0.3,
x86-64). A tracker change that alters any of them changes cached
annotations, so it must also bump the `pyin:`/`burg:` key that
invalidates them. Another FFT, BLAS or LAPACK build may differ in the
last bit.

The loop trackers themselves are kept below as references for the
batched Viterbi, Burg and root-finding code.
"""

import hashlib
import json

import numpy as np
import pytest

from spoofnet.annotate import annotate_waveform, annotation_to_record
from spoofnet.dsp import (FIXED_NUM_SAMPLES, SAMPLE_RATE, FixedWaveform, Waveform,
                          frame_signal, preprocess)
from spoofnet.formants import (FormantConfig, burg, gaussian_window, lpc_resonances,
                               preemphasize)
from spoofnet.pitch import PitchConfig, _pitch_grid, viterbi_track
from spoofnet.synth import SyntheticCorpusSpec, synth_utterance
from tests.conftest import synth_vowel

N_SYNTH = 24


def golden_inputs() -> dict[str, FixedWaveform]:
    inputs = {}
    # 1.0-3.2 s before trimming: fix_length tiles the short ones and cuts
    # the long ones (the fixed length is 2.064 s)
    for i, duration in enumerate(np.linspace(1.0, 3.2, N_SYNTH)):
        spec = SyntheticCorpusSpec(duration_s=float(duration))
        x = synth_utterance(np.random.default_rng(100 + i), spec, fake=bool(i % 2))
        inputs[f"synth_{i:02d}"] = preprocess(Waveform(x))
    t = np.arange(FIXED_NUM_SAMPLES) / SAMPLE_RATE
    inputs["sine_220"] = FixedWaveform(np.sin(2 * np.pi * 220.0 * t))
    inputs["sawtooth_100"] = FixedWaveform(2.0 * ((100.0 * t) % 1.0) - 1.0)
    inputs["silence"] = FixedWaveform(np.zeros(FIXED_NUM_SAMPLES))
    vowel = synth_vowel()
    inputs["vowel"] = vowel
    gapped = vowel.samples.copy()
    gapped[40 * 256: 44 * 256] = 0.0
    inputs["vowel_gap"] = FixedWaveform(gapped)
    inputs["noise"] = FixedWaveform(np.random.default_rng(7).standard_normal(FIXED_NUM_SAMPLES))
    return inputs


GOLDEN_SHA256 = {
    "synth_00": "0b560790d8b0d74aecb9a2635fa8529a742be622b410dbb2a37c598957969b75",
    "synth_01": "2b3fba407e5709532adbc698186e61eb6f721d2af1ccf7ad6452436ad4dafb8c",
    "synth_02": "59ca7276079b25a3ce57b7110fdd725523d166d1de7f703dca7090cbd9543a53",
    "synth_03": "fb2d9b7ac2b8d03624c7732d49f3c5243619e47e78f02b6cb342cd1b57c197a1",
    "synth_04": "36d5c17629052f8e5bb75803933f31ef201394678edf0f84de70fde3e8bb340c",
    "synth_05": "968e6e327bc041a47b7041cf6becb0bfb2ccc54b1cf6c216eb15d0a0bc694c60",
    "synth_06": "ff8faa6e08bf882b86ba2c341842e1ab0adade74418a8b5255d99a6e50132b59",
    "synth_07": "7894df6ffe1d975d068d1b600ca87647be9c50804f3ce783d7e7eadb94b25964",
    "synth_08": "4edcc822b0faf68d8ed79189cfa05b9bf2b83d9297b9a543b89417e2375fafe0",
    "synth_09": "b683374045001011f1b24ab4012930335206ebad44c31efd67146a9b72602b21",
    "synth_10": "ce5dc9f16c749ee02bde7443ae99a92fa2b2dc441946fdac534dd961de4a284b",
    "synth_11": "37e5ae1bd2211f36fd82dbad7e5f40c339263a5d3f19e699ab7d7c48adb66a05",
    "synth_12": "0e1f70775e14344029f45685f2337aa685cb63fccd496437091c4201768f179e",
    "synth_13": "78d19532e74cdfe65ef3de120b409f4221d9f40b721736eea6d508781ea0705f",
    "synth_14": "8c748bec09b49f986f5e8bdfc60b7b59930065af951474bdc0f8d8dbd0267d8e",
    "synth_15": "5ca86f188ba0574c51e12a86e0beba8678751da3a198efe71b530fd86abbf475",
    "synth_16": "3ca5cd2a021ee1547e0b9a30bb02ae9e1f8673dab0b29e071224b0a9f34b50d3",
    "synth_17": "3c4195c52e33f63ae29753f5d6b9248d55b26822b0f6dd7112b133b3dd44aebf",
    "synth_18": "1f50f7952282a7bfeec2c871ba9a96af84c30fea0b0c82f576bddb8c0fa7874e",
    "synth_19": "fc85f7e0cad62c09ee4768ece6f77f8a29b5a6468f1d6d6f3bcab074d3d66e6b",
    "synth_20": "438419ee9de5569012e9e72b27e7e8ca5a9e7c159190a527107df330d41b1651",
    "synth_21": "bfd373e8c8b90fdee44173365b3773a80104e5233b62b2f6cfa7ff93bae35202",
    "synth_22": "53512f4d26f1b767c6cbf3cefcdfd6c2382a8c41cb028481577f54cb25d61889",
    "synth_23": "c5a146ca03d709ba4eee8f6b7f7252859602e75a691f9fb7fa9ae2e45a50861e",
    "sine_220": "471d4f39329c1e9f1e66c4fa02d1abacbe689e1319109d000e8984a3e9f0f7e7",
    "sawtooth_100": "a7e20b1968f6da58d9ada345ca57ecc149b0792798c5d2fc6566ea63f0d8655b",
    "silence": "d046fa286eec2ed6a0eb514b4c112ef36050c316f553f7f534821171caf8aee4",
    "vowel": "134a1c7cc75ac59892b3e5e9018170566efd1d45fd31242fe8d1342efdf6bf40",
    "vowel_gap": "7bf837c393b257a41911f9800cd219a3e3e1e66183f1784bf23228b41f706abf",
    "noise": "bfe057317e07f08babac841b5c4e552a92795d9d2c489ad418a0695d8f1c1642",
}


def record_digest(name: str, x: FixedWaveform) -> str:
    line = json.dumps(annotation_to_record(name, annotate_waveform(x)))
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


def test_tracker_keys_unchanged():
    # any change to these strings invalidates every cached annotation
    assert PitchConfig().key() == "pyin:60.0:400.0:512:256:0.35:100:10.0:0.1:0.01"
    assert FormantConfig().key() == "burg:10:0.97:512:256:50.0:5500.0:400.0:0.16666666666666666"


def test_cache_records_bit_identical():
    got = {name: record_digest(name, x) for name, x in golden_inputs().items()}
    assert got == GOLDEN_SHA256


def reference_viterbi(candidates_per_frame, cfg: PitchConfig) -> np.ndarray:
    """The per-candidate, full O(B^2) decoder that viterbi_track replaces."""
    grid = _pitch_grid(cfg)
    n_bins = grid.size
    unvoiced = n_bins
    n_frames = len(candidates_per_frame)

    obs_voiced = np.full((n_frames, n_bins), -np.inf)
    obs_unvoiced = np.zeros(n_frames)
    cand_freq = np.full((n_frames, n_bins), np.nan)
    for t, cands in enumerate(candidates_per_frame):
        total = 0.0
        for f, p in cands:
            b = int(np.clip(np.round(1200.0 * np.log2(f / cfg.fmin_hz) / cfg.cents_per_bin),
                            0, n_bins - 1))
            if not np.isfinite(obs_voiced[t, b]) or p > np.exp(obs_voiced[t, b]):
                cand_freq[t, b] = f
            prev = np.exp(obs_voiced[t, b]) if np.isfinite(obs_voiced[t, b]) else 0.0
            obs_voiced[t, b] = np.log(prev + p)
            total += p
        obs_unvoiced[t] = np.log(max(1.0 - total, 1e-9))

    switch = -np.log(cfg.switch_prob)
    stay = -np.log(1.0 - cfg.switch_prob)
    jump = cfg.jump_cost_per_bin * np.abs(np.arange(n_bins)[:, None] - np.arange(n_bins)[None, :])

    dp = np.full((n_frames, n_bins + 1), -np.inf)
    bp = np.zeros((n_frames, n_bins + 1), dtype=np.int32)
    dp[0, :n_bins] = obs_voiced[0] + np.log(0.5)
    dp[0, unvoiced] = obs_unvoiced[0] + np.log(0.5)
    for t in range(1, n_frames):
        prev_v = dp[t - 1, :n_bins]
        prev_u = dp[t - 1, unvoiced]
        vv = prev_v[:, None] - jump - stay
        best_vv = vv.max(axis=0)
        argbest_vv = vv.argmax(axis=0)
        from_u = prev_u - switch
        take_u = from_u > best_vv
        dp[t, :n_bins] = obs_voiced[t] + np.where(take_u, from_u, best_vv)
        bp[t, :n_bins] = np.where(take_u, unvoiced, argbest_vv)
        from_v = prev_v.max() - switch
        from_uu = prev_u - stay
        if from_v > from_uu:
            dp[t, unvoiced] = obs_unvoiced[t] + from_v
            bp[t, unvoiced] = int(prev_v.argmax())
        else:
            dp[t, unvoiced] = obs_unvoiced[t] + from_uu
            bp[t, unvoiced] = unvoiced

    path = np.empty(n_frames, dtype=np.int32)
    path[-1] = int(dp[-1].argmax())
    for t in range(n_frames - 2, -1, -1):
        path[t] = bp[t + 1, path[t + 1]]
    f0 = np.full(n_frames, np.nan)
    for t in range(n_frames):
        state = path[t]
        if state == unvoiced:
            continue
        f = cand_freq[t, state]
        f0[t] = f if np.isfinite(f) else grid[state]
    return np.clip(f0, cfg.fmin_hz, cfg.fmax_hz)


def random_candidates(rng, n_frames: int, cfg: PitchConfig, on_grid: bool):
    """Sparse candidate sets. On the grid, candidates sit on five bins ten
    apart with probabilities in {0, 1/4, 1/2}, so distinct paths tie
    exactly and candidates share bins; off the grid, frequencies and
    probabilities are arbitrary."""
    grid = _pitch_grid(cfg)
    frames = []
    for _ in range(n_frames):
        k = int(rng.integers(0, 5))
        if on_grid:
            freqs = grid[100 + 10 * rng.integers(0, 5, k)]
            probs = rng.integers(0, 3, k) / 4.0
            probs = probs / max(1.0, probs.sum())
        else:
            freqs = rng.uniform(cfg.fmin_hz * 0.9, cfg.fmax_hz * 1.1, k)
            probs = rng.dirichlet(np.ones(k + 1))[:k] if k else np.zeros(0)
        frames.append([(float(f), float(p)) for f, p in zip(freqs, probs)])
    return frames


def assert_matches_reference(cands, cfg):
    with np.errstate(divide="ignore"):  # zero-probability candidates: log(0)
        np.testing.assert_array_equal(viterbi_track(cands, cfg),
                                      reference_viterbi(cands, cfg))


@pytest.mark.parametrize("on_grid", [True, False])
def test_viterbi_matches_reference(on_grid):
    cfg = PitchConfig()
    rng = np.random.default_rng(11 if on_grid else 12)
    for _ in range(20):
        assert_matches_reference(random_candidates(rng, 48, cfg, on_grid), cfg)


def test_viterbi_ties_and_shared_bins():
    cfg = PitchConfig()
    grid = _pitch_grid(cfg)
    lo, mid, hi = float(grid[100]), float(grid[110]), float(grid[120])
    cands = [
        [(hi, 0.5), (lo, 0.5)],           # two equal states
        [(mid, 1.0)],                       # equidistant from both: an exact tie
        [(mid * 1.001, 0.25), (mid, 0.25), (mid, 0.5)],  # three in one bin
        [],
        [(lo, 1.0)],
    ]
    assert_matches_reference(cands, cfg)
    assert viterbi_track(cands, cfg)[0] == lo  # ties go to the lowest bin


def reference_burg(x: np.ndarray, order: int) -> np.ndarray:
    """One-frame lattice with np.dot, the loop burg() batches."""
    a = np.zeros(order + 1)
    a[0] = 1.0
    f = x[1:].astype(np.float64)
    b = x[:-1].astype(np.float64)
    for m in range(order):
        den = float(np.dot(f, f) + np.dot(b, b))
        if den <= 0.0 or f.size == 0:
            break
        k = -2.0 * float(np.dot(f, b)) / den
        prev = a.copy()
        for i in range(1, m + 2):
            a[i] = prev[i] + k * prev[m + 1 - i]
        f, b = f[1:] + k * b[1:], b[:-1] + k * f[:-1]
    return a


def reference_resonances(a: np.ndarray, sample_rate: int) -> list[tuple[float, float]]:
    """np.roots and per-root arithmetic, the loop lpc_resonances() batches."""
    out = []
    for r in np.roots(a):
        if r.imag <= 0.0:
            continue
        freq = float(np.angle(r)) * sample_rate / (2.0 * np.pi)
        out.append((freq, float(-np.log(abs(r)) * sample_rate / np.pi)))
    return sorted(out)


def test_burg_and_resonances_match_per_frame_reference():
    cfg = FormantConfig()
    window = gaussian_window(cfg.frame_len, cfg.window_std_fraction)
    for name, x in golden_inputs().items():
        frames = frame_signal(preemphasize(x.samples, cfg.preemphasis)) * window
        if name == "sine_220":
            frames[5] = 0.0
            frames[5, 7] = 1.0  # an impulse: every reflection coefficient is 0
        coeffs = burg(frames, cfg.order)
        resonances = lpc_resonances(coeffs, SAMPLE_RATE)
        for t, frame in enumerate(frames):
            expected = reference_burg(frame, cfg.order)
            np.testing.assert_array_equal(coeffs[t], expected)
            got = resonances[t][~np.isnan(resonances[t, :, 0])]
            np.testing.assert_array_equal(
                got, np.array(reference_resonances(expected, SAMPLE_RATE)).reshape(-1, 2))


def test_resonances_of_mixed_degrees_match_np_roots():
    # trailing zero coefficients lower a row's degree, as np.roots sees it
    rng = np.random.default_rng(3)
    stack = np.zeros((6, 11))
    stack[:, 0] = 1.0
    for row, degree in enumerate([10, 4, 2, 0, 7, 10]):
        stack[row, 1 : degree + 1] = rng.uniform(-0.5, 0.5, degree)
    stack[5, 3] = 0.0  # an inner zero stays in the polynomial
    resonances = lpc_resonances(stack, SAMPLE_RATE)
    for row, a in enumerate(stack):
        got = resonances[row][~np.isnan(resonances[row, :, 0])]
        np.testing.assert_array_equal(
            got, np.array(reference_resonances(a, SAMPLE_RATE)).reshape(-1, 2))
        np.testing.assert_array_equal(lpc_resonances(a, SAMPLE_RATE), got)
