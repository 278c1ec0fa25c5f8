"""Bit-identity of the annotation trackers.

The "annotation" group of `tests/pins.json` pins the float64 bytes of
the f0, F1 and F2 tracks (`annotate_waveform`) for a fixed set of inputs,
independently of how a cache record stores them, and the exact cache
line for one input. Its "keys" group pins the `pyin:`/`burg:` key texts
(`PITCH_KEY`, `FORMANT_KEY`) that invalidate cached annotations. The
digests were computed on a tree whose cache lines still matched those of
the per-frame loop trackers, so they pin the loops' output. A tracker
change that alters any of them changes cached annotations, so it must
also bump the key; `python -m tests.pins --write` then re-pins both.

The loop trackers themselves are kept below as references for the
batched Viterbi, Burg and root-finding code.
"""

import hashlib
import json

import numpy as np
import pytest

from spoofnet.annotate import FrameAnnotation, annotate_waveform, annotation_to_record
from spoofnet.dsp import (FIXED_NUM_SAMPLES, FRAME_LEN, SAMPLE_RATE, FixedWaveform,
                          frame_signal, preprocess)
from spoofnet.formants import (FORMANT_KEY, LPC_ORDER, PREEMPHASIS, WINDOW_STD_FRACTION,
                               burg, gaussian_window, lpc_resonances, preemphasize)
from spoofnet.pitch import (CENTS_PER_BIN, FMAX_HZ, FMIN_HZ, JUMP_COST_PER_BIN, N_BINS,
                            PITCH_KEY, SWITCH_PROB, viterbi_track)
from spoofnet.synth import SyntheticCorpusSpec, synth_utterance
from tests.conftest import synth_vowel
from tests.pins import PINS, float64_digest

N_SYNTH = 24


def golden_inputs() -> dict[str, FixedWaveform]:
    inputs = {}
    # 1.0-3.2 s before trimming: fix_length tiles the short ones and cuts
    # the long ones (the fixed length is 2.064 s)
    for i, duration in enumerate(np.linspace(1.0, 3.2, N_SYNTH)):
        spec = SyntheticCorpusSpec(duration_s=float(duration))
        x = synth_utterance(np.random.default_rng(100 + i), spec, fake=bool(i % 2))
        inputs[f"synth_{i:02d}"] = preprocess(x)
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


def track_digests() -> dict[str, str]:
    """The float64 digest of each golden input's f0, F1 and F2 tracks."""
    digests = {}
    for name, x in golden_inputs().items():
        ann = annotate_waveform(x)
        digests[name] = float64_digest((ann.f0_hz, ann.f1_hz, ann.f2_hz))
    return digests


def vowel_cache_line() -> tuple[FrameAnnotation, str, str]:
    """The "vowel" input's annotation, its cache line without the key and
    the line's sha256."""
    ann = annotate_waveform(golden_inputs()["vowel"])
    line = json.dumps(annotation_to_record("vowel", ann))
    return ann, line, hashlib.sha256(line.encode("utf-8")).hexdigest()


def test_tracker_keys_unchanged():
    # any change to these strings invalidates every cached annotation
    assert PITCH_KEY == PINS["keys"]["PITCH_KEY"]
    assert FORMANT_KEY == PINS["keys"]["FORMANT_KEY"]


def test_tracks_bit_identical():
    assert track_digests() == PINS["annotation"]["tracks"]


def test_cache_line_format():
    ann, line, digest = vowel_cache_line()
    assert digest == PINS["annotation"]["vowel_line"]
    record = json.loads(line)
    assert list(record) == ["utt_id", "f0", "f1", "f2"]
    for name in ("f0", "f1", "f2"):
        track = np.frombuffer(bytes.fromhex(record[name]), "<f8")
        assert track.tobytes() == getattr(ann, f"{name}_hz").tobytes()


# the geometric pitch grid: N_BINS bins from FMIN_HZ upward in CENTS_PER_BIN steps
PITCH_GRID = FMIN_HZ * 2.0 ** (CENTS_PER_BIN * np.arange(N_BINS) / 1200.0)


def reference_viterbi(candidates_per_frame) -> np.ndarray:
    """The per-candidate, full O(B^2) decoder that viterbi_track replaces."""
    n_bins = N_BINS
    unvoiced = n_bins
    n_frames = len(candidates_per_frame)

    obs_voiced = np.full((n_frames, n_bins), -np.inf)
    obs_unvoiced = np.zeros(n_frames)
    cand_freq = np.full((n_frames, n_bins), np.nan)
    for t, cands in enumerate(candidates_per_frame):
        total = 0.0
        for f, p in cands:
            b = int(np.clip(np.round(1200.0 * np.log2(f / FMIN_HZ) / CENTS_PER_BIN),
                            0, n_bins - 1))
            if not np.isfinite(obs_voiced[t, b]) or p > np.exp(obs_voiced[t, b]):
                cand_freq[t, b] = f
            prev = np.exp(obs_voiced[t, b]) if np.isfinite(obs_voiced[t, b]) else 0.0
            obs_voiced[t, b] = np.log(prev + p)
            total += p
        obs_unvoiced[t] = np.log(max(1.0 - total, 1e-9))

    switch = -np.log(SWITCH_PROB)
    stay = -np.log(1.0 - SWITCH_PROB)
    jump = JUMP_COST_PER_BIN * np.abs(np.arange(n_bins)[:, None] - np.arange(n_bins)[None, :])

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
        f0[t] = f if np.isfinite(f) else PITCH_GRID[state]
    return np.clip(f0, FMIN_HZ, FMAX_HZ)


def random_candidates(rng, n_frames: int, on_grid: bool):
    """Sparse candidate sets. On the grid, candidates sit on five bins ten
    apart with probabilities in {0, 1/4, 1/2}, so distinct paths tie
    exactly and candidates share bins; off the grid, frequencies and
    probabilities are arbitrary."""
    frames = []
    for _ in range(n_frames):
        k = int(rng.integers(0, 5))
        if on_grid:
            freqs = PITCH_GRID[100 + 10 * rng.integers(0, 5, k)]
            probs = rng.integers(0, 3, k) / 4.0
            probs = probs / max(1.0, probs.sum())
        else:
            freqs = rng.uniform(FMIN_HZ * 0.9, FMAX_HZ * 1.1, k)
            probs = rng.dirichlet(np.ones(k + 1))[:k] if k else np.zeros(0)
        frames.append([(float(f), float(p)) for f, p in zip(freqs, probs)])
    return frames


def assert_matches_reference(cands):
    with np.errstate(divide="ignore"):  # zero-probability candidates: log(0)
        np.testing.assert_array_equal(viterbi_track(cands), reference_viterbi(cands))


@pytest.mark.parametrize("on_grid", [True, False])
def test_viterbi_matches_reference(on_grid):
    rng = np.random.default_rng(11 if on_grid else 12)
    for _ in range(20):
        assert_matches_reference(random_candidates(rng, 48, on_grid))


def test_viterbi_ties_and_shared_bins():
    lo, mid, hi = float(PITCH_GRID[100]), float(PITCH_GRID[110]), float(PITCH_GRID[120])
    cands = [
        [(hi, 0.5), (lo, 0.5)],           # two equal states
        [(mid, 1.0)],                       # equidistant from both: an exact tie
        [(mid * 1.001, 0.25), (mid, 0.25), (mid, 0.5)],  # three in one bin
        [],
        [(lo, 1.0)],
    ]
    assert_matches_reference(cands)
    assert viterbi_track(cands)[0] == lo  # ties go to the lowest bin


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


def reference_resonances(a: np.ndarray) -> list[tuple[float, float]]:
    """np.roots and per-root arithmetic, the loop lpc_resonances() batches."""
    out = []
    for r in np.roots(a):
        if r.imag <= 0.0:
            continue
        freq = float(np.angle(r)) * SAMPLE_RATE / (2.0 * np.pi)
        out.append((freq, float(-np.log(abs(r)) * SAMPLE_RATE / np.pi)))
    return sorted(out)


def test_burg_and_resonances_match_per_frame_reference():
    window = gaussian_window(FRAME_LEN, WINDOW_STD_FRACTION)
    for name, x in golden_inputs().items():
        frames = frame_signal(preemphasize(x.samples, PREEMPHASIS)) * window
        if name == "sine_220":
            frames[5] = 0.0
            frames[5, 7] = 1.0  # an impulse: every reflection coefficient is 0
        coeffs = burg(frames, LPC_ORDER)
        resonances = lpc_resonances(coeffs)
        for t, frame in enumerate(frames):
            expected = reference_burg(frame, LPC_ORDER)
            np.testing.assert_array_equal(coeffs[t], expected)
            got = resonances[t][~np.isnan(resonances[t, :, 0])]
            np.testing.assert_array_equal(
                got, np.array(reference_resonances(expected)).reshape(-1, 2))


def test_resonances_of_mixed_degrees_match_np_roots():
    # trailing zero coefficients lower a row's degree, as np.roots sees it
    rng = np.random.default_rng(3)
    stack = np.zeros((6, 11))
    stack[:, 0] = 1.0
    for row, degree in enumerate([10, 4, 2, 0, 7, 10]):
        stack[row, 1 : degree + 1] = rng.uniform(-0.5, 0.5, degree)
    stack[5, 3] = 0.0  # an inner zero stays in the polynomial
    resonances = lpc_resonances(stack)
    for row, a in enumerate(stack):
        got = resonances[row][~np.isnan(resonances[row, :, 0])]
        np.testing.assert_array_equal(
            got, np.array(reference_resonances(a)).reshape(-1, 2))
        np.testing.assert_array_equal(lpc_resonances(a[None])[0], got)

