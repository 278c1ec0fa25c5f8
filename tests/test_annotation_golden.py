"""Bit-identity of the annotation trackers.

The digests pin the float64 bytes of the f0, F1 and F2 tracks
(`annotate_waveform`) for a fixed set of inputs, independently of how a
cache record stores them; one more test pins the exact cache line for one
input. The digests were computed on a tree whose cache lines still
matched those of the per-frame loop trackers, so they pin the loops'
output (numpy 2.4, OpenBLAS 0.3, x86-64). A tracker change that alters
any of them changes cached annotations, so it must also bump the
`pyin:`/`burg:` key (`PITCH_KEY`, `FORMANT_KEY`) that invalidates them. Another FFT, BLAS or LAPACK
build may differ in the last bit. To print the digests of the current
tree:

    PYTHONPATH=src python -m tests.test_annotation_golden

The loop trackers themselves are kept below as references for the
batched Viterbi, Burg and root-finding code.
"""

import hashlib
import json

import numpy as np
import pytest

from spoofnet.annotate import annotate_waveform, annotation_to_record
from spoofnet.dsp import (FIXED_NUM_SAMPLES, FRAME_LEN, SAMPLE_RATE, FixedWaveform,
                          frame_signal, preprocess)
from spoofnet.formants import (FORMANT_KEY, LPC_ORDER, PREEMPHASIS, WINDOW_STD_FRACTION,
                               burg, gaussian_window, lpc_resonances, preemphasize)
from spoofnet.pitch import (CENTS_PER_BIN, FMAX_HZ, FMIN_HZ, JUMP_COST_PER_BIN, N_BINS,
                            PITCH_KEY, SWITCH_PROB, viterbi_track)
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


GOLDEN_SHA256 = {
    "synth_00": "e806f190296e3a209cd4b937a7a889d8dc02ae1036f170d1ea0de6280c2f098a",
    "synth_01": "eb1dd2c0f2546700734da3c491d839bb160750a68cc12a928be269401f1578a0",
    "synth_02": "e009079bf732055371509e77e44690017876f6bea8acc4d98d766c55e4a34fdf",
    "synth_03": "9e0293a78bd683c41fd92694000c41c2c03df1200323f314508d0b39b89231f6",
    "synth_04": "a78b6204a6e1cca7b13d322a332e908b7069588888131f96d0e6a1746450e1f8",
    "synth_05": "e8b5e7dd3561b6d576fa92b03b25c3e7ce087319b7908ea2b6478759f4b556a8",
    "synth_06": "08ded8d074b09d581ab567a7c69009292e4e2d48146b13cc7d3482335bcd8ced",
    "synth_07": "425d334c3ff2e171837b24f7f71c926a907676a1c79a748824726ad84255241f",
    "synth_08": "b66363c20b740fda627a786d4de84c1424f1cd34cb0f19774343bee8f874983e",
    "synth_09": "4efdea7370a85b19d7acc5dd27c86742f1480d97818eb57f42c0a3aa0283d251",
    "synth_10": "38570ba2244e0778e641799f2e3b973934bc9cce3decc13dcccd4e932717959b",
    "synth_11": "ff2ed6a81ba5037656f5db3498c89a204eb39cfbd9e7feff58802ebbe6da5b57",
    "synth_12": "90bdf6a9aa6e5e5f05481fcb721e6a97d94379f973858d48ea7c4cc81c238b0c",
    "synth_13": "95a7e5dd7e6092c8553e5a538930e56473c8f1b1131318abcfb9a46385582edd",
    "synth_14": "59158bc61c196844e9e3cdd22fd7bf796ba8e3916fe38565800c2471e3b18837",
    "synth_15": "ef09f142f75c0a288486c049c61aab52da50d06df6a2673fe689009b4a167e29",
    "synth_16": "b5c86840be3ef3bffc1748518a0c7e54be89191b6e0ecff58ce18587c9460ba3",
    "synth_17": "b7edb38c2f375f741766161ca3945a88d9e358e78b64baa19ec110b095e0d953",
    "synth_18": "f66f5f569b83b66fad501859820791af96dba2fd3779e6b18496a08686da38c9",
    "synth_19": "3ea84b1b91aae1442d9ea427e524992a753274620658cf6043218f9bc3559f42",
    "synth_20": "ae3d4a1ee7b0a4185540eef94e65a1eebf9bcce3efa423509c22407390c90e51",
    "synth_21": "7bb9e74fc9eaa01108ecde3b6043116b784abfe7dfde2f72ea6d851a52288629",
    "synth_22": "a44e69541b50c7493b0bac5a1cbc62a9f919aa1359843d634599e86c4242496a",
    "synth_23": "2773feccaaf74490a94fb0222e8d7512c13aacc7834875a421b7d1d2ff00750d",
    "sine_220": "f2c9fbe251a7a211d4db5800543ba5585b78fd17ef0aa7095c9a5e572230a159",
    "sawtooth_100": "71cbd8ca748827b2e636777fc691e945c22f60242647366d615b9d8bf246be3d",
    "silence": "6f5a451528c9a32c8c5f66a54649e2a6651399481d991c63ee342880522e671a",
    "vowel": "505a60588bf35481718f2e3dd7a30c5a8000e269a9af0094c0abc379bfa6c2ca",
    "vowel_gap": "46f6e853e56857a10c723bc12de6e7cb54e5caab80d83b485ebd5f7b249bf3f3",
    "noise": "6f5a451528c9a32c8c5f66a54649e2a6651399481d991c63ee342880522e671a",
}


# sha256 of json.dumps(annotation_to_record("vowel", ...)), the cache line
# of the "vowel" input without its key
VOWEL_LINE_SHA256 = "7e42ad45f91260ca98ac60fea862d936e4cefee7c6f271656a5435c9c001febe"


def track_digest(x: FixedWaveform) -> str:
    """sha256 over the little-endian float64 bytes of f0, F1 and F2."""
    ann = annotate_waveform(x)
    h = hashlib.sha256()
    for track in (ann.f0_hz, ann.f1_hz, ann.f2_hz):
        h.update(np.asarray(track, dtype="<f8").tobytes())
    return h.hexdigest()


def test_tracker_keys_unchanged():
    # any change to these strings invalidates every cached annotation
    assert PITCH_KEY == "pyin:60.0:400.0:512:256:0.35:100:10.0:0.1:0.01"
    assert FORMANT_KEY == "burg:10:0.97:512:256:50.0:5500.0:400.0:0.16666666666666666"


def test_tracks_bit_identical():
    got = {name: track_digest(x) for name, x in golden_inputs().items()}
    assert got == GOLDEN_SHA256


def test_cache_line_format():
    ann = annotate_waveform(golden_inputs()["vowel"])
    line = json.dumps(annotation_to_record("vowel", ann))
    assert hashlib.sha256(line.encode("utf-8")).hexdigest() == VOWEL_LINE_SHA256
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


if __name__ == "__main__":
    print("GOLDEN_SHA256 = {")
    for name, x in golden_inputs().items():
        print(f'    "{name}": "{track_digest(x)}",')
    print("}")
