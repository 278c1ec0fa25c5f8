"""Deterministic synthetic corpora for desk-scale testing.

"Real" items are source-filter voices: a harmonic source with a slowly
modulated f0, shaped by two vocal-tract-like resonators, with a noisy
burst in the middle (so voiced and unvoiced frames both occur) and
silence at the edges (so trimming has work to do). "Fake" items run the
same recipe and then apply deterministic spectral perturbations: ring
modulation (RINGMOD_HZ, RINGMOD_DEPTH) plus an inharmonic tone (TONE_HZ,
TONE_LEVEL), the kind of stationary artifact a detector can genuinely
learn.

The resonators are second-order all-pole filters run by a Python-float
loop, so synthesis needs numpy alone. The loop costs a few milliseconds
per resonator per second of audio where a compiled filter costs a
fraction of one; against the about 1 s that importing a compiled filter
library adds to every `synth-corpus` process, it comes out ahead for
corpora of up to about a hundred 2 s utterances, and behind for larger
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import FRAME_LEN, SAMPLE_RATE, write_wav
from .errors import check_least
from .manifest import Manifest, ManifestEntry, save_manifest

EDGE_S = 0.08              # silence at each end, for the trim to remove
BURST_S = (0.15, 0.3)      # range of the noise burst's length
VOICED_SPLIT = (0.4, 0.6)  # range of the first voiced segment's share
# the fake recipe: ring modulation, then a tone at a share of the peak
RINGMOD_HZ = 43.0
RINGMOD_DEPTH = 0.4
TONE_HZ = 3937.0
TONE_LEVEL = 0.2
# the shortest duration whose two voiced segments each still fill one
# analysis frame next to the edges and the longest burst
MIN_DURATION_S = 2 * EDGE_S + BURST_S[1] + FRAME_LEN / SAMPLE_RATE / VOICED_SPLIT[0]


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    n_real: int = 20
    n_fake: int = 20
    seed: int = 0
    duration_s: float = 2.5
    dataset_tag: str = "synthetic"

    def __post_init__(self):
        check_least(self, {"n_real": 0, "n_fake": 0, "seed": 0,
                           "duration_s": MIN_DURATION_S})


def _resonator_coeffs(freq_hz: float, bandwidth_hz: float, sr: int):
    """a1, a2 of the all-pole resonator 1 / (1 + a1 z^-1 + a2 z^-2), as
    Python floats: _resonate's loop runs about twice as fast on them as
    on numpy scalars."""
    r = np.exp(-np.pi * bandwidth_hz / sr)
    theta = 2.0 * np.pi * freq_hz / sr
    return float(-2.0 * r * np.cos(theta)), float(r * r)


def _resonate(x: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """x through 1 / (1 + a1 z^-1 + a2 z^-2): the direct-form-II-transposed
    recurrence of scipy.signal.lfilter([1], [1, a1, a2], x), whose output
    it equals bit for bit."""
    out = []
    append = out.append
    z0 = z1 = 0.0
    for xi in x.tolist():
        y = xi + z0
        z0 = z1 - a1 * y
        z1 = -(a2 * y)
        append(y)
    return np.array(out)


def _voiced_segment(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    """Harmonic source through two formant resonators."""
    t = np.arange(n) / sr
    f0_base = rng.uniform(110.0, 240.0)
    vib_rate = rng.uniform(3.0, 6.0)
    vib_depth = rng.uniform(0.01, 0.03)
    f0 = f0_base * (1.0 + vib_depth * np.sin(2.0 * np.pi * vib_rate * t))
    phase = 2.0 * np.pi * np.cumsum(f0) / sr
    src = np.zeros(n)
    k = 1
    while k * f0_base * 1.05 < 6000.0:
        src += np.sin(k * phase + rng.uniform(0, 2 * np.pi)) / k
        k += 1
    f1 = rng.uniform(350.0, 750.0)
    f2 = rng.uniform(1100.0, 2200.0)
    voiced = _resonate(_resonate(src, *_resonator_coeffs(f1, 80.0, sr)),
                       *_resonator_coeffs(f2, 120.0, sr))
    return voiced / np.max(np.abs(voiced))


def _noise_burst(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    """High-passed noise, fricative-like: energetic but aperiodic."""
    noise = rng.standard_normal(n)
    shaped = _resonate(noise, *_resonator_coeffs(4500.0, 2000.0, sr))
    return 0.35 * shaped / np.max(np.abs(shaped))


def synth_utterance(rng: np.random.Generator, spec: SyntheticCorpusSpec,
                    fake: bool) -> np.ndarray:
    """One deterministic utterance; all randomness comes from rng."""
    sr = SAMPLE_RATE
    n_total = int(spec.duration_s * sr)
    n_edge = int(EDGE_S * sr)
    n_burst = int(rng.uniform(*BURST_S) * sr)
    n_voiced_total = n_total - 2 * n_edge - n_burst
    n_a = int(n_voiced_total * rng.uniform(*VOICED_SPLIT))
    n_b = n_voiced_total - n_a

    x = np.concatenate([
        np.zeros(n_edge),
        _voiced_segment(rng, n_a, sr),
        _noise_burst(rng, n_burst, sr),
        _voiced_segment(rng, n_b, sr),
        np.zeros(n_edge),
    ])
    x = x * rng.uniform(0.3, 0.9)

    if fake:
        t = np.arange(x.size) / sr
        x = x * (1.0 + RINGMOD_DEPTH * np.sin(2.0 * np.pi * RINGMOD_HZ * t))
        x = x + TONE_LEVEL * np.max(np.abs(x)) * np.sin(2.0 * np.pi * TONE_HZ * t)
    peak = np.max(np.abs(x))
    return x / peak * 0.9


def generate_synthetic_corpus(spec: SyntheticCorpusSpec, out_dir) -> Manifest:
    """Write WAVs plus a manifest; byte-identical for the same spec."""
    out_dir = Path(out_dir).resolve()
    audio_dir = out_dir / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    entries = []
    jobs = [("real", i) for i in range(spec.n_real)] + \
           [("fake", i) for i in range(spec.n_fake)]
    for label, i in jobs:
        x = synth_utterance(rng, spec, fake=(label == "fake"))
        utt_id = f"synth_{label}_{i:03d}"
        wav_path = audio_dir / f"{utt_id}.wav"
        write_wav(wav_path, x)
        entries.append(ManifestEntry(
            utt_id=utt_id, audio_path=wav_path, label=label,
            dataset_tag=spec.dataset_tag, split="",
        ))
    manifest = Manifest(entries=entries)
    save_manifest(out_dir / "manifest.csv", manifest)
    return manifest
