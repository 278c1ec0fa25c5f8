"""Deterministic synthetic corpora for desk-scale testing.

"Real" items are source-filter voices: a harmonic source with a slowly
modulated f0, shaped by two vocal-tract-like resonators, with a noisy
burst in the middle (so voiced and unvoiced frames both occur) and
silence at the edges (so trimming has work to do). "Fake" items run the
same recipe and then apply deterministic spectral perturbations: ring
modulation (RINGMOD_HZ, RINGMOD_DEPTH) plus an inharmonic tone (TONE_HZ,
TONE_LEVEL), the kind of stationary artifact a detector can genuinely
learn.

An utterance is made in three stages: _draw makes every rng draw
(layout, sources, resonator coefficients, gain, in that order), _filter
runs the resonators and _render normalises and assembles the sections,
applies the gain and, for a fake, the fake recipe.

The resonators are second-order all-pole filters that synth runs itself,
bit-equal to scipy.signal.lfilter, so synthesis needs numpy alone.
generate_synthetic_corpus filters a group of utterances as two blocks,
their voiced segments (F1, then F2) and their bursts, each a zero-padded
time-major array with a column per section, through one numpy loop over
time per resonator (_run_lanes). A block too small for that loop to pay,
such as either block of one synth_utterance, runs a Python-float loop
per resonator (_resonate). A synth-corpus process took 1.08 s and 51 MB
peak RSS on 40 utterances of 2.2 s, against 1.17 s and 41 MB with the
per-resonator loop alone, and 4.63 s and 58 MB against 6.86 s and 42 MB
on 200 (medians of 10 and 4 alternated runs, shared 2-vCPU VM). Most of
the rest is the harmonic source's np.sin, which no faster sine could
replace without changing the bytes.
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
# The lane loop runs when a block keeps more than MIN_LANES lanes busy per
# step on average; below that, its fixed cost per step loses to
# _resonate's cost per sample. Lane loop against _resonate on n utterances
# of 2.2 s (medians of 11, 2-vCPU VM): voiced block n = 8 (14 busy lanes)
# 67 vs 68 ms, n = 12 (20) 68 vs 108, n = 40 (64) 97 vs 366; burst block
# n = 16 (13) 9 vs 9, n = 24 (19) 11 vs 13, n = 40 (31) 10 vs 23.
MIN_LANES = 16
# The most samples of audio in one group of generate_synthetic_corpus. A
# voiced segment holds at most 0.6 of the voiced samples and a burst 0.3 s,
# so its two padded blocks take < 1.2 x 8 bytes a sample, 20 MB at most.
GROUP_SAMPLES = 1 << 21


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


def _resonator_coeffs(freq_hz: float, bandwidth_hz: float):
    """a1, a2 of the all-pole resonator 1 / (1 + a1 z^-1 + a2 z^-2) at
    SAMPLE_RATE, as Python floats: _resonate's loop runs about twice as
    fast on them as on numpy scalars."""
    r = np.exp(-np.pi * bandwidth_hz / SAMPLE_RATE)
    theta = 2.0 * np.pi * freq_hz / SAMPLE_RATE
    return float(-2.0 * r * np.cos(theta)), float(r * r)


N_EDGE = int(EDGE_S * SAMPLE_RATE)
BURST_RESONATOR = _resonator_coeffs(4500.0, 2000.0)


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


def _run_lanes(steps: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> None:
    """_resonate's recurrence over a block of lanes at once, in place:
    row t of steps holds time step t of every lane, and lane j has its own
    a1[j], a2[j]. Each lane does _resonate's float ops in _resonate's
    order, elementwise, so it ends bit-equal to _resonate of it."""
    # out= as a positional argument: a step is five ufunc calls on a few
    # dozen values, so their call overhead is most of its cost
    add, multiply, subtract, negative = np.add, np.multiply, np.subtract, np.negative
    z0, z1, a1y = np.zeros(a1.size), np.zeros(a1.size), np.empty(a1.size)
    for y in steps:
        add(y, z0, y)              # y = x + z0
        multiply(a1, y, a1y)
        subtract(z1, a1y, z0)      # z0 = z1 - a1 * y
        multiply(a2, y, z1)
        negative(z1, z1)           # z1 = -(a2 * y)


def _resonate_lanes(lengths, chains, inputs):
    """Yield, in lane order, lane j (the j-th array of inputs, lengths[j]
    samples) through the resonators chains[j] in turn, as many for every
    lane: bit-equal to chaining _resonate. inputs is iterated once, in
    lane order, so a generator keeps one input alive at a time.

    A block whose lanes keep no more than MIN_LANES of them busy per
    step, on average, runs _resonate lane by lane; a larger one runs
    _run_lanes once per resonator of the chain over all its lanes."""
    if sum(lengths) <= MIN_LANES * max(lengths, default=0):
        for x, chain in zip(inputs, chains):
            for a in chain:
                x = _resonate(x, *a)
            yield x
        return
    # zero-padded to the longest lane: the filter is causal, so no lane reads its padding
    steps = np.zeros((max(lengths), len(lengths)))
    for j, x in enumerate(inputs):
        steps[:lengths[j], j] = x
    # (resonator, a1 or a2, lane)
    for a1, a2 in np.array(chains).transpose(1, 2, 0).copy():
        _run_lanes(steps, a1, a2)
    yield from (steps[:n, j] for j, n in enumerate(lengths))


@dataclass(frozen=True)
class _Voiced:
    """The draws of one voiced segment: n samples of a harmonic source
    with a vibrato, one starting phase per harmonic, then the F1 and the
    F2 resonator."""
    n: int
    f0_base: float
    vib_rate: float
    vib_depth: float
    phases: tuple
    formants: tuple

    def source(self) -> np.ndarray:
        t = np.arange(self.n) / SAMPLE_RATE
        f0 = self.f0_base * (1.0 + self.vib_depth * np.sin(2.0 * np.pi * self.vib_rate * t))
        phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
        src = np.zeros(self.n)
        for k, phase0 in enumerate(self.phases, start=1):
            src += np.sin(k * phase + phase0) / k
        return src


def _draw_voiced(rng: np.random.Generator, n: int) -> _Voiced:
    f0_base = rng.uniform(110.0, 240.0)
    vib_rate = rng.uniform(3.0, 6.0)
    vib_depth = rng.uniform(0.01, 0.03)
    phases = []
    while (len(phases) + 1) * f0_base * 1.05 < 6000.0:
        phases.append(rng.uniform(0, 2 * np.pi))
    f1 = rng.uniform(350.0, 750.0)
    f2 = rng.uniform(1100.0, 2200.0)
    return _Voiced(n, f0_base, vib_rate, vib_depth, tuple(phases),
                   (_resonator_coeffs(f1, 80.0), _resonator_coeffs(f2, 120.0)))


@dataclass(frozen=True)
class _Draw:
    """Every rng draw of one utterance: the layout, a voiced segment, the
    burst's noise (high-passed, fricative-like), a voiced segment, the
    gain."""
    fake: bool
    voiced_a: _Voiced
    noise: np.ndarray
    voiced_b: _Voiced
    gain: float


def _draw(rng: np.random.Generator, spec: SyntheticCorpusSpec, fake: bool) -> _Draw:
    n_burst = int(rng.uniform(*BURST_S) * SAMPLE_RATE)
    n_voiced_total = int(spec.duration_s * SAMPLE_RATE) - 2 * N_EDGE - n_burst
    n_a = int(n_voiced_total * rng.uniform(*VOICED_SPLIT))
    voiced_a = _draw_voiced(rng, n_a)
    noise = rng.standard_normal(n_burst)
    voiced_b = _draw_voiced(rng, n_voiced_total - n_a)
    return _Draw(fake, voiced_a, noise, voiced_b, rng.uniform(0.3, 0.9))


def _filter(draws: list[_Draw]):
    """An iterator over each utterance's three sections, through their
    resonators: the voiced segments of all of draws as one block of lanes
    (F1, then F2), their bursts as another."""
    voiced = [v for d in draws for v in (d.voiced_a, d.voiced_b)]
    voiced_out = _resonate_lanes([v.n for v in voiced], [v.formants for v in voiced],
                                 (v.source() for v in voiced))
    bursts = _resonate_lanes([d.noise.size for d in draws], [(BURST_RESONATOR,)] * len(draws),
                             (d.noise for d in draws))
    return zip(voiced_out, bursts, voiced_out)  # voiced_a, burst, voiced_b


def _render(d: _Draw, voiced_a: np.ndarray, burst: np.ndarray,
            voiced_b: np.ndarray) -> np.ndarray:
    """Normalise and assemble the filtered sections, apply the gain and,
    for a fake, the fake recipe."""
    x = np.concatenate([
        np.zeros(N_EDGE),
        voiced_a / np.max(np.abs(voiced_a)),
        0.35 * burst / np.max(np.abs(burst)),
        voiced_b / np.max(np.abs(voiced_b)),
        np.zeros(N_EDGE),
    ])
    x = x * d.gain

    if d.fake:
        t = np.arange(x.size) / SAMPLE_RATE
        x = x * (1.0 + RINGMOD_DEPTH * np.sin(2.0 * np.pi * RINGMOD_HZ * t))
        x = x + TONE_LEVEL * np.max(np.abs(x)) * np.sin(2.0 * np.pi * TONE_HZ * t)
    peak = np.max(np.abs(x))
    return x / peak * 0.9


def synth_utterance(rng: np.random.Generator, spec: SyntheticCorpusSpec,
                    fake: bool) -> np.ndarray:
    """One deterministic utterance; all randomness comes from rng."""
    d = _draw(rng, spec, fake)
    return _render(d, *next(_filter([d])))


def _write_group(rng: np.random.Generator, spec: SyntheticCorpusSpec, jobs,
                 audio_dir: Path) -> list[ManifestEntry]:
    """Draw, filter, render and write one group of utterances."""
    draws = [_draw(rng, spec, fake=(label == "fake")) for label, _ in jobs]
    entries = []
    for (label, i), d, sections in zip(jobs, draws, _filter(draws)):
        utt_id = f"synth_{label}_{i:03d}"
        wav_path = audio_dir / f"{utt_id}.wav"
        write_wav(wav_path, _render(d, *sections))
        entries.append(ManifestEntry(
            utt_id=utt_id, audio_path=wav_path, label=label,
            dataset_tag=spec.dataset_tag, split="",
        ))
    return entries


def generate_synthetic_corpus(spec: SyntheticCorpusSpec, out_dir) -> Manifest:
    """Write WAVs plus a manifest; byte-identical for the same spec, and
    to synth_utterance called in job order on default_rng(spec.seed).
    The utterances go through in groups of at most GROUP_SAMPLES samples
    of audio, so memory stays flat for any corpus."""
    out_dir = Path(out_dir).resolve()
    audio_dir = out_dir / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    jobs = [("real", i) for i in range(spec.n_real)] + \
           [("fake", i) for i in range(spec.n_fake)]
    group = max(1, GROUP_SAMPLES // int(spec.duration_s * SAMPLE_RATE))
    entries = []
    for start in range(0, len(jobs), group):
        entries += _write_group(rng, spec, jobs[start:start + group], audio_dir)
    manifest = Manifest(entries=entries)
    save_manifest(out_dir / "manifest.csv", manifest)
    return manifest
