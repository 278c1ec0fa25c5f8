"""From audio files to model-ready samples."""

from __future__ import annotations

import numpy as np

from .annotate import FrameAnnotation
from .dsp import preprocess, read_wav, stft_features, tokenize
from .manifest import ManifestEntry
from .train import TrainSample


def utterance_tokens(audio_path) -> tuple[np.ndarray, np.ndarray]:
    """(mag_tokens, phase_tokens) for one audio file."""
    wave = read_wav(audio_path)
    fixed = preprocess(wave)
    return tokenize(stft_features(fixed))


def build_samples(
    entries: list[ManifestEntry],
    annotations: dict[str, FrameAnnotation],
    dtype,
) -> list[TrainSample]:
    """Assemble TrainSamples for every entry with a usable annotation,
    with tokens stored in the model's dtype (the cast a batch would make).

    Entries without annotations (skipped upstream) are silently omitted;
    the caller already has the skip report.
    """
    samples = []
    for e in entries:
        ann = annotations.get(e.utt_id)
        if ann is None:
            continue
        mag, phase = utterance_tokens(e.audio_path)
        samples.append(TrainSample(
            utt_id=e.utt_id, mag=mag.astype(dtype, copy=False),
            phase=phase.astype(dtype, copy=False), annotation=ann, label=e.label_int,
        ))
    return samples
