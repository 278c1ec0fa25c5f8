"""From audio files to model-ready samples."""

from __future__ import annotations

import numpy as np

from .annotate import FrameAnnotation
from .dsp import NUM_BINS, NUM_FRAMES, preprocess, read_wav, stft_features
from .manifest import ManifestEntry
from .train import TrainSample


def utterance_tokens(audio_path) -> tuple[np.ndarray, np.ndarray]:
    """(mag_tokens, phase_tokens) for one audio file: the log-magnitude and
    sin-phase grids, whose row t is frame t's token."""
    grid = stft_features(preprocess(read_wav(audio_path)))
    return grid.log_mag, grid.sin_phase


def build_samples(
    entries: list[ManifestEntry],
    annotations: dict[str, FrameAnnotation],
    dtype,
) -> list[TrainSample]:
    """Assemble TrainSamples for every entry with a usable annotation,
    with tokens stored in the model's dtype (the cast a batch would make).

    The kept entries' tokens live in one (2, N, L, M) block, magnitude
    then phase, written one utterance at a time (the same rounding cast as
    astype); each sample's mag and phase are views of its rows.
    Entries without annotations (skipped upstream) are silently omitted;
    the caller already has the skip report.
    """
    kept = [(e, annotations[e.utt_id]) for e in entries if e.utt_id in annotations]
    tokens = np.empty((2, len(kept), NUM_FRAMES, NUM_BINS), dtype=dtype)
    for i, (e, _) in enumerate(kept):
        tokens[0, i], tokens[1, i] = utterance_tokens(e.audio_path)
    return [TrainSample(utt_id=e.utt_id, mag=tokens[0, i], phase=tokens[1, i],
                        annotation=ann, label=e.label_int)
            for i, (e, ann) in enumerate(kept)]
