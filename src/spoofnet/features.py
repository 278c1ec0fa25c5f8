"""From audio files to model-ready samples."""

from __future__ import annotations

import numpy as np

from .annotate import FrameAnnotation
from .cache import read_tokens, token_path, write_tokens
from .dsp import NUM_BINS, NUM_FRAMES, preprocess, read_wav, stft_features
from .manifest import ManifestEntry
from .train import TrainSample


def utterance_tokens(audio_path) -> tuple[np.ndarray, np.ndarray]:
    """(mag_tokens, phase_tokens) for one audio file: the log-magnitude and
    sin-phase grids, whose row t is frame t's token."""
    grid = stft_features(preprocess(read_wav(audio_path)))
    return grid.log_mag, grid.sin_phase


def token_grids(audio_path, dtype, cache_dir=None, fill: bool = True) -> np.ndarray:
    """One audio file's (2, L, M) magnitude and phase token grids in dtype
    (the rounding cast of astype).

    With a cache directory, they come from its token store when it holds
    them; otherwise they are computed and, with ``fill``, stored there. A
    store that cannot be written (read-only, full) leaves the computed
    grids as they are, since the store only saves time. A file that cannot
    be read for its hash is computed as without a cache, which names it in
    the error `read_wav` raises. Without a cache directory the store is not
    touched.
    """
    path = None
    if cache_dir:
        try:
            path = token_path(cache_dir, audio_path, dtype)
        except OSError:
            pass
        else:
            grids = read_tokens(path, dtype)
            if grids is not None:
                return grids
    grids = np.empty((2, NUM_FRAMES, NUM_BINS), dtype=dtype)
    grids[0], grids[1] = utterance_tokens(audio_path)
    if fill and path is not None:
        try:
            write_tokens(path, grids)
        except OSError:
            pass
    return grids


def build_samples(
    entries: list[ManifestEntry],
    annotations: dict[str, FrameAnnotation],
    dtype,
    cache_dir=None,
) -> list[TrainSample]:
    """Assemble TrainSamples for every entry with a usable annotation,
    with tokens stored in the model's dtype (the cast a batch would make).

    The kept entries' tokens live in one (2, N, L, M) block, magnitude
    then phase, filled one utterance at a time by :func:`token_grids`
    (with ``cache_dir``, which it fills); each sample's mag and phase are
    views of its rows. Entries without annotations (skipped upstream) are
    silently omitted; the caller already has the skip report.
    """
    kept = [(e, annotations[e.utt_id]) for e in entries if e.utt_id in annotations]
    tokens = np.empty((2, len(kept), NUM_FRAMES, NUM_BINS), dtype=dtype)
    for i, (e, _) in enumerate(kept):
        tokens[:, i] = token_grids(e.audio_path, dtype, cache_dir)
    return [TrainSample(utt_id=e.utt_id, mag=tokens[0, i], phase=tokens[1, i],
                        annotation=ann, label=e.label_int)
            for i, (e, ann) in enumerate(kept)]
