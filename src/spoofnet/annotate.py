"""Frame-level ground truth: f0, F1/F2 and the voicing mask.

One FrameAnnotation per utterance, aligned 1:1 with the 128 STFT frames.
Voicing is defined by pitch presence, so the voicing supervision can
never contradict the f0 supervision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import NUM_FRAMES, FixedWaveform
from .errors import AlignmentError, DataError
from .formants import FormantConfig, track_formants
from .pitch import PitchConfig, track_pitch

@dataclass
class FrameAnnotation:
    """Per-frame supervision targets for one utterance.

    f0_hz holds NaN on unvoiced frames; voiced[t] is true exactly when
    f0_hz[t] is present.
    """

    f0_hz: np.ndarray
    f1_hz: np.ndarray
    f2_hz: np.ndarray
    voiced: np.ndarray

    def __post_init__(self):
        n = self.f0_hz.shape[0]
        if not (self.f1_hz.shape[0] == self.f2_hz.shape[0] == self.voiced.shape[0] == n):
            raise AlignmentError("annotation tracks disagree on frame count")
        mask = np.isfinite(self.f0_hz)
        if not np.array_equal(mask, self.voiced.astype(bool)):
            raise AlignmentError("voicing mask inconsistent with f0 presence")

    @property
    def n_frames(self) -> int:
        return self.f0_hz.shape[0]


def derive_voicing(f0_track: np.ndarray) -> np.ndarray:
    """Voiced mask straight from pitch presence (NaN = unvoiced)."""
    return np.isfinite(f0_track)


def annotate_waveform(
    x: FixedWaveform,
    pitch_cfg: PitchConfig = PitchConfig(),
    formant_cfg: FormantConfig = FormantConfig(),
) -> FrameAnnotation:
    """Run both trackers and assemble the aligned annotation."""
    f0 = track_pitch(x, pitch_cfg)
    f1, f2 = track_formants(x, formant_cfg)
    if not (f0.shape[0] == f1.shape[0] == NUM_FRAMES):
        raise AlignmentError(
            f"trackers produced {f0.shape[0]}/{f1.shape[0]} frames, expected {NUM_FRAMES}"
        )
    return FrameAnnotation(f0_hz=f0, f1_hz=f1, f2_hz=f2, voiced=derive_voicing(f0))


def annotation_to_record(utt_id: str, ann: FrameAnnotation) -> dict:
    """JSON-serializable cache record for one utterance."""
    frames = []
    for t in range(ann.n_frames):
        # repr round-trips floats exactly, keeping cache == fresh bit-for-bit
        frames.append({
            "t": t,
            "f0": None if not ann.voiced[t] else float(ann.f0_hz[t]),
            "f1": float(ann.f1_hz[t]),
            "f2": float(ann.f2_hz[t]),
            "voiced": bool(ann.voiced[t]),
        })
    return {"utt_id": utt_id, "frames": frames}


def annotation_from_record(record: dict) -> FrameAnnotation:
    """The annotation a cache record holds; a record that is not one
    annotation_to_record could have written raises DataError."""
    try:
        frames = record["frames"]
        n = len(frames)
        f0 = np.full(n, np.nan)
        f1 = np.empty(n)
        f2 = np.empty(n)
        voiced = np.zeros(n, dtype=bool)
        for t, row in enumerate(frames):
            # frames are written in order; any other index would leave a
            # frame of f1/f2 unset
            if row["t"] != t:
                raise DataError(f"annotation record has frame {row['t']!r} at position {t}")
            if row["f0"] is not None:
                f0[t] = row["f0"]
            f1[t] = row["f1"]
            f2[t] = row["f2"]
            voiced[t] = row["voiced"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed annotation record: {exc!r}") from exc
    return FrameAnnotation(f0_hz=f0, f1_hz=f1, f2_hz=f2, voiced=voiced)
