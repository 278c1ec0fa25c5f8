"""Frame-level ground truth: f0, F1/F2 and the voicing mask.

One FrameAnnotation per utterance, aligned 1:1 with the 128 STFT frames.
Voicing is defined by pitch presence, so the voicing supervision can
never contradict the f0 supervision.

A cache record holds the three tracks as the hex of their little-endian
float64 bytes, one string each; the voicing mask is not stored, because
decoding derives it from f0 again. Storing the bytes makes a cached
annotation equal to a fresh one bit for bit, NaN payloads included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import NUM_FRAMES, FixedWaveform
from .errors import AlignmentError, DataError
from .formants import track_formants
from .pitch import track_pitch

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


def annotate_waveform(x: FixedWaveform) -> FrameAnnotation:
    """Run both trackers and assemble the aligned annotation."""
    f0 = track_pitch(x)
    f1, f2 = track_formants(x)
    return FrameAnnotation(f0_hz=f0, f1_hz=f1, f2_hz=f2, voiced=derive_voicing(f0))


def annotation_to_record(utt_id: str, ann: FrameAnnotation) -> dict:
    """JSON-serializable cache record for one utterance: each track as the
    hex of its little-endian float64 bytes, so the round trip is exact."""
    record = {"utt_id": utt_id}
    for name, track in (("f0", ann.f0_hz), ("f1", ann.f1_hz), ("f2", ann.f2_hz)):
        record[name] = np.asarray(track, dtype="<f8").tobytes().hex()
    return record


def annotation_from_record(record: dict) -> FrameAnnotation:
    """The annotation a cache record holds; a record that does not decode
    to one, such as one with a missing track or one not NUM_FRAMES long,
    non-hex text, an infinite f0 or a non-finite formant, raises DataError."""
    try:
        # fromhex refuses a non-string or non-hex track, frombuffer a byte
        # count that is not whole float64s; astype makes a writeable copy
        f0, f1, f2 = (np.frombuffer(bytes.fromhex(record[name]), dtype="<f8").astype(np.float64)
                      for name in ("f0", "f1", "f2"))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed annotation record: {exc!r}") from exc
    if not f0.size == f1.size == f2.size == NUM_FRAMES:
        raise DataError(f"annotation record tracks hold {f0.size}/{f1.size}/{f2.size} "
                        f"frames, expected {NUM_FRAMES}")
    # NaN in f0 marks an unvoiced frame; the trackers never emit inf, and
    # formant dropouts take the fallbacks, so F1/F2 are always finite
    if np.isinf(f0).any():
        raise DataError("annotation record has an infinite f0")
    if not (np.isfinite(f1).all() and np.isfinite(f2).all()):
        raise DataError("annotation record has a non-finite formant")
    return FrameAnnotation(f0_hz=f0, f1_hz=f1, f2_hz=f2, voiced=derive_voicing(f0))
