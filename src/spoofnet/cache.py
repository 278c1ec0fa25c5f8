"""Annotation cache and token store: preprocess + annotate, and
featurize, each utterance once.

Records live in one line-delimited JSON file per cache directory, keyed
by a hash of the audio bytes, the silence trim's threshold and the two
tracker keys (`pitch.PITCH_KEY`, `formants.FORMANT_KEY`); editing a
tracker key invalidates every record, a changed audio file only its
own. Annotation of missing entries can fan out over a process pool
(each utterance is independent); results are merged and written in one
atomic pass (a temp file of the writer's own + rename), so the cache
content never depends on worker count or completion order. Each record
is `{"utt_id", "f0", "f1", "f2", "key"}`, the tracks in the byte-exact
encoding of `annotate.annotation_to_record`. A line that does not parse
as a record, such as one torn by an interrupted copy, one whose tracks
do not decode, or one in the older per-frame format, reads as a cache
miss and is dropped or replaced by the next write; so does a record
whose three tracks are not each 128 frames long.

The token store, `tokens/` in the same directory, holds the model-dtype
(2, 128, 256) magnitude and phase token grids of each audio content that
`train` featurized, one `.npy` file each: 256 KiB (262,272 bytes) in
float32, 512 KiB (524,416 bytes) in float64. A file's name is a hash of
the audio bytes, the frontend key (`dsp.FRONTEND_KEY`) and the dtype's
name, so float32 and float64 grids never share a file and an edited WAV
or frontend key misses. A file that is torn or holds another shape or
dtype reads as a miss, which `train` rewrites, atomically as the records
are; a store that cannot be written only costs the saving. `eval
--cache` reads the store and never writes it, so evaluating a corpus
that no `train` featurized adds no file; `annotate`, `infer` and `eval`
without `--cache` never touch it. Deleting `tokens/` clears it.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .annotate import (FrameAnnotation, annotate_waveform, annotation_from_record,
                       annotation_to_record)
from .dsp import (FRONTEND_KEY, NUM_BINS, NUM_FRAMES, SILENCE_THRESHOLD_DB,
                  preprocess, read_wav)
from .errors import DataError
from .fileio import replace_atomically
from .formants import FORMANT_KEY
from .manifest import ManifestEntry
from .pitch import PITCH_KEY

CACHE_FILENAME = "annotations.jsonl"
TOKENS_DIRNAME = "tokens"
TOKEN_SHAPE = (2, NUM_FRAMES, NUM_BINS)


@dataclass
class AnnotateStats:
    computed: int = 0
    cached: int = 0
    skipped: list = field(default_factory=list)  # (utt_id, reason)


def _file_key(audio_path, suffix: str) -> str:
    h = hashlib.sha256()
    with open(audio_path, "rb") as fh:
        h.update(fh.read())
    h.update(suffix.encode("utf-8"))
    return h.hexdigest()


def content_key(audio_path) -> str:
    """Hash of the file bytes, the silence trim's threshold and the two
    tracker keys."""
    return _file_key(audio_path, f"|trim:{SILENCE_THRESHOLD_DB}|{PITCH_KEY}|{FORMANT_KEY}")


def token_path(cache_dir, audio_path, dtype) -> Path:
    """The store file of an audio file's token grids in dtype, named by a
    hash of the file bytes, the frontend key and the dtype's name."""
    key = _file_key(audio_path, f"|{FRONTEND_KEY}|{np.dtype(dtype).name}")
    return Path(cache_dir) / TOKENS_DIRNAME / f"{key}.npy"


def read_tokens(path, dtype) -> np.ndarray | None:
    """The (2, L, M) token grids stored at path, or None, a miss, when
    there is no such file or it is torn, not .npy version 1.0 (write_tokens'
    one), or of another shape, dtype or order. The header is checked first,
    so a header that declares another array, however large, allocates nothing."""
    fmt = np.lib.format
    try:
        with open(path, "rb") as fh:
            if fmt.read_magic(fh) != (1, 0):
                return None
            if fmt.read_array_header_1_0(fh) != (TOKEN_SHAPE, False, np.dtype(dtype)):
                return None
            fh.seek(0)
            return fmt.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None


def write_tokens(path: Path, grids: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with replace_atomically(path, "xb") as fh:
        np.lib.format.write_array(fh, grids, allow_pickle=False)


def _load_cache_file(path: Path) -> dict[str, dict]:
    """Records by utt_id; a torn or malformed line is skipped, so its
    utterance reads as a cache miss and the next write drops the line."""
    if not path.exists():
        return {}
    rows = {}
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict) and isinstance(row.get("utt_id"), str):
                rows[row["utt_id"]] = row
    return rows


def _write_cache_file(path: Path, rows: dict[str, dict]) -> None:
    with replace_atomically(path, "x", encoding="utf-8") as fh:
        for utt_id in sorted(rows):
            fh.write(json.dumps(rows[utt_id]) + "\n")


def _annotate_one(job) -> tuple[str, FrameAnnotation | None, str | None]:
    """Worker body: (utt_id, annotation, error) for one utterance."""
    utt_id, audio_path = job
    try:
        return utt_id, annotate_waveform(preprocess(read_wav(audio_path))), None
    except DataError as exc:
        return utt_id, None, str(exc)


def annotate_corpus(
    manifest: Iterable[ManifestEntry],
    cache_dir,
    workers: int = 1,
) -> tuple[dict[str, FrameAnnotation], AnnotateStats]:
    """Annotate every readable utterance of a manifest (or of any of its
    entries), reusing fresh cache records.

    Returns the annotations plus stats saying how much work was reused.
    Unreadable or silent audio is skipped (and recorded as such), never
    fatal: the caller decides whether a partial corpus is acceptable.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache_path = cache_dir / CACHE_FILENAME
    rows = _load_cache_file(cache_path)

    annotations: dict[str, FrameAnnotation] = {}
    stats = AnnotateStats()
    jobs = []
    keys = {}
    for entry in manifest:
        if entry.missing:
            stats.skipped.append((entry.utt_id, "missing audio file"))
            continue
        try:
            key = content_key(entry.audio_path)
        except OSError as exc:
            stats.skipped.append((entry.utt_id, f"unreadable: {exc}"))
            continue
        row = rows.get(entry.utt_id)
        if row is not None and row.get("key") == key:
            try:
                annotations[entry.utt_id] = annotation_from_record(row)
            except DataError:
                pass  # a malformed record is a miss, like a torn line
            else:
                stats.cached += 1
                continue
        keys[entry.utt_id] = key
        jobs.append((entry.utt_id, entry.audio_path))

    if jobs:
        if workers > 1:
            # imported here: every other command, infer included, skips
            # concurrent.futures.process's import time
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_annotate_one, jobs))
        else:
            results = [_annotate_one(j) for j in jobs]
        for utt_id, ann, error in results:
            if ann is None:
                stats.skipped.append((utt_id, error))
                continue
            record = annotation_to_record(utt_id, ann)
            record["key"] = keys[utt_id]
            rows[utt_id] = record
            annotations[utt_id] = ann
            stats.computed += 1
        if stats.computed:
            _write_cache_file(cache_path, rows)
    return annotations, stats
