"""Annotation cache: preprocess + annotate each utterance once.

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
miss and is dropped or replaced by the next write.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .annotate import (FrameAnnotation, annotate_waveform, annotation_from_record,
                       annotation_to_record)
from .dsp import SILENCE_THRESHOLD_DB, preprocess, read_wav
from .errors import DataError
from .fileio import replace_atomically
from .formants import FORMANT_KEY
from .manifest import ManifestEntry
from .pitch import PITCH_KEY

CACHE_FILENAME = "annotations.jsonl"


@dataclass
class AnnotateStats:
    computed: int = 0
    cached: int = 0
    skipped: list = field(default_factory=list)  # (utt_id, reason)


def content_key(audio_path) -> str:
    """Hash of the file bytes, the silence trim's threshold and the two
    tracker keys."""
    h = hashlib.sha256()
    with open(audio_path, "rb") as fh:
        h.update(fh.read())
    h.update(f"|trim:{SILENCE_THRESHOLD_DB}|{PITCH_KEY}|{FORMANT_KEY}".encode("utf-8"))
    return h.hexdigest()


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
