"""Dataset manifests: CSV loading, validation and the 90/10 split."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DuplicateId, InsufficientData, ParseError, read_utf8

VALID_LABELS = ("real", "fake")  # indexed by the integer label
VALID_SPLITS = ("train", "val", "test", "")
COLUMNS = ("utt_id", "audio_path", "label", "dataset_tag", "codec_tag", "split")


@dataclass
class ManifestEntry:
    utt_id: str
    audio_path: Path
    label: str                 # "real" | "fake"
    dataset_tag: str = "default"
    codec_tag: str | None = None
    split: str = ""            # "train" | "val" | "test" | ""
    missing: bool = False      # path did not resolve at load time

    @property
    def label_int(self) -> int:
        return 1 if self.label == "fake" else 0


@dataclass
class Manifest:
    entries: list[ManifestEntry]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def load_manifest(path) -> Manifest:
    """Parse and validate a manifest CSV.

    Relative audio paths are resolved against the manifest's directory.
    Unresolvable paths are flagged on the entry, not fatal, so manifests
    can be inspected away from their audio. An error names the physical
    line on which its record ends; a quoted field may hold line breaks.
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    reader = csv.reader(read_utf8(path, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from exc
    if not rows:
        raise ParseError("empty manifest", line=1)
    header_line, header = rows[0]
    if tuple(h.strip() for h in header) != COLUMNS:
        raise ParseError(
            f"header must be {','.join(COLUMNS)}, got {','.join(header)}",
            line=header_line,
        )
    for line_no, row in rows[1:]:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(COLUMNS):
            raise ParseError(
                f"expected {len(COLUMNS)} columns, got {len(row)}", line=line_no
            )
        utt_id, audio_path, label, dataset_tag, codec_tag, split = (
            c.strip() for c in row
        )
        if not utt_id:
            raise ParseError("empty utt_id", line=line_no)
        if label not in VALID_LABELS:
            raise ParseError(
                f"label must be one of {VALID_LABELS}, got {label!r}", line=line_no
            )
        if split not in VALID_SPLITS:
            raise ParseError(
                f"split must be one of {VALID_SPLITS[:3]} or empty, got {split!r}",
                line=line_no,
            )
        if utt_id in seen:
            raise DuplicateId(f"duplicate utt_id {utt_id!r} at line {line_no}")
        seen.add(utt_id)
        resolved = Path(audio_path)
        if not resolved.is_absolute():
            resolved = base / resolved
        try:
            missing = not resolved.exists()
        except OSError:  # a name the file system cannot hold, e.g. too long
            missing = True
        entries.append(ManifestEntry(
            utt_id=utt_id,
            audio_path=resolved,
            label=label,
            dataset_tag=dataset_tag or "default",
            codec_tag=codec_tag or None,
            split=split,
            missing=missing,
        ))
    return Manifest(entries=entries)


def save_manifest(path, manifest: Manifest) -> None:
    """Write a manifest CSV; audio paths under the manifest's directory
    are stored relative to it, keeping the corpus relocatable."""
    base = Path(path).resolve().parent
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for e in manifest.entries:
            audio = Path(e.audio_path).resolve()
            try:
                audio = audio.relative_to(base)
            except ValueError:
                pass  # outside the manifest directory: keep it absolute
            writer.writerow([e.utt_id, str(audio), e.label,
                             e.dataset_tag, e.codec_tag or "", e.split])


def split_90_10(entries: list[ManifestEntry],
                seed: int = 0) -> tuple[list[ManifestEntry], list[ManifestEntry]]:
    """Stratified 90/10 train/val split of manifest entries,
    deterministic in the seed.

    Each label class contributes round(10%) of its members to the
    validation side; the two lists partition the input exactly.
    """
    if len(entries) < 10:
        raise InsufficientData(f"need at least 10 entries to split, got {len(entries)}")
    rng = np.random.default_rng(seed)
    train: list[ManifestEntry] = []
    val: list[ManifestEntry] = []
    for label in VALID_LABELS:
        members = [e for e in entries if e.label == label]
        if not members:
            continue
        order = rng.permutation(len(members))
        n_val = int(round(0.1 * len(members)))
        val_idx = set(order[:n_val].tolist())
        for i, e in enumerate(members):
            (val if i in val_idx else train).append(e)
    return train, val
