"""EER / AUC computation and per-tag breakdowns over score records."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import ClassMissing, ParseError, read_utf8


@dataclass
class ScoreRecord:
    """One utterance's prediction and the context needed for reporting."""

    utt_id: str
    score: float              # P(fake) in [0, 1]
    label: int                # 0 real, 1 fake
    dataset_tag: str = "default"
    codec_tag: str | None = None
    frame_weights: np.ndarray | None = None
    voicing_prob: np.ndarray | None = None
    gt_voiced: np.ndarray | None = None


def _split_scores(records) -> tuple[np.ndarray, np.ndarray]:
    fake = np.array([r.score for r in records if r.label == 1], dtype=np.float64)
    real = np.array([r.score for r in records if r.label == 0], dtype=np.float64)
    if fake.size == 0 or real.size == 0:
        raise ClassMissing(
            f"need both classes, got {fake.size} fake / {real.size} real"
        )
    return fake, real


def compute_auc(records) -> float:
    """Probability that a random fake outscores a random real; ties get
    half credit. For each fake, the reals below it plus half those equal
    are counted on the sorted reals: the exact Mann-Whitney U, rounded
    once in the division by n_fake * n_real. A NaN score gives NaN."""
    fake, real = _split_scores(records)
    if np.isnan(fake).any() or np.isnan(real).any():
        return float("nan")
    real_sorted = np.sort(real)
    twice_u = (np.searchsorted(real_sorted, fake, side="left").sum()
               + np.searchsorted(real_sorted, fake, side="right").sum())
    return float(twice_u / 2.0 / (fake.size * real.size))


def _sweep_thresholds(scores: np.ndarray) -> np.ndarray:
    """Midpoints between distinct sorted scores, plus below-everything
    and above-everything sentinels."""
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate([[distinct[0] - 1.0], mids, [distinct[-1] + 1.0]])


def rates_at(thresholds: np.ndarray, fake: np.ndarray,
             real: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(false-acceptance, false-rejection) rates for score >= threshold
    meaning 'classified fake'. Rates are formed as integer-count / size
    so they equal naive counting bit-for-bit."""
    real_sorted = np.sort(real)
    fake_sorted = np.sort(fake)
    far = (real.size - np.searchsorted(real_sorted, thresholds, side="left")) / real.size
    frr = np.searchsorted(fake_sorted, thresholds, side="left") / fake.size
    return far, frr


def compute_eer(records) -> tuple[float, float]:
    """Equal error rate and its operating threshold.

    Sweeps every midpoint threshold; where FAR and FRR cross between two
    thresholds the rates (and the threshold) are linearly interpolated,
    since discrete score sets rarely cross exactly.
    """
    fake, real = _split_scores(records)
    thresholds = _sweep_thresholds(np.concatenate([fake, real]))
    far, frr = rates_at(thresholds, fake, real)
    diff = far - frr  # monotone non-increasing, starts at +1, ends at -1
    k = int(np.argmax(diff <= 0.0))
    if diff[k] == 0.0:
        return float((far[k] + frr[k]) / 2.0), float(thresholds[k])
    t = diff[k - 1] / (diff[k - 1] - diff[k])
    eer = far[k - 1] + t * (far[k] - far[k - 1])
    threshold = thresholds[k - 1] + t * (thresholds[k] - thresholds[k - 1])
    return float(eer), float(threshold)


@dataclass
class BreakdownRow:
    tag: str
    n: int
    eer: float | None
    auc: float | None


def breakdown(records, tag_key: str = "dataset") -> list[BreakdownRow]:
    """Per-tag (EER, AUC) table plus an overall row.

    tag_key is "dataset" or "codec". Groups missing one class are
    reported with undefined metrics rather than failing the whole table.
    """
    if tag_key not in ("dataset", "codec"):
        raise ValueError(f"tag_key must be 'dataset' or 'codec', got {tag_key!r}")
    groups: dict[str, list] = {}
    for r in records:
        tag = r.dataset_tag if tag_key == "dataset" else (r.codec_tag or "none")
        groups.setdefault(tag, []).append(r)
    rows = []
    for tag in sorted(groups):
        members = groups[tag]
        try:
            eer, _ = compute_eer(members)
            auc = compute_auc(members)
            rows.append(BreakdownRow(tag=tag, n=len(members), eer=eer, auc=auc))
        except ClassMissing:
            rows.append(BreakdownRow(tag=tag, n=len(members), eer=None, auc=None))
    eer, _ = compute_eer(records)
    rows.append(BreakdownRow(tag="overall", n=len(records),
                             eer=eer, auc=compute_auc(records)))
    return rows


def format_breakdown(rows: list[BreakdownRow]) -> str:
    """Tags as columns, EER/AUC as percentage rows with two decimals."""
    def fmt(value):
        return "  n/a" if value is None else f"{100.0 * value:5.2f}"

    width = max(7, *(len(r.tag) for r in rows))
    header = "        " + "  ".join(r.tag.rjust(width) for r in rows)
    eer_row = "EER (%) " + "  ".join(fmt(r.eer).rjust(width) for r in rows)
    auc_row = "AUC (%) " + "  ".join(fmt(r.auc).rjust(width) for r in rows)
    return "\n".join([header, eer_row, auc_row])


# -- score file round trip -------------------------------------------------

def write_scores(path, records: list[ScoreRecord]) -> None:
    """Line-delimited JSON, one record per utterance: its fields in order,
    each array as a list."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            # a shallow copy: asdict would deep-copy the arrays
            row = {f.name: getattr(r, f.name) for f in fields(r)}
            for key, value in row.items():
                if isinstance(value, np.ndarray):
                    row[key] = value.tolist()
            fh.write(json.dumps(row) + "\n")


_NUMBER = (int, float)  # JSON numbers; a bool is neither by exact type


def _checked(key: str, value, types: tuple):
    """value, when its exact type is one of types."""
    if type(value) not in types:
        raise TypeError(f"{key} must be {' or '.join(t.__name__ for t in types)}, "
                        f"got {type(value).__name__}")
    return value


def _array(row: dict, key: str, types: tuple, dtype) -> np.ndarray | None:
    """row[key], a flat list whose items' exact types are among types, as
    an array of dtype; None when the key is absent or null."""
    values = row.get(key)
    if values is None:
        return None
    _checked(key, values, (list,))
    item = f"each item of {key}"
    for v in values:
        _checked(item, v, types)
    return np.array(values, dtype=dtype)


def _record(row) -> ScoreRecord:
    """One score record from its parsed JSON line; raises KeyError,
    TypeError or ValueError for a record that is not one."""
    if not isinstance(row, dict):
        raise TypeError(f"expected a JSON object, got {type(row).__name__}")
    score = float(_checked("score", row["score"], _NUMBER))
    if not 0.0 <= score <= 1.0:  # NaN fails this too
        raise ValueError(f"score {score} is not in [0, 1]")
    label = int(row["label"])
    if label not in (0, 1) or label != row["label"] or isinstance(row["label"], bool):
        raise ValueError(f"label {row['label']!r} is not 0 or 1")
    fw = _array(row, "frame_weights", _NUMBER, np.float64)
    vp = _array(row, "voicing_prob", _NUMBER, np.float64)
    gt = _array(row, "gt_voiced", (bool,), bool)
    if fw is not None and not np.isfinite(fw).all():
        raise ValueError("frame_weights holds a value that is not finite")
    if vp is not None and not ((vp >= 0.0) & (vp <= 1.0)).all():  # NaN fails this too
        raise ValueError("voicing_prob holds a value that is not in [0, 1]")
    lengths = {key: a.size for key, a in (("frame_weights", fw), ("voicing_prob", vp),
                                          ("gt_voiced", gt)) if a is not None}
    if len(set(lengths.values())) > 1:
        raise ValueError("lists of different lengths: " + ", ".join(
            f"{key} {n}" for key, n in lengths.items()))
    return ScoreRecord(
        utt_id=_checked("utt_id", row["utt_id"], (str,)),
        score=score,
        label=label,
        dataset_tag=_checked("dataset_tag", row.get("dataset_tag", "default"), (str,)),
        codec_tag=_checked("codec_tag", row.get("codec_tag"), (str, type(None))),
        frame_weights=fw, voicing_prob=vp, gt_voiced=gt,
    )


def read_scores(path) -> list[ScoreRecord]:
    """Parse a score file; a line that is not a score record raises a
    ParseError naming it. A score must be a probability in [0, 1], a
    label 0 or 1, and an utt_id unique; the tags must be strings (the
    codec's may be null); the frame weights and voicing probabilities,
    where present, finite numbers (the latter in [0, 1]), and with the
    ground-truth voicing flags, lists of one length."""
    records = []
    first_line: dict[str, int] = {}
    for i, line in enumerate(read_utf8(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = _record(json.loads(line))
            if rec.utt_id in first_line:
                raise ValueError(f"utt_id {rec.utt_id!r} is repeated (first on line "
                                 f"{first_line[rec.utt_id]})")
        except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise ParseError(f"bad score record: {exc}", line=i) from exc
        first_line[rec.utt_id] = i
        records.append(rec)
    return records
