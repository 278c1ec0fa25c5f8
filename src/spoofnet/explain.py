"""Attention-weighted voiced/unvoiced reliance analysis.

For each correctly classified utterance, the pooling weights are summed
over frames the voicing decoder calls voiced; the per-(dataset, class)
means say whether decisions leaned on voiced or unvoiced speech.
Voicing comes from the model's own decoder by default, so the
explanation is self-contained at inference time; ground-truth voicing
can be requested where annotations exist.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidWeights
from .manifest import VALID_LABELS
from .metrics import ScoreRecord
from .model import VOICING_THRESHOLD

WEIGHT_SUM_TOL = 1e-5
# how many of an utterance's most-attended frames infer lists
TOP_FRAMES = 5
# the per-group CSV's columns: keys of the JSON report's group rows
CSV_COLUMNS = ("dataset_tag", "class", "n_utterances", "voiced_share", "unvoiced_share")


def utterance_reliance(
    frame_weights: np.ndarray, voicing: np.ndarray
) -> tuple[float, float]:
    """(voiced_share, unvoiced_share) of one utterance's attention mass."""
    w = np.asarray(frame_weights, dtype=np.float64)
    v = np.asarray(voicing, dtype=bool)
    if w.shape != v.shape:
        raise InvalidWeights(
            f"weights and voicing differ in length: {w.shape} vs {v.shape}"
        )
    if not (abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL and np.all(w >= 0)):  # NaN fails too
        raise InvalidWeights(
            f"frame weights must be a probability simplex, sum={w.sum():.8f}"
        )
    voiced_share = float(w[v].sum())
    return voiced_share, 1.0 - voiced_share


@dataclass
class GroupReliance:
    dataset_tag: str
    label: int
    n_utterances: int
    voiced_share: float | None
    unvoiced_share: float | None


@dataclass
class UtteranceReliance:
    utt_id: str
    dataset_tag: str
    label: int
    score: float
    voiced_share: float
    unvoiced_share: float


@dataclass
class RelianceReport:
    groups: list[GroupReliance]
    utterances: list[UtteranceReliance]
    threshold: float


def top_frames(frame_weights: np.ndarray,
               v_mask: np.ndarray) -> list[tuple[int, float, bool]]:
    """The TOP_FRAMES most-attended frames as (index, weight, voiced)
    triples, sorted by descending weight with ties broken by earlier index;
    v_mask marks the voiced frames."""
    w = np.asarray(frame_weights)
    order = np.argsort(-w, kind="stable")[:TOP_FRAMES]
    return [(int(i), float(w[i]), bool(v_mask[i])) for i in order]


def aggregate(
    records: list[ScoreRecord],
    eer_threshold: float,
    use_ground_truth: bool = False,
) -> RelianceReport:
    """Reliance shares over correctly classified utterances.

    Classification at the threshold assigns score >= threshold to fake.
    Groups are (dataset_tag, class); empty groups appear with n=0 and
    undefined shares so report consumers see the full grid. With
    use_ground_truth, voicing is each record's gt_voiced, which every
    record must hold.
    """
    per_utt: list[UtteranceReliance] = []
    tags = sorted({r.dataset_tag for r in records})
    for r in records:
        predicted_fake = r.score >= eer_threshold
        if predicted_fake != (r.label == 1):
            continue  # misclassified: excluded from the analysis
        voicing = r.gt_voiced if use_ground_truth else r.voicing_prob >= VOICING_THRESHOLD
        voiced_share, unvoiced_share = utterance_reliance(r.frame_weights, voicing)
        per_utt.append(UtteranceReliance(
            utt_id=r.utt_id, dataset_tag=r.dataset_tag, label=r.label,
            score=r.score, voiced_share=voiced_share,
            unvoiced_share=unvoiced_share,
        ))

    groups = []
    for tag in tags:
        for label in (0, 1):
            shares = [u.voiced_share for u in per_utt
                      if u.dataset_tag == tag and u.label == label]
            vs = float(np.mean(shares)) if shares else None
            groups.append(GroupReliance(tag, label, len(shares), vs,
                                        None if vs is None else 1.0 - vs))
    return RelianceReport(groups=groups, utterances=per_utt,
                          threshold=eer_threshold)


def write_report(report: RelianceReport, json_path, csv_path) -> None:
    """Structured JSON document plus a flat per-group CSV for plotting."""
    group_rows = [{
        "dataset_tag": g.dataset_tag,
        "label": g.label,
        "class": VALID_LABELS[g.label],
        "n_utterances": g.n_utterances,
        "voiced_share": g.voiced_share,
        "unvoiced_share": g.unvoiced_share,
    } for g in report.groups]
    doc = {
        "threshold": report.threshold,
        "groups": group_rows,
        "utterances": [asdict(u) for u in report.utterances],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in group_rows:
            # csv writes None, no share, as an empty cell
            cells = [row[column] for column in CSV_COLUMNS]
            writer.writerow([f"{c:.6f}" if isinstance(c, float) else c for c in cells])


def format_report(report: RelianceReport) -> str:
    lines = [f"reliance at threshold {report.threshold:.4f} "
             "(correctly classified utterances only)"]
    lines.append(f"{'dataset':<16} {'class':<6} {'n':>4} "
                 f"{'voiced':>8} {'unvoiced':>9}")
    for g in report.groups:
        voiced = unvoiced = "n/a"
        if g.voiced_share is not None:
            voiced, unvoiced = f"{g.voiced_share:.4f}", f"{g.unvoiced_share:.4f}"
        lines.append(f"{g.dataset_tag:<16} {VALID_LABELS[g.label]:<6} "
                     f"{g.n_utterances:>4} {voiced:>8} {unvoiced:>9}")
    return "\n".join(lines)
