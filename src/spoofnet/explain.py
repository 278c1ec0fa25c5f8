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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidWeights
from .metrics import ScoreRecord
from .model import VOICING_THRESHOLD

WEIGHT_SUM_TOL = 1e-5


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
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL or np.any(w < 0):
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


def top_frames(frame_weights: np.ndarray, voicing_prob: np.ndarray,
               k: int) -> list[tuple[int, float, bool]]:
    """The k most-attended frames as (index, weight, voiced) triples,
    sorted by descending weight with ties broken by earlier index."""
    w = np.asarray(frame_weights)
    if k > w.size:
        raise InvalidWeights(f"k={k} exceeds {w.size} frames")
    order = np.argsort(-w, kind="stable")[:k]
    voiced = np.asarray(voicing_prob) >= VOICING_THRESHOLD
    return [(int(i), float(w[i]), bool(voiced[i])) for i in order]


def aggregate(
    records: list[ScoreRecord],
    eer_threshold: float,
    use_ground_truth: bool = False,
) -> RelianceReport:
    """Reliance shares over correctly classified utterances.

    Classification at the threshold assigns score >= threshold to fake.
    Groups are (dataset_tag, class); empty groups appear with n=0 and
    undefined shares so report consumers see the full grid.
    """
    per_utt: list[UtteranceReliance] = []
    tags = sorted({r.dataset_tag for r in records})
    for r in records:
        predicted_fake = r.score >= eer_threshold
        if predicted_fake != (r.label == 1):
            continue  # misclassified: excluded from the analysis
        if use_ground_truth:
            if r.gt_voiced is None:
                continue
            voicing = r.gt_voiced
        else:
            voicing = r.voicing_prob >= VOICING_THRESHOLD
        voiced_share, unvoiced_share = utterance_reliance(r.frame_weights, voicing)
        per_utt.append(UtteranceReliance(
            utt_id=r.utt_id, dataset_tag=r.dataset_tag, label=r.label,
            score=r.score, voiced_share=voiced_share,
            unvoiced_share=unvoiced_share,
        ))

    groups = []
    for tag in tags:
        for label in (0, 1):
            members = [u for u in per_utt
                       if u.dataset_tag == tag and u.label == label]
            if members:
                vs = float(np.mean([u.voiced_share for u in members]))
                groups.append(GroupReliance(tag, label, len(members), vs, 1.0 - vs))
            else:
                groups.append(GroupReliance(tag, label, 0, None, None))
    return RelianceReport(groups=groups, utterances=per_utt,
                          threshold=eer_threshold)


def write_report(report: RelianceReport, json_path, csv_path) -> None:
    """Structured JSON document plus a flat per-group CSV for plotting."""
    doc = {
        "threshold": report.threshold,
        "groups": [{
            "dataset_tag": g.dataset_tag,
            "label": g.label,
            "class": "fake" if g.label == 1 else "real",
            "n_utterances": g.n_utterances,
            "voiced_share": g.voiced_share,
            "unvoiced_share": g.unvoiced_share,
        } for g in report.groups],
        "utterances": [{
            "utt_id": u.utt_id,
            "dataset_tag": u.dataset_tag,
            "label": u.label,
            "score": u.score,
            "voiced_share": u.voiced_share,
            "unvoiced_share": u.unvoiced_share,
        } for u in report.utterances],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset_tag", "class", "n_utterances",
                         "voiced_share", "unvoiced_share"])
        for g in report.groups:
            writer.writerow([
                g.dataset_tag, "fake" if g.label == 1 else "real",
                g.n_utterances,
                "" if g.voiced_share is None else f"{g.voiced_share:.6f}",
                "" if g.unvoiced_share is None else f"{g.unvoiced_share:.6f}",
            ])


def format_report(report: RelianceReport) -> str:
    lines = [f"reliance at threshold {report.threshold:.4f} "
             "(correctly classified utterances only)"]
    lines.append(f"{'dataset':<16} {'class':<6} {'n':>4} "
                 f"{'voiced':>8} {'unvoiced':>9}")
    for g in report.groups:
        cls = "fake" if g.label == 1 else "real"
        if g.n_utterances == 0:
            lines.append(f"{g.dataset_tag:<16} {cls:<6} {0:>4} {'n/a':>8} {'n/a':>9}")
        else:
            lines.append(
                f"{g.dataset_tag:<16} {cls:<6} {g.n_utterances:>4} "
                f"{g.voiced_share:>8.4f} {g.unvoiced_share:>9.4f}"
            )
    return "\n".join(lines)
