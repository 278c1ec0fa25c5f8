import numpy as np
import pytest

from spoofnet.errors import InvalidWeights
from spoofnet.explain import (TOP_FRAMES, GroupReliance, RelianceReport, UtteranceReliance,
                              aggregate, format_report, top_frames,
                              utterance_reliance, write_report)
from spoofnet.metrics import ScoreRecord


def record(utt_id, score, label, weights, voicing, tag="synth", gt=None):
    return ScoreRecord(
        utt_id=utt_id, score=score, label=label, dataset_tag=tag,
        frame_weights=np.asarray(weights, dtype=np.float64),
        voicing_prob=np.asarray(voicing, dtype=np.float64),
        gt_voiced=gt,
    )


class TestUtteranceReliance:
    def test_all_weight_on_one_voiced_frame(self):
        w = np.zeros(8)
        w[3] = 1.0
        voiced = np.zeros(8, dtype=bool)
        voiced[3] = True
        assert utterance_reliance(w, voiced) == (1.0, 0.0)

    def test_uniform_weights_half_voiced(self):
        w = np.full(8, 1.0 / 8)
        voiced = np.array([True] * 4 + [False] * 4)
        vs, us = utterance_reliance(w, voiced)
        assert vs == pytest.approx(0.5) and us == pytest.approx(0.5)

    def test_mixed_weights(self):
        vs, us = utterance_reliance(np.array([0.7, 0.2, 0.1]),
                                    np.array([True, False, False]))
        assert vs == pytest.approx(0.7) and us == pytest.approx(0.3)

    def test_non_simplex_rejected(self):
        with pytest.raises(InvalidWeights):
            utterance_reliance(np.array([0.7, 0.7]), np.array([True, False]))
        with pytest.raises(InvalidWeights):
            utterance_reliance(np.array([1.5, -0.5]), np.array([True, False]))

    @pytest.mark.parametrize("weights", [
        [np.nan, 0.5, 0.5],
        [1.0, np.nan, 0.0],
        [np.nan, np.nan, np.nan],
    ])
    def test_non_finite_weights_rejected(self, weights):
        # NaN compares false, so the check must ask for the good case
        with pytest.raises(InvalidWeights):
            utterance_reliance(np.array(weights), np.array([True, False, True]))

    def test_shares_are_convex(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.dirichlet(np.ones(16))
            voiced = rng.uniform(size=16) > 0.5
            vs, us = utterance_reliance(w, voiced)
            assert 0.0 <= vs <= 1.0
            assert vs + us == pytest.approx(1.0, abs=1e-6)


class TestAggregate:
    def test_single_correct_fake(self):
        w = np.array([0.2, 0.8])
        voicing = np.array([0.9, 0.1])  # frame 0 voiced, frame 1 not
        rec = record("u1", 0.9, 1, w, voicing)
        report = aggregate([rec], eer_threshold=0.5)
        fake_group = next(g for g in report.groups if g.label == 1)
        assert fake_group.n_utterances == 1
        assert fake_group.voiced_share == pytest.approx(0.2)
        assert fake_group.unvoiced_share == pytest.approx(0.8)

    def test_misclassified_excluded_everywhere(self):
        w = np.array([0.5, 0.5])
        voicing = np.array([0.9, 0.9])
        wrong_fake = record("u1", 0.2, 1, w, voicing)   # fake scored real
        wrong_real = record("u2", 0.8, 0, w, voicing)   # real scored fake
        report = aggregate([wrong_fake, wrong_real], eer_threshold=0.5)
        assert all(g.n_utterances == 0 for g in report.groups)
        assert report.utterances == []

    def test_boundary_score_counts_as_fake(self):
        rec = record("u1", 0.5, 1, np.array([1.0]), np.array([0.9]))
        report = aggregate([rec], eer_threshold=0.5)
        assert next(g for g in report.groups if g.label == 1).n_utterances == 1

    def test_group_means(self):
        voicing = np.array([0.9, 0.1])
        r1 = record("u1", 0.1, 0, np.array([0.4, 0.6]), voicing)
        r2 = record("u2", 0.2, 0, np.array([0.6, 0.4]), voicing)
        report = aggregate([r1, r2], eer_threshold=0.5)
        real_group = next(g for g in report.groups if g.label == 0)
        assert real_group.n_utterances == 2
        assert real_group.voiced_share == pytest.approx(0.5)

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        recs = [record(f"u{i}", float(rng.uniform()), i % 2,
                       rng.dirichlet(np.ones(8)), rng.uniform(0, 1, 8))
                for i in range(12)]
        a = aggregate(recs, 0.5)
        b = aggregate(list(reversed(recs)), 0.5)
        for ga, gb in zip(a.groups, b.groups):
            assert ga.dataset_tag == gb.dataset_tag and ga.label == gb.label
            assert ga.n_utterances == gb.n_utterances
            if ga.n_utterances:
                assert ga.voiced_share == pytest.approx(gb.voiced_share)

    def test_ground_truth_attribution_flag(self):
        w = np.array([0.7, 0.3])
        model_voicing = np.array([0.9, 0.9])      # model: both voiced
        gt = np.array([True, False])              # truth: only frame 0
        rec = record("u1", 0.9, 1, w, model_voicing, gt=gt)
        by_model = aggregate([rec], 0.5)
        by_truth = aggregate([rec], 0.5, use_ground_truth=True)
        assert next(g for g in by_model.groups if g.label == 1).voiced_share == 1.0
        assert next(g for g in by_truth.groups if g.label == 1).voiced_share \
            == pytest.approx(0.7)


class TestTopFrames:
    def test_uniform_weights_tie_break_by_index(self):
        top = top_frames(np.full(8, 1.0 / 8), np.linspace(0, 1, 8) >= 0.5)
        assert [i for i, _, _ in top] == list(range(TOP_FRAMES))

    def test_dominant_frame_ranks_first(self):
        w = np.full(6, 0.1)
        w[4] = 0.5
        assert top_frames(w, np.zeros(6, dtype=bool))[0][0] == 4

    def test_the_heaviest_frames_in_descending_order(self):
        rng = np.random.default_rng(2)
        w = rng.dirichlet(np.ones(10))
        voiced = rng.uniform(0, 1, 10) >= 0.5
        top = top_frames(w, voiced)
        heaviest = np.flatnonzero(w >= np.sort(w)[-TOP_FRAMES])
        assert sorted(i for i, _, _ in top) == heaviest.tolist()
        assert all(wt == w[i] and v == voiced[i] for i, wt, v in top)
        weights = [wt for _, wt, _ in top]
        assert all(a >= b for a, b in zip(weights, weights[1:]))


class TestReportOutput:
    def test_write_and_format(self, tmp_path):
        rec = record("u1", 0.9, 1, np.array([0.2, 0.8]), np.array([0.9, 0.1]))
        report = aggregate([rec], 0.5)
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        write_report(report, json_path, csv_path)
        import csv as csv_mod
        import json as json_mod

        doc = json_mod.loads(json_path.read_text())
        assert doc["groups"][1]["class"] == "fake"
        assert doc["groups"][1]["voiced_share"] == pytest.approx(0.2)
        with open(csv_path) as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0] == ["dataset_tag", "class", "n_utterances",
                           "voiced_share", "unvoiced_share"]
        text = format_report(report)
        assert "fake" in text and "0.2000" in text

    def test_report_bytes(self, tmp_path):
        # key order with "class" after "label", a 2-space indent, a final
        # newline; CSV shares to six decimals, empty for an empty group
        report = RelianceReport(
            groups=[GroupReliance("synth", 0, 0, None, None),
                    GroupReliance("synth", 1, 2, 1 / 3, 2 / 3)],
            utterances=[UtteranceReliance("u1", "synth", 1, 0.9, 0.25, 0.75),
                        UtteranceReliance("u2", "synth", 1, 0.8, 5 / 12, 7 / 12)],
            threshold=0.5)
        json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
        write_report(report, json_path, csv_path)
        assert json_path.read_bytes().decode() == REPORT_JSON
        assert csv_path.read_bytes() == (
            b"dataset_tag,class,n_utterances,voiced_share,unvoiced_share\r\n"
            b"synth,real,0,,\r\n"
            b"synth,fake,2,0.333333,0.666667\r\n")


REPORT_JSON = """\
{
  "threshold": 0.5,
  "groups": [
    {
      "dataset_tag": "synth",
      "label": 0,
      "class": "real",
      "n_utterances": 0,
      "voiced_share": null,
      "unvoiced_share": null
    },
    {
      "dataset_tag": "synth",
      "label": 1,
      "class": "fake",
      "n_utterances": 2,
      "voiced_share": 0.3333333333333333,
      "unvoiced_share": 0.6666666666666666
    }
  ],
  "utterances": [
    {
      "utt_id": "u1",
      "dataset_tag": "synth",
      "label": 1,
      "score": 0.9,
      "voiced_share": 0.25,
      "unvoiced_share": 0.75
    },
    {
      "utt_id": "u2",
      "dataset_tag": "synth",
      "label": 1,
      "score": 0.8,
      "voiced_share": 0.4166666666666667,
      "unvoiced_share": 0.5833333333333334
    }
  ]
}
"""
