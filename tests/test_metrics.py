import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofnet.errors import ClassMissing, ParseError
from spoofnet.metrics import (ScoreRecord, breakdown, compute_auc,
                              compute_eer, format_breakdown, read_scores, write_scores)


def records(fake_scores, real_scores, tag="default", codec=None):
    out = [ScoreRecord(f"f{i}", float(s), 1, dataset_tag=tag, codec_tag=codec)
           for i, s in enumerate(fake_scores)]
    out += [ScoreRecord(f"r{i}", float(s), 0, dataset_tag=tag, codec_tag=codec)
            for i, s in enumerate(real_scores)]
    return out


# -- independent oracles -----------------------------------------------------

def auc_by_pair_enumeration(fake, real) -> float:
    wins = 0.0
    for f in fake:
        for r in real:
            if f > r:
                wins += 1.0
            elif f == r:
                wins += 0.5
    return wins / (len(fake) * len(real))


def eer_by_naive_sweep(fake, real) -> tuple[float, float]:
    """Brute-force threshold sweep with plain Python counting."""
    distinct = sorted(set(list(fake) + list(real)))
    thresholds = ([distinct[0] - 1.0]
                  + [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
                  + [distinct[-1] + 1.0])
    rates = []
    for th in thresholds:
        far = sum(1 for r in real if r >= th) / len(real)
        frr = sum(1 for f in fake if f < th) / len(fake)
        rates.append((far, frr, th))
    for i, (far, frr, th) in enumerate(rates):
        d = far - frr
        if d == 0.0:
            return (far + frr) / 2.0, th
        if d < 0.0:
            far0, frr0, th0 = rates[i - 1]
            d0 = far0 - frr0
            t = d0 / (d0 - d)
            return far0 + t * (far - far0), th0 + t * (th - th0)
    raise AssertionError("no crossing found")


class TestAuc:
    def test_perfect_separation(self):
        assert compute_auc(records([0.9, 0.8], [0.1, 0.2])) == 1.0

    def test_half_right_pairs(self):
        # pairs: (.8 > .3) yes, (.8 > .7) yes, (.2 > .3) no, (.2 > .7) no
        assert compute_auc(records([0.8, 0.2], [0.3, 0.7])) == 0.5

    def test_all_ties_give_half(self):
        assert compute_auc(records([0.5, 0.5], [0.5, 0.5])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ClassMissing):
            compute_auc([ScoreRecord("a", 0.5, 1)])

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_pair_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        nf, nr = rng.integers(1, 40, size=2)
        fake = np.round(rng.uniform(0, 1, nf), 2)  # rounding forces ties
        real = np.round(rng.uniform(0, 1, nr), 2)
        got = compute_auc(records(fake, real))
        want = auc_by_pair_enumeration(fake.tolist(), real.tolist())
        assert got == want  # the exact pair count, rounded once in the division

    @pytest.mark.parametrize("fake, real", [([np.nan], [0.5]), ([0.5, np.nan], [0.2]),
                                            ([0.8], [np.nan, np.nan, 1.0])])
    def test_nan_score_gives_nan(self, fake, real):
        assert np.isnan(compute_auc(records(fake, real)))


class TestEer:
    def test_perfect_separation(self):
        eer, th = compute_eer(records([0.9, 0.8], [0.1, 0.2]))
        assert eer == 0.0
        assert 0.2 < th < 0.8

    def test_mixed_case(self):
        eer, _ = compute_eer(records([0.8, 0.2], [0.3, 0.7]))
        assert eer == pytest.approx(0.5)

    def test_inverted_labels_follow_the_sweep_oracle(self):
        # anti-perfect scores: the naive sweep finds FAR = FRR = 1 at the
        # midpoint; the production sweep must agree exactly
        fake, real = [0.1, 0.2], [0.8, 0.9]
        want, _ = eer_by_naive_sweep(fake, real)
        got, _ = compute_eer(records(fake, real))
        assert got == want == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ClassMissing):
            compute_eer([ScoreRecord("a", 0.5, 0)])

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_sweep(self, seed):
        rng = np.random.default_rng(seed)
        nf, nr = rng.integers(1, 40, size=2)
        fake = np.round(rng.uniform(0, 1, nf), 2).tolist()
        real = np.round(rng.uniform(0, 1, nr), 2).tolist()
        got_eer, got_th = compute_eer(records(fake, real))
        want_eer, want_th = eer_by_naive_sweep(fake, real)
        assert abs(got_eer - want_eer) < 1e-12
        assert abs(got_th - want_th) < 1e-12

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        fake = rng.uniform(0.2, 1.0, 15)
        real = rng.uniform(0.0, 0.8, 15)
        base, _ = compute_eer(records(fake, real))
        squeezed, _ = compute_eer(records(fake ** 3, real ** 3))
        assert base == pytest.approx(squeezed, abs=1e-12)

    def test_bounded_for_separated_scores(self):
        # The raw-sweep crossing can exceed 0.5 on pure-chance data (the
        # ROC may dip below the diagonal locally even when AUC >= 0.5);
        # for genuinely informative scores the bound holds.
        rng = np.random.default_rng(123)
        for _ in range(50):
            fake = np.clip(rng.normal(0.65, 0.12, 20), 0, 1)
            real = np.clip(rng.normal(0.35, 0.12, 20), 0, 1)
            eer, _ = compute_eer(records(fake, real))
            assert 0.0 <= eer <= 0.5 + 1e-12


class TestBreakdown:
    def test_single_group_equals_overall(self):
        recs = records([0.9, 0.6], [0.2, 0.4], tag="only")
        rows = breakdown(recs, "dataset")
        assert [r.tag for r in rows] == ["only", "overall"]
        assert rows[0].eer == rows[1].eer
        assert rows[0].auc == rows[1].auc

    def test_two_groups_perfect_and_random(self):
        rng = np.random.default_rng(0)
        perfect = records([0.8, 0.9, 0.95], [0.1, 0.15, 0.2], tag="clean")
        noise = records(rng.uniform(0, 1, 200), rng.uniform(0, 1, 200), tag="noisy")
        rows = {r.tag: r for r in breakdown(perfect + noise, "dataset")}
        assert rows["clean"].eer == 0.0
        assert rows["clean"].auc == 1.0
        assert rows["noisy"].eer == pytest.approx(0.5, abs=0.12)
        assert rows["noisy"].auc == pytest.approx(0.5, abs=0.12)

    def test_codec_grouping_and_degenerate_groups(self):
        recs = records([0.9], [0.1], codec="mp3")
        recs += [ScoreRecord("x", 0.5, 1, codec_tag="opus")]  # fake-only group
        rows = {r.tag: r for r in breakdown(recs, "codec")}
        assert rows["mp3"].eer is not None
        assert rows["opus"].eer is None
        assert rows["opus"].n == 1

    def test_format_uses_two_decimal_percentages(self):
        recs = records([0.9, 0.8], [0.1, 0.2], tag="clean")
        text = format_breakdown(breakdown(recs, "dataset"))
        assert "EER (%)" in text and "AUC (%)" in text
        assert " 0.00" in text and "100.00" in text

    def test_stable_tag_ordering(self):
        recs = (records([0.9], [0.1], tag="zeta") +
                records([0.9], [0.1], tag="alpha"))
        rows = breakdown(recs, "dataset")
        assert [r.tag for r in rows] == ["alpha", "zeta", "overall"]


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        recs = [ScoreRecord("u1", 0.73, 1, dataset_tag="synth", codec_tag="mp3",
                            frame_weights=rng.dirichlet(np.ones(16)),
                            voicing_prob=rng.uniform(0, 1, 16),
                            gt_voiced=rng.uniform(0, 1, 16) > 0.5),
                ScoreRecord("u2", 0.11, 0)]
        path = tmp_path / "scores.jsonl"
        write_scores(path, recs)
        back = read_scores(path)
        assert back[0].utt_id == "u1" and back[0].codec_tag == "mp3"
        np.testing.assert_array_equal(back[0].frame_weights, recs[0].frame_weights)
        np.testing.assert_array_equal(back[0].gt_voiced, recs[0].gt_voiced)
        assert back[1].frame_weights is None

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"utt_id": "a", "score": 0.5, "label": 1}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            read_scores(path)

    @pytest.mark.parametrize("line, reason", [
        (b"[1, 2]", "JSON object, got list"),
        (b"5", "JSON object, got int"),
        (b'"u1"', "JSON object, got str"),
        (b'{"utt_id": "b", "score": [1], "label": 0}', "list"),
        (b'{"utt_id": "b", "score": 0.5, "label": null}', "NoneType"),
        (b'{"utt_id": "b", "score": 0.5, "label": 1e999}', "infinity"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "frame_weights": {"a": 1}}', "dict"),
        (b"[" * 100_000, "recursion"),
        (b'{"utt_id": "\xff", "score": 0.5, "label": 0}', "UTF-8"),
    ])
    def test_non_record_line_is_a_parse_error_naming_it(self, tmp_path, line, reason):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"utt_id": "a", "score": 0.5, "label": 1}\n' + line + b"\n")
        with pytest.raises(ParseError, match=f"line 2.*{reason}"):
            read_scores(path)

    @pytest.mark.parametrize("line, reason", [
        (b'{"utt_id": "b", "score": NaN, "label": 0}', "score nan is not in"),
        (b'{"utt_id": "b", "score": Infinity, "label": 0}', "score inf is not in"),
        (b'{"utt_id": "b", "score": -0.25, "label": 0}', r"score -0.25 is not in \[0, 1\]"),
        (b'{"utt_id": "b", "score": 1.5, "label": 1}', "score 1.5 is not in"),
        (b'{"utt_id": "b", "score": 0.5, "label": 7}', "label 7 is not 0 or 1"),
        (b'{"utt_id": "b", "score": 0.5, "label": -1}', "label -1 is not 0 or 1"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0.5}', "label 0.5 is not 0 or 1"),
        (b'{"utt_id": "b", "score": 0.5, "label": "1"}', "label '1' is not 0 or 1"),
        (b'{"utt_id": "b", "score": 0.5, "label": true}', "label True is not 0 or 1"),
        (b'{"utt_id": "b", "score": true, "label": 0}', "score must be int or float, got bool"),
        (b'{"utt_id": "b", "score": "0.5", "label": 0}', "score must be int or float, got str"),
        (b'{"utt_id": 5, "score": 0.5, "label": 0}', "utt_id must be str, got int"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "dataset_tag": 5}',
         "dataset_tag must be str, got int"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "dataset_tag": null}',
         "dataset_tag must be str, got NoneType"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "codec_tag": 5}',
         "codec_tag must be str or NoneType, got int"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "frame_weights": [NaN, 0.5, 0.5]}',
         "frame_weights holds a value that is not finite"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "frame_weights": [Infinity]}',
         "frame_weights holds a value that is not finite"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "frame_weights": [[1.0]]}',
         "each item of frame_weights must be int or float, got list"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "frame_weights": [true]}',
         "each item of frame_weights must be int or float, got bool"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "voicing_prob": [7.0]}',
         r"voicing_prob holds a value that is not in \[0, 1\]"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "voicing_prob": [NaN]}',
         r"voicing_prob holds a value that is not in \[0, 1\]"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "voicing_prob": 0.5}',
         "voicing_prob must be list, got float"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "gt_voiced": [1, 0]}',
         "each item of gt_voiced must be bool, got int"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "frame_weights": [0.5, 0.5], '
         b'"voicing_prob": [0.5]}', "lists of different lengths: frame_weights 2, "
         "voicing_prob 1"),
        (b'{"utt_id": "b", "score": 0.5, "label": 0, "voicing_prob": [0.5, 0.5], '
         b'"gt_voiced": [true]}', "lists of different lengths: voicing_prob 2, gt_voiced 1"),
        (b'{"utt_id": "a", "score": 0.5, "label": 0}',
         r"utt_id 'a' is repeated \(first on line 1\)"),
    ])
    def test_invalid_score_or_label_is_a_parse_error_naming_it(self, tmp_path, line, reason):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"utt_id": "a", "score": 0.5, "label": 1}\n' + line + b"\n")
        with pytest.raises(ParseError, match=f"line 2.*{reason}"):
            read_scores(path)

    def test_bounds_and_both_labels_load(self, tmp_path):
        path = tmp_path / "edge.jsonl"
        path.write_text('{"utt_id": "a", "score": 0.0, "label": 0}\n'
                        '{"utt_id": "b", "score": 1, "label": 1.0}\n')
        back = read_scores(path)
        assert [(r.score, r.label) for r in back] == [(0.0, 0), (1.0, 1)]
        assert all(type(r.label) is int for r in back)
