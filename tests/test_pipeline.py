import codecs
import hashlib
import json

import numpy as np
import pytest

from spoofnet.cache import annotate_corpus, content_key
from spoofnet.config import (load_corpus_spec, load_run_config, parse_kv,
                             write_config)
from spoofnet.dsp import SAMPLE_RATE, write_wav
from spoofnet.errors import DuplicateId, InsufficientData, ParseError
from spoofnet.metrics import ScoreRecord, read_scores, write_scores
from spoofnet.formants import FORMANT_KEY
from spoofnet.manifest import (Manifest, ManifestEntry, load_manifest,
                               save_manifest, split_90_10)
from spoofnet.model import ModelConfig
from spoofnet.pitch import PITCH_KEY
from spoofnet import synth
from spoofnet.synth import (MIN_DURATION_S, SyntheticCorpusSpec, _resonate,
                            _resonate_lanes, _resonator_coeffs,
                            generate_synthetic_corpus, synth_utterance)
from spoofnet.train import TrainConfig
from tests.pins import PINS, corpus_digest

HEADER = "utt_id,audio_path,label,dataset_tag,codec_tag,split\n"

# a corpus whose resonators run as one block of lanes; the "corpus" pin
# of tests/pins.json is its corpus_digest
PINNED_CORPUS = SyntheticCorpusSpec(n_real=12, n_fake=12, seed=5, duration_s=MIN_DURATION_S)


def record_lane_loops(monkeypatch) -> list:
    """A list that gets one item per synth._run_lanes call."""
    calls, run_lanes = [], synth._run_lanes
    monkeypatch.setattr(synth, "_run_lanes", lambda *args: calls.append(args) or run_lanes(*args))
    return calls


@pytest.fixture(params=["lane_loop", "per_lane"])
def lane_rule(request, monkeypatch):
    """Force every block of resonators to one side of synth's lane-loop
    rule; returns the side and the record of _run_lanes calls."""
    monkeypatch.setattr(synth, "MIN_LANES", 0 if request.param == "lane_loop" else 10**9)
    return request.param, record_lane_loops(monkeypatch)


def write_manifest(path, rows):
    path.write_text(HEADER + "".join(rows))
    return path


class TestLoadManifest:
    def test_valid_three_rows(self, tmp_path):
        p = write_manifest(tmp_path / "m.csv", [
            "u1,a.wav,real,ds,,train\n",
            "u2,b.wav,fake,ds,mp3,val\n",
            "u3,c.wav,fake,ds,,\n",
        ])
        m = load_manifest(p)
        assert len(m) == 3
        assert m.entries[1].codec_tag == "mp3"
        assert m.entries[0].label_int == 0 and m.entries[1].label_int == 1
        assert all(e.missing for e in m)  # no audio written

    def test_unknown_label_rejected_with_line(self, tmp_path):
        p = write_manifest(tmp_path / "m.csv", [
            "u1,a.wav,real,ds,,\n",
            "u2,b.wav,bonafide,ds,,\n",
        ])
        with pytest.raises(ParseError, match="line 3"):
            load_manifest(p)

    def test_error_after_a_quoted_line_break_names_its_physical_line(self, tmp_path):
        # u1's quoted path holds a line break, so u2 is on line 4, not record 3
        p = write_manifest(tmp_path / "m.csv", [
            'u1,"a\nb.wav",real,ds,,\n',
            "u2,c.wav,bonafide,ds,,\n",
        ])
        with pytest.raises(ParseError, match="^line 4: label"):
            load_manifest(p)

    def test_duplicate_id_named(self, tmp_path):
        p = write_manifest(tmp_path / "m.csv", [
            "dup,a.wav,real,ds,,\n",
            "dup,b.wav,fake,ds,,\n",
        ])
        with pytest.raises(DuplicateId, match="dup"):
            load_manifest(p)

    def test_non_utf8_rejected_with_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(HEADER.encode() + b"u1,a.wav,real,ds,,\nu2,b\xe9.wav,fake,ds,,\n")
        with pytest.raises(ParseError, match="line 3.*UTF-8"):
            load_manifest(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,path\nu1,a.wav\n")
        with pytest.raises(ParseError, match="line 1"):
            load_manifest(p)

    def test_relative_paths_resolved_and_checked(self, tmp_path):
        write_wav(tmp_path / "a.wav", np.zeros(100))
        p = write_manifest(tmp_path / "m.csv", [
            "u1,a.wav,real,ds,,\n",
            "u2,gone.wav,fake,ds,,\n",
        ])
        m = load_manifest(p)
        assert not m.entries[0].missing
        assert m.entries[1].missing
        assert [e.utt_id for e in m if e.missing] == ["u2"]

    def test_oversized_field_rejected_with_line(self, tmp_path):
        # past the csv module's 128 KiB field limit
        p = write_manifest(tmp_path / "m.csv", [f"u1,{'a' * 200_000}.wav,real,ds,,\n"])
        with pytest.raises(ParseError, match="line 2.*field limit"):
            load_manifest(p)

    def test_unresolvable_path_flagged_missing(self, tmp_path):
        p = write_manifest(tmp_path / "m.csv", [f"u1,{'a' * 300}.wav,real,ds,,\n"])
        assert load_manifest(p).entries[0].missing

    def test_round_trip(self, tmp_path):
        entries = [ManifestEntry("u1", tmp_path / "a.wav", "real", "ds", None, "train")]
        save_manifest(tmp_path / "out.csv", Manifest(entries))
        back = load_manifest(tmp_path / "out.csv")
        assert back.entries[0].utt_id == "u1"
        assert back.entries[0].split == "train"


class TestSplit:
    def make(self, n_real, n_fake):
        entries = [ManifestEntry(f"r{i}", f"r{i}.wav", "real") for i in range(n_real)]
        entries += [ManifestEntry(f"f{i}", f"f{i}.wav", "fake") for i in range(n_fake)]
        return entries

    def test_100_entries_split_90_10_stratified(self):
        train, val = split_90_10(self.make(50, 50), seed=0)
        assert len(train) == 90 and len(val) == 10
        assert sum(1 for e in train if e.label == "real") == 45
        assert sum(1 for e in val if e.label == "real") == 5

    def test_deterministic(self):
        a_train, a_val = split_90_10(self.make(30, 30), seed=7)
        b_train, b_val = split_90_10(self.make(30, 30), seed=7)
        assert [e.utt_id for e in a_val] == [e.utt_id for e in b_val]
        c_train, c_val = split_90_10(self.make(30, 30), seed=8)
        assert [e.utt_id for e in c_val] != [e.utt_id for e in a_val]

    def test_partition_is_exact(self):
        m = self.make(23, 17)
        train, val = split_90_10(m, seed=3)
        all_ids = {e.utt_id for e in m}
        got = [e.utt_id for e in train + val]
        assert len(got) == len(all_ids)
        assert set(got) == all_ids

    def test_too_few_entries(self):
        with pytest.raises(InsufficientData):
            split_90_10(self.make(4, 4), seed=0)


class TestSyntheticCorpus:
    def test_deterministic_bytes(self, tmp_path):
        spec = SyntheticCorpusSpec(n_real=3, n_fake=3, seed=7, duration_s=1.2)
        m1 = generate_synthetic_corpus(spec, tmp_path / "a")
        m2 = generate_synthetic_corpus(spec, tmp_path / "b")
        assert corpus_digest(m1) == corpus_digest(m2)

    def test_row_count_and_labels(self, tmp_path):
        spec = SyntheticCorpusSpec(n_real=4, n_fake=2, seed=1, duration_s=1.0)
        m = generate_synthetic_corpus(spec, tmp_path / "c")
        assert len(m) == 6
        assert sum(1 for e in m if e.label == "real") == 4
        loaded = load_manifest(tmp_path / "c" / "manifest.csv")
        assert len(loaded) == 6
        assert not any(e.missing for e in loaded)

    def test_real_items_match_pitch_oracle(self, tmp_path):
        # chained oracle: the corpus generator's f0 recipe must agree
        # with the pitch tracker on voiced frames
        from spoofnet.annotate import annotate_waveform
        from spoofnet.dsp import preprocess, read_wav

        spec = SyntheticCorpusSpec(n_real=2, n_fake=0, seed=3, duration_s=1.5)
        m = generate_synthetic_corpus(spec, tmp_path / "d")
        for e in m:
            ann = annotate_waveform(preprocess(read_wav(e.audio_path)))
            voiced_f0 = ann.f0_hz[ann.voiced]
            assert voiced_f0.size > 40  # mostly voiced material
            assert np.all(voiced_f0 >= 60.0) and np.all(voiced_f0 <= 400.0)
            # the recipe keeps f0 inside [110*(1-3%), 240*(1+3%)]
            assert np.median(voiced_f0) == pytest.approx(175, abs=70)

    def test_relative_out_dir_yields_loadable_manifest(self, tmp_path, monkeypatch):
        # paths in the manifest must resolve no matter what cwd the
        # corpus was generated from
        monkeypatch.chdir(tmp_path)
        spec = SyntheticCorpusSpec(n_real=1, n_fake=1, seed=2, duration_s=1.0)
        generate_synthetic_corpus(spec, "relcorpus")
        loaded = load_manifest(tmp_path / "relcorpus" / "manifest.csv")
        assert not any(e.missing for e in loaded)
        monkeypatch.chdir("/")  # manifest must stay loadable from anywhere
        loaded_again = load_manifest(tmp_path / "relcorpus" / "manifest.csv")
        assert not any(e.missing for e in loaded_again)

    @pytest.mark.parametrize("spec, per_group, min_lanes, lane_loop", [
        (PINNED_CORPUS, None, None, True),
        (SyntheticCorpusSpec(n_real=2, n_fake=2, seed=4), None, None, False),
        (PINNED_CORPUS, 5, 0, True),
    ], ids=["above_crossover", "below_crossover", "groups_of_5"])
    def test_files_are_synth_utterance_in_job_order(self, tmp_path, monkeypatch, spec,
                                                    per_group, min_lanes, lane_loop):
        if per_group is not None:
            monkeypatch.setattr(synth, "GROUP_SAMPLES", per_group * int(spec.duration_s * SAMPLE_RATE))
        if min_lanes is not None:
            monkeypatch.setattr(synth, "MIN_LANES", min_lanes)
        calls = record_lane_loops(monkeypatch)
        m = generate_synthetic_corpus(spec, tmp_path / "corpus")
        # three lane loops per group that takes them: F1 and F2 over the
        # voiced block, the burst's resonator over the burst block
        groups = -(-len(m) // per_group) if per_group else 1
        assert len(calls) == (3 * groups if lane_loop else 0)
        rng = np.random.default_rng(spec.seed)
        for e in m:
            write_wav(tmp_path / "want.wav", synth_utterance(rng, spec, fake=(e.label == "fake")))
            assert e.audio_path.read_bytes() == (tmp_path / "want.wav").read_bytes(), e.utt_id
        assert [e.utt_id for e in m] == [f"synth_real_{i:03d}" for i in range(spec.n_real)] + \
            [f"synth_fake_{i:03d}" for i in range(spec.n_fake)]

    def test_pinned_corpus_bytes(self, tmp_path):
        # computed when every resonator ran _resonate lane by lane
        assert corpus_digest(generate_synthetic_corpus(PINNED_CORPUS, tmp_path)) == PINS["corpus"]

    def test_empty_corpus(self, tmp_path, lane_rule):
        spec = SyntheticCorpusSpec(n_real=0, n_fake=0)
        m = generate_synthetic_corpus(spec, tmp_path / "empty")
        assert len(m) == 0
        assert (tmp_path / "empty" / "manifest.csv").read_text() == HEADER
        assert list((tmp_path / "empty").rglob("*.wav")) == []
        assert list(_resonate_lanes([], [], [])) == []
        _, calls = lane_rule
        assert calls == []  # no block, so no lane loop on either side of the rule

    def test_shortest_usable_duration_synthesizes(self):
        spec = SyntheticCorpusSpec(duration_s=MIN_DURATION_S)
        rng = np.random.default_rng(0)
        for fake in [False, True] * 20:
            x = synth_utterance(rng, spec, fake)
            assert x.size == int(MIN_DURATION_S * SAMPLE_RATE)
            assert np.all(np.isfinite(x))


def lfilter_resonate(x, a1, a2):
    from scipy.signal import lfilter

    return lfilter([1.0], [1.0, a1, a2], x)


# synth's three resonators: two formants and the fricative burst's
SYNTH_RESONATORS = [(350.0, 750.0, 80.0), (1100.0, 2200.0, 120.0),
                    (4500.0, 4500.0, 2000.0)]


class TestResonator:
    """synth's own filter loop is scipy.signal.lfilter's recurrence: the
    outputs are equal bit for bit, signed zeros included."""

    def test_seeded_random_resonators(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = _resonator_coeffs(rng.uniform(50.0, 7950.0), rng.uniform(10.0, 3000.0),
                                  SAMPLE_RATE)
            x = rng.standard_normal(int(rng.integers(1, 5000)))
            assert _resonate(x, *a).tobytes() == lfilter_resonate(x, *a).tobytes()

    @pytest.mark.parametrize("lo, hi, bandwidth", SYNTH_RESONATORS)
    def test_synth_resonators(self, lo, hi, bandwidth):
        rng = np.random.default_rng(1)
        for freq in [lo, hi, *rng.uniform(lo, hi, 8)]:
            a = _resonator_coeffs(freq, bandwidth, SAMPLE_RATE)
            x = rng.standard_normal(2000)
            assert _resonate(x, *a).tobytes() == lfilter_resonate(x, *a).tobytes()

    @pytest.mark.parametrize("x", [
        np.array([0.7]), np.array([-0.7]), np.array([-0.0]),
        np.zeros(64), -np.zeros(64),
        np.concatenate([np.zeros(100), np.random.default_rng(2).standard_normal(400)]),
        np.concatenate([-np.zeros(100), [-1.0], np.zeros(50)]),
    ], ids=["one", "one_negative", "negative_zero", "zeros", "negative_zeros",
            "leading_zeros", "impulse_after_negative_zeros"])
    def test_cascaded_pair(self, x):
        a1 = _resonator_coeffs(500.0, 80.0, SAMPLE_RATE)
        a2 = _resonator_coeffs(1500.0, 120.0, SAMPLE_RATE)
        own = _resonate(_resonate(x, *a1), *a2)
        assert own.tobytes() == lfilter_resonate(lfilter_resonate(x, *a1), *a2).tobytes()
        assert _resonate(x, *a1).tobytes() == lfilter_resonate(x, *a1).tobytes()

    def test_seeded_random_resonators_as_lanes(self, lane_rule):
        # the resonators and inputs of test_seeded_random_resonators, as
        # one ragged block of 100 lanes
        rng = np.random.default_rng(0)
        xs, chains = [], []
        for _ in range(100):
            chains.append((_resonator_coeffs(rng.uniform(50.0, 7950.0), rng.uniform(10.0, 3000.0),
                                             SAMPLE_RATE),))
            xs.append(rng.standard_normal(int(rng.integers(1, 5000))))
        got = list(_resonate_lanes([x.size for x in xs], chains, iter(xs)))
        side, calls = lane_rule
        assert len(calls) == (side == "lane_loop")
        assert len(got) == len(xs)
        for y, x, (a,) in zip(got, xs, chains):
            assert y.tobytes() == lfilter_resonate(x, *a).tobytes()

    def test_cascaded_pair_as_lanes(self, lane_rule):
        # test_cascaded_pair's inputs, signed zeros included, as lanes of
        # three blocks with one chain each: the pair, the first resonator
        # alone and the burst's, whose a1 > 0 keeps negative zeros
        a1 = _resonator_coeffs(500.0, 80.0, SAMPLE_RATE)
        a2 = _resonator_coeffs(1500.0, 120.0, SAMPLE_RATE)
        xs = [np.array([0.7]), np.array([-0.7]), np.array([-0.0]),
              np.zeros(64), -np.zeros(64),
              np.concatenate([np.zeros(100), np.random.default_rng(2).standard_normal(400)]),
              np.concatenate([-np.zeros(100), [-1.0], np.zeros(50)])]
        side, calls = lane_rule
        for chain in ((a1, a2), (a1,), (synth.BURST_RESONATOR,)):
            got = list(_resonate_lanes([x.size for x in xs], [chain] * len(xs), iter(xs)))
            assert len(got) == len(xs)
            for y, x in zip(got, xs):
                want = x
                for a in chain:
                    want = lfilter_resonate(want, *a)
                assert y.tobytes() == want.tobytes()
        assert len(calls) == (4 if side == "lane_loop" else 0)


def assert_bit_equal(got, want):
    for name in ("f0_hz", "f1_hz", "f2_hz", "voiced"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def per_frame_cache_text(manifest, annotations) -> str:
    """A cache file in the older per-frame record format: one
    {"t", "f0", "f1", "f2", "voiced"} row per frame, f0 null when
    unvoiced, under the same content keys."""
    lines = []
    for e in sorted(manifest, key=lambda e: e.utt_id):
        ann = annotations[e.utt_id]
        frames = [{"t": t, "f0": float(f0) if v else None, "f1": float(f1),
                   "f2": float(f2), "voiced": bool(v)}
                  for t, (f0, f1, f2, v) in enumerate(
                      zip(ann.f0_hz, ann.f1_hz, ann.f2_hz, ann.voiced))]
        key = content_key(e.audio_path)
        lines.append(json.dumps({"utt_id": e.utt_id, "frames": frames, "key": key}) + "\n")
    return "".join(lines)


def _set_frame(name, value):
    """A damage that sets frame 3 of one track, re-encoded as the cache
    encodes it."""
    def damage(row):
        track = np.frombuffer(bytes.fromhex(row[name]), "<f8").copy()
        track[3] = value
        row[name] = track.tobytes().hex()
    return damage


# one case per kind of record the decoder rejects
RECORD_DAMAGE = {
    "missing_track": lambda row: row.pop("f1"),
    "non_string_track": lambda row: row.update(
        f1=np.frombuffer(bytes.fromhex(row["f1"]), "<f8").tolist()),
    "bad_hex": lambda row: row.update(f1="zz" + row["f1"][2:]),
    "partial_float": lambda row: row.update(f1=row["f1"][:-2]),
    "unequal_lengths": lambda row: row.update(f2=row["f2"][:-16]),
    # 16 hex digits: one float64 from each track, so the three agree on 127
    "every_track_short": lambda row: row.update(
        {name: row[name][:-16] for name in ("f0", "f1", "f2")}),
    "f0_inf": _set_frame("f0", np.inf),
    "f0_minus_inf": _set_frame("f0", -np.inf),
    "f1_nan": _set_frame("f1", np.nan),
    "f2_inf": _set_frame("f2", np.inf),
}


class TestAnnotationCache:
    def corpus(self, tmp_path, seed=5):
        spec = SyntheticCorpusSpec(n_real=2, n_fake=2, seed=seed, duration_s=1.0)
        return generate_synthetic_corpus(spec, tmp_path / "corpus")

    def test_warm_cache_recomputes_nothing(self, tmp_path):
        m = self.corpus(tmp_path)
        cache = tmp_path / "cache"
        _, first = annotate_corpus(m, cache)
        assert first.computed == 4 and first.cached == 0
        anns, second = annotate_corpus(m, cache)
        assert second.computed == 0 and second.cached == 4
        assert len(anns) == 4

    def test_cached_equals_fresh_bitwise(self, tmp_path):
        from spoofnet.annotate import annotate_waveform
        from spoofnet.dsp import preprocess, read_wav

        m = self.corpus(tmp_path)
        cache = tmp_path / "cache"
        annotate_corpus(m, cache)
        cached, _ = annotate_corpus(m, cache)
        for e in m:
            fresh = annotate_waveform(preprocess(read_wav(e.audio_path)))
            got = cached[e.utt_id]
            np.testing.assert_array_equal(got.f0_hz, fresh.f0_hz)
            np.testing.assert_array_equal(got.f1_hz, fresh.f1_hz)
            np.testing.assert_array_equal(got.f2_hz, fresh.f2_hz)
            np.testing.assert_array_equal(got.voiced, fresh.voiced)

    def test_key_text_keeps_the_trim_threshold(self, tmp_path):
        # caches written while the trim threshold was a parameter hashed
        # it into the key text; the same text keeps those records valid
        path = tmp_path / "a.wav"
        path.write_bytes(b"audio bytes")
        text = f"audio bytes|trim:-40.0|{PITCH_KEY}|{FORMANT_KEY}"
        assert content_key(path) == hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("name", ["PITCH_KEY", "FORMANT_KEY"])
    def test_tracker_key_edit_invalidates(self, tmp_path, monkeypatch, name):
        m = self.corpus(tmp_path)
        cache = tmp_path / "cache"
        annotate_corpus(m, cache)
        monkeypatch.setattr(f"spoofnet.cache.{name}", "edited")
        _, stats = annotate_corpus(m, cache)
        assert stats.computed == 4 and stats.cached == 0

    def test_worker_pool_matches_serial(self, tmp_path):
        m = self.corpus(tmp_path)
        serial_cache = tmp_path / "serial"
        pooled_cache = tmp_path / "pooled"
        serial, s_stats = annotate_corpus(m, serial_cache, workers=1)
        pooled, p_stats = annotate_corpus(m, pooled_cache, workers=2)
        assert s_stats.computed == p_stats.computed == 4
        assert (serial_cache / "annotations.jsonl").read_bytes() == \
               (pooled_cache / "annotations.jsonl").read_bytes()
        for utt_id in serial:
            np.testing.assert_array_equal(serial[utt_id].f0_hz,
                                          pooled[utt_id].f0_hz)

    def test_torn_line_is_a_cache_miss(self, tmp_path):
        from spoofnet.cli import main

        m = self.corpus(tmp_path)
        fresh, torn = tmp_path / "fresh", tmp_path / "torn"
        annotate_corpus(m, fresh)
        expected = (fresh / "annotations.jsonl").read_bytes()
        # an interrupted copy: the file ends halfway through its last line
        last_line = expected.rstrip(b"\n").rsplit(b"\n", 1)[1]
        torn.mkdir()
        (torn / "annotations.jsonl").write_bytes(expected[: len(expected) - len(last_line) // 2])
        _, stats = annotate_corpus(m, torn)
        assert stats.computed == 1 and stats.cached == 3
        assert (torn / "annotations.jsonl").read_bytes() == expected

        (torn / "annotations.jsonl").write_bytes(expected[:-100] + b"\x00\xff{")
        assert main(["annotate", "--manifest", str(tmp_path / "corpus" / "manifest.csv"),
                     "--cache", str(torn)]) == 0
        assert (torn / "annotations.jsonl").read_bytes() == expected

    @pytest.mark.parametrize("damage", sorted(RECORD_DAMAGE))
    def test_malformed_record_is_a_cache_miss(self, tmp_path, damage):
        m = self.corpus(tmp_path)
        cache = tmp_path / "cache"
        annotate_corpus(m, cache)
        path = cache / "annotations.jsonl"
        expected = path.read_bytes()
        rows = [json.loads(line) for line in expected.splitlines()]
        RECORD_DAMAGE[damage](rows[1])
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        anns, stats = annotate_corpus(m, cache)
        assert stats.computed == 1 and stats.cached == 3
        assert path.read_bytes() == expected
        fresh, _ = annotate_corpus(m, tmp_path / "fresh")
        assert_bit_equal(anns[rows[1]["utt_id"]], fresh[rows[1]["utt_id"]])

    def test_per_frame_cache_is_recomputed_once_and_rewritten(self, tmp_path):
        m = self.corpus(tmp_path)
        fresh_dir, old_dir = tmp_path / "fresh", tmp_path / "old"
        cold, _ = annotate_corpus(m, fresh_dir)
        expected = (fresh_dir / "annotations.jsonl").read_bytes()
        old_dir.mkdir()
        path = old_dir / "annotations.jsonl"
        path.write_text(per_frame_cache_text(m, cold), encoding="utf-8")
        # the keys still match: only the record format makes these misses
        old_keys = [json.loads(line)["key"] for line in path.read_bytes().splitlines()]
        assert old_keys == [json.loads(line)["key"] for line in expected.splitlines()]

        upgraded, first = annotate_corpus(m, old_dir)
        assert first.computed == 4 and first.cached == 0
        assert path.read_bytes() == expected
        warm, second = annotate_corpus(m, old_dir)
        assert second.computed == 0 and second.cached == 4
        for utt_id, want in cold.items():
            assert_bit_equal(upgraded[utt_id], want)
            assert_bit_equal(warm[utt_id], want)

    def test_failed_write_keeps_old_cache(self, tmp_path):
        from spoofnet.cache import _write_cache_file

        path = tmp_path / "annotations.jsonl"
        _write_cache_file(path, {"a": {"utt_id": "a", "frames": []}})
        before = path.read_bytes()
        reference = tmp_path / "reference"
        reference.write_text("")
        assert path.stat().st_mode == reference.stat().st_mode  # umask, not owner-only
        reference.unlink()
        with pytest.raises(TypeError):
            _write_cache_file(path, {"a": {"utt_id": "a"}, "b": {"utt_id": "b", "x": object()}})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_audio_skipped(self, tmp_path):
        m = self.corpus(tmp_path)
        m.entries.append(ManifestEntry("ghost", tmp_path / "ghost.wav", "real",
                                       missing=True))
        anns, stats = annotate_corpus(m, tmp_path / "cache")
        assert len(anns) == 4
        assert stats.skipped == [("ghost", "missing audio file")]


class TestTokenStore:
    """`features.token_grids` with a cache directory: one file per audio
    content, dtype and frontend key under `<cache>/tokens/`."""

    @pytest.fixture
    def corpus(self, tmp_path):
        spec = SyntheticCorpusSpec(n_real=1, n_fake=1, seed=5, duration_s=1.0)
        return generate_synthetic_corpus(spec, tmp_path / "corpus")

    @pytest.fixture
    def computed(self, monkeypatch):
        """The audio paths featurize computes tokens for, in call order."""
        from spoofnet import features

        calls, compute = [], features.utterance_tokens

        def counted(path):
            calls.append(path)
            return compute(path)

        monkeypatch.setattr(features, "utterance_tokens", counted)
        return calls

    @staticmethod
    def fresh(path, dtype) -> np.ndarray:
        from spoofnet.dsp import preprocess, read_wav, stft_features

        grid = stft_features(preprocess(read_wav(path)))
        return np.stack([grid.log_mag, grid.sin_phase]).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cold_then_warm_equal_the_fresh_cast(self, tmp_path, corpus, computed, dtype):
        from spoofnet.features import token_grids

        cache = tmp_path / "cache"
        for e in corpus:
            cold = token_grids(e.audio_path, dtype, cache)
            warm = token_grids(e.audio_path, dtype, cache)
            want = self.fresh(e.audio_path, dtype)
            for got in (cold, warm):
                assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert computed == [e.audio_path for e in corpus]
        size = {np.float32: 262_272, np.float64: 524_416}[dtype]  # as the docs say
        assert [p.stat().st_size for p in (cache / "tokens").iterdir()] == [size] * 2

    def test_key_text(self, tmp_path):
        from spoofnet.cache import token_path
        from spoofnet.dsp import FRONTEND_KEY

        path = tmp_path / "a.wav"
        path.write_bytes(b"audio bytes")
        for dtype in ("float32", "float64"):
            key = hashlib.sha256(f"audio bytes|{FRONTEND_KEY}|{dtype}".encode()).hexdigest()
            want = tmp_path / "c" / "tokens" / f"{key}.npy"
            assert token_path(tmp_path / "c", path, dtype) == want

    def test_float32_and_float64_never_share_a_file(self, tmp_path, corpus, computed):
        from spoofnet.cache import token_path
        from spoofnet.features import token_grids

        cache = tmp_path / "cache"
        e = corpus.entries[0]
        for dtype in (np.float32, np.float64, np.float32, np.float64):
            assert token_grids(e.audio_path, dtype, cache).dtype == dtype
        assert computed == [e.audio_path] * 2
        paths = {np.dtype(t): token_path(cache, e.audio_path, t) for t in (np.float32, np.float64)}
        assert sorted(cache.joinpath("tokens").iterdir()) == sorted(paths.values())
        for dtype, path in paths.items():
            assert np.load(path).dtype == dtype

    @pytest.mark.parametrize("damage", ["empty", "torn_header", "torn_data", "not_npy",
                                        "other_shape", "other_dtype", "oversized_header",
                                        "version_2_0"])
    def test_damaged_file_is_a_miss_and_rewritten(self, tmp_path, corpus, computed, damage):
        from spoofnet.cache import token_path
        from spoofnet.features import token_grids

        cache = tmp_path / "cache"
        wav = corpus.entries[0].audio_path
        want = token_grids(wav, np.float32, cache)
        path = token_path(cache, wav, np.float32)
        good = path.read_bytes()
        if damage == "other_shape":
            np.save(path, want[:, :, :-1])
        elif damage == "other_dtype":
            np.save(path, want.astype(np.float64))
        elif damage == "oversized_header":
            # the header declares a 24.4 GiB payload; the file holds one grid pair
            with open(path, "wb") as fh:
                np.lib.format.write_array_header_1_0(
                    fh, {"descr": "<f4", "fortran_order": False, "shape": (200000, 128, 256)})
                fh.write(want.tobytes())
        elif damage == "version_2_0":
            # the same grids, but write_tokens writes format version 1.0 only
            with open(path, "wb") as fh:
                np.lib.format.write_array(fh, want, version=(2, 0))
        else:
            path.write_bytes({"empty": b"", "torn_header": good[:40],
                              "torn_data": good[:len(good) // 2],
                              "not_npy": b"PK\x03\x04" + good[4:]}[damage])
        got = token_grids(wav, np.float32, cache)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert computed == [wav, wav]
        assert path.read_bytes() == good
        assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temp file left

    def test_edited_wav_misses(self, tmp_path, corpus, computed):
        from spoofnet.features import token_grids

        cache = tmp_path / "cache"
        a, b = (e.audio_path for e in corpus)
        token_grids(a, np.float32, cache)
        a.write_bytes(b.read_bytes())
        got = token_grids(a, np.float32, cache)
        assert got.tobytes() == self.fresh(b, np.float32).tobytes()
        assert computed == [a, a] and len(list((cache / "tokens").iterdir())) == 2
        token_grids(b, np.float32, cache)  # the same bytes: a hit
        assert computed == [a, a]

    def test_frontend_key_edit_misses(self, tmp_path, corpus, computed, monkeypatch):
        from spoofnet.features import token_grids

        cache = tmp_path / "cache"
        wav = corpus.entries[0].audio_path
        token_grids(wav, np.float32, cache)
        monkeypatch.setattr("spoofnet.cache.FRONTEND_KEY", "edited")
        token_grids(wav, np.float32, cache)
        assert computed == [wav, wav]

    def test_without_fill_a_miss_is_computed_and_not_stored(self, tmp_path, corpus,
                                                            computed):
        from spoofnet.features import token_grids

        cache = tmp_path / "cache"
        wav = corpus.entries[0].audio_path
        want = self.fresh(wav, np.float32).tobytes()
        assert token_grids(wav, np.float32, cache, fill=False).tobytes() == want
        assert not cache.exists()
        token_grids(wav, np.float32, cache)                 # fills the store
        assert token_grids(wav, np.float32, cache, fill=False).tobytes() == want
        assert computed == [wav, wav]

    def test_a_store_that_cannot_be_written_only_costs_the_saving(self, tmp_path, corpus,
                                                                  computed):
        # a full disk is tested through train, in tests/test_cli.py
        from spoofnet.features import token_grids

        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "tokens").write_bytes(b"")  # every mkdir and read fails
        wav = corpus.entries[0].audio_path
        want = self.fresh(wav, np.float32).tobytes()
        for _ in range(2):
            assert token_grids(wav, np.float32, cache).tobytes() == want
        assert computed == [wav, wav]

    def test_annotate_leaves_the_store_alone(self, tmp_path, corpus):
        from spoofnet.cli import main

        cache = tmp_path / "cache"
        assert main(["annotate", "--manifest", str(tmp_path / "corpus" / "manifest.csv"),
                     "--cache", str(cache)]) == 0
        assert [p.name for p in cache.iterdir()] == ["annotations.jsonl"]


class TestConfigFiles:
    def test_kv_parsing_with_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nembed_dim = 32  # inline\n\nlr = 0.001\n")
        kv = parse_kv(p)
        assert kv == {"embed_dim": "32", "lr": "0.001"}

    def test_bad_line_reports_number(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("embed_dim = 32\nthis is wrong\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_kv(p)

    def test_repeated_key_reports_both_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lr = 0.001\n# lr = 0.1\nembed_dim = 32\nlr = 5\n")
        with pytest.raises(ParseError, match=r"line 4: lr is set again \(first set on line 1\)"):
            parse_kv(p)

    def test_non_utf8_reports_number(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"embed_dim = 32\n# caf\xe9\n")
        with pytest.raises(ParseError, match="line 2.*UTF-8"):
            parse_kv(p)

    @pytest.mark.parametrize("line", ["enc_heads = 0", "embed_dim = -3", "n_bins = 0",
                                      "enc_layers = -1", "batch_size = 0",
                                      "max_epochs = 0", "dtype = float16",
                                      # the frontend's token grid is fixed at 128 x 256
                                      "n_frames = 64", "n_frames = 129",
                                      "n_bins = 128", "n_bins = 512",
                                      # the model's voice ranges are fixed
                                      "formant_ranges = 60:400,150:900,800:2700",
                                      "formant_ranges = 60:400",
                                      # a float must be finite
                                      "lr = nan", "lr = inf", "weight_decay = -inf"])
    def test_unusable_run_config_value_rejected(self, tmp_path, line):
        p = tmp_path / "run.cfg"
        p.write_text(line + "\n")
        with pytest.raises(ParseError, match=line.split(" ")[0]):
            load_run_config(p)

    def test_zero_layers_accepted(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("enc_layers = 0\npred_layers = 0\ndtype = float64\n")
        mc, _ = load_run_config(p)
        assert (mc.enc_layers, mc.pred_layers, mc.dtype) == (0, 0, "float64")

    def test_round_trip_model_and_train(self, tmp_path):
        mc = ModelConfig(embed_dim=24, enc_layers=2, enc_heads=3, enc_head_dim=8)
        tc = TrainConfig(batch_size=4, lr=5e-4, seed=11)
        path = tmp_path / "run.cfg"
        write_config(path, mc, tc)
        mc2, tc2 = load_run_config(path)
        assert mc2 == mc
        assert tc2 == tc

    @pytest.mark.parametrize("mc, tc", [
        (ModelConfig(), TrainConfig()),
        # the least value of every size, layer count, seed and loss weight
        (ModelConfig(embed_dim=1, enc_layers=0, enc_heads=1, enc_head_dim=1, mlp_dim=1,
                     pred_layers=0, pred_heads=1, pred_head_dim=1, pool_heads=1,
                     dtype="float64"),
         TrainConfig(batch_size=1, lr=1e-12, max_epochs=1, weight_voicing=0.0,
                     weight_formant=0.0, seed=0)),
        # floats whose shortest repr has many digits
        (ModelConfig(embed_dim=7), TrainConfig(lr=0.1 + 0.2, weight_score=1 / 3,
                                               weight_voicing=2e-308, weight_formant=1e308)),
    ], ids=["defaults", "least", "long_floats"])
    def test_valid_records_round_trip(self, tmp_path, mc, tc):
        path = tmp_path / "run.cfg"
        write_config(path, mc, tc)
        assert load_run_config(path) == (mc, tc)

    def test_formant_ranges_not_written(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(path, ModelConfig(), TrainConfig())
        assert "formant_ranges" not in path.read_text()

    def test_unknown_run_config_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("embed_dim = 16\nlearning_rate = 0.1\n")  # typo for lr
        with pytest.raises(ParseError, match="line 2: unknown config keys: learning_rate"):
            load_run_config(p)

    def test_unknown_keys_named_in_file_order_with_the_first_ones_line(self, tmp_path):
        # typos for lr and batch_size around a known key, not in sorted order
        p = tmp_path / "run.cfg"
        p.write_text("learning_rate = 0.1\nembed_dim = 16\nbatchsize = 4\n")
        with pytest.raises(ParseError, match="^line 1: unknown config keys: "
                                             "learning_rate, batchsize$"):
            load_run_config(p)

    def test_least_usable_corpus_spec_accepted(self, tmp_path):
        spec = SyntheticCorpusSpec(n_real=0, n_fake=0, seed=0, duration_s=MIN_DURATION_S)
        path = tmp_path / "spec.cfg"
        write_config(path, spec)
        assert load_corpus_spec(path) == spec

    def test_codec_tags_is_an_unknown_corpus_spec_key(self, tmp_path):
        # synth applies no codec, so a spec cannot tag one
        path = tmp_path / "spec.cfg"
        path.write_text("n_real = 2\ncodec_tags = aac,mp3\n")
        with pytest.raises(ParseError, match="line 2: unknown config keys: codec_tags"):
            load_corpus_spec(path)

    def test_corpus_spec_round_trip(self, tmp_path):
        spec = SyntheticCorpusSpec(n_real=5, n_fake=7, seed=3, duration_s=1.5,
                                   dataset_tag="mine")
        path = tmp_path / "spec.cfg"
        write_config(path, spec)
        assert load_corpus_spec(path) == spec


class TestByteOrderMark:
    """A text file saved with a leading UTF-8 byte-order mark reads as the
    same file without it."""

    @staticmethod
    def with_bom(path):
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        return path

    def test_manifest(self, tmp_path):
        rows = ["u1,a.wav,real,ds,,train\n", "u2,b.wav,fake,ds,mp3,val\n"]
        plain = write_manifest(tmp_path / "plain.csv", rows)
        marked = self.with_bom(write_manifest(tmp_path / "marked.csv", rows))
        assert load_manifest(marked).entries == load_manifest(plain).entries

    def test_run_config_with_a_key_on_its_first_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("embed_dim = 24\nlr = 0.002\n")
        mc, tc = load_run_config(self.with_bom(p))
        assert (mc.embed_dim, tc.lr) == (24, 0.002)

    def test_written_run_config(self, tmp_path):
        mc, tc = ModelConfig(embed_dim=24), TrainConfig(seed=11)
        p = tmp_path / "run.cfg"
        write_config(p, mc, tc, header="run configuration")
        assert load_run_config(self.with_bom(p)) == (mc, tc)

    def test_corpus_spec(self, tmp_path):
        p = tmp_path / "spec.cfg"
        p.write_text("n_real = 5\ndataset_tag = mine\n")
        spec = load_corpus_spec(self.with_bom(p))
        assert (spec.n_real, spec.dataset_tag) == (5, "mine")

    def test_score_file(self, tmp_path):
        p = tmp_path / "scores.jsonl"
        write_scores(p, [ScoreRecord("u1", 0.25, 0, frame_weights=np.array([0.5, 0.5])),
                         ScoreRecord("u2", 0.75, 1)])
        plain = read_scores(p)
        marked = read_scores(self.with_bom(p))
        assert [(r.utt_id, r.score, r.label) for r in marked] == \
            [(r.utt_id, r.score, r.label) for r in plain]
        np.testing.assert_array_equal(marked[0].frame_weights, [0.5, 0.5])

    def test_bad_byte_after_the_mark_is_named_with_its_own_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(codecs.BOM_UTF8 + b"embed_dim = 32\n# caf\xe9\n")
        with pytest.raises(ParseError, match="^line 2: not UTF-8 text"):
            parse_kv(p)

