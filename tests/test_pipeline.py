import hashlib
import json

import numpy as np
import pytest

from spoofnet.cache import annotate_corpus, content_key
from spoofnet.config import (load_corpus_spec, load_run_config, parse_kv,
                             write_config)
from spoofnet.dsp import write_wav
from spoofnet.errors import DuplicateId, InsufficientData, ParseError
from spoofnet.formants import FormantConfig
from spoofnet.manifest import (Manifest, ManifestEntry, load_manifest,
                               save_manifest, split_90_10)
from spoofnet.model import ModelConfig
from spoofnet.pitch import PitchConfig
from spoofnet.synth import SyntheticCorpusSpec, generate_synthetic_corpus
from spoofnet.train import TrainConfig

HEADER = "utt_id,audio_path,label,dataset_tag,codec_tag,split\n"


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
        return Manifest(entries)

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
        got = [e.utt_id for e in train.entries + val.entries]
        assert len(got) == len(all_ids)
        assert set(got) == all_ids

    def test_too_few_entries(self):
        with pytest.raises(InsufficientData):
            split_90_10(self.make(4, 4), seed=0)

    def test_split_tags_assigned(self):
        train, val = split_90_10(self.make(10, 10), seed=0)
        assert all(e.split == "train" for e in train)
        assert all(e.split == "val" for e in val)


class TestSyntheticCorpus:
    def test_deterministic_bytes(self, tmp_path):
        spec = SyntheticCorpusSpec(n_real=3, n_fake=3, seed=7, duration_s=1.2)
        m1 = generate_synthetic_corpus(spec, tmp_path / "a")
        m2 = generate_synthetic_corpus(spec, tmp_path / "b")

        def digest(manifest):
            h = hashlib.sha256()
            for e in manifest:
                h.update(e.audio_path.read_bytes())
            return h.hexdigest()

        assert digest(m1) == digest(m2)

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

    def test_codec_tags_cycle(self, tmp_path):
        spec = SyntheticCorpusSpec(n_real=2, n_fake=2, seed=1, duration_s=1.0,
                                   codec_tags=("aac", "mp3"))
        m = generate_synthetic_corpus(spec, tmp_path / "e")
        assert [e.codec_tag for e in m] == ["aac", "mp3", "aac", "mp3"]


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
        key = content_key(e.audio_path, PitchConfig(), FormantConfig())
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
        from spoofnet.cache import content_key
        from spoofnet.formants import FormantConfig

        path = tmp_path / "a.wav"
        path.write_bytes(b"audio bytes")
        pitch, formant = PitchConfig(), FormantConfig()
        text = f"audio bytes|trim:-40.0|{pitch.key()}|{formant.key()}"
        assert content_key(path, pitch, formant) == hashlib.sha256(text.encode()).hexdigest()

    def test_parameter_change_invalidates(self, tmp_path):
        m = self.corpus(tmp_path)
        cache = tmp_path / "cache"
        annotate_corpus(m, cache)
        _, stats = annotate_corpus(m, cache, pitch_cfg=PitchConfig(fmax_hz=350.0))
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
                                      "formant_ranges = 60:400"])
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

    def test_sidecar_with_the_fixed_formant_ranges_loads(self, tmp_path):
        # every sidecar written while formant_ranges was a field holds this line
        p = tmp_path / "run.cfg"
        p.write_text("embed_dim = 24\nformant_ranges = 60:400,200:850,800:2700\n")
        mc, _ = load_run_config(p)
        assert mc == ModelConfig(embed_dim=24)

    def test_formant_ranges_not_written(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(path, ModelConfig(), TrainConfig())
        assert "formant_ranges" not in path.read_text()

    def test_unknown_run_config_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("embed_dim = 16\nlearning_rate = 0.1\n")  # typo for lr
        with pytest.raises(ParseError, match="learning_rate"):
            load_run_config(p)

    def test_corpus_spec_round_trip(self, tmp_path):
        spec = SyntheticCorpusSpec(n_real=5, n_fake=7, seed=3, duration_s=1.5,
                                   codec_tags=("mp3", "opus"))
        path = tmp_path / "spec.cfg"
        write_config(path, spec)
        assert load_corpus_spec(path) == spec
