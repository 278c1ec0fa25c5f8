import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spoofnet
from spoofnet import cli, config
from spoofnet.cli import main
from spoofnet.config import write_config
from spoofnet.dsp import write_wav
from spoofnet.model import ModelConfig, toy_config
from spoofnet.synth import SyntheticCorpusSpec
from spoofnet.train import TrainConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full CLI run: synth-corpus -> annotate -> train -> eval."""
    root = tmp_path_factory.mktemp("cli")

    spec_path = root / "corpus.cfg"
    write_config(spec_path, SyntheticCorpusSpec(
        n_real=8, n_fake=8, seed=21, duration_s=1.6, codec_tags=("none", "simmed")))
    corpus_dir = root / "corpus"
    assert main(["synth-corpus", "--spec", str(spec_path),
                 "--out", str(corpus_dir)]) == 0
    manifest = corpus_dir / "manifest.csv"

    cache = root / "cache"
    assert main(["annotate", "--manifest", str(manifest),
                 "--cache", str(cache)]) == 0

    run_cfg = root / "run.cfg"
    write_config(run_cfg, toy_config(),
                 TrainConfig(batch_size=8, lr=1e-3, max_epochs=4, seed=3))
    ckpt = root / "model.ckpt"
    assert main(["train", "--manifest", str(manifest), "--cache", str(cache),
                 "--config", str(run_cfg), "--out", str(ckpt)]) == 0

    scores = root / "scores.jsonl"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt),
                 "--scores", str(scores), "--by", "codec",
                 "--cache", str(cache)]) == 0
    return {"root": root, "manifest": manifest, "cache": cache,
            "ckpt": ckpt, "scores": scores, "corpus": corpus_dir}


class TestPipelineCommands:
    def test_train_outputs_exist(self, workspace):
        assert workspace["ckpt"].exists()
        assert (workspace["root"] / "model.ckpt.config").exists()
        history = workspace["root"] / "model.ckpt.history.jsonl"
        rows = [json.loads(l) for l in history.read_text().splitlines()]
        assert len(rows) == 4
        assert set(rows[0]) == {"epoch", "lr", "train_total", "val_total",
                                "bce_p", "bce_v", "mse_f"}

    def test_scores_file_complete(self, workspace):
        from spoofnet.metrics import read_scores

        records = read_scores(workspace["scores"])
        assert len(records) == 16
        for r in records:
            assert 0.0 <= r.score <= 1.0
            assert r.frame_weights.shape == (128,)
            assert r.voicing_prob.shape == (128,)
            assert r.gt_voiced is not None

    def test_explain_command(self, workspace):
        report = workspace["root"] / "report.json"
        assert main(["explain", "--scores", str(workspace["scores"]),
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert report.with_suffix(".csv").exists()
        assert {g["class"] for g in doc["groups"]} == {"real", "fake"}

    def test_explain_with_ground_truth_voicing(self, workspace):
        report = workspace["root"] / "report_gt.json"
        assert main(["explain", "--scores", str(workspace["scores"]),
                     "--report", str(report), "--ground-truth"]) == 0
        doc = json.loads(report.read_text())
        populated = [g for g in doc["groups"] if g["n_utterances"] > 0]
        assert populated
        for g in populated:
            assert 0.0 <= g["voiced_share"] <= 1.0

    def test_eval_chunks_match_per_utterance_predict(self, workspace, tmp_path):
        # a sidecar batch size of 5 scores the 16 files in chunks 5, 5, 5, 1
        import shutil

        from spoofnet.checkpoint import load_checkpoint
        from spoofnet.features import utterance_tokens
        from spoofnet.manifest import load_manifest
        from spoofnet.metrics import read_scores
        from spoofnet.model import SpoofNet

        ckpt = tmp_path / "m.ckpt"
        shutil.copy(workspace["ckpt"], ckpt)
        write_config(str(ckpt) + ".config", toy_config(), TrainConfig(batch_size=5))
        scores = tmp_path / "scores.jsonl"
        assert main(["eval", "--manifest", str(workspace["manifest"]),
                     "--ckpt", str(ckpt), "--scores", str(scores)]) == 0
        model = SpoofNet.from_state(toy_config(), load_checkpoint(ckpt))
        records = {r.utt_id: r for r in read_scores(scores)}
        entries = load_manifest(workspace["manifest"]).entries
        assert sorted(records) == sorted(e.utt_id for e in entries)
        for e in entries:
            want = model.predict(*utterance_tokens(e.audio_path))
            got = records[e.utt_id]
            assert got.score == pytest.approx(want.score, rel=1e-6), e.utt_id
            np.testing.assert_allclose(got.frame_weights, want.frame_weights,
                                       rtol=1e-6, atol=1e-9, err_msg=e.utt_id)
            np.testing.assert_allclose(got.voicing_prob, want.voicing_prob,
                                       rtol=1e-6, atol=1e-9, err_msg=e.utt_id)

    def test_infer_command(self, workspace, capsys):
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        assert main(["infer", "--wav", str(wav),
                     "--ckpt", str(workspace["ckpt"])]) == 0
        out = capsys.readouterr().out
        assert "score" in out and "voiced" in out

    def test_annotate_is_idempotent(self, workspace, capsys):
        assert main(["annotate", "--manifest", str(workspace["manifest"]),
                     "--cache", str(workspace["cache"])]) == 0
        out = capsys.readouterr().out
        assert "annotated 0 utterances (16 cached" in out

    @staticmethod
    def _run_into_closed_pipe(argv, unbuffered):
        """(exit code, stderr) of the CLI run as a subprocess whose stdout
        reader is gone before it prints: `spoofnet ... | head -0`."""
        src = str(Path(spoofnet.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen([sys.executable, "-m", "spoofnet.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            return proc.wait(timeout=120), err

    def test_infer_into_closed_pipe_exits_quietly(self, workspace):
        # buffered stdout: the pipe error shows up once infer is done
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        code, err = self._run_into_closed_pipe(
            ["infer", "--wav", str(wav), "--ckpt", str(workspace["ckpt"])],
            unbuffered=False)
        assert code == 0
        assert err == b""

    def test_pipe_closed_mid_command_is_an_error(self, workspace, tmp_path):
        # unbuffered stdout: train's first print fails before it trains
        out = tmp_path / "never.ckpt"
        code, err = self._run_into_closed_pipe(
            ["train", "--manifest", str(workspace["manifest"]),
             "--cache", str(workspace["cache"]),
             "--config", str(workspace["root"] / "run.cfg"), "--out", str(out)],
            unbuffered=True)
        assert code == 2
        assert err == b"error: broken pipe\n"
        assert not out.exists()


# Run in a fresh interpreter with scipy unimportable: every spoofnet
# module, then synth-corpus, infer and eval. scipy serves only as a test
# oracle, so any import of it here fails the probe. The process pool
# serves `annotate --workers N` alone, so no other command, infer
# included, should pay its import time.
LEAN_IMPORT_PROBE = """
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None
import spoofnet
from spoofnet.cli import main
for module in pkgutil.iter_modules(spoofnet.__path__):
    importlib.import_module("spoofnet." + module.name)
spec, corpus, wav, ckpt, manifest, cache, scores = sys.argv[1:]
assert main(["synth-corpus", "--spec", spec, "--out", corpus]) == 0
assert main(["infer", "--wav", wav, "--ckpt", ckpt]) == 0
assert main(["eval", "--manifest", manifest, "--ckpt", ckpt,
             "--scores", scores, "--cache", cache]) == 0
print(json.dumps("concurrent.futures.process" in sys.modules))
"""


def test_commands_run_without_scipy_or_process_pool(workspace, tmp_path):
    src = str(Path(spoofnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    spec = tmp_path / "corpus.cfg"
    write_config(spec, SyntheticCorpusSpec(n_real=1, n_fake=1, duration_s=1.0))
    wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
    proc = subprocess.run(
        [sys.executable, "-c", LEAN_IMPORT_PROBE, str(spec), str(tmp_path / "corpus"),
         str(wav), str(workspace["ckpt"]), str(workspace["manifest"]),
         str(workspace["cache"]), str(tmp_path / "s.jsonl")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) is False
    assert (tmp_path / "corpus" / "manifest.csv").exists()


class TestAllocatorHook:
    """main sets glibc's malloc thresholds once per process, and runs
    unchanged where there is no mallopt."""

    @staticmethod
    def infer(workspace) -> int:
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        return main(["infer", "--wav", str(wav), "--ckpt", str(workspace["ckpt"])])

    @pytest.mark.parametrize("libc", ["unloadable", "without_mallopt"])
    def test_infer_runs_without_mallopt(self, workspace, monkeypatch, capsys, libc):
        def cdll(name):
            if libc == "unloadable":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(cli, "_malloc_tuned", False)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert self.infer(workspace) == 0
        assert "score" in capsys.readouterr().out

    def test_thresholds_set_once_however_often_main_runs(self, workspace,
                                                         monkeypatch, capsys):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(cli, "_malloc_tuned", False)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        for _ in range(3):
            assert self.infer(workspace) == 0
        assert calls == [(cli._M_MMAP_THRESHOLD, 32 << 20),
                         (cli._M_TRIM_THRESHOLD, 256 << 20)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_build_samples_stores_tokens_in_the_model_dtype(workspace, dtype):
    from spoofnet.cache import annotate_corpus
    from spoofnet.features import build_samples, utterance_tokens
    from spoofnet.manifest import load_manifest

    manifest = load_manifest(workspace["manifest"])
    annotations, _ = annotate_corpus(manifest, workspace["cache"])
    entries = manifest.entries[:2]
    for sample, entry in zip(build_samples(entries, annotations, dtype), entries):
        mag, phase = utterance_tokens(entry.audio_path)
        assert sample.mag.dtype == dtype and sample.phase.dtype == dtype
        assert sample.mag.tobytes() == mag.astype(dtype).tobytes()
        assert sample.phase.tobytes() == phase.astype(dtype).tobytes()


class TestTrainSplitHandling:
    def test_test_split_entries_excluded_from_training(self, workspace, tmp_path,
                                                       capsys):
        # mark two utterances as test: training must proceed on the rest
        from spoofnet.manifest import load_manifest, save_manifest

        original = load_manifest(workspace["manifest"])
        for e in original.entries[:2]:
            e.split = "test"
        manifest2 = tmp_path / "manifest2.csv"
        save_manifest(manifest2, original)  # paths resolve to the corpus dir

        run_cfg = tmp_path / "run.cfg"
        write_config(run_cfg, toy_config(),
                     TrainConfig(batch_size=8, lr=1e-3, max_epochs=1, seed=3))
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--manifest", str(manifest2),
                     "--cache", str(workspace["cache"]),
                     "--config", str(run_cfg), "--out", str(ckpt)]) == 0
        out = capsys.readouterr().out
        # 14 non-test utterances: 12 train (balanced) + 2 val
        assert "validating on 2" in out

    def test_empty_validation_split_is_2_without_a_checkpoint(self, workspace, tmp_path,
                                                              capsys):
        # 5 + 5 utterances: the 90/10 split rounds each class's 0.5 down to 0
        from spoofnet.manifest import Manifest, load_manifest, save_manifest

        entries = load_manifest(workspace["manifest"]).entries
        five_each = ([e for e in entries if e.label == "real"][:5]
                     + [e for e in entries if e.label == "fake"][:5])
        manifest2 = tmp_path / "manifest2.csv"
        save_manifest(manifest2, Manifest(five_each))

        run_cfg = tmp_path / "run.cfg"
        write_config(run_cfg, toy_config(),
                     TrainConfig(batch_size=8, lr=1e-3, max_epochs=40, seed=3))
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--manifest", str(manifest2),
                     "--cache", str(workspace["cache"]),
                     "--config", str(run_cfg), "--out", str(ckpt)]) == 2
        assert "no validation samples" in capsys.readouterr().err
        assert list(tmp_path.glob("m.ckpt*")) == []


class TestEvalSplit:
    @pytest.fixture
    def split_manifest(self, workspace, tmp_path):
        from spoofnet.manifest import load_manifest, save_manifest

        manifest = load_manifest(workspace["manifest"])
        for i, e in enumerate(manifest.entries):
            e.split = "val" if i % 4 == 1 else "train"
        path = tmp_path / "split.csv"
        save_manifest(path, manifest)
        return path, [e.utt_id for e in manifest.entries if e.split == "val"]

    def test_split_val_scores_exactly_the_val_entries(self, workspace, tmp_path,
                                                      split_manifest):
        from spoofnet.metrics import read_scores

        path, val_ids = split_manifest
        scores = tmp_path / "val.jsonl"
        assert main(["eval", "--manifest", str(path), "--ckpt", str(workspace["ckpt"]),
                     "--scores", str(scores), "--split", "val"]) == 0
        assert [r.utt_id for r in read_scores(scores)] == val_ids

    def test_split_val_annotates_only_the_val_entries(self, workspace, tmp_path,
                                                      split_manifest):
        import json

        from spoofnet.cache import CACHE_FILENAME

        path, val_ids = split_manifest
        cache = tmp_path / "fresh_cache"
        assert main(["eval", "--manifest", str(path), "--ckpt", str(workspace["ckpt"]),
                     "--scores", str(tmp_path / "val.jsonl"), "--split", "val",
                     "--cache", str(cache)]) == 0
        lines = (cache / CACHE_FILENAME).read_text().splitlines()
        assert sorted(json.loads(line)["utt_id"] for line in lines) == sorted(val_ids)

    def test_split_without_entries_is_2(self, workspace, tmp_path, split_manifest,
                                        capsys):
        path, _ = split_manifest
        scores = tmp_path / "test.jsonl"
        assert main(["eval", "--manifest", str(path), "--ckpt", str(workspace["ckpt"]),
                     "--scores", str(scores), "--split", "test"]) == 2
        assert "no usable entries" in capsys.readouterr().err
        assert not scores.exists()


class TestExitCodes:
    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest"])  # missing required arguments
        assert exc.value.code == 1

    def test_unknown_command_is_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("args", [
        ["annotate", "--manifest", "m.csv", "--cache", "c"],
        ["train", "--manifest", "m.csv", "--cache", "c", "--config", "r.cfg",
         "--out", "m.ckpt"],
        ["eval", "--manifest", "m.csv", "--ckpt", "m.ckpt", "--scores", "s.jsonl"],
        ["infer", "--wav", "a.wav", "--ckpt", "m.ckpt"],
    ], ids=lambda args: args[0])
    def test_trim_threshold_is_not_an_option(self, args):
        # the trim threshold is fixed, so eval and infer tokenize as train did
        with pytest.raises(SystemExit) as exc:
            main([*args, "--trim-db", "-30"])
        assert exc.value.code == 1

    def test_missing_file_is_2(self, tmp_path):
        assert main(["annotate", "--manifest", str(tmp_path / "nope.csv"),
                     "--cache", str(tmp_path / "c")]) == 2

    @pytest.mark.parametrize("command", ["annotate", "eval"])
    def test_directory_for_a_file_is_2(self, tmp_path, workspace, command, capsys):
        # an OSError other than FileNotFoundError: IsADirectoryError
        corpus = str(workspace["corpus"])
        argv = {"annotate": ["annotate", "--manifest", corpus,
                             "--cache", str(tmp_path / "c")],
                "eval": ["eval", "--manifest", str(workspace["manifest"]),
                         "--ckpt", corpus, "--scores", str(tmp_path / "s.jsonl")]}
        assert main(argv[command]) == 2
        err = capsys.readouterr().err
        assert "Is a directory" in err and corpus in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_bad_manifest_is_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("utt_id,audio_path,label,dataset_tag,codec_tag,split\n"
                       "u1,a.wav,bonafide,ds,,\n")
        assert main(["annotate", "--manifest", str(bad),
                     "--cache", str(tmp_path / "c")]) == 2

    @pytest.mark.parametrize("line", ["enc_heads = 0", "dtype = float16"])
    def test_unusable_config_is_2(self, tmp_path, workspace, line, capsys):
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(line + "\n")
        assert main(["train", "--manifest", str(workspace["manifest"]),
                     "--cache", str(workspace["cache"]), "--config", str(run_cfg),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        assert line.split(" ")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_is_2_before_training(self, tmp_path, workspace, lr, capsys):
        run_cfg = tmp_path / "run.cfg"
        write_config(run_cfg, toy_config(), TrainConfig(batch_size=8, lr=lr, max_epochs=1))
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--manifest", str(workspace["manifest"]),
                     "--cache", str(workspace["cache"]), "--config", str(run_cfg),
                     "--out", str(ckpt)]) == 2
        assert f"lr = '{lr}'" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("line", ["duration_s = 0.3", "duration_s = 0.1",
                                      "n_reals = 3", "n_real = -2", "n_fake = -1",
                                      "seed = -1"])
    def test_unusable_corpus_spec_is_2_before_writing(self, tmp_path, line, capsys):
        spec, out = tmp_path / "corpus.cfg", tmp_path / "corpus"
        spec.write_text("n_real = 1\nn_fake = 1\n" + line + "\n")
        assert main(["synth-corpus", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert line.split(" ")[0] in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_token_grid_mismatch_is_2_before_annotating(self, tmp_path, workspace,
                                                        capsys):
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text("n_frames = 64\n")
        cache, ckpt = tmp_path / "cache", tmp_path / "m.ckpt"
        assert main(["train", "--manifest", str(workspace["manifest"]),
                     "--cache", str(cache), "--config", str(run_cfg),
                     "--out", str(ckpt)]) == 2
        assert "n_frames" in capsys.readouterr().err
        assert not cache.exists() and not ckpt.exists()

    @pytest.mark.parametrize("line", [b"[1, 2]",
                                      b'{"utt_id": "a", "score": [1], "label": 0}',
                                      b'{"utt_id": "\xff"}'])
    def test_bad_score_file_is_2(self, tmp_path, line, capsys):
        scores = tmp_path / "bad.jsonl"
        scores.write_bytes(line + b"\n")
        assert main(["explain", "--scores", str(scores),
                     "--report", str(tmp_path / "r.json")]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [b'{"utt_id": "a", "score": 0.5, "label": 7}',
                                      b'{"utt_id": "a", "score": NaN, "label": 1}'])
    def test_invalid_score_record_is_2(self, tmp_path, workspace, line, capsys):
        scores = tmp_path / "bad.jsonl"
        scores.write_bytes(workspace["scores"].read_bytes() + line + b"\n")
        n_lines = len(scores.read_bytes().splitlines())
        assert main(["explain", "--scores", str(scores),
                     "--report", str(tmp_path / "r.json")]) == 2
        assert f"line {n_lines}" in capsys.readouterr().err

    def test_truncated_wav_is_2(self, tmp_path, workspace, capsys):
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        cut = tmp_path / "cut.wav"
        cut.write_bytes(wav.read_bytes()[:-1])
        assert main(["infer", "--wav", str(cut), "--ckpt", str(workspace["ckpt"])]) == 2
        assert "truncated WAV file" in capsys.readouterr().err

    def test_sample_rate_below_the_floor_is_2(self, tmp_path, workspace, capsys):
        # 2,000 samples at 1 Hz would resample to 32,000,000
        wav = tmp_path / "slow.wav"
        write_wav(wav, np.sin(np.arange(2000) / 5.0), rate=1)
        assert main(["infer", "--wav", str(wav), "--ckpt", str(workspace["ckpt"])]) == 2
        assert "sample rate 1 Hz" in capsys.readouterr().err

    @pytest.mark.parametrize("ranges, code", [("60:400,200:850,800:2700", 0),
                                              ("60:400,150:900,800:2700", 2)])
    def test_formant_ranges_in_the_sidecar(self, tmp_path, workspace, ranges, code,
                                           capsys):
        # sidecars written while formant_ranges was a field hold the first value
        import shutil

        ckpt = tmp_path / "m.ckpt"
        shutil.copy(workspace["ckpt"], ckpt)
        sidecar = Path(str(workspace["ckpt"]) + ".config").read_text()
        Path(str(ckpt) + ".config").write_text(sidecar + f"formant_ranges = {ranges}\n")
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        assert main(["infer", "--wav", str(wav), "--ckpt", str(ckpt)]) == code
        assert ("formant_ranges" in capsys.readouterr().err) == (code == 2)

    def test_missing_checkpoint_is_2(self, tmp_path, workspace):
        assert main(["infer", "--wav", "missing.wav",
                     "--ckpt", str(tmp_path / "none.ckpt")]) == 2

    @pytest.mark.parametrize("corrupt", ["short_header", "first_20_bytes",
                                         "bad_utf8_name"])
    def test_malformed_checkpoint_is_2(self, tmp_path, workspace, corrupt, capsys):
        import shutil

        blob = workspace["ckpt"].read_bytes()
        broken_bytes = {
            "short_header": b"SPNC\x01\x00",
            "first_20_bytes": blob[:20],
            # the first entry name starts after the 12-byte header and its u16 length
            "bad_utf8_name": blob[:14] + b"\xff" + blob[15:],
        }[corrupt]
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(broken_bytes)
        shutil.copy(str(workspace["ckpt"]) + ".config", str(broken) + ".config")
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        assert main(["infer", "--wav", str(wav), "--ckpt", str(broken)]) == 2
        assert "malformed checkpoint" in capsys.readouterr().err

    def test_incompatible_checkpoint_is_3(self, tmp_path, workspace):
        import shutil

        from spoofnet.checkpoint import load_checkpoint, save_checkpoint

        arrays = load_checkpoint(workspace["ckpt"])
        arrays["fuse.w"] = arrays["fuse.w"][:4, :4]  # wrong shape
        broken = tmp_path / "broken.ckpt"
        save_checkpoint(broken, arrays)
        shutil.copy(str(workspace["ckpt"]) + ".config", str(broken) + ".config")
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        assert main(["infer", "--wav", str(wav), "--ckpt", str(broken)]) == 3


# every retired key: the value write_config wrote while the key was a
# field, an equivalent spelling of it, and another value
RETIRED_VALUES = {
    "formant_ranges": ("60:400,200:850,800:2700", "60.0:400.0, 200.0:850.0, 800.0:2700.0",
                       "60:400,150:900,800:2700"),
    "plateau_patience": ("10", "010", "5"),
    "decay_factor": ("0.5", "5e-1", "0.25"),
    "early_stop_patience": ("20", "+20", "30"),
    "improve_tol": ("1e-05", "0.00001", "1e-4"),
    "weight_decay": ("0.01", "1e-2", "0.0"),
    "ringmod_hz": ("43.0", "43", "50.0"),
    "ringmod_depth": ("0.4", "4e-1", "0.5"),
    "tone_hz": ("3937.0", "3937", "4000.0"),
    "tone_level": ("0.2", ".2", "nan"),
}


class TestRetiredKeys:
    """A key that is now a module constant loads from an old run config
    or corpus spec while it holds that constant's value, and exits 2
    naming the key otherwise."""

    @staticmethod
    def run_with(workspace, tmp_path, key, value) -> int:
        """The exit code of the command that reads key's document, with
        ``key = value`` appended to a document that loads."""
        import shutil

        line = f"{key} = {value}\n"
        if key in config._RETIRED[SyntheticCorpusSpec]:
            spec = tmp_path / "corpus.cfg"
            spec.write_text("n_real = 0\nn_fake = 0\n" + line)
            return main(["synth-corpus", "--spec", str(spec),
                         "--out", str(tmp_path / "corpus")])
        ckpt = tmp_path / "m.ckpt"
        shutil.copy(workspace["ckpt"], ckpt)
        sidecar = Path(str(workspace["ckpt"]) + ".config").read_text()
        Path(str(ckpt) + ".config").write_text(sidecar + line)
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        return main(["infer", "--wav", str(wav), "--ckpt", str(ckpt)])

    def test_every_retired_key_is_covered(self):
        assert set(RETIRED_VALUES) == {k for keys in config._RETIRED.values() for k in keys}

    @pytest.mark.parametrize("key", sorted(RETIRED_VALUES))
    @pytest.mark.parametrize("spelling", [0, 1], ids=["as_written", "equivalent"])
    def test_fixed_value_loads(self, workspace, tmp_path, capsys, key, spelling):
        assert self.run_with(workspace, tmp_path, key, RETIRED_VALUES[key][spelling]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("key", sorted(RETIRED_VALUES))
    def test_other_value_is_2_naming_the_key(self, workspace, tmp_path, capsys, key):
        assert self.run_with(workspace, tmp_path, key, RETIRED_VALUES[key][2]) == 2
        assert f"{key} = " in capsys.readouterr().err

    def test_write_config_writes_no_retired_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(path, ModelConfig(), TrainConfig())
        written = set(config.parse_kv(path))
        write_config(path, SyntheticCorpusSpec())
        written |= set(config.parse_kv(path))
        assert written.isdisjoint(RETIRED_VALUES)
