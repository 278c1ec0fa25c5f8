import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spoofnet
from spoofnet.cli import main
from spoofnet.config import write_config
from spoofnet.dsp import write_wav
from spoofnet.model import toy_config
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


# Run in a fresh interpreter: every spoofnet module, then infer and eval.
# Only corpus synthesis may load these; each costs import time and memory
# (scipy.signal alone about 50 MB) in every other command.
LEAN_IMPORT_PROBE = """
import importlib, json, pkgutil, sys
import spoofnet
from spoofnet.cli import main
for module in pkgutil.iter_modules(spoofnet.__path__):
    importlib.import_module("spoofnet." + module.name)
wav, ckpt, manifest, cache, scores = sys.argv[1:]
assert main(["infer", "--wav", wav, "--ckpt", ckpt]) == 0
assert main(["eval", "--manifest", manifest, "--ckpt", ckpt,
             "--scores", scores, "--cache", cache]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m in ("scipy.signal", "scipy.stats", "scipy.io", "scipy.sparse"))))
"""


def test_pipeline_commands_load_no_heavy_scipy_module(workspace, tmp_path):
    src = str(Path(spoofnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
    proc = subprocess.run(
        [sys.executable, "-c", LEAN_IMPORT_PROBE, str(wav), str(workspace["ckpt"]),
         str(workspace["manifest"]), str(workspace["cache"]), str(tmp_path / "s.jsonl")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


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
