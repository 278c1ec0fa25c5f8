import ctypes
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spoofnet
from spoofnet import cli, config
from spoofnet.checkpoint import load_checkpoint, save_checkpoint
from spoofnet.cli import main
from spoofnet.config import write_config
from spoofnet.dsp import write_wav
from spoofnet.errors import ParseError
from spoofnet.manifest import Manifest, load_manifest, save_manifest
from spoofnet.model import ModelConfig, toy_config
from spoofnet.synth import SyntheticCorpusSpec
from spoofnet.train import TrainConfig
from tests.readme_walkthrough import readme_heredocs


class _ReaderLeavesAfterOneWrite(io.StringIO):
    """A stdout whose reader leaves after the first write: a second write
    raises BrokenPipeError. fileno() is a devnull descriptor, onto which
    main points devnull again after a broken pipe."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd, self.writes = fd, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def fileno(self):
        return self.fd


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full CLI run: synth-corpus -> annotate -> train -> eval."""
    root = tmp_path_factory.mktemp("cli")

    spec_path = root / "corpus.cfg"
    write_config(spec_path, SyntheticCorpusSpec(
        n_real=8, n_fake=8, seed=21, duration_s=1.6))
    corpus_dir = root / "corpus"
    assert main(["synth-corpus", "--spec", str(spec_path),
                 "--out", str(corpus_dir)]) == 0
    manifest = corpus_dir / "manifest.csv"
    # two codec tags in turn, for eval's --by codec breakdown
    tagged = load_manifest(manifest)
    for i, entry in enumerate(tagged.entries):
        entry.codec_tag = ("none", "simmed")[i % 2]
    save_manifest(manifest, tagged)

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

    # an eval without --cache writes every gt_voiced as null; a record
    # without it must not be left out of the report in silence either
    @pytest.mark.parametrize("nulled", [slice(None), slice(1, None, 2)],
                             ids=["every_record", "every_other_record"])
    def test_explain_with_ground_truth_of_scores_without_it_is_2(self, workspace, nulled,
                                                                 tmp_path, capsys):
        rows = [json.loads(line) for line in workspace["scores"].read_text().splitlines()]
        for row in rows[nulled]:
            row["gt_voiced"] = None
        scores = tmp_path / "s.jsonl"
        scores.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["explain", "--scores", str(scores),
                     "--report", str(tmp_path / "r.json"), "--ground-truth"]) == 2
        err = capsys.readouterr().err
        assert rows[nulled][0]["utt_id"] in err and "eval with --cache" in err
        assert sorted(tmp_path.iterdir()) == [scores]

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
            # a chunk's rows equal one utterance's outputs bit for bit, and
            # the scores file carries float64 values exactly
            assert got.score == want.score, e.utt_id
            np.testing.assert_array_equal(got.frame_weights, want.frame_weights,
                                          err_msg=e.utt_id)
            np.testing.assert_array_equal(got.voicing_prob, want.voicing_prob,
                                          err_msg=e.utt_id)

    @pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "token_store"])
    def test_eval_names_each_missing_file_on_stderr(self, workspace, tmp_path, capsys,
                                                    cached):
        # a missing, a silent, a corrupt and an unreadable file are each
        # named and left out; the last three sit among the files of a chunk,
        # and the scores of the rest equal the clean run's byte for byte;
        # with a cache, the same files are named in the same words
        cache = []
        if cached:
            (tmp_path / "cache").mkdir()
            (tmp_path / "cache" / "annotations.jsonl").write_bytes(
                (workspace["cache"] / "annotations.jsonl").read_bytes())
            cache = ["--cache", str(tmp_path / "cache")]
        entries = load_manifest(workspace["manifest"]).entries
        write_wav(tmp_path / "silent.wav", np.zeros(16000))
        (tmp_path / "corrupt.wav").write_bytes(b"RIFF\x10\x00\x00\x00WAVEjunk")
        (tmp_path / "folder.wav").mkdir()
        ghost, silent, corrupt, folder = (
            dataclasses.replace(entries[3], utt_id=name, audio_path=tmp_path / f"{name}.wav")
            for name in ("ghost", "silent", "corrupt", "folder"))
        unusable = (entries[:2] + [silent] + entries[2:9] + [corrupt, folder] + entries[9:]
                    + [ghost])
        runs = {}
        for name, listed in (("present", entries), ("unusable", unusable)):
            manifest, scores = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
            save_manifest(manifest, Manifest(listed))
            assert main(["eval", "--manifest", str(manifest), "--ckpt",
                         str(workspace["ckpt"]), "--scores", str(scores), *cache]) == 0
            runs[name] = capsys.readouterr(), scores.read_bytes()
        (out, err), scores = runs["unusable"]
        lines = err.splitlines()
        assert lines[0] == "  skipped ghost: missing audio file"
        assert lines[1] == "  skipped silent: all-zero signal"
        assert lines[2].startswith("  skipped corrupt: ") and "corrupt.wav" in lines[2]
        assert lines[3].startswith("  skipped folder: ") and "Is a directory" in lines[3]
        assert len(lines) == 4
        assert runs["present"] == ((out, ""), scores)

    def test_eval_with_no_usable_file_is_2(self, workspace, tmp_path, capsys):
        entries = load_manifest(workspace["manifest"]).entries
        write_wav(tmp_path / "silent.wav", np.zeros(16000))
        manifest, scores = tmp_path / "m.csv", tmp_path / "s.jsonl"
        save_manifest(manifest, Manifest([dataclasses.replace(
            entries[0], audio_path=tmp_path / "silent.wav")]))
        assert main(["eval", "--manifest", str(manifest), "--ckpt",
                     str(workspace["ckpt"]), "--scores", str(scores)]) == 2
        assert capsys.readouterr().err == (f"  skipped {entries[0].utt_id}: all-zero signal\n"
                                           "data error: no usable entries to evaluate\n")
        assert not scores.exists()

    def test_eval_with_one_class_is_2_without_scores(self, workspace, tmp_path, capsys):
        # the EER needs both classes; a failed eval leaves no score file
        reals = [e for e in load_manifest(workspace["manifest"]) if e.label == "real"]
        manifest, scores = tmp_path / "m.csv", tmp_path / "s.jsonl"
        save_manifest(manifest, Manifest(reals[:6]))
        assert main(["eval", "--manifest", str(manifest), "--ckpt",
                     str(workspace["ckpt"]), "--scores", str(scores), "--by", "dataset"]) == 2
        captured = capsys.readouterr()
        assert "need both classes" in captured.err and captured.out == ""
        assert not scores.exists()

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

    @pytest.mark.parametrize("command", ["infer", "eval", "explain"])
    def test_reader_leaving_after_the_report_is_no_error(self, workspace, tmp_path,
                                                         monkeypatch, command):
        # the report goes out in one write, so a reader that leaves after it
        # (`| head -1` on unbuffered stdout) finds the command done
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        argv = {"infer": ["infer", "--wav", str(wav), "--ckpt", str(workspace["ckpt"])],
                "eval": ["eval", "--manifest", str(workspace["manifest"]),
                         "--ckpt", str(workspace["ckpt"]), "--by", "codec",
                         "--scores", str(tmp_path / "s.jsonl")],
                "explain": ["explain", "--scores", str(workspace["scores"]),
                            "--report", str(tmp_path / "r.json")]}[command]
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            stdout = _ReaderLeavesAfterOneWrite(devnull)
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(argv) == 0
        finally:
            monkeypatch.undo()
            os.close(devnull)
        assert len(stdout.getvalue().splitlines()) > 1

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
# module, then synth-corpus, annotate (into a fresh cache), infer, eval
# and explain (of eval's scores): every pipeline command but train.
# scipy serves only as a test oracle, so any import of it here fails the
# probe. The process pool serves `annotate --workers N` alone, so no
# other command, infer and a one-worker annotate included, should pay
# its import time.
LEAN_IMPORT_PROBE = """
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None
import spoofnet
from spoofnet.cli import main
for module in pkgutil.iter_modules(spoofnet.__path__):
    importlib.import_module("spoofnet." + module.name)
(spec, corpus, fresh_cache, wav, ckpt, manifest, cache, scores, report, run_cfg,
 trained) = sys.argv[1:]
assert main(["synth-corpus", "--spec", spec, "--out", corpus]) == 0
assert main(["annotate", "--manifest", corpus + "/manifest.csv",
             "--cache", fresh_cache]) == 0
assert main(["train", "--manifest", manifest, "--cache", cache, "--config", run_cfg,
             "--out", trained]) == 0
assert main(["infer", "--wav", wav, "--ckpt", ckpt]) == 0
assert main(["eval", "--manifest", manifest, "--ckpt", ckpt,
             "--scores", scores, "--cache", cache]) == 0
assert main(["explain", "--scores", scores, "--report", report]) == 0
print(json.dumps("concurrent.futures.process" in sys.modules))
"""


def test_commands_run_without_scipy_or_process_pool(workspace, tmp_path):
    src = str(Path(spoofnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    spec = tmp_path / "corpus.cfg"
    write_config(spec, SyntheticCorpusSpec(n_real=1, n_fake=1, duration_s=1.0))
    run_cfg = tmp_path / "run.cfg"
    write_config(run_cfg, toy_config(), TrainConfig(batch_size=8, lr=1e-3, max_epochs=1))
    wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
    proc = subprocess.run(
        [sys.executable, "-c", LEAN_IMPORT_PROBE, str(spec), str(tmp_path / "corpus"),
         str(tmp_path / "cache"), str(wav), str(workspace["ckpt"]),
         str(workspace["manifest"]), str(workspace["cache"]), str(tmp_path / "s.jsonl"),
         str(tmp_path / "r.json"), str(run_cfg), str(tmp_path / "m.ckpt")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) is False
    assert (tmp_path / "corpus" / "manifest.csv").exists()
    assert (tmp_path / "cache" / "annotations.jsonl").exists()
    assert (tmp_path / "m.ckpt").exists() and (tmp_path / "m.ckpt.config").exists()
    assert (tmp_path / "r.json").exists() and (tmp_path / "r.csv").exists()


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


class TestOneParserPerProcess:
    """main builds its parser on the first call and looks each handler up
    at call time; one call leaves nothing behind for the next."""

    @staticmethod
    def infer_argv(workspace) -> list[str]:
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        return ["infer", "--wav", str(wav), "--ckpt", str(workspace["ckpt"])]

    def test_parser_built_once_however_often_main_runs(self, workspace,
                                                       monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(None)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for _ in range(3):
            assert main(self.infer_argv(workspace)) == 0
        assert len(built) == 1
        assert capsys.readouterr().out.count(": score ") == 3

    def test_handler_rebound_after_the_first_call_runs(self, workspace,
                                                       monkeypatch, capsys):
        argv = self.infer_argv(workspace)
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "_cmd_infer", lambda args: seen.append(args.wav) or 0)
        assert main(argv) == 0
        assert seen == [argv[2]]
        assert capsys.readouterr().out.count(": score ") == 1

    def test_eval_by_leaves_no_breakdown_for_the_next_eval(self, workspace, tmp_path,
                                                           capsys):
        def run_eval(*by):
            scores = tmp_path / "s.jsonl"
            assert main(["eval", "--manifest", str(workspace["manifest"]),
                         "--ckpt", str(workspace["ckpt"]), "--scores", str(scores),
                         *by]) == 0
            return capsys.readouterr().out, scores.read_bytes()

        plain = run_eval()
        by_dataset = run_eval("--by", "dataset")
        assert len(plain[0].splitlines()) == 1
        assert len(by_dataset[0].splitlines()) == 4
        assert run_eval() == plain

    def test_usage_error_between_calls_changes_neither(self, workspace, capsys):
        argv = self.infer_argv(workspace)
        assert main(argv) == 0
        before = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--wav"])
        assert exc.value.code == 1
        assert "expected one argument" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr() == before


@pytest.mark.parametrize("fault", ["missing", "shape"])
def test_from_state_and_load_state_refuse_alike(workspace, fault):
    from spoofnet.errors import DataError
    from spoofnet.model import SpoofNet

    arrays = dict(load_checkpoint(workspace["ckpt"]))
    if fault == "missing":
        del arrays["score.b"]
    else:
        arrays["fuse.w"] = arrays["fuse.w"][:4]
    with pytest.raises(DataError) as from_state:
        SpoofNet.from_state(toy_config(), arrays)
    model = SpoofNet(toy_config(), seed=1)
    before = model.state_dict()
    with pytest.raises(DataError) as load_state:
        model.load_state(arrays)
    assert str(from_state.value) == str(load_state.value)
    assert ("score.b" if fault == "missing" else "fuse.w") in str(load_state.value)
    # a refused state changes no parameter
    for name, p in model.params.items():
        assert p.data.tobytes() == before[name].tobytes(), name


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


class TestTokenStoreCommands:
    """train with --cache reads and fills the cache's token store, eval
    --cache only reads it, and both write the same bytes whether the store
    was cold or warm."""

    @staticmethod
    def annotated_cache(workspace, path) -> Path:
        """A cache dir holding the workspace's annotations and no tokens."""
        import shutil

        path.mkdir()
        shutil.copy(workspace["cache"] / "annotations.jsonl", path)
        return path

    @staticmethod
    def refuse_featurizing(monkeypatch):
        from spoofnet import features

        def refuse(path):
            raise AssertionError(f"featurized {path} with a warm store")

        monkeypatch.setattr(features, "utterance_tokens", refuse)

    @staticmethod
    def train(workspace, tmp_path, cache, name) -> bytes:
        """The checkpoint bytes of the workspace's own run on cache."""
        run_cfg = tmp_path / "run.cfg"
        write_config(run_cfg, toy_config(),
                     TrainConfig(batch_size=8, lr=1e-3, max_epochs=4, seed=3))
        ckpt = tmp_path / f"{name}.ckpt"
        assert main(["train", "--manifest", str(workspace["manifest"]),
                     "--cache", str(cache), "--config", str(run_cfg),
                     "--out", str(ckpt)]) == 0
        return ckpt.read_bytes()

    def test_eval_scores_equal_without_cache_and_with_cold_and_warm_store(
            self, workspace, tmp_path, capsys, monkeypatch):
        cache = self.annotated_cache(workspace, tmp_path / "cache")

        def run_eval(name, *extra):
            scores = tmp_path / f"{name}.jsonl"
            assert main(["eval", "--manifest", str(workspace["manifest"]),
                         "--ckpt", str(workspace["ckpt"]), "--scores", str(scores),
                         "--by", "codec", *extra]) == 0
            return capsys.readouterr().out, scores.read_bytes()

        plain = run_eval("plain")
        cold = run_eval("cold", "--cache", str(cache))
        # eval wrote no token file
        assert [p.name for p in cache.iterdir()] == ["annotations.jsonl"]
        self.train(workspace, tmp_path, cache, "fill")
        capsys.readouterr()
        assert len(list((cache / "tokens").iterdir())) == 16
        self.refuse_featurizing(monkeypatch)
        warm = run_eval("warm", "--cache", str(cache))
        # the workspace's scores came from the tokens its train stored
        assert warm == cold and cold[1] == workspace["scores"].read_bytes()
        # without --cache the records carry no ground-truth voicing, and
        # every other byte is the same
        rows = [json.loads(line) for line in cold[1].splitlines()]
        assert all(row.pop("gt_voiced") is not None for row in rows)
        assert plain[1] == "".join(json.dumps({**row, "gt_voiced": None}) + "\n"
                                   for row in rows).encode()
        assert plain[0] == cold[0]

    def test_train_checkpoint_equal_from_cold_and_warm_store(self, workspace, tmp_path,
                                                             monkeypatch):
        cache = self.annotated_cache(workspace, tmp_path / "cache")
        cold = self.train(workspace, tmp_path, cache, "cold")
        assert len(list((cache / "tokens").iterdir())) == 16
        self.refuse_featurizing(monkeypatch)
        warm = self.train(workspace, tmp_path, cache, "warm")
        assert warm == cold == workspace["ckpt"].read_bytes()

    def test_train_on_a_full_disk_writes_the_same_checkpoint(self, workspace, tmp_path,
                                                             monkeypatch):
        import errno

        def full_disk(fh, array, **kwargs):
            fh.write(b"\x93NUMPY")
            raise OSError(errno.ENOSPC, "No space left on device")

        cache = self.annotated_cache(workspace, tmp_path / "cache")
        monkeypatch.setattr(np.lib.format, "write_array", full_disk)
        assert self.train(workspace, tmp_path, cache, "full") == workspace["ckpt"].read_bytes()
        assert list((cache / "tokens").iterdir()) == []  # no temp file left


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

        from spoofnet.cache import CACHE_FILENAME, TOKENS_DIRNAME

        path, val_ids = split_manifest
        cache = tmp_path / "fresh_cache"
        assert main(["eval", "--manifest", str(path), "--ckpt", str(workspace["ckpt"]),
                     "--scores", str(tmp_path / "val.jsonl"), "--split", "val",
                     "--cache", str(cache)]) == 0
        lines = (cache / CACHE_FILENAME).read_text().splitlines()
        assert sorted(json.loads(line)["utt_id"] for line in lines) == sorted(val_ids)
        # eval reads the token store and never writes it
        assert not (cache / TOKENS_DIRNAME).exists()

    def test_split_without_entries_is_2(self, workspace, tmp_path, split_manifest,
                                        capsys):
        path, _ = split_manifest
        scores = tmp_path / "test.jsonl"
        assert main(["eval", "--manifest", str(path), "--ckpt", str(workspace["ckpt"]),
                     "--scores", str(scores), "--split", "test"]) == 2
        assert "no usable entries" in capsys.readouterr().err
        assert not scores.exists()

    def test_unknown_split_is_a_usage_error(self, workspace, tmp_path, capsys):
        scores = tmp_path / "vall.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--manifest", str(workspace["manifest"]),
                  "--ckpt", str(workspace["ckpt"]), "--scores", str(scores),
                  "--split", "vall"])
        assert exc.value.code == 1
        assert "invalid choice: 'vall'" in capsys.readouterr().err
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

    @pytest.mark.parametrize("line", ["enc_heads = 0", "dtype = float16", "seed = -1"])
    def test_unusable_config_is_2(self, tmp_path, workspace, line, capsys):
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(line + "\n")
        assert main(["train", "--manifest", str(workspace["manifest"]),
                     "--cache", str(workspace["cache"]), "--config", str(run_cfg),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        err = capsys.readouterr().err
        assert line.split(" ")[0] in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_is_2_before_training(self, tmp_path, workspace, lr, capsys):
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(f"batch_size = 8\nlr = {lr}\nmax_epochs = 1\n")
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--manifest", str(workspace["manifest"]),
                     "--cache", str(workspace["cache"]), "--config", str(run_cfg),
                     "--out", str(ckpt)]) == 2
        assert f"TrainConfig.lr = {lr}" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("line", ["duration_s = 0.3", "duration_s = 0.1",
                                      "n_reals = 3", "n_real = -2", "n_fake = -1",
                                      "seed = -1"])
    def test_unusable_corpus_spec_is_2_before_writing(self, tmp_path, line, capsys):
        spec, out = tmp_path / "corpus.cfg", tmp_path / "corpus"
        # the base document leaves out the key under test: a key may be set once
        spec.write_text("".join(f"{key} = 1\n" for key in ("n_real", "n_fake")
                                if not line.startswith(key + " ")) + line + "\n")
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

    @pytest.mark.parametrize("field, value", [("dataset_tag", 5), ("label", True),
                                              ("frame_weights", float("nan")),
                                              ("voicing_prob", 7.0)])
    def test_malformed_score_record_is_2_without_a_report(self, tmp_path, workspace,
                                                          field, value, capsys):
        # a tag of another type once crashed explain, and a NaN weight reached
        # the report; a list field gets the value in its first item
        lines = workspace["scores"].read_text().splitlines()
        row = json.loads(lines[0])
        if isinstance(row[field], list):
            row[field][0] = value
        else:
            row[field] = value
        scores = tmp_path / "bad.jsonl"
        scores.write_text("\n".join([json.dumps(row), *lines[1:]]) + "\n")
        report = tmp_path / "r.json"
        assert main(["explain", "--scores", str(scores), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert "line 1: bad score record" in err and field in err
        assert sorted(tmp_path.iterdir()) == [scores]

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

    @pytest.mark.parametrize("fault, name", [("cut", "fuse.w"), ("missing", "score.b"),
                                             ("sidecar_width", "enc_mag.proj.w")])
    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_checkpoint_disagreeing_with_its_sidecar_is_2(self, tmp_path, workspace, capsys,
                                                          command, fault, name):
        # the arrays and the sidecar are both input files: a parameter that
        # is missing or has another shape than the config says is bad input
        arrays = dict(load_checkpoint(workspace["ckpt"]))
        sidecar = Path(str(workspace["ckpt"]) + ".config").read_text()
        if fault == "cut":
            arrays[name] = arrays[name][:4, :4]
        elif fault == "missing":
            del arrays[name]
        else:
            sidecar = sidecar.replace("embed_dim = 16\n", "embed_dim = 32\n")
            assert "embed_dim = 32" in sidecar
        broken, scores = tmp_path / "broken.ckpt", tmp_path / "s.jsonl"
        save_checkpoint(broken, arrays)
        Path(str(broken) + ".config").write_text(sidecar)
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        argv = {"infer": ["infer", "--wav", str(wav), "--ckpt", str(broken)],
                "eval": ["eval", "--manifest", str(workspace["manifest"]),
                         "--ckpt", str(broken), "--scores", str(scores)]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"parameter {name!r}" in err
        assert not scores.exists()

    @pytest.mark.parametrize("doc, setting, line", [
        ("run.cfg", "lr = -0.001", 11), ("run.cfg", "lr = abc", 11),
        ("run.cfg", "improve_tol = 0.5", 14), ("corpus.cfg", "duration_s = 0.2", 4)])
    def test_value_error_is_2_naming_its_line(self, tmp_path, workspace, capsys,
                                              doc, setting, line):
        # the README's own documents, with one key set (or added) to a refused value
        lines = readme_heredocs()[doc].splitlines()
        keys = [text.split(" = ")[0] for text in lines]
        key = setting.split(" = ")[0]
        if key in keys:
            lines[keys.index(key)] = setting
        else:
            lines.append(setting)
        assert lines.index(setting) + 1 == line
        path = tmp_path / doc
        path.write_text("\n".join(lines) + "\n")
        if doc == "corpus.cfg":
            argv = ["synth-corpus", "--spec", str(path), "--out", str(tmp_path / "corpus")]
        else:
            argv = ["train", "--manifest", str(workspace["manifest"]),
                    "--cache", str(workspace["cache"]), "--config", str(path),
                    "--out", str(tmp_path / "m.ckpt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: line {line}: ") and key in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_annotate_workers_below_1_is_1(self, tmp_path, workspace, workers):
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            main(["annotate", "--manifest", str(workspace["manifest"]),
                  "--cache", str(cache), "--workers", workers])
        assert exc.value.code == 1
        assert not cache.exists()

    def test_repeated_run_config_key_is_2_naming_both_lines(self, tmp_path, workspace,
                                                            capsys):
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text("lr = 0.001\nbatch_size = 8\nlr = 5\n")
        cache, ckpt = tmp_path / "cache", tmp_path / "m.ckpt"
        assert main(["train", "--manifest", str(workspace["manifest"]),
                     "--cache", str(cache), "--config", str(run_cfg),
                     "--out", str(ckpt)]) == 2
        assert "line 3: lr is set again (first set on line 1)" in capsys.readouterr().err
        assert not cache.exists() and not ckpt.exists()

    def test_repeated_corpus_spec_key_is_2_naming_both_lines(self, tmp_path, capsys):
        spec, out = tmp_path / "corpus.cfg", tmp_path / "corpus"
        spec.write_text("seed = 1\nn_real = 1\nn_fake = 1\nseed = 2\n")
        assert main(["synth-corpus", "--spec", str(spec), "--out", str(out)]) == 2
        assert "line 4: seed is set again (first set on line 1)" in capsys.readouterr().err
        assert not out.exists()


class TestHashInValues:
    """'#' starts a comment only at the start of a line or after
    whitespace; a '#' joined to a value is refused on read and on write,
    never silently cut."""

    def test_joined_hash_is_2_naming_the_line(self, tmp_path, capsys):
        spec, out = tmp_path / "corpus.cfg", tmp_path / "corpus"
        spec.write_text("n_real = 1\nn_fake = 1\ndataset_tag = asv#19\n")
        assert main(["synth-corpus", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 3: '#' inside 'dataset_tag = asv#19'" in err
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_comments_after_whitespace_are_dropped(self, tmp_path):
        path = tmp_path / "corpus.cfg"
        path.write_text("# a corpus\nn_real = 3  # reals\n\t# indented\n"
                        "dataset_tag = asv19\t#tab\n")
        assert config.parse_kv(path) == {"n_real": "3", "dataset_tag": "asv19"}

    @pytest.mark.parametrize("tag", ["asv#19", "asv\n19", "asv\r19", " asv19", "asv19 "])
    def test_write_config_refuses_a_value_that_would_not_read_back(self, tmp_path, tag):
        path = tmp_path / "corpus.cfg"
        with pytest.raises(ValueError, match="dataset_tag"):
            write_config(path, SyntheticCorpusSpec(dataset_tag=tag))
        assert not path.exists()

    def test_written_spec_round_trips(self, tmp_path):
        path = tmp_path / "corpus.cfg"
        spec = SyntheticCorpusSpec(n_real=2, n_fake=3, seed=4, duration_s=1.5,
                                   dataset_tag="asv-19 dev")
        write_config(path, spec, header="corpus # spec")
        assert config.load_corpus_spec(path) == spec


class TestCollidingPaths:
    """A command whose output path names one of its inputs or another of
    its outputs exits 2 before any work, leaving every file as it was."""

    @staticmethod
    def assert_refused(argv, files, capsys):
        before = {f: f.read_bytes() for f in files if f.exists()}
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "names the same file as" in err and len(err.splitlines()) == 1
        assert {f: f.read_bytes() for f in files if f.exists()} == before

    @pytest.mark.parametrize("collision", ["history_is_out", "out_is_config",
                                           "history_is_sidecar", "out_is_manifest"])
    def test_train(self, tmp_path, workspace, collision, capsys):
        import shutil

        manifest, run_cfg = tmp_path / "m.csv", tmp_path / "run.cfg"
        save_manifest(manifest, load_manifest(workspace["manifest"]))
        shutil.copy(Path(str(workspace["ckpt"]) + ".config"), run_cfg)
        out, history = tmp_path / "m.ckpt", None
        if collision == "history_is_out":
            history = out
        elif collision == "out_is_config":
            out = run_cfg
        elif collision == "history_is_sidecar":
            history = Path(str(out) + ".config")
        else:
            out = manifest
        cache = tmp_path / "cache"
        argv = ["train", "--manifest", str(manifest), "--cache", str(cache),
                "--config", str(run_cfg), "--out", str(out)]
        if history is not None:
            argv += ["--history", str(history)]
        self.assert_refused(argv, [manifest, run_cfg, out], capsys)
        assert not cache.exists() and not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("collision", ["manifest", "ckpt", "sidecar"])
    def test_eval(self, tmp_path, workspace, collision, capsys):
        import shutil

        manifest, ckpt = tmp_path / "m.csv", tmp_path / "m.ckpt"
        save_manifest(manifest, load_manifest(workspace["manifest"]))
        shutil.copy(workspace["ckpt"], ckpt)
        shutil.copy(Path(str(workspace["ckpt"]) + ".config"), Path(str(ckpt) + ".config"))
        scores = {"manifest": manifest, "ckpt": ckpt,
                  "sidecar": Path(str(ckpt) + ".config")}[collision]
        self.assert_refused(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt),
                             "--scores", str(scores)],
                            [manifest, ckpt, Path(str(ckpt) + ".config")], capsys)

    @pytest.mark.parametrize("collision", ["report_is_its_csv", "report_is_scores",
                                           "csv_is_scores"])
    def test_explain(self, tmp_path, workspace, collision, capsys):
        scores, report = {
            "report_is_its_csv": (tmp_path / "s.jsonl", tmp_path / "r.csv"),
            "report_is_scores": (tmp_path / "s.jsonl", tmp_path / "s.jsonl"),
            "csv_is_scores": (tmp_path / "s.csv", tmp_path / "s.json"),
        }[collision]
        scores.write_bytes(workspace["scores"].read_bytes())
        self.assert_refused(["explain", "--scores", str(scores), "--report", str(report)],
                            [scores, report, report.with_suffix(".csv")], capsys)
        assert sorted(tmp_path.iterdir()) == [scores]


# every key that older versions wrote and that is now a module constant,
# with the value those files carry, by the document that carried it
FORMER_KEYS = {
    "formant_ranges": ("60:400,200:850,800:2700", "sidecar"),
    "plateau_patience": ("10", "sidecar"),
    "decay_factor": ("0.5", "sidecar"),
    "early_stop_patience": ("20", "sidecar"),
    "improve_tol": ("1e-05", "sidecar"),
    "weight_decay": ("0.01", "sidecar"),
    "ringmod_hz": ("43.0", "spec"),
    "ringmod_depth": ("0.4", "spec"),
    "tone_hz": ("3937.0", "spec"),
    "tone_level": ("0.2", "spec"),
}


@pytest.mark.parametrize("key", sorted(FORMER_KEYS))
def test_former_key_is_refused_naming_it_and_its_line(workspace, tmp_path, capsys, key):
    """A sidecar or corpus spec that loads, with a former key appended at
    the value old files carry, exits 2 naming the key and its line."""
    import shutil

    value, document = FORMER_KEYS[key]
    line = f"{key} = {value}\n"
    if document == "spec":
        text = "n_real = 0\nn_fake = 0\n"
        spec = tmp_path / "corpus.cfg"
        spec.write_text(text + line)
        argv = ["synth-corpus", "--spec", str(spec), "--out", str(tmp_path / "corpus")]
    else:
        text = Path(str(workspace["ckpt"]) + ".config").read_text()
        ckpt = tmp_path / "m.ckpt"
        shutil.copy(workspace["ckpt"], ckpt)
        Path(str(ckpt) + ".config").write_text(text + line)
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        argv = ["infer", "--wav", str(wav), "--ckpt", str(ckpt)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"line {len(text.splitlines()) + 1}: unknown config keys: {key}" in err


def test_write_config_writes_no_former_key(tmp_path):
    path = tmp_path / "run.cfg"
    write_config(path, ModelConfig(), TrainConfig())
    written = set(config.parse_kv(path))
    write_config(path, SyntheticCorpusSpec())
    written |= set(config.parse_kv(path))
    assert written.isdisjoint(FORMER_KEYS)


NAN, INF = float("nan"), float("inf")
# every field of the three config records but dataset_tag, with values its
# rule refuses: a size below 1; a negative layer count, count, seed or loss
# weight; a dtype other than float32/float64; a learning rate that is not
# positive; a corpus duration below MIN_DURATION_S; a non-finite float
REFUSED_VALUES = {
    (ModelConfig, "embed_dim"): (0, -3),
    (ModelConfig, "enc_layers"): (-1,),
    (ModelConfig, "enc_heads"): (0,),
    (ModelConfig, "enc_head_dim"): (0,),
    (ModelConfig, "mlp_dim"): (0,),
    (ModelConfig, "pred_layers"): (-1,),
    (ModelConfig, "pred_heads"): (0,),
    (ModelConfig, "pred_head_dim"): (0,),
    (ModelConfig, "pool_heads"): (0,),
    (ModelConfig, "n_frames"): (0,),
    (ModelConfig, "n_bins"): (0,),
    (ModelConfig, "dtype"): ("float16", "int32"),
    (TrainConfig, "batch_size"): (0,),
    (TrainConfig, "lr"): (-0.001, 0.0, NAN, INF),
    (TrainConfig, "max_epochs"): (0,),
    (TrainConfig, "weight_score"): (-1.0, NAN),
    (TrainConfig, "weight_voicing"): (-5.0, INF),
    (TrainConfig, "weight_formant"): (-0.3, -INF),
    (TrainConfig, "seed"): (-1,),
    (SyntheticCorpusSpec, "n_real"): (-2,),
    (SyntheticCorpusSpec, "n_fake"): (-1,),
    (SyntheticCorpusSpec, "seed"): (-1,),
    (SyntheticCorpusSpec, "duration_s"): (0.2, 0.53, NAN, INF),
}
REFUSED_CASES = [pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value}")
                 for (cls, name), values in REFUSED_VALUES.items() for value in values]


class TestRecordValues:
    """Each config record checks its own values when it is built, so a
    value is refused the same way from a file and in code."""

    @staticmethod
    def run_with(workspace, tmp_path, cls, values: dict) -> int:
        """The exit code of the command that reads cls's document: ``values``
        set over a valid one (an empty corpus; a toy model, one epoch)."""
        if cls is SyntheticCorpusSpec:
            base = {"n_real": 0, "n_fake": 0}
        else:
            base = {**dataclasses.asdict(toy_config()), "max_epochs": 1}
        doc = tmp_path / "doc.cfg"
        doc.write_text("".join(f"{k} = {v}\n" for k, v in {**base, **values}.items()))
        if cls is SyntheticCorpusSpec:
            return main(["synth-corpus", "--spec", str(doc), "--out", str(tmp_path / "corpus")])
        return main(["train", "--manifest", str(workspace["manifest"]),
                     "--cache", str(workspace["cache"]), "--config", str(doc),
                     "--out", str(tmp_path / "m.ckpt")])

    def test_table_covers_every_field_but_the_dataset_tag(self):
        fields = {(cls, f.name) for cls in (ModelConfig, TrainConfig, SyntheticCorpusSpec)
                  for f in dataclasses.fields(cls)}
        assert set(REFUSED_VALUES) == fields - {(SyntheticCorpusSpec, "dataset_tag")}

    @pytest.mark.parametrize("cls, name, value", REFUSED_CASES)
    def test_refused_in_code_naming_the_field(self, cls, name, value):
        with pytest.raises(ParseError, match="^" + re.escape(f"{cls.__name__}.{name} = {value} ")):
            cls(**{name: value})

    @pytest.mark.parametrize("cls, name, value", REFUSED_CASES)
    def test_refused_from_a_file_is_2_naming_the_field(self, workspace, tmp_path, capsys,
                                                        cls, name, value):
        assert self.run_with(workspace, tmp_path, cls, {name: value}) == 2
        err = capsys.readouterr().err
        assert f"{cls.__name__}.{name} = {value} " in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "corpus").exists()

    def test_all_zero_loss_weights_refused(self, workspace, tmp_path, capsys):
        zero = dict(weight_score=0.0, weight_voicing=0.0, weight_formant=0.0)
        with pytest.raises(ParseError, match="^TrainConfig.weight_score, .* all 0"):
            TrainConfig(**zero)
        assert self.run_with(workspace, tmp_path, TrainConfig, zero) == 2
        assert "TrainConfig.weight_score, " in capsys.readouterr().err


class TestNonFiniteOutputs:
    """A checkpoint whose outputs are not finite exits 3 naming the file or
    utterance, and eval writes no scores."""

    @pytest.fixture(params=["score.b", "voicing.b", "pool.w"])
    def nan_ckpt(self, request, workspace, tmp_path):
        arrays = load_checkpoint(workspace["ckpt"])
        arrays[request.param] = np.full_like(arrays[request.param], np.nan)
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, arrays)
        Path(str(ckpt) + ".config").write_text(
            Path(str(workspace["ckpt"]) + ".config").read_text())
        return ckpt

    def test_infer_is_3(self, workspace, nan_ckpt, capsys):
        wav = workspace["corpus"] / "audio" / "synth_real_000.wav"
        assert main(["infer", "--wav", str(wav), "--ckpt", str(nan_ckpt)]) == 3
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and str(wav) in captured.err
        assert captured.out == ""

    def test_eval_is_3_before_writing_scores(self, workspace, nan_ckpt, tmp_path, capsys):
        scores = tmp_path / "s.jsonl"
        assert main(["eval", "--manifest", str(workspace["manifest"]),
                     "--ckpt", str(nan_ckpt), "--scores", str(scores)]) == 3
        err = capsys.readouterr().err
        first = load_manifest(workspace["manifest"]).entries[0].utt_id
        assert "non-finite" in err and f" for {first}" in err
        assert not scores.exists()
