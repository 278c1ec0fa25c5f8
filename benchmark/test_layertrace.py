"""Self-test of the layer tracer on a reduced traced run.

Run from the root of the checkout: ``python3 -m pytest benchmark``.

The exact call counts hold only if the tracer also replaced the names
that modules import from each other (annotate.track_pitch,
cache.annotate_waveform, cli.annotate_corpus, cli.utterance_tokens).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from layertrace import Tracer  # noqa: E402
from spoofnet import annotate, pitch  # noqa: E402
from spoofnet.dsp import NUM_FRAMES, write_wav  # noqa: E402
from spoofnet.manifest import Manifest, ManifestEntry, save_manifest  # noqa: E402
from spoofnet.synth import SyntheticCorpusSpec, synth_utterance  # noqa: E402
from workloads import README_RUN_CFG, run_cli  # noqa: E402

PER_SPLIT = {"train": 2, "val": 1}  # utterances per class; splits preset
EPOCHS = 2
BATCH = 2
N_INFER = 3


def _calls(tracer: Tracer, name: str) -> int:
    return tracer.summary().get(name, {"calls": 0})["calls"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Traced annotate (cold, then warm), train and infer on a tiny corpus;
    one tracer per stage."""
    d = tmp_path_factory.mktemp("reduced")
    rng = np.random.default_rng(0)
    entries = []
    for split, n in PER_SPLIT.items():
        for label in ("real", "fake"):
            for i in range(n):
                path = d / f"{split}_{label}_{i}.wav"
                write_wav(path, synth_utterance(rng, SyntheticCorpusSpec(duration_s=2.2),
                                                fake=(label == "fake")))
                entries.append(ManifestEntry(utt_id=path.stem, audio_path=path,
                                             label=label, split=split))
    manifest = d / "manifest.csv"
    save_manifest(manifest, Manifest(entries))
    run_cfg = d / "run.cfg"
    run_cfg.write_text(README_RUN_CFG.replace("max_epochs = 25", f"max_epochs = {EPOCHS}")
                       .replace("batch_size = 16", f"batch_size = {BATCH}"), encoding="utf-8")
    ckpt = d / "model.ckpt"
    wav = entries[0].audio_path

    stages = {}
    argvs = {
        "cold": [["annotate", "--manifest", manifest, "--cache", d / "cache"]],
        "warm": [["annotate", "--manifest", manifest, "--cache", d / "cache"]],
        "train": [["train", "--manifest", manifest, "--cache", d / "cache",
                   "--config", run_cfg, "--out", ckpt]],
        "infer": [["infer", "--wav", wav, "--ckpt", ckpt]] * N_INFER,
    }
    for stage, calls in argvs.items():
        with Tracer() as tracer:
            for argv in calls:
                rc, _ = run_cli(argv)
                assert rc == 0, f"{stage}: {argv[0]} exited {rc}"
        stages[stage] = tracer
    epochs = len(Path(f"{ckpt}.history.jsonl").read_text(encoding="utf-8").splitlines())
    return {"stages": stages, "n_utts": len(entries), "epochs": epochs,
            "n_train": 2 * PER_SPLIT["train"]}


def test_cold_annotation_counts(run):
    t, n = run["stages"]["cold"], run["n_utts"]
    assert _calls(t, "pitch.frame_candidates") == NUM_FRAMES * n
    assert _calls(t, "formants.track_formants") == n
    assert _calls(t, "pitch.track_pitch") == n                # annotate.track_pitch
    assert _calls(t, "annotate.annotate_waveform") == n       # cache.annotate_waveform
    assert _calls(t, "cache.annotate_corpus") == 1            # cli.annotate_corpus
    assert t.counters["cache.attempted"] == n
    assert t.counters["cache.cached"] == 0


def test_warm_annotation_computes_nothing(run):
    t, n = run["stages"]["warm"], run["n_utts"]
    assert _calls(t, "pitch.frame_candidates") == 0
    assert _calls(t, "formants.track_formants") == 0
    assert _calls(t, "annotate.annotation_from_record") == n
    assert t.counters["cache.cached"] == n


def test_optimizer_steps_equal_epochs_times_batches(run):
    t = run["stages"]["train"]
    steps = run["epochs"] * math.ceil(run["n_train"] / BATCH)
    assert run["epochs"] == EPOCHS
    assert _calls(t, "optim.AdamW.step") == steps
    assert _calls(t, "autodiff.backward") == steps
    assert _calls(t, "checkpoint.save_checkpoint") == 1


def test_one_checkpoint_load_per_infer(run):
    t = run["stages"]["infer"]
    assert _calls(t, "cli.infer") == N_INFER
    assert _calls(t, "checkpoint.load_checkpoint") == N_INFER
    assert _calls(t, "features.utterance_tokens") == N_INFER  # cli.utterance_tokens
    assert _calls(t, "model.SpoofNet.predict") == N_INFER


@pytest.mark.parametrize("stage", ["cold", "warm", "train", "infer"])
def test_spans_nest_and_self_times_are_non_negative(run, stage):
    t = run["stages"][stage]
    assert t.spans
    for name, start, end, parent in t.spans:
        assert start <= end, name
        if parent >= 0:
            _, p_start, p_end, _ = t.spans[parent]
            assert p_start <= start and end <= p_end, name
    assert min(t.self_times_ns()) >= 0


def test_uninstall_restores_every_binding(run):
    assert annotate.track_pitch is pitch.track_pitch
    assert not hasattr(pitch.track_pitch, "__wrapped__")
    assert not hasattr(pitch.frame_candidates, "__wrapped__")
