"""The benchmark's workloads: inputs (set-up), timed passes and checks.

Every workload is closed-loop and single-process: one caller issues the
next operation only after the previous one returned. The program is
driven through its public API and through ``spoofnet.cli.main``
in-process; it sees only the generated WAVs, manifests, configs and
checkpoints. Each workload's inputs are a pure function of the seed.

Run as a script, this module builds one workload's inputs into a
directory: ``python3 benchmark/workloads.py <workload> <seed> <out_dir>``.
The benchmark runs set-up that way, in a child process, so that the
peak memory it reports belongs to the timed part alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from spoofnet import cache, checkpoint, cli, features
from spoofnet.config import write_config
from spoofnet.dsp import write_wav
from spoofnet.manifest import Manifest, ManifestEntry, load_manifest, save_manifest
from spoofnet.model import ModelConfig, SpoofNet
from spoofnet.synth import SyntheticCorpusSpec, synth_utterance
from spoofnet.train import TrainConfig

# corpus_annotate: utterance count and the duration range around the
# fixed 2.064 s window, so that short items are tiled and long ones cut
ANNOTATE_UTTERANCES = 16
ANNOTATE_DURATION_S = (1.0, 3.2)
WARM_PASSES = 120
# walkthrough: the README corpus sizes and its toy run.cfg
WALKTHROUGH_CORPUS = "n_real = 20\nn_fake = 20\nseed = {seed}\nduration_s = 2.2\n"
README_RUN_CFG = """embed_dim = 16
enc_layers = 1
enc_heads = 2
enc_head_dim = 8
mlp_dim = 32
pred_layers = 1
pred_heads = 2
pred_head_dim = 8
pool_heads = 2
batch_size = 16
lr = 0.001
max_epochs = 25
seed = 5
"""
INFER_ROUNDS = 8     # 8 x 40 calls: p90 has 32 samples beyond it
# eval takes a quarter second; its rate is the median of each pass's eval
# and this many more on the last pass's model, run after the passes
EVAL_REPEATS = 8
AUC_FLOOR = 0.90     # the validation floor of acceptance criterion 7
WEIGHT_SUM_TOL = 1e-5
# infer_full: a small corpus and the full-scale model from a fixed seed
INFER_FULL_CORPUS = "n_real = 4\nn_fake = 4\nseed = {seed}\nduration_s = 2.2\n"
FULL_MODEL_SEED = 0
PREDICT_REPEATS = 3

_SCORE = re.compile(r": score ([0-9.]+) \(")
_TRAIN_COUNT = re.compile(r"training on (\d+) utterances")


class Outcome:
    """Operations and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_cli(argv) -> tuple[int, str]:
    """``spoofnet <argv>`` in-process: (exit code, captured stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an escaped exception is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return rc, buf.getvalue()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# -- set-up -------------------------------------------------------------------

def _synth_corpus(spec_text: str, out: Path) -> None:
    spec = out / "corpus.cfg"
    spec.write_text(spec_text, encoding="utf-8")
    rc, _ = run_cli(["synth-corpus", "--spec", spec, "--out", out / "corpus"])
    if rc != 0:
        raise RuntimeError(f"synth-corpus exited {rc}")


def setup_corpus_annotate(seed: int, out: Path) -> None:
    rng = np.random.default_rng(seed)
    audio = out / "corpus" / "audio"
    audio.mkdir(parents=True)
    entries = []
    for i in range(ANNOTATE_UTTERANCES):
        label = "fake" if i % 2 else "real"
        spec = SyntheticCorpusSpec(duration_s=float(rng.uniform(*ANNOTATE_DURATION_S)))
        path = audio / f"bench_{label}_{i:03d}.wav"
        write_wav(path, synth_utterance(rng, spec, fake=(label == "fake")))
        entries.append(ManifestEntry(utt_id=path.stem, audio_path=path,
                                     label=label, dataset_tag="bench"))
    save_manifest(out / "corpus" / "manifest.csv", Manifest(entries))


def setup_walkthrough(seed: int, out: Path) -> None:
    (out / "run.cfg").write_text(README_RUN_CFG, encoding="utf-8")
    _synth_corpus(WALKTHROUGH_CORPUS.format(seed=seed), out)


def setup_infer_full(seed: int, out: Path) -> None:
    _synth_corpus(INFER_FULL_CORPUS.format(seed=seed), out)
    model_cfg = ModelConfig()
    model = SpoofNet(model_cfg, seed=FULL_MODEL_SEED)
    checkpoint.save_checkpoint(out / "full.ckpt", model.state_dict())
    write_config(out / "full.ckpt.config", model_cfg, TrainConfig(),
                 header="full-scale model, untrained")


SETUP = {
    "corpus_annotate": setup_corpus_annotate,
    "walkthrough": setup_walkthrough,
    "infer_full": setup_infer_full,
}


# -- timed passes -------------------------------------------------------------
#
# A workload object runs passes; run_pass returns the wall time of the
# pass's timed part, and checks run outside it. ``generic`` maps each
# generic end-to-end metric of BENCHMARK.json onto the workload's own.
# Calls into spoofnet go through module attributes (cache.annotate_corpus,
# cli.main), so that the layer tracer sees them.

class CorpusAnnotate:
    """A cold annotate_corpus into an empty cache, then warm passes over
    the filled cache. Cold work is pitch/formant tracking and the cache
    write; warm work is hashing, the cache read and record decoding."""

    min_passes = 3
    pass_name = "annotate_pass_s"
    generic = {"main_utt_per_s": "annotate_utt_per_s",
               "aux_utt_per_s": "annotate_warm_utt_per_s",
               "call_p50_ms": "annotate_warm_p50_ms",
               "call_tail_ms": "annotate_warm_p90_ms"}

    def __init__(self, inputs: Path, work: Path, seed: int, outcome: Outcome):
        self.manifest = load_manifest(inputs / "corpus" / "manifest.csv")
        self.work = work
        self.outcome = outcome
        self.cold_s: list[float] = []
        self.warm_s: list[float] = []

    def _check(self, annotations, stats, phase: str) -> None:
        for e in self.manifest:
            self.outcome.record(e.utt_id in annotations, f"{phase}: {e.utt_id} skipped")
        self.outcome.record(not stats.skipped, f"{phase}: skipped {stats.skipped}")

    def run_pass(self, i: int) -> float:
        cache_dir = self.work / f"cache{i}"
        t0 = perf_counter()
        cold, cold_stats = cache.annotate_corpus(self.manifest, cache_dir)
        cold_s = perf_counter() - t0
        warm_runs, warm_s = [], []
        for _ in range(WARM_PASSES):
            t0 = perf_counter()
            warm_runs.append(cache.annotate_corpus(self.manifest, cache_dir))
            warm_s.append(perf_counter() - t0)
        self.cold_s.append(cold_s)
        self.warm_s += warm_s

        n = len(self.manifest)
        self._check(cold, cold_stats, "cold")
        self.outcome.record(cold_stats.computed == n, f"cold: computed {cold_stats.computed}")
        for warm, stats in warm_runs:
            self._check(warm, stats, "warm")
            self.outcome.record(stats.cached == n, f"warm: cached {stats.cached}")
            for utt_id, a in cold.items():
                b = warm.get(utt_id)
                self.outcome.record(
                    b is not None and all(
                        x.dtype == y.dtype and x.tobytes() == y.tobytes()
                        for x, y in ((a.f0_hz, b.f0_hz), (a.f1_hz, b.f1_hz),
                                     (a.f2_hz, b.f2_hz), (a.voiced, b.voiced))),
                    f"warm: {utt_id} is not bit-equal to its cold annotation")
        return cold_s + sum(warm_s)

    def finish(self) -> dict[str, tuple[float, str]]:
        n = len(self.manifest)
        warm_ms = [1e3 * s for s in self.warm_s]
        return {
            "annotate_utt_per_s": (n * len(self.cold_s) / sum(self.cold_s), "utt/s"),
            "annotate_warm_utt_per_s": (n * len(self.warm_s) / sum(self.warm_s), "utt/s"),
            "annotate_warm_p50_ms": (percentile(warm_ms, 50), "ms"),
            "annotate_warm_p90_ms": (percentile(warm_ms, 90), "ms"),
        }


def _infer(wav, ckpt, outcome: Outcome, latencies_ms: list) -> float | None:
    """One ``spoofnet infer`` call; returns the printed score."""
    t0 = perf_counter()
    rc, out = run_cli(["infer", "--wav", wav, "--ckpt", ckpt])
    latencies_ms.append(1e3 * (perf_counter() - t0))
    if not outcome.record(rc == 0, f"infer {Path(wav).name} exited {rc}"):
        return None
    match = _SCORE.search(out)
    score = float(match.group(1)) if match else None
    outcome.record(score is not None and 0.0 < score < 1.0,
                   f"infer {Path(wav).name}: printed score {score} not in (0, 1)")
    return score


class Walkthrough:
    """README steps 2-6 on the README-sized corpus: annotate, train
    (25 epochs of the toy run.cfg), eval, explain, then infer on every
    corpus file, INFER_ROUNDS times."""

    min_passes = 1
    pass_name = "walkthrough_s"
    generic = {"main_utt_per_s": "train_utt_per_s",
               "aux_utt_per_s": "eval_utt_per_s",
               "call_p50_ms": "infer_toy_p50_ms",
               "call_tail_ms": "infer_toy_p90_ms"}

    def __init__(self, inputs: Path, work: Path, seed: int, outcome: Outcome):
        self.manifest_path = inputs / "corpus" / "manifest.csv"
        self.run_cfg = inputs / "run.cfg"
        wavs = sorted((inputs / "corpus" / "audio").glob("*.wav"))
        order = np.random.default_rng(seed).permutation(len(wavs))
        self.wavs = [wavs[k] for k in order]
        self.n_utts = len(wavs)
        self.work = work
        self.outcome = outcome
        self.stage_s: dict[str, list[float]] = {}
        self.train_utt_per_s: list[float] = []
        self.infer_ms: list[float] = []

    def _stage(self, name: str, argv) -> str:
        t0 = perf_counter()
        rc, out = run_cli([name, *argv])
        self.stage_s.setdefault(name, []).append(perf_counter() - t0)
        self.outcome.record(rc == 0, f"{name} exited {rc}")
        return out

    def run_pass(self, i: int) -> float:
        d = self.work / f"pass{i}"
        d.mkdir()
        cache, ckpt = d / "cache", d / "model.ckpt"
        scores, report = d / "scores.jsonl", d / "report.json"
        t0 = perf_counter()
        self._stage("annotate", ["--manifest", self.manifest_path, "--cache", cache])
        train_out = self._stage("train", ["--manifest", self.manifest_path, "--cache", cache,
                                          "--config", self.run_cfg, "--out", ckpt])
        self._stage("eval", ["--manifest", self.manifest_path, "--ckpt", ckpt,
                             "--scores", scores, "--by", "dataset", "--cache", cache])
        self._stage("explain", ["--scores", scores, "--report", report])
        infer_start = perf_counter()
        for _ in range(INFER_ROUNDS):
            for wav in self.wavs:
                _infer(wav, ckpt, self.outcome, self.infer_ms)
        self.stage_s.setdefault("infer", []).append(perf_counter() - infer_start)
        elapsed = perf_counter() - t0
        self.last_pass = d

        match = _TRAIN_COUNT.search(train_out)
        history = Path(f"{ckpt}.history.jsonl")
        if self.outcome.record(match is not None and history.exists(),
                               "train: no utterance count or history"):
            epochs = len(history.read_text(encoding="utf-8").splitlines())
            self.train_utt_per_s.append(
                epochs * int(match.group(1)) / self.stage_s["train"][-1])
        self._check_outputs(scores, report)
        return elapsed

    def _check_outputs(self, scores: Path, report: Path) -> None:
        record = self.outcome.record
        rows = ([json.loads(line) for line in scores.read_text(encoding="utf-8").splitlines()]
                if scores.exists() else [])
        record(len(rows) == self.n_utts, f"eval: {len(rows)} scores for {self.n_utts} files")
        for r in rows:
            record(0.0 < r["score"] < 1.0, f"eval: {r['utt_id']} score {r['score']}")
            total = float(np.sum(r["frame_weights"]))
            record(abs(total - 1.0) <= WEIGHT_SUM_TOL,
                   f"eval: {r['utt_id']} frame weights sum to {total}")
        fake = [r["score"] for r in rows if r["label"] == 1]
        real = [r["score"] for r in rows if r["label"] == 0]
        # rank-sum AUC by direct pair counting, independent of spoofnet.metrics
        pairs = [(f > g) + 0.5 * (f == g) for f in fake for g in real]
        auc = float(np.mean(pairs)) if pairs else 0.0
        record(auc >= AUC_FLOOR, f"eval: AUC {auc:.4f} below {AUC_FLOOR}")
        record(report.exists() and report.with_suffix(".csv").exists(),
               "explain: report JSON or CSV missing")

    def finish(self) -> dict[str, tuple[float, str]]:
        d = self.last_pass
        for k in range(EVAL_REPEATS):
            self._stage("eval", ["--manifest", self.manifest_path, "--ckpt", d / "model.ckpt",
                                 "--scores", d / f"scores{k}.jsonl", "--by", "dataset",
                                 "--cache", d / "cache"])
        n_eval = self.n_utts
        out = {name: (float(np.median(times)), "s")
               for name, times in (("stage_" + k, v) for k, v in self.stage_s.items())}
        out.update({
            "train_utt_per_s": (float(np.median(self.train_utt_per_s or [0.0])), "utt/s"),
            "eval_utt_per_s": (n_eval / float(np.median(self.stage_s["eval"])), "utt/s"),
            "infer_toy_p50_ms": (percentile(self.infer_ms, 50), "ms"),
            "infer_toy_p90_ms": (percentile(self.infer_ms, 90), "ms"),
        })
        return out


class InferFull:
    """``spoofnet infer`` per file with the full-scale (41.9M-parameter)
    checkpoint: forward-only work at full width plus a 168 MB checkpoint
    read on every call. One pass is one round over the corpus files."""

    min_passes = 5       # 5 x 8 calls: p75 has 10 samples beyond it
    pass_name = "infer_full_round_s"
    generic = {"main_utt_per_s": "infer_full_utt_per_s",
               "aux_utt_per_s": "predict_full_utt_per_s",
               "call_p50_ms": "infer_full_p50_ms",
               "call_tail_ms": "infer_full_p75_ms"}

    def __init__(self, inputs: Path, work: Path, seed: int, outcome: Outcome):
        self.wavs = sorted((inputs / "corpus" / "audio").glob("*.wav"))
        self.ckpt = inputs / "full.ckpt"
        self.outcome = outcome
        self.infer_ms: list[float] = []
        self.reference_scores: list[float] = []

    def run_pass(self, i: int) -> float:
        t0 = perf_counter()
        scores = [_infer(wav, self.ckpt, self.outcome, self.infer_ms) for wav in self.wavs]
        elapsed = perf_counter() - t0
        self.reference_scores.append(scores[0])
        return elapsed

    def finish(self) -> dict[str, tuple[float, str]]:
        # the printed score of the reference file must equal predict on
        # the same seeded model, built here rather than loaded
        model = SpoofNet(ModelConfig(), seed=FULL_MODEL_SEED)
        mag, phase = features.utterance_tokens(self.wavs[0])
        predict_s = []
        for _ in range(PREDICT_REPEATS):
            t0 = perf_counter()
            expected = model.predict(mag, phase).score
            predict_s.append(perf_counter() - t0)
        for printed in self.reference_scores:
            self.outcome.record(printed is not None and f"{printed:.4f}" == f"{expected:.4f}",
                                f"infer printed {printed}, predict gives {expected:.4f}")
        return {
            "infer_full_utt_per_s": (1e3 * len(self.infer_ms) / sum(self.infer_ms), "utt/s"),
            "predict_full_utt_per_s": (1.0 / float(np.median(predict_s)), "utt/s"),
            "infer_full_p50_ms": (percentile(self.infer_ms, 50), "ms"),
            "infer_full_p75_ms": (percentile(self.infer_ms, 75), "ms"),
        }


WORKLOADS = {
    "corpus_annotate": CorpusAnnotate,
    "walkthrough": Walkthrough,
    "infer_full": InferFull,
}


if __name__ == "__main__":
    # <workload> <seed> <out_dir> [<layer table out>]: the optional fourth
    # argument traces the set-up and writes its layer table there
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    out_dir.mkdir(parents=True)
    if len(sys.argv) > 4:
        from layertrace import Tracer
        with Tracer() as tracer:
            SETUP[name](seed, out_dir)
        Path(sys.argv[4]).write_text(json.dumps(tracer.summary()), encoding="utf-8")
    else:
        SETUP[name](seed, out_dir)
