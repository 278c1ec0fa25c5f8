"""Command-line interface.

Subcommands: synth-corpus, annotate, train, eval, explain, infer.
Exit codes: 0 success, 1 usage error, 2 data or I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt_io
from .cache import annotate_corpus
from .config import (load_corpus_spec, load_run_config, write_config)
from .errors import DataError, NotScalar, NumericalError, ShapeError
from .explain import aggregate, format_report, top_frames, write_report
from .features import build_samples, utterance_tokens
from .manifest import Manifest, load_manifest, split_90_10
from .metrics import (ScoreRecord, breakdown, compute_auc, compute_eer,
                      format_breakdown, read_scores, write_scores)
from .model import SpoofNet
from .synth import generate_synthetic_corpus
from .train import TrainConfig, balance_classes, fit_scaler, train_loop


# glibc's mallopt(3) parameter numbers (malloc.h) and the values set for
# them: blocks below 32 MiB (mallopt(3)'s upper limit on 64-bit) come
# from the heap, and up to 256 MiB of freed heap top stays mapped.
# Training frees a step's graph as backward walks it; with glibc's
# defaults the freed pages go back to the OS and the next step faults
# them in again.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 256 << 20
_malloc_tuned = False


def _keep_freed_pages() -> None:
    """Set the allocator thresholds above, once per process, where the C
    library has mallopt (glibc); elsewhere do nothing. Any mallopt call
    turns off glibc's dynamic thresholds (which a freed large block would
    raise), so both are set: the mmap threshold, so that a step's arrays
    come from the heap, and the trim threshold, so that the heap keeps
    their pages once they are freed."""
    global _malloc_tuned
    if _malloc_tuned:
        return
    _malloc_tuned = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows wants a name
        return
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cmd_synth_corpus(args) -> int:
    spec = load_corpus_spec(args.spec)
    manifest = generate_synthetic_corpus(spec, args.out)
    print(f"wrote {len(manifest)} utterances to {args.out}")
    return 0


def _cmd_annotate(args) -> int:
    manifest = load_manifest(args.manifest)
    annotations, stats = annotate_corpus(manifest, args.cache, workers=args.workers)
    print(f"annotated {stats.computed} utterances "
          f"({stats.cached} cached, {len(stats.skipped)} skipped)")
    for utt_id, reason in stats.skipped:
        print(f"  skipped {utt_id}: {reason}", file=sys.stderr)
    if not annotations:
        raise DataError("no utterance could be annotated")
    return 0


def _load_model(ckpt_path) -> tuple[SpoofNet, TrainConfig]:
    """The checkpoint's model and the training config of its sidecar."""
    arrays = ckpt_io.load_checkpoint(ckpt_path)
    cfg_path = Path(str(ckpt_path) + ".config")
    if not cfg_path.exists():
        raise DataError(f"missing config sidecar {cfg_path}")
    model_cfg, train_cfg = load_run_config(cfg_path)
    return SpoofNet.from_state(model_cfg, arrays), train_cfg


def _cmd_train(args) -> int:
    manifest = load_manifest(args.manifest)
    model_cfg, train_cfg = load_run_config(args.config)
    annotations, stats = annotate_corpus(manifest, args.cache)
    usable = [e for e in manifest if e.utt_id in annotations]
    if not usable:
        raise DataError("no annotated utterances available for training")

    presplit_train = [e for e in usable if e.split == "train"]
    presplit_val = [e for e in usable if e.split == "val"]
    if presplit_train and presplit_val:
        train_entries, val_entries = presplit_train, presplit_val
    else:
        # entries explicitly marked test never leak into the split
        pool = [e for e in usable if e.split != "test"]
        train_m, val_m = split_90_10(Manifest(pool), seed=train_cfg.seed)
        train_entries, val_entries = train_m.entries, val_m.entries

    scaler = fit_scaler([annotations[e.utt_id] for e in train_entries])
    train_entries = balance_classes(train_entries)

    print(f"training on {len(train_entries)} utterances "
          f"(balanced), validating on {len(val_entries)}")
    train_samples = build_samples(train_entries, annotations, model_cfg.np_dtype())
    val_samples = build_samples(val_entries, annotations, model_cfg.np_dtype())

    model = SpoofNet(model_cfg, seed=train_cfg.seed)
    result = train_loop(model, train_samples, val_samples, train_cfg, scaler)

    arrays = dict(result.best_state)
    arrays.update(scaler.arrays())
    ckpt_io.save_checkpoint(args.out, arrays)
    write_config(str(args.out) + ".config", model_cfg, train_cfg,
                 header="run configuration")
    history_path = args.history or str(args.out) + ".history.jsonl"
    with open(history_path, "w", encoding="utf-8") as fh:
        for row in result.history:
            fh.write(json.dumps(row) + "\n")
    last = result.history[-1]
    print(f"stopped after epoch {last['epoch']}, best epoch {result.best_epoch} "
          f"(val {min(h['val_total'] for h in result.history):.4f}); "
          f"checkpoint -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    manifest = load_manifest(args.manifest)
    model, train_cfg = _load_model(args.ckpt)
    entries = [e for e in manifest if not e.missing]
    if args.split:
        entries = [e for e in entries if e.split == args.split]
    if not entries:
        raise DataError("no usable entries to evaluate")

    gt_voiced = {}
    if args.cache:
        annotations, _ = annotate_corpus(entries, args.cache)
        gt_voiced = {u: a.voiced for u, a in annotations.items()}

    records = []
    dtype = model.cfg.np_dtype()
    for start in range(0, len(entries), train_cfg.batch_size):
        chunk = entries[start:start + train_cfg.batch_size]
        mags, phases = zip(*(utterance_tokens(e.audio_path) for e in chunk))
        with ad.no_grad():
            out = model.forward(np.stack(mags, dtype=dtype), np.stack(phases, dtype=dtype))
        for i, e in enumerate(chunk):
            records.append(ScoreRecord(
                utt_id=e.utt_id, score=float(out.score.data[i, 0, 0]),
                label=e.label_int, dataset_tag=e.dataset_tag, codec_tag=e.codec_tag,
                frame_weights=out.frame_weights.data[i, :, 0],
                voicing_prob=out.voicing_prob.data[i, :, 0],
                gt_voiced=gt_voiced.get(e.utt_id),
            ))
    write_scores(args.scores, records)
    eer, threshold = compute_eer(records)
    auc = compute_auc(records)
    print(f"EER {100 * eer:.2f}%  AUC {100 * auc:.2f}%  threshold {threshold:.4f}")
    if args.by:
        print(format_breakdown(breakdown(records, args.by)))
    return 0


def _cmd_explain(args) -> int:
    records = read_scores(args.scores)
    missing = [r.utt_id for r in records
               if r.frame_weights is None or r.voicing_prob is None]
    if missing:
        raise DataError(
            f"{len(missing)} records lack frame weights or voicing "
            f"(e.g. {missing[0]}); re-run eval to produce full records"
        )
    _, threshold = compute_eer(records)
    report = aggregate(records, threshold, use_ground_truth=args.ground_truth)
    json_path = Path(args.report)
    csv_path = json_path.with_suffix(".csv")
    write_report(report, json_path, csv_path)
    print(format_report(report))
    print(f"report -> {json_path} and {csv_path}")
    return 0


def _cmd_infer(args) -> int:
    model, _ = _load_model(args.ckpt)
    mag, phase = utterance_tokens(args.wav)
    out = model.predict(mag, phase)
    verdict = "fake" if out.score >= 0.5 else "real"
    voiced_frac = float(np.mean(out.v_mask))
    print(f"{args.wav}: score {out.score:.4f} ({verdict}), "
          f"{100 * voiced_frac:.1f}% frames voiced")
    print("most attended frames (index, weight, voiced):")
    for idx, weight, voiced in top_frames(out.frame_weights, out.voicing_prob,
                                          k=min(5, out.frame_weights.size)):
        print(f"  {idx:4d}  {weight:.4f}  {'voiced' if voiced else 'unvoiced'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spoofnet",
                     description="speech deepfake detector toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth-corpus", help="generate a synthetic test corpus")
    p.add_argument("--spec", required=True, help="corpus spec (key = value file)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth_corpus)

    p = sub.add_parser("annotate", help="build the annotation cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True, help="cache directory")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel annotation processes")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--config", required=True, help="model+training config file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--history", default=None, help="history JSONL path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a manifest with a checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scores", required=True, help="output scores JSONL")
    p.add_argument("--by", choices=("codec", "dataset"), default=None,
                   help="also print a per-tag breakdown")
    p.add_argument("--split", default=None, help="restrict to one manifest split")
    p.add_argument("--cache", default=None,
                   help="annotation cache dir, to attach ground-truth voicing")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("explain", help="voiced/unvoiced reliance report")
    p.add_argument("--scores", required=True)
    p.add_argument("--report", required=True, help="output report path (JSON)")
    p.add_argument("--ground-truth", action="store_true",
                   help="attribute with ground-truth voicing instead of the model's")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("infer", help="score a single WAV file")
    p.add_argument("--wav", required=True)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=_cmd_infer)

    return parser


def _stdout_to_devnull() -> None:
    """Point stdout at devnull, so the interpreter's final flush of what a
    closed pipe refused stays quiet (the recipe in the Python docs)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    _keep_freed_pages()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except BrokenPipeError:
        # a pipe closed while the command was still at work (unbuffered
        # stdout, or a FIFO argument): the command did not finish
        _stdout_to_devnull()
        print("error: broken pipe", file=sys.stderr)
        return 2
    except OSError as exc:
        # after BrokenPipeError, which is an OSError too: a missing file, a
        # directory where a file was expected, a permission error; the
        # message names the path ("[Errno 21] Is a directory: 'corpus'")
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ShapeError, NotScalar) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left once the command was done (``spoofnet infer ...
        # | head -1``): the work is complete, only unread output is lost
        _stdout_to_devnull()
    return code


if __name__ == "__main__":
    sys.exit(main())
