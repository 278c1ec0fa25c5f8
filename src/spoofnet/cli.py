"""Command-line interface.

Subcommands: synth-corpus, annotate, train, eval, explain, infer.
Exit codes: 0 success, 1 usage error, 2 data or I/O error, 3 numerical failure.

main() keeps one parser per process, built on its first call, and runs
the handler of a subcommand (``_cmd_<name>``, with ``-`` as ``_``) as
looked up in this module at call time, so that a handler rebound after
the first call is the one that runs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_io
from .cache import annotate_corpus
from .config import (load_corpus_spec, load_run_config, write_config)
from .errors import DataError, NotScalar, NumericalError, ShapeError
from .explain import aggregate, format_report, top_frames, write_report
from .features import build_samples, token_grids, utterance_tokens
from .manifest import VALID_SPLITS, load_manifest, split_90_10
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


def _positive_int(text: str) -> int:
    """An argparse type for a count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _check_paths(inputs: dict[str, str | Path], outputs: dict[str, str | Path]) -> None:
    """Raise DataError, before a command does any work, when an output
    path names one of its inputs or another of its outputs: writing it
    would destroy that file. Each dict maps a path's role to the path."""
    roles = {Path(path).resolve(): role for role, path in inputs.items()}
    for role, path in outputs.items():
        other = roles.setdefault(Path(path).resolve(), role)
        if other != role:
            raise DataError(f"{role} {path} names the same file as {other}")


def _check_finite(names, out) -> None:
    """Raise NumericalError naming the first of ``names`` whose score,
    frame weights or voicing probabilities in ``out`` (a ModelOutput
    with one row per name) are not finite."""
    for what, values in (("score", out.score), ("frame weights", out.frame_weights),
                         ("voicing probability", out.voicing_prob)):
        bad = ~np.isfinite(values).reshape(len(names), -1).all(axis=1)
        if bad.any():
            raise NumericalError(f"non-finite {what} for {names[int(np.argmax(bad))]}")


def _write_stdout(lines) -> None:
    """Write a command's stdout report in one write call: a reader that
    leaves after the first line (``| head -1``) then finds the command
    done, where a later write of its own would fail mid-command."""
    sys.stdout.write("".join(f"{line}\n" for line in lines))


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


def _sidecar(ckpt_path) -> Path:
    return Path(str(ckpt_path) + ".config")


def _load_model(ckpt_path) -> tuple[SpoofNet, TrainConfig]:
    """The checkpoint's model and the training config of its sidecar."""
    arrays = ckpt_io.load_checkpoint(ckpt_path)
    cfg_path = _sidecar(ckpt_path)
    if not cfg_path.exists():
        raise DataError(f"missing config sidecar {cfg_path}")
    model_cfg, train_cfg = load_run_config(cfg_path)
    return SpoofNet.from_state(model_cfg, arrays), train_cfg


def _cmd_train(args) -> int:
    sidecar_path = _sidecar(args.out)
    history_path = args.history or str(args.out) + ".history.jsonl"
    _check_paths({"--manifest": args.manifest, "--config": args.config},
                 {"--out": args.out, "the checkpoint's sidecar": sidecar_path,
                  "--history": history_path})
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
        train_entries, val_entries = split_90_10(pool, seed=train_cfg.seed)

    scaler = fit_scaler([annotations[e.utt_id] for e in train_entries])
    train_entries = balance_classes(train_entries)

    print(f"training on {len(train_entries)} utterances "
          f"(balanced), validating on {len(val_entries)}")
    dtype = model_cfg.np_dtype()
    train_samples = build_samples(train_entries, annotations, dtype, args.cache)
    val_samples = build_samples(val_entries, annotations, dtype, args.cache)

    model = SpoofNet(model_cfg, seed=train_cfg.seed)
    result = train_loop(model, train_samples, val_samples, train_cfg, scaler)

    arrays = dict(result.best_state)
    arrays.update(scaler.arrays())
    ckpt_io.save_checkpoint(args.out, arrays)
    write_config(sidecar_path, model_cfg, train_cfg, header="run configuration")
    with open(history_path, "w", encoding="utf-8") as fh:
        for row in result.history:
            fh.write(json.dumps(row) + "\n")
    last = result.history[-1]
    print(f"stopped after epoch {last['epoch']}, best epoch {result.best_epoch} "
          f"(val {min(h['val_total'] for h in result.history):.4f}); "
          f"checkpoint -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    _check_paths({"--manifest": args.manifest, "--ckpt": args.ckpt,
                  "the checkpoint's sidecar": _sidecar(args.ckpt)},
                 {"--scores": args.scores})
    manifest = load_manifest(args.manifest)
    model, train_cfg = _load_model(args.ckpt)
    entries = [e for e in manifest if not args.split or e.split == args.split]
    for e in entries:
        if e.missing:
            print(f"  skipped {e.utt_id}: missing audio file", file=sys.stderr)
    entries = [e for e in entries if not e.missing]

    # each file's tokens go into the next free row of one chunk's token
    # block, read from the token store with --cache (eval never writes it:
    # a corpus evaluated once would pay the writes and gain nothing); a file
    # that cannot be read or holds no signal is named and left out, like a
    # missing one
    size, dtype = train_cfg.batch_size, model.cfg.np_dtype()
    tokens = np.empty((2, size, model.cfg.n_frames, model.cfg.n_bins), dtype=dtype)
    records, chunk = [], []
    for n, e in enumerate(entries, start=1):
        try:
            tokens[:, len(chunk)] = token_grids(e.audio_path, dtype, args.cache, fill=False)
            chunk.append(e)
        except DataError as exc:
            print(f"  skipped {e.utt_id}: {exc}", file=sys.stderr)
        if chunk and (len(chunk) == size or n == len(entries)):
            out = model.predict(tokens[0, :len(chunk)], tokens[1, :len(chunk)])
            _check_finite([e.utt_id for e in chunk], out)
            records += [ScoreRecord(
                utt_id=e.utt_id, score=float(out.score[i]),
                label=e.label_int, dataset_tag=e.dataset_tag, codec_tag=e.codec_tag,
                frame_weights=out.frame_weights[i], voicing_prob=out.voicing_prob[i],
            ) for i, e in enumerate(chunk)]
            chunk = []
    if not records:
        raise DataError("no usable entries to evaluate")
    if args.cache:
        annotations, _ = annotate_corpus(entries, args.cache)
        for r in records:
            if r.utt_id in annotations:
                r.gt_voiced = annotations[r.utt_id].voiced
    # the metrics come first, so an eval that cannot compute them writes no scores
    eer, threshold = compute_eer(records)
    auc = compute_auc(records)
    lines = [f"EER {100 * eer:.2f}%  AUC {100 * auc:.2f}%  threshold {threshold:.4f}"]
    if args.by:
        lines.append(format_breakdown(breakdown(records, args.by)))
    write_scores(args.scores, records)
    _write_stdout(lines)
    return 0


def _cmd_explain(args) -> int:
    json_path = Path(args.report)
    csv_path = json_path.with_suffix(".csv")
    _check_paths({"--scores": args.scores},
                 {"--report": json_path, "the report's CSV": csv_path})
    records = read_scores(args.scores)
    missing = [r.utt_id for r in records
               if r.frame_weights is None or r.voicing_prob is None]
    if missing:
        raise DataError(
            f"{len(missing)} records lack frame weights or voicing "
            f"(e.g. {missing[0]}); re-run eval to produce full records"
        )
    lacking = [r.utt_id for r in records if r.gt_voiced is None]
    if args.ground_truth and lacking:
        raise DataError(
            f"{len(lacking)} records hold no ground-truth voicing "
            f"(e.g. {lacking[0]}); re-run eval with --cache to produce it"
        )
    _, threshold = compute_eer(records)
    report = aggregate(records, threshold, use_ground_truth=args.ground_truth)
    write_report(report, json_path, csv_path)
    _write_stdout([format_report(report), f"report -> {json_path} and {csv_path}"])
    return 0


def _cmd_infer(args) -> int:
    model, _ = _load_model(args.ckpt)
    mag, phase = utterance_tokens(args.wav)
    out = model.predict(mag, phase)
    _check_finite([args.wav], out)
    verdict = "fake" if out.score >= 0.5 else "real"
    voiced_frac = float(np.mean(out.v_mask))
    lines = [f"{args.wav}: score {out.score:.4f} ({verdict}), "
             f"{100 * voiced_frac:.1f}% frames voiced",
             "most attended frames (index, weight, voiced):"]
    for idx, weight, voiced in top_frames(out.frame_weights, out.v_mask,
                                          k=min(5, out.frame_weights.size)):
        lines.append(f"  {idx:4d}  {weight:.4f}  {'voiced' if voiced else 'unvoiced'}")
    _write_stdout(lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spoofnet",
                     description="speech deepfake detector toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth-corpus", help="generate a synthetic test corpus")
    p.add_argument("--spec", required=True, help="corpus spec (key = value file)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("annotate", help="build the annotation cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True, help="cache directory")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="parallel annotation processes")

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--config", required=True, help="model+training config file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--history", default=None, help="history JSONL path")

    p = sub.add_parser("eval", help="score a manifest with a checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scores", required=True, help="output scores JSONL")
    p.add_argument("--by", choices=("codec", "dataset"), default=None,
                   help="also print a per-tag breakdown")
    p.add_argument("--split", choices=VALID_SPLITS[:3], default=None,
                   help="restrict to one manifest split")
    p.add_argument("--cache", default=None,
                   help="cache dir (as given to annotate and train): attaches "
                        "ground-truth voicing, and reads the tokens train stored "
                        "there, so those files are not featurized again")

    p = sub.add_parser("explain", help="voiced/unvoiced reliance report")
    p.add_argument("--scores", required=True)
    p.add_argument("--report", required=True, help="output report path (JSON)")
    p.add_argument("--ground-truth", action="store_true",
                   help="attribute with ground-truth voicing instead of the model's "
                        "(needs scores from eval --cache)")

    p = sub.add_parser("infer", help="score a single WAV file")
    p.add_argument("--wav", required=True)
    p.add_argument("--ckpt", required=True)

    return parser


def _stdout_to_devnull() -> None:
    """Point stdout at devnull, so the interpreter's final flush of what a
    closed pipe refused stays quiet (the recipe in the Python docs)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


_parser = None  # main's parser, built on its first call


def main(argv=None) -> int:
    global _parser
    _keep_freed_pages()
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        code = handler(args)
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
