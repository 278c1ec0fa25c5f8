"""Compound multi-task loss and the optimization loop.

The loss combines the utterance-level fake/real BCE, a per-frame
voicing BCE and an MSE on standardized log-formants restricted to
voiced frames, weighted 1 / 0.3 / 0.3. Formant targets are log-scaled
and standardized with training-set statistics; evaluation reuses the
training scaler. The loop multiplies the learning rate by DECAY_FACTOR
(0.5) after PLATEAU_PATIENCE (10) epochs without a validation
improvement of more than IMPROVE_TOL (1e-5) and stops after
EARLY_STOP_PATIENCE (20), keeping the best checkpoint; AdamW decays the
weights by WEIGHT_DECAY (0.01).

A TrainConfig checks its own values when it is built, from a file or in
code: a batch size and epoch count of at least 1, a non-negative seed, a
finite positive learning rate and finite non-negative loss weights, at
least one of them positive (score-only weights (1, 0, 0) are valid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .annotate import FrameAnnotation
from .autodiff import Tensor
from .errors import (AlignmentError, ClassMissing, DegenerateData, InsufficientData,
                     NumericalError, ParseError, check_least, field_error)
from .model import FORMANT_HI, FORMANT_LO, ForwardPass, SpoofNet
from .optim import AdamW

BCE_EPS = 1e-7
STD_FLOOR = 1e-6
# (score BCE, voicing BCE, formant MSE)
LOSS_WEIGHTS = (1.0, 0.3, 0.3)
# the plateau schedule and AdamW's decoupled weight decay
PLATEAU_PATIENCE = 10
DECAY_FACTOR = 0.5
EARLY_STOP_PATIENCE = 20
IMPROVE_TOL = 1e-5
WEIGHT_DECAY = 0.01


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    lr: float = 1e-4
    max_epochs: int = 100
    weight_score: float = LOSS_WEIGHTS[0]
    weight_voicing: float = LOSS_WEIGHTS[1]
    weight_formant: float = LOSS_WEIGHTS[2]
    seed: int = 0

    def __post_init__(self):
        check_least(self, {"batch_size": 1, "max_epochs": 1, "seed": 0, "weight_score": 0,
                           "weight_voicing": 0, "weight_formant": 0})
        if self.lr <= 0:
            raise field_error(self, "lr", "is not positive")
        if not (self.weight_score or self.weight_voicing or self.weight_formant):
            raise ParseError("TrainConfig.weight_score, weight_voicing and weight_formant "
                             "are all 0: there is no loss to train on")


@dataclass
class FormantScaler:
    """Per-formant mean/std of log-Hz over voiced training frames."""

    log_mean: np.ndarray  # (3,)
    log_std: np.ndarray   # (3,)

    def clamp(self, hz: np.ndarray) -> np.ndarray:
        return np.clip(hz, FORMANT_LO, FORMANT_HI)

    def transform(self, hz: np.ndarray) -> np.ndarray:
        """Hz -> standardized log; expects values already inside range."""
        return (np.log(hz) - self.log_mean) / self.log_std

    def arrays(self) -> dict[str, np.ndarray]:
        return {"scaler.log_mean": self.log_mean, "scaler.log_std": self.log_std}


def fit_scaler(annotations: list[FrameAnnotation]) -> FormantScaler:
    """Fit standardization stats on voiced frames of the training set.

    Targets are clamped into the decoder's output ranges first, so every
    standardized target is reachable by the model.
    """
    tracks = np.hstack([np.empty((3, 0))] + [
        np.stack([a.f0_hz, a.f1_hz, a.f2_hz])[:, a.voiced] for a in annotations])
    if not tracks.shape[1]:
        raise DegenerateData("no voiced frames in the training set")
    logs = np.log(np.clip(tracks, FORMANT_LO[:, None], FORMANT_HI[:, None]))
    # row by row: a 1-D mean and std, whose last bits mean(axis=1) can change
    mean = np.array([x.mean() for x in logs])
    std = np.array([x.std() for x in logs])
    if np.any(std < STD_FLOOR) or not np.all(np.isfinite(mean)):
        raise DegenerateData(
            f"formant log-std {std} below floor {STD_FLOOR}; "
            "targets carry no usable variance"
        )
    return FormantScaler(log_mean=mean, log_std=std)


def compound_loss(
    out: ForwardPass,
    truth: FrameAnnotation | list[FrameAnnotation],
    label: int | list[int],
    scaler: FormantScaler,
    weights: tuple[float, float, float] = LOSS_WEIGHTS,
) -> tuple[Tensor, dict[str, np.ndarray]]:
    """Weighted sum of score BCE, voicing BCE and voiced-frame formant MSE.

    ``out`` is one utterance's forward pass, with truth one FrameAnnotation
    and label an int, or a batch's (leading axis B), with truth a list of
    B annotations and label B ints. Each utterance's total is
    bce_p * w0 + bce_v * w1 + mse_f * w2 (in that float op order); its MSE
    is the sum of squared standardized log-formant errors over voiced
    frames times 1 / (3 * n_voiced), or times 0 when no frame is voiced.

    Returns (loss, components): the loss is the scalar mean of the
    utterances' totals, and the components are the unweighted
    per-utterance "bce_p", "bce_v", "mse_f" and the "total", as arrays of
    the leading shape: () for one utterance, (B,) for a batch.
    """
    lead, n_frames = out.voicing_prob.shape[:-2], out.voicing_prob.shape[-2]
    anns = [truth] if isinstance(truth, FrameAnnotation) else list(truth)
    if len(anns) != int(np.prod(lead)):
        raise AlignmentError(f"model output has leading shape {lead} but "
                             f"{len(anns)} annotations were given")
    for ann in anns:
        if ann.n_frames != n_frames:
            raise AlignmentError(
                f"model emits {n_frames} frames but annotation has {ann.n_frames}"
            )
    dtype = out.voicing_prob.data.dtype
    voiced = np.stack([a.voiced for a in anns]).reshape(*lead, n_frames)
    mask = voiced.astype(dtype)[..., None]                    # (..., L, 1)
    # every per-utterance term keeps the score's (..., 1, 1) shape
    y = np.asarray(label, dtype=dtype).reshape(*lead, 1, 1)

    # the probability given to the true class: p for fake (y = 1), 1 - p for real
    p = ad.clip(out.score, BCE_EPS, 1.0 - BCE_EPS)
    bce_p = ad.mul(ad.log(ad.add(ad.mul(p, 2.0 * y - 1.0), 1.0 - y)), -1.0)

    v = ad.clip(out.voicing_prob, BCE_EPS, 1.0 - BCE_EPS)     # (..., L, 1)
    one_minus_v = ad.add(ad.mul(v, -1.0), 1.0)
    per_frame = ad.add(ad.mul(ad.log(v), -mask), ad.mul(ad.log(one_minus_v), mask - 1.0))
    bce_v = ad.mul(ad.tsum(per_frame, axis=(-2, -1)), 1.0 / n_frames)

    # unvoiced frames get an in-range stand-in target; the mask zeroes them
    tracks = np.stack([np.stack([a.f0_hz, a.f1_hz, a.f2_hz], axis=-1) for a in anns])
    target_hz = np.where(voiced[..., None], tracks.reshape(*lead, n_frames, 3),
                         FORMANT_LO)
    target_std = scaler.transform(scaler.clamp(target_hz))
    # x - c as x + (-c): IEEE rounds the two the same
    pred_std = ad.mul(ad.add(ad.log(out.formants_hz), -scaler.log_mean),
                      1.0 / scaler.log_std)
    diff = ad.add(pred_std, -target_std)
    masked = ad.mul(ad.mul(diff, diff), mask)
    n_voiced = voiced.sum(axis=-1)
    per_voiced = np.where(n_voiced > 0, 1.0 / (3 * np.maximum(n_voiced, 1)), 0.0)
    mse_f = ad.mul(ad.tsum(masked, axis=(-2, -1)),
                   per_voiced[..., None, None])

    w0, w1, w2 = weights
    total = ad.add(ad.add(ad.mul(bce_p, w0), ad.mul(bce_v, w1)), ad.mul(mse_f, w2))
    components = {name: t.data.reshape(lead) for name, t in
                  (("bce_p", bce_p), ("bce_v", bce_v), ("mse_f", mse_f), ("total", total))}
    return ad.mul(ad.tsum(total), 1.0 / total.data.size), components


def balance_classes(entries: list) -> list:
    """Oversample the minority class by cycling its entries, in manifest
    order, until the two classes have equal counts."""
    real = [e for e in entries if e.label == "real"]
    fake = [e for e in entries if e.label == "fake"]
    if not real or not fake:
        raise ClassMissing(
            f"both classes required, got {len(real)} real / {len(fake)} fake"
        )
    minority, n_major = (real, len(fake)) if len(real) < len(fake) else (fake, len(real))
    extra = [minority[i % len(minority)] for i in range(len(minority), n_major)]
    return list(entries) + extra


class PlateauScheduler:
    """Validation-loss plateau tracking: lr decay at each multiple of
    PLATEAU_PATIENCE epochs without improvement, and early stopping."""

    def __init__(self, lr: float):
        self.lr = lr
        self.best = np.inf
        self._stall = 0

    def update(self, val_loss: float) -> tuple[bool, bool]:
        """Feed one epoch's validation loss; returns (is_best, should_stop)."""
        improved = val_loss < self.best - IMPROVE_TOL
        if improved:
            self.best = val_loss
            self._stall = 0
        else:
            self._stall += 1
            if self._stall % PLATEAU_PATIENCE == 0:
                self.lr *= DECAY_FACTOR
        return improved, self._stall >= EARLY_STOP_PATIENCE


@dataclass
class TrainSample:
    """One utterance ready for the model: feature tokens plus targets."""

    utt_id: str
    mag: np.ndarray
    phase: np.ndarray
    annotation: FrameAnnotation
    label: int  # 0 real, 1 fake


@dataclass
class TrainResult:
    best_state: dict[str, np.ndarray]
    best_epoch: int
    history: list[dict]


def _batch_forward(model: SpoofNet, samples: list[TrainSample], scaler: FormantScaler,
                   weights: tuple[float, float, float]):
    """One forward over the samples stacked on a batch axis, and its loss."""
    out = model.forward(np.stack([s.mag for s in samples]),
                        np.stack([s.phase for s in samples]))
    return compound_loss(out, [s.annotation for s in samples],
                         [s.label for s in samples], scaler, weights)


def evaluate_loss(
    model: SpoofNet, samples: list[TrainSample], scaler: FormantScaler,
    weights: tuple[float, float, float] = LOSS_WEIGHTS,
) -> tuple[float, dict[str, float]]:
    """Mean compound loss over a non-empty sample set: one forward, no graph."""
    with ad.no_grad():
        _, comps = _batch_forward(model, samples, scaler, weights)
    means = {k: float(np.mean(v, dtype=np.float64)) for k, v in comps.items()}
    return means["total"], means


def train_loop(
    model: SpoofNet,
    train_samples: list[TrainSample],
    val_samples: list[TrainSample],
    cfg: TrainConfig,
    scaler: FormantScaler,
) -> TrainResult:
    """Full optimization loop with plateau decay and early stopping.

    Raises, before any step, InsufficientData if there is no validation
    sample to choose the best epoch by. Aborts with
    NumericalError (naming the epoch, and the batch for a training loss,
    with the loss components) the moment a non-finite training or
    validation loss appears, rather than training through NaNs.
    """
    if not val_samples:
        raise InsufficientData("no validation samples to choose the best epoch by")
    weights = (cfg.weight_score, cfg.weight_voicing, cfg.weight_formant)
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.params, lr=cfg.lr, weight_decay=WEIGHT_DECAY)
    sched = PlateauScheduler(cfg.lr)
    best_state = model.state_dict()
    best_epoch = 0
    history: list[dict] = []

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_samples))
        epoch_comps = {"total": 0.0, "bce_p": 0.0, "bce_v": 0.0, "mse_f": 0.0}
        for b_start in range(0, len(order), cfg.batch_size):
            batch = [train_samples[i] for i in order[b_start:b_start + cfg.batch_size]]
            batch_loss, comps = _batch_forward(model, batch, scaler, weights)
            bad = np.flatnonzero(~np.isfinite(comps["total"]))
            if bad.size:
                i = bad[0]
                values = {k: float(v[i]) for k, v in comps.items()}
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch "
                    f"{b_start // cfg.batch_size}, utterance {batch[i].utt_id}: {values}"
                )
            for k in epoch_comps:
                epoch_comps[k] += float(np.sum(comps[k], dtype=np.float64))
            ad.zero_grads(model.params)
            ad.backward(batch_loss)
            opt.lr = sched.lr
            opt.step()

        n_train = len(train_samples)
        val_total, val_comps = evaluate_loss(model, val_samples, scaler, weights)
        if not np.isfinite(val_total):
            raise NumericalError(f"non-finite validation loss at epoch {epoch}: {val_comps}")
        history.append({
            "epoch": epoch,
            "lr": sched.lr,
            "train_total": epoch_comps["total"] / n_train,
            "val_total": val_total,
            "bce_p": epoch_comps["bce_p"] / n_train,
            "bce_v": epoch_comps["bce_v"] / n_train,
            "mse_f": epoch_comps["mse_f"] / n_train,
        })
        is_best, should_stop = sched.update(val_total)
        if is_best:
            best_state = model.state_dict()
            best_epoch = epoch
        if should_stop:
            break

    model.load_state(best_state)
    return TrainResult(best_state=best_state, best_epoch=best_epoch, history=history)
