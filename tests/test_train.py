import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from spoofnet import autodiff as ad
from spoofnet.annotate import FrameAnnotation
from spoofnet.autodiff import Tensor
from spoofnet.errors import AlignmentError, ClassMissing, DataError, DegenerateData
from spoofnet.model import ForwardPass, SpoofNet, toy_config
from spoofnet.optim import AdamW
from spoofnet.train import (LOSS_WEIGHTS, FormantScaler, PlateauScheduler,
                            TrainConfig, TrainSample, _batch_forward,
                            balance_classes, compound_loss, evaluate_loss,
                            fit_scaler, train_loop)


def make_annotation(rng, n=8, voiced_frac=0.6) -> FrameAnnotation:
    f0 = np.where(rng.uniform(size=n) < voiced_frac, rng.uniform(80, 300, n), np.nan)
    return FrameAnnotation(f0_hz=f0,
                           f1_hz=rng.uniform(300, 800, n),
                           f2_hz=rng.uniform(900, 2500, n),
                           voiced=np.isfinite(f0))


def default_scaler() -> FormantScaler:
    return FormantScaler(log_mean=np.array([5.2, 6.2, 7.2]),
                         log_std=np.array([0.4, 0.3, 0.3]))


def forward_from_truth(ann: FrameAnnotation, label: int,
                       scaler: FormantScaler) -> ForwardPass:
    """A fabricated forward pass that matches the targets exactly."""
    n = ann.n_frames
    target = np.stack([np.where(ann.voiced, ann.f0_hz, 100.0),
                       ann.f1_hz, ann.f2_hz], axis=1)
    return ForwardPass(
        formants_hz=Tensor(scaler.clamp(target)),
        voicing_prob=Tensor(ann.voiced.astype(np.float64).reshape(n, 1)),
        score=Tensor(np.array([[float(label)]])),
        frame_weights=Tensor(np.full((n, 1), 1.0 / n)),
    )


class TestCompoundLoss:
    def test_perfect_predictions_vanish(self):
        rng = np.random.default_rng(0)
        ann = make_annotation(rng)
        scaler = default_scaler()
        out = forward_from_truth(ann, label=1, scaler=scaler)
        total, comps = compound_loss(out, ann, 1, scaler)
        assert comps["bce_p"] < 1e-5
        assert comps["bce_v"] < 1e-5
        assert comps["mse_f"] < 1e-5
        assert float(total.data) < 1e-5

    def test_half_score_on_fake_is_ln2(self):
        rng = np.random.default_rng(1)
        ann = make_annotation(rng)
        scaler = default_scaler()
        out = forward_from_truth(ann, label=1, scaler=scaler)
        out.score = Tensor(np.array([[0.5]]))
        total, comps = compound_loss(out, ann, 1, scaler)
        assert comps["bce_p"] == pytest.approx(np.log(2.0), abs=1e-12)
        assert float(total.data) == pytest.approx(np.log(2.0), abs=1e-5)

    def test_total_is_exact_weighted_sum(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            ann = make_annotation(rng)
            scaler = default_scaler()
            out = ForwardPass(
                formants_hz=Tensor(np.stack([rng.uniform(61, 399, 8),
                                             rng.uniform(201, 849, 8),
                                             rng.uniform(801, 2699, 8)], axis=1)),
                voicing_prob=Tensor(rng.uniform(0.01, 0.99, (8, 1))),
                score=Tensor(rng.uniform(0.01, 0.99, (1, 1))),
                frame_weights=Tensor(np.full((8, 1), 1.0 / 8)),
            )
            total, c = compound_loss(out, ann, trial % 2, scaler)
            recomputed = c["bce_p"] + 0.3 * c["bce_v"] + 0.3 * c["mse_f"]
            assert abs(float(total.data) - recomputed) < 1e-12
            assert c["bce_p"] >= 0 and c["bce_v"] >= 0 and c["mse_f"] >= 0

    def test_zero_voiced_frames_zero_mse(self):
        rng = np.random.default_rng(3)
        ann = make_annotation(rng, voiced_frac=0.0)
        scaler = default_scaler()
        out = forward_from_truth(ann, label=0, scaler=scaler)
        _, comps = compound_loss(out, ann, 0, scaler)
        assert comps["mse_f"] == 0.0

    def test_frame_misalignment_rejected(self):
        rng = np.random.default_rng(4)
        ann = make_annotation(rng, n=9)
        scaler = default_scaler()
        out = forward_from_truth(make_annotation(rng, n=8), 0, scaler)
        with pytest.raises(AlignmentError):
            compound_loss(out, ann, 0, scaler)
        with pytest.raises(AlignmentError, match="2 annotations"):
            compound_loss(out, [ann, ann], [0, 1], scaler)

    def test_gradient_flows_through_loss(self):
        rng = np.random.default_rng(5)
        ann = make_annotation(rng)
        scaler = default_scaler()
        raw = ad.parameter(rng.standard_normal((8, 3)))
        lo = np.array([60.0, 200.0, 800.0])
        span = np.array([340.0, 650.0, 1900.0])
        out = ForwardPass(
            formants_hz=ad.add(ad.mul(ad.sigmoid(raw), span), lo),
            voicing_prob=ad.sigmoid(ad.parameter(rng.standard_normal((8, 1)))),
            score=ad.sigmoid(ad.parameter(np.zeros((1, 1)))),
            frame_weights=Tensor(np.full((8, 1), 1.0 / 8)),
        )
        total, _ = compound_loss(out, ann, 1, scaler)
        ad.backward(total)
        assert raw.grad is not None and np.any(raw.grad != 0.0)


def random_forward(rng, n=8) -> ForwardPass:
    """An in-range float64 forward pass of one utterance."""
    return ForwardPass(
        formants_hz=Tensor(np.stack([rng.uniform(61, 399, n), rng.uniform(201, 849, n),
                                     rng.uniform(801, 2699, n)], axis=1)),
        voicing_prob=Tensor(rng.uniform(0.01, 0.99, (n, 1))),
        score=Tensor(rng.uniform(0.01, 0.99, (1, 1))),
        frame_weights=Tensor(np.full((n, 1), 1.0 / n)),
    )


def reference_mse(out: ForwardPass, ann: FrameAnnotation, scaler: FormantScaler) -> float:
    """Mean squared standardized log-formant error over the voiced frames
    and the three formants; 0 without a voiced frame."""
    v = ann.voiced
    if not v.any():
        return 0.0
    target = scaler.clamp(np.stack([ann.f0_hz[v], ann.f1_hz[v], ann.f2_hz[v]], axis=1))
    pred = (np.log(out.formants_hz.data[v]) - scaler.log_mean) / scaler.log_std
    return float(np.mean((pred - scaler.transform(target)) ** 2))


class TestBatchedLoss:
    """One compound_loss over a batch axis: the mean of the per-utterance
    losses, with each utterance's components as the single-utterance call
    gives them. The second utterance of each batch has no voiced frame."""

    @staticmethod
    def batch(rng, n=8):
        anns = [make_annotation(rng, n=n), make_annotation(rng, n=n, voiced_frac=0.0),
                make_annotation(rng, n=n, voiced_frac=0.9), make_annotation(rng, n=n)]
        return anns, [1, 0, 0, 1]

    def test_equals_mean_of_per_utterance_losses(self):
        rng = np.random.default_rng(12)
        scaler = default_scaler()
        for _ in range(10):
            anns, labels = self.batch(rng)
            outs = [random_forward(rng) for _ in anns]
            stacked = ForwardPass(*(Tensor(np.stack([getattr(o, f).data for o in outs]))
                                    for f in ("formants_hz", "voicing_prob", "score",
                                              "frame_weights")))
            loss, comps = compound_loss(stacked, anns, labels, scaler)
            singles = [compound_loss(o, a, y, scaler) for o, a, y in zip(outs, anns, labels)]
            assert loss.shape == ()
            mean = sum(float(t.data) for t, _ in singles) / len(singles)
            assert abs(float(loss.data) - mean) < 1e-12
            for k in ("bce_p", "bce_v", "mse_f", "total"):
                assert comps[k].shape == (len(anns),)
                for i, (_, c) in enumerate(singles):
                    assert abs(comps[k][i] - c[k]) < 1e-12, (k, i)
            for i, (o, a) in enumerate(zip(outs, anns)):
                assert abs(comps["mse_f"][i] - reference_mse(o, a, scaler)) < 1e-12, i
            assert comps["mse_f"][1] == 0.0

    def test_gradient_matches_central_differences(self, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, dtype="float64")
        net = SpoofNet(cfg, seed=0)
        rng = np.random.default_rng(13)
        anns, labels = self.batch(rng, n=cfg.n_frames)
        anns, labels = anns[:3], labels[:3]
        mags = rng.standard_normal((3, cfg.n_frames, cfg.n_bins))
        phases = rng.standard_normal((3, cfg.n_frames, cfg.n_bins))
        scaler = default_scaler()

        def loss():
            return compound_loss(net.forward(mags, phases), anns, labels, scaler)[0]

        ad.zero_grads(net.params)
        ad.backward(loss())
        h = 1e-5
        worst = 0.0
        for name, p in net.params.items():
            flat = p.data.reshape(-1)
            # every parameter tensor, at up to four of its entries
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = float(loss().data)
                flat[i] = orig - h
                down = float(loss().data)
                flat[i] = orig
                numeric = (up - down) / (2.0 * h)
                analytic = p.grad.reshape(-1)[i]
                denom = max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, abs(analytic - numeric) / denom)
        assert worst < 1e-4


class TestFormantScaler:
    def test_hand_worked_two_frame_stats(self):
        f0 = np.array([100.0, 400.0])
        ann = FrameAnnotation(f0_hz=f0,
                              f1_hz=np.array([300.0, 600.0]),
                              f2_hz=np.array([1000.0, 2000.0]),
                              voiced=np.array([True, True]))
        scaler = fit_scaler([ann])
        assert scaler.log_mean[0] == pytest.approx((np.log(100) + np.log(400)) / 2)
        assert scaler.log_std[0] == pytest.approx((np.log(400) - np.log(100)) / 2)

    def test_round_trip_identity(self):
        scaler = default_scaler()
        hz = np.array([[120.0, 480.0, 1500.0], [200.0, 700.0, 2000.0]])
        z = scaler.transform(hz)  # standardized log: exp(z * std + mean) undoes it
        np.testing.assert_allclose(np.exp(z * scaler.log_std + scaler.log_mean), hz,
                                   rtol=1e-9)

    def test_constant_track_rejected(self):
        ann = FrameAnnotation(f0_hz=np.full(6, 200.0),
                              f1_hz=np.full(6, 500.0),
                              f2_hz=np.full(6, 1500.0),
                              voiced=np.ones(6, dtype=bool))
        with pytest.raises(DegenerateData):
            fit_scaler([ann])

    def test_no_voiced_frames_rejected(self):
        ann = FrameAnnotation(f0_hz=np.full(6, np.nan),
                              f1_hz=np.full(6, 500.0),
                              f2_hz=np.full(6, 1500.0),
                              voiced=np.zeros(6, dtype=bool))
        with pytest.raises(DegenerateData):
            fit_scaler([ann])

    def test_targets_clamped_into_range(self):
        f0 = np.array([50.0, 500.0])  # both outside [60, 400]
        ann = FrameAnnotation(f0_hz=f0,
                              f1_hz=np.array([300.0, 600.0]),
                              f2_hz=np.array([1000.0, 2000.0]),
                              voiced=np.array([True, True]))
        scaler = fit_scaler([ann])
        assert scaler.log_mean[0] == pytest.approx((np.log(60) + np.log(400)) / 2)


@dataclasses.dataclass
class FakeEntry:
    utt_id: str
    label: str


class TestBalanceClasses:
    def test_10_fake_5_real_doubles_reals(self):
        entries = [FakeEntry(f"f{i}", "fake") for i in range(10)] + \
                  [FakeEntry(f"r{i}", "real") for i in range(5)]
        out = balance_classes(entries)
        reals = [e.utt_id for e in out if e.label == "real"]
        fakes = [e for e in out if e.label == "fake"]
        assert len(reals) == len(fakes) == 10
        assert sorted(reals) == sorted([f"r{i}" for i in range(5)] * 2)

    def test_balanced_input_unchanged(self):
        entries = [FakeEntry("a", "fake"), FakeEntry("b", "real")]
        assert balance_classes(entries) == entries

    def test_7_fake_3_real_cycles(self):
        entries = [FakeEntry(f"f{i}", "fake") for i in range(7)] + \
                  [FakeEntry(f"r{i}", "real") for i in range(3)]
        out = balance_classes(entries)
        reals = [e.utt_id for e in out if e.label == "real"]
        assert reals == ["r0", "r1", "r2", "r0", "r1", "r2", "r0"]

    def test_missing_class_rejected(self):
        with pytest.raises(ClassMissing):
            balance_classes([FakeEntry("a", "fake")])


class TestPlateauScheduler:
    def test_constant_loss_halves_lr_at_epoch_11(self):
        sched = PlateauScheduler(lr=1e-4)
        lrs = []
        for _ in range(11):
            sched.update(1.0)
            lrs.append(sched.lr)
        assert lrs[:10] == [1e-4] * 10
        assert lrs[10] == pytest.approx(5e-5)

    def test_constant_loss_stops_at_epoch_21_keeping_first(self):
        sched = PlateauScheduler(lr=1e-4)
        best_epoch = 0
        stopped_at = None
        for epoch in range(1, 100):
            is_best, stop = sched.update(1.0)
            if is_best:
                best_epoch = epoch
            if stop:
                stopped_at = epoch
                break
        assert best_epoch == 1
        assert stopped_at == 21

    def test_improvement_resets_counters(self):
        sched = PlateauScheduler(lr=1e-4)
        for epoch in range(1, 10):
            sched.update(1.0 / epoch)  # always improving
        assert sched.lr == 1e-4
        assert sched.best == pytest.approx(1.0 / 9)

    def test_tiny_improvement_below_tol_does_not_count(self):
        sched = PlateauScheduler(lr=1.0)
        sched.update(1.0)
        is_best, _ = sched.update(1.0 - 1e-7)
        assert not is_best


def build_toy_samples(cfg, rng, n=6):
    samples = []
    for i in range(n):
        label = i % 2
        mag = rng.standard_normal((cfg.n_frames, cfg.n_bins))
        mag[:, :4] += 3.0 * label  # a visible class cue
        samples.append(TrainSample(
            utt_id=f"u{i}", mag=mag,
            phase=rng.standard_normal((cfg.n_frames, cfg.n_bins)),
            annotation=make_annotation(rng, n=cfg.n_frames), label=label,
        ))
    return samples


class TestTrainingMemory:
    # traced peaks of three toy batch-16 steps: 17.9 MB with the graph
    # freed by backward, 44.3 MB with it retained (numpy 2.4)
    FREED_PEAK_RATIO = 0.6

    @staticmethod
    def traced_peak(retain_graph: bool) -> int:
        """The tracemalloc peak of three forward + backward + AdamW steps
        of the toy model at batch 16, the loss re-bound on each step as
        train_loop does."""
        cfg = toy_config()
        net = SpoofNet(cfg, seed=0)
        samples = build_toy_samples(cfg, np.random.default_rng(0), n=16)
        opt = AdamW(net.params, lr=1e-3)
        tracemalloc.start()
        try:
            for _ in range(3):
                loss, _ = _batch_forward(net, samples, default_scaler(), LOSS_WEIGHTS)
                opt.zero_grad()
                ad.backward(loss, retain_graph=retain_graph)
                opt.step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_freeing_the_graph_lowers_the_traced_peak(self):
        freed, retained = self.traced_peak(False), self.traced_peak(True)
        assert freed < self.FREED_PEAK_RATIO * retained, (freed, retained)

    # one toy batch-16 forward and backward: 17.8 MB when the graph keeps
    # only what backward reads and attention's backward works in blocks,
    # 25.7 MB when every node held its op's value (numpy 2.4)
    STEP_PEAK_BYTES = 19_000_000

    def test_one_step_keeps_only_what_backward_reads(self):
        cfg = toy_config()
        net = SpoofNet(cfg, seed=0)
        samples = build_toy_samples(cfg, np.random.default_rng(0), n=16)
        for s in samples:  # as build_samples stores them
            s.mag, s.phase = s.mag.astype(np.float32), s.phase.astype(np.float32)
        tracemalloc.start()
        try:
            loss, _ = _batch_forward(net, samples, default_scaler(), LOSS_WEIGHTS)
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.STEP_PEAK_BYTES, peak


class TestTrainLoop:
    def test_one_small_step_decreases_loss(self, tiny_cfg):
        cfg64 = dataclasses.replace(tiny_cfg, dtype="float64")
        net = SpoofNet(cfg64, seed=0)
        rng = np.random.default_rng(6)
        sample = build_toy_samples(cfg64, rng, n=1)[0]
        scaler = default_scaler()

        def loss_value():
            out = net.forward(sample.mag, sample.phase)
            loss, _ = compound_loss(out, sample.annotation, sample.label, scaler)
            return loss

        before = float(loss_value().data)
        opt = AdamW(net.params, lr=1e-6)
        loss = loss_value()
        ad.backward(loss)
        opt.step()
        after = float(loss_value().data)
        assert after < before

    def test_history_structure_and_reproducibility(self, tiny_cfg):
        rng = np.random.default_rng(7)
        samples = build_toy_samples(tiny_cfg, rng, n=6)
        tcfg = TrainConfig(batch_size=3, lr=1e-3, max_epochs=3, seed=1)

        def run():
            net = SpoofNet(tiny_cfg, seed=1)
            return train_loop(net, samples[:4], samples[4:], tcfg)

        r1, r2 = run(), run()
        assert [h["epoch"] for h in r1.history] == [1, 2, 3]
        for row in r1.history:
            assert set(row) == {"epoch", "lr", "train_total", "val_total",
                                "bce_p", "bce_v", "mse_f"}
        assert r1.history == r2.history
        for name in r1.best_state:
            np.testing.assert_array_equal(r1.best_state[name], r2.best_state[name])

    def test_best_checkpoint_is_restored(self, tiny_cfg):
        rng = np.random.default_rng(8)
        samples = build_toy_samples(tiny_cfg, rng, n=6)
        tcfg = TrainConfig(batch_size=2, lr=1e-3, max_epochs=4, seed=2)
        net = SpoofNet(tiny_cfg, seed=2)
        result = train_loop(net, samples[:4], samples[4:], tcfg)
        for name, value in result.best_state.items():
            np.testing.assert_array_equal(net.params[name].data, value)

    def test_constant_val_loss_drives_decay_and_stop(self, tiny_cfg, monkeypatch):
        # force a flat validation curve through the real loop wiring
        import spoofnet.train as train_mod

        monkeypatch.setattr(
            train_mod, "evaluate_loss",
            lambda model, samples, scaler, weights=(1.0, 0.3, 0.3):
            (1.0, {"total": 1.0, "bce_p": 1.0, "bce_v": 0.0, "mse_f": 0.0}))
        rng = np.random.default_rng(11)
        samples = build_toy_samples(tiny_cfg, rng, n=2)
        tcfg = TrainConfig(batch_size=2, lr=1e-4, max_epochs=100, seed=0)
        net = SpoofNet(tiny_cfg, seed=0)
        result = train_loop(net, samples, samples, tcfg, default_scaler())
        assert len(result.history) == 21     # early stop fires after epoch 21
        assert result.best_epoch == 1        # nothing ever improved on epoch 1
        lrs = [h["lr"] for h in result.history]
        assert lrs[:11] == [1e-4] * 11       # halved once, at epoch 11's end
        assert lrs[11:] == [5e-5] * 10

    def test_non_finite_loss_aborts_with_diagnostics(self, tiny_cfg):
        from spoofnet.errors import NumericalError

        rng = np.random.default_rng(10)
        samples = build_toy_samples(tiny_cfg, rng, n=4)
        samples[2].mag[3, 5] = np.nan  # poisoned feature
        net = SpoofNet(tiny_cfg, seed=0)
        tcfg = TrainConfig(batch_size=4, lr=1e-3, max_epochs=2, seed=0)
        with pytest.raises(NumericalError, match="epoch 1.*u2"):
            train_loop(net, samples, samples[:1], tcfg, default_scaler())

    def test_non_finite_loss_names_the_poisoned_utterance(self, tiny_cfg):
        # u3 sits last in the batch's shuffled order (seed 0: u2, u0, u1, u3)
        from spoofnet.errors import NumericalError

        rng = np.random.default_rng(10)
        samples = build_toy_samples(tiny_cfg, rng, n=4)
        samples[3].phase[0, 0] = np.nan
        net = SpoofNet(tiny_cfg, seed=0)
        tcfg = TrainConfig(batch_size=4, lr=1e-3, max_epochs=1, seed=0)
        with pytest.raises(NumericalError, match="batch 0, utterance u3:"):
            train_loop(net, samples, samples[:1], tcfg, default_scaler())

    def test_non_finite_validation_loss_aborts(self, tiny_cfg):
        # the training samples are finite; only the validation set holds a NaN
        from spoofnet.errors import NumericalError

        rng = np.random.default_rng(10)
        samples = build_toy_samples(tiny_cfg, rng, n=6)
        samples[5].mag[3, 5] = np.nan
        net = SpoofNet(tiny_cfg, seed=0)
        tcfg = TrainConfig(batch_size=4, lr=1e-3, max_epochs=3, seed=0)
        with pytest.raises(NumericalError, match="validation loss at epoch 1:"):
            train_loop(net, samples[:4], samples[4:], tcfg, default_scaler())

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)
                                       if isinstance(f.default, float)])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_config_float_rejected_before_any_step(self, tiny_cfg, field, value):
        rng = np.random.default_rng(10)
        samples = build_toy_samples(tiny_cfg, rng, n=4)
        net = SpoofNet(tiny_cfg, seed=0)
        before = net.state_dict()
        tcfg = dataclasses.replace(TrainConfig(batch_size=4, max_epochs=2, seed=0),
                                   **{field: value})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match=f"TrainConfig.{field} = "):
                train_loop(net, samples, samples[:2], tcfg, default_scaler())
        assert caught == []
        for name, array in before.items():
            assert net.params[name].data.tobytes() == array.tobytes()

    def test_evaluate_loss_averages(self, tiny_cfg):
        rng = np.random.default_rng(9)
        samples = build_toy_samples(tiny_cfg, rng, n=2)
        net = SpoofNet(tiny_cfg, seed=0)
        total, comps = evaluate_loss(net, samples, default_scaler())
        assert total == pytest.approx(comps["total"])
        assert comps["total"] == pytest.approx(
            comps["bce_p"] + 0.3 * comps["bce_v"] + 0.3 * comps["mse_f"], abs=1e-6)
