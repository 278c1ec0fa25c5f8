"""Acceptance suite: one test per criterion, one printed line each.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import numpy as np

from spoofnet import autodiff as ad
from spoofnet.annotate import FrameAnnotation, annotate_waveform
from spoofnet.autodiff import Tensor
from spoofnet.dsp import (FIXED_NUM_SAMPLES, FRAME_LEN, HOP_LEN, LOG_FLOOR,
                          SAMPLE_RATE, FixedWaveform, hann_window, stft_features)
from spoofnet.explain import aggregate, utterance_reliance
from spoofnet.metrics import ScoreRecord, compute_auc, compute_eer
from spoofnet.model import (FORMANT_RANGES, ModelConfig, SpoofNet, attention_pool,
                            count_params, toy_config)
from spoofnet.pitch import track_pitch
from spoofnet.train import FormantScaler, TrainConfig, compound_loss, train_loop
from tests.conftest import synth_vowel


def report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_parameter_budget():
    n = count_params(ModelConfig())
    rel = abs(n - 41.8e6) / 41.8e6
    report("criterion 1 (parameter budget)", rel <= 0.10,
           f"full config has {n:,} learnable scalars, {100 * rel:.2f}% from 41.8M")


def test_criterion_2_gradient_fidelity():
    cfg = toy_config(n_frames=8, n_bins=16, embed_dim=8, enc_heads=2,
                     enc_head_dim=4, pred_heads=2, pred_head_dim=4, mlp_dim=16,
                     pool_heads=2, dtype="float64")
    net = SpoofNet(cfg, seed=0)
    rng = np.random.default_rng(1)
    mag = rng.standard_normal((8, 16))
    phase = rng.standard_normal((8, 16))
    f0 = np.where(rng.uniform(size=8) > 0.35, rng.uniform(80, 300, 8), np.nan)
    ann = FrameAnnotation(f0_hz=f0, f1_hz=rng.uniform(300, 800, 8),
                          f2_hz=rng.uniform(900, 2500, 8), voiced=np.isfinite(f0))
    scaler = FormantScaler(log_mean=np.array([5.2, 6.2, 7.2]),
                           log_std=np.array([0.4, 0.3, 0.3]))

    def loss_tensor():
        out = net.forward(mag, phase)
        loss, _ = compound_loss(out, ann, label=1, scaler=scaler)
        return loss

    loss = loss_tensor()
    ad.zero_grads(net.params)
    ad.backward(loss)
    analytic = {k: p.grad.copy() for k, p in net.params.items()}

    h = 1e-5
    worst = 0.0
    worst_name = ""
    n_checked = 0
    for name, p in net.params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_tensor().data)
            flat[i] = orig - h
            down = float(loss_tensor().data)
            flat[i] = orig
            numeric[i] = (up - down) / (2.0 * h)
        n_checked += flat.size
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        rel = (np.abs(a - numeric) / denom).max()
        if rel > worst:
            worst, worst_name = rel, name
    report("criterion 2 (gradient fidelity)", worst < 1e-4,
           f"max relative error {worst:.2e} (at {worst_name}) "
           f"over {n_checked} parameters")


def test_criterion_3_shape_and_range_suite():
    cfg = toy_config()
    net = SpoofNet(cfg, seed=0)
    lows = np.array([r[0] for r in FORMANT_RANGES])
    highs = np.array([r[1] for r in FORMANT_RANGES])
    rng = np.random.default_rng(2)
    failures = []
    for trial in range(100):
        mag = rng.standard_normal((cfg.n_frames, cfg.n_bins)) * rng.uniform(0.1, 3)
        phase = rng.uniform(-1, 1, (cfg.n_frames, cfg.n_bins))
        out = net.predict(mag, phase)
        ok = (np.all(out.formants_hz > lows) and np.all(out.formants_hz < highs)
              and np.all(out.frame_weights >= 0)
              and abs(out.frame_weights.sum() - 1.0) < 1e-5
              and 0.0 < out.score < 1.0
              and np.array_equal(out.v_mask, out.voicing_prob >= 0.5)
              and out.formants_hz.shape == (cfg.n_frames, 3))
        if not ok:
            failures.append(trial)
    report("criterion 3 (shape/range suite)", not failures,
           f"all ModelOutput invariants hold on 100 random inputs"
           if not failures else f"violations on trials {failures[:5]}")


def test_criterion_4_dsp_oracles():
    details = []
    ok = True

    # STFT vs naive O(N^2) DFT
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, FIXED_NUM_SAMPLES)
    grid = stft_features(FixedWaveform(x))
    win = hann_window(FRAME_LEN)
    worst = 0.0
    for t in (0, 31, 64, 127):
        frame = x[t * HOP_LEN: t * HOP_LEN + FRAME_LEN] * win
        k = np.arange(256)[:, None]
        n = np.arange(FRAME_LEN)[None, :]
        oracle = (np.exp(-2j * np.pi * k * n / FRAME_LEN) * frame).sum(axis=1)
        fast_mag = np.exp(grid.log_mag[t]) - LOG_FLOOR
        scale = np.abs(oracle).max()
        worst = max(worst,
                    np.abs(fast_mag - np.abs(oracle)).max() / scale,
                    np.abs(grid.sin_phase[t] - np.sin(np.angle(oracle))).max())
    ok &= worst < 1e-6
    details.append(f"stft vs dft {worst:.1e}")

    t_axis = np.arange(FIXED_NUM_SAMPLES) / SAMPLE_RATE
    f0 = track_pitch(FixedWaveform(np.sin(2 * np.pi * 220.0 * t_axis)))
    hit = np.isfinite(f0[1:-1]) & (np.abs(f0[1:-1] - 220.0) <= 2.0)
    ok &= hit.mean() >= 0.95
    details.append(f"sine220 {100 * hit.mean():.0f}%")

    saw = 2.0 * ((100.0 * t_axis) % 1.0) - 1.0
    f0s = track_pitch(FixedWaveform(saw))
    hit_s = np.isfinite(f0s[1:-1]) & (np.abs(f0s[1:-1] - 100.0) <= 2.0)
    ok &= hit_s.mean() >= 0.90
    details.append(f"saw100 {100 * hit_s.mean():.0f}%")

    vowel = synth_vowel()
    ann = annotate_waveform(vowel)
    voiced = ann.voiced
    good = (np.abs(ann.f1_hz[voiced] - 500.0) <= 50.0) & \
           (np.abs(ann.f2_hz[voiced] - 1500.0) <= 75.0)
    ok &= voiced.any() and good.mean() >= 0.80
    details.append(f"vowel F1/F2 {100 * good.mean():.0f}%")

    silent = track_pitch(FixedWaveform(np.zeros(FIXED_NUM_SAMPLES)))
    ok &= not np.any(np.isfinite(silent))
    details.append("silence unvoiced")

    report("criterion 4 (dsp oracles)", bool(ok), ", ".join(details))


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(4)
    worst_auc = 0.0
    worst_eer = 0.0
    for _ in range(1000):
        nf = int(rng.integers(1, 101))
        nr = int(rng.integers(1, 101))
        decimals = int(rng.integers(1, 4))  # coarse scores force ties
        fake = np.round(rng.uniform(0, 1, nf), decimals)
        real = np.round(rng.uniform(0, 1, nr), decimals)
        recs = [ScoreRecord(f"f{i}", float(s), 1) for i, s in enumerate(fake)]
        recs += [ScoreRecord(f"r{i}", float(s), 0) for i, s in enumerate(real)]

        # AUC oracle: exhaustive pair enumeration
        wins = (fake[:, None] > real[None, :]).sum() \
            + 0.5 * (fake[:, None] == real[None, :]).sum()
        auc_oracle = wins / (nf * nr)
        worst_auc = max(worst_auc, abs(compute_auc(recs) - auc_oracle))

        # EER oracle: brute-force sweep over every midpoint threshold
        distinct = np.unique(np.concatenate([fake, real]))
        thresholds = np.concatenate([[distinct[0] - 1.0],
                                     (distinct[:-1] + distinct[1:]) / 2.0,
                                     [distinct[-1] + 1.0]])
        far = (real[None, :] >= thresholds[:, None]).sum(axis=1) / nr
        frr = (fake[None, :] < thresholds[:, None]).sum(axis=1) / nf
        diff = far - frr
        k = int(np.argmax(diff <= 0.0))
        if diff[k] == 0.0:
            eer_oracle = (far[k] + frr[k]) / 2.0
        else:
            t = diff[k - 1] / (diff[k - 1] - diff[k])
            eer_oracle = far[k - 1] + t * (far[k] - far[k - 1])
        worst_eer = max(worst_eer, abs(compute_eer(recs)[0] - eer_oracle))

    report("criterion 5 (metric oracles)",
           worst_auc < 1e-12 and worst_eer < 1e-12,
           f"1000 random sets: max |AUC diff| {worst_auc:.1e}, "
           f"max |EER diff| {worst_eer:.1e}")


def test_criterion_6_pooling_hand_check():
    z = Tensor(np.array([[0.0], [np.log(3.0)]]))
    w_h = Tensor(np.array([[1.0]]))
    weights, pooled = attention_pool(z, w_h)
    w_ok = np.allclose(weights.data[:, 0], [0.25, 0.75], atol=1e-12)
    p_ok = abs(pooled.data[0, 0] - 0.75 * np.log(3.0)) < 1e-12
    report("criterion 6 (pooling hand-check)", w_ok and p_ok,
           f"weights ({weights.data[0, 0]:.4f}, {weights.data[1, 0]:.4f}), "
           f"pooled {pooled.data[0, 0]:.6f} ~ 0.824")


def test_criterion_7_toy_end_to_end(tmp_path):
    from spoofnet.cache import annotate_corpus
    from spoofnet.features import build_samples
    from spoofnet.synth import SyntheticCorpusSpec, generate_synthetic_corpus
    from spoofnet.train import fit_scaler

    spec = SyntheticCorpusSpec(n_real=20, n_fake=20, seed=11, duration_s=2.2)
    manifest = generate_synthetic_corpus(spec, tmp_path / "corpus")
    annotations, _ = annotate_corpus(manifest, tmp_path / "cache")

    reals = [e for e in manifest if e.label == "real"]
    fakes = [e for e in manifest if e.label == "fake"]
    train_entries = reals[:16] + fakes[:16]   # 32 train
    val_entries = reals[16:] + fakes[16:]     # 8 val
    cfg = toy_config()
    train_samples = build_samples(train_entries, annotations, cfg.np_dtype())
    val_samples = build_samples(val_entries, annotations, cfg.np_dtype())
    assert len(train_samples) == 32 and len(val_samples) == 8

    tcfg = TrainConfig(batch_size=16, lr=1e-3, max_epochs=25, seed=5)
    scaler = fit_scaler([s.annotation for s in train_samples])

    def run():
        net = SpoofNet(cfg, seed=5)
        result = train_loop(net, train_samples, val_samples, tcfg, scaler)

        def auc(samples):
            recs = [ScoreRecord(s.utt_id, net.predict(s.mag, s.phase).score,
                                s.label) for s in samples]
            return compute_auc(recs)

        return result.history, auc(train_samples), auc(val_samples)

    hist1, train_auc, val_auc = run()
    hist2, train_auc2, val_auc2 = run()
    reproducible = (hist1 == hist2 and train_auc == train_auc2
                    and val_auc == val_auc2)
    ok = train_auc >= 0.99 and val_auc >= 0.90 and reproducible
    report("criterion 7 (toy end-to-end)", bool(ok),
           f"{len(hist1)} epochs: train AUC {train_auc:.3f}, "
           f"val AUC {val_auc:.3f}, bit-reproducible={reproducible}")


def test_criterion_8_explainability_oracle():
    # planted weights on frames of known voicing must reproduce the split
    weights = np.array([0.55, 0.25, 0.15, 0.05])
    voiced = np.array([True, False, True, False])
    planted_voiced = weights[voiced].sum()  # 0.70
    vs, us = utterance_reliance(weights, voiced)
    exact = (vs == planted_voiced) and (us == 1.0 - planted_voiced)

    voicing_prob = np.where(voiced, 0.9, 0.1)
    correct_fake = ScoreRecord("ok_fake", 0.8, 1, frame_weights=weights,
                               voicing_prob=voicing_prob)
    missed_fake = ScoreRecord("miss_fake", 0.2, 1, frame_weights=weights,
                              voicing_prob=voicing_prob)
    correct_real = ScoreRecord("ok_real", 0.1, 0, frame_weights=weights,
                               voicing_prob=voicing_prob)
    rep = aggregate([correct_fake, missed_fake, correct_real], eer_threshold=0.5)
    fake_group = next(g for g in rep.groups if g.label == 1)
    real_group = next(g for g in rep.groups if g.label == 0)
    filtered = (fake_group.n_utterances == 1 and real_group.n_utterances == 1
                and {u.utt_id for u in rep.utterances} == {"ok_fake", "ok_real"})
    shares = fake_group.voiced_share == planted_voiced

    report("criterion 8 (explainability oracle)", exact and filtered and shares,
           f"planted split ({planted_voiced:.2f}, {1 - planted_voiced:.2f}) "
           f"recovered exactly; misclassified utterance excluded")


def test_criterion_9_loss_composition():
    rng = np.random.default_rng(6)
    scaler = FormantScaler(log_mean=np.array([5.2, 6.2, 7.2]),
                           log_std=np.array([0.4, 0.3, 0.3]))
    from spoofnet.model import ForwardPass

    worst = 0.0
    for trial in range(50):
        n = 8
        f0 = np.where(rng.uniform(size=n) > 0.4, rng.uniform(80, 300, n), np.nan)
        ann = FrameAnnotation(f0_hz=f0, f1_hz=rng.uniform(300, 800, n),
                              f2_hz=rng.uniform(900, 2500, n),
                              voiced=np.isfinite(f0))
        out = ForwardPass(
            formants_hz=Tensor(np.stack([rng.uniform(61, 399, n),
                                         rng.uniform(201, 849, n),
                                         rng.uniform(801, 2699, n)], axis=1)),
            voicing_prob=Tensor(rng.uniform(0.01, 0.99, (n, 1))),
            score=Tensor(rng.uniform(0.01, 0.99, (1, 1))),
            frame_weights=Tensor(np.full((n, 1), 1.0 / n)),
        )
        total, c = compound_loss(out, ann, trial % 2, scaler)
        worst = max(worst, abs(float(total.data)
                               - (c["bce_p"] + 0.3 * c["bce_v"] + 0.3 * c["mse_f"])))

    # no voiced frames: the formant term must be exactly zero
    ann0 = FrameAnnotation(f0_hz=np.full(8, np.nan),
                           f1_hz=np.full(8, 500.0), f2_hz=np.full(8, 1500.0),
                           voiced=np.zeros(8, dtype=bool))
    out0 = ForwardPass(
        formants_hz=Tensor(np.tile([230.0, 525.0, 1750.0], (8, 1))),
        voicing_prob=Tensor(np.full((8, 1), 0.2)),
        score=Tensor(np.array([[0.4]])),
        frame_weights=Tensor(np.full((8, 1), 1.0 / 8)),
    )
    _, c0 = compound_loss(out0, ann0, 0, scaler)

    report("criterion 9 (loss composition)",
           worst < 1e-12 and c0["mse_f"] == 0.0,
           f"max |total - weighted sum| {worst:.1e} over 50 random batches; "
           f"zero-voiced mse_f = {c0['mse_f']}")
