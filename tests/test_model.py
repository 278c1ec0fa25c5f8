import numpy as np
import pytest

from spoofnet import autodiff as ad
from spoofnet.autodiff import Tensor
from spoofnet.errors import ShapeError
from spoofnet.model import (FORMANT_RANGES, ModelConfig, SpoofNet, attention_pool,
                            count_params, parameter_shapes, toy_config)


def rand_tokens(cfg, seed=0):
    rng = np.random.default_rng(seed)
    shape = (cfg.n_frames, cfg.n_bins)
    return rng.standard_normal(shape), rng.standard_normal(shape)


class TestShapes:
    def test_toy_forward_shapes(self, tiny_cfg):
        net = SpoofNet(tiny_cfg, seed=0)
        mag, phase = rand_tokens(tiny_cfg)
        z = net.encode(mag, phase)
        assert z.shape == (8, 8)
        out = net.predict(mag, phase)
        assert out.formants_hz.shape == (8, 3)
        assert out.voicing_prob.shape == (8,)
        assert out.frame_weights.shape == (8,)

    def test_wrong_token_shape_rejected(self, tiny_cfg):
        net = SpoofNet(tiny_cfg, seed=0)
        with pytest.raises(ShapeError):
            net.encode(np.zeros((4, 16)), np.zeros((8, 16)))
        with pytest.raises(ShapeError, match=r"\(2, 8, 16\).*\(3, 8, 16\)"):
            net.encode(np.zeros((2, 8, 16)), np.zeros((3, 8, 16)))

    def test_pool_heads_change_only_pool_matrix(self, tiny_cfg):
        import dataclasses

        wide = dataclasses.replace(tiny_cfg, pool_heads=7)
        shapes_a = {n: s for n, s, _ in parameter_shapes(tiny_cfg)}
        shapes_b = {n: s for n, s, _ in parameter_shapes(wide)}
        assert set(shapes_a) == set(shapes_b)
        diff = {n for n in shapes_a if shapes_a[n] != shapes_b[n]}
        assert diff == {"pool.w"}
        out = SpoofNet(wide, seed=0).predict(*rand_tokens(wide))
        assert out.frame_weights.shape == (8,)


class TestBatchAxis:
    """A (B, L, M) stack runs as one graph whose rows equal the
    per-utterance forward bit for bit: a batch adds a leading axis to
    every product and reduction and never mixes utterances."""

    CONFIGS = {"toy_float32": toy_config(), "toy_float64": toy_config(dtype="float64")}

    @pytest.mark.parametrize("name", ["toy_float32", "toy_float64", "tiny"])
    def test_rows_equal_per_utterance_forward(self, name, tiny_cfg):
        cfg = tiny_cfg if name == "tiny" else self.CONFIGS[name]
        net = SpoofNet(cfg, seed=4)
        rng = np.random.default_rng(5)
        mags = rng.standard_normal((5, cfg.n_frames, cfg.n_bins))
        phases = rng.standard_normal((5, cfg.n_frames, cfg.n_bins))
        with ad.no_grad():
            batch = net.forward(mags, phases)
            assert batch.score.shape == (5, 1, 1)
            assert batch.formants_hz.shape == (5, cfg.n_frames, 3)
            for i in range(5):
                one = net.forward(mags[i], phases[i])
                for field in ("formants_hz", "voicing_prob", "score", "frame_weights"):
                    np.testing.assert_array_equal(getattr(batch, field).data[i],
                                                  getattr(one, field).data,
                                                  err_msg=f"{field} row {i}")


class TestEncode:
    def test_identity_fusion_recovers_magnitude_stream(self, tiny_cfg):
        import dataclasses

        cfg = dataclasses.replace(tiny_cfg, enc_layers=0)
        net = SpoofNet(cfg, seed=0)
        d = cfg.embed_dim
        fuse = np.zeros((2 * d, d))
        fuse[:d, :] = np.eye(d)  # pick the magnitude half, drop the phase half
        net.params["fuse.w"].data = fuse.astype(np.float32)
        net.params["fuse.b"].data[:] = 0.0
        mag, phase = rand_tokens(cfg, seed=3)
        z = net.encode(mag, phase).data
        projected = (mag.astype(np.float32) @ net.params["enc_mag.proj.w"].data
                     + net.params["enc_mag.proj.b"].data)
        np.testing.assert_allclose(z, projected, rtol=1e-6)

    def test_permutation_equivariance_without_positions(self, tiny_cfg):
        net = SpoofNet(tiny_cfg, seed=1)
        for stream in ("mag", "phase"):
            net.params[f"enc_{stream}.pos"].data[:] = 0.0
        mag, phase = rand_tokens(tiny_cfg, seed=4)
        perm = np.arange(tiny_cfg.n_frames)
        perm[[2, 5]] = perm[[5, 2]]
        base = net.encode(mag, phase).data
        permuted = net.encode(mag[perm], phase[perm]).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-5)


class TestFormantDecoder:
    def test_zero_logits_hit_range_midpoints(self, tiny_cfg):
        net = SpoofNet(tiny_cfg, seed=0)
        net.params["formant.w"].data[:] = 0.0
        net.params["formant.b"].data[:] = 0.0
        z = Tensor(np.random.default_rng(0).standard_normal((8, 8)).astype(np.float32))
        f = net.decode_formants(z).data
        np.testing.assert_allclose(f[:, 0], 230.0, rtol=1e-6)
        np.testing.assert_allclose(f[:, 1], 525.0, rtol=1e-6)
        np.testing.assert_allclose(f[:, 2], 1750.0, rtol=1e-6)

    def test_saturating_logits_never_exceed_ceiling(self, tiny_cfg):
        net = SpoofNet(tiny_cfg, seed=0)
        net.params["formant.w"].data[:] = 0.0
        net.params["formant.b"].data[:] = 25.0
        f = net.decode_formants(Tensor(np.ones((8, 8), dtype=np.float32))).data
        assert np.all(f[:, 0] <= 400.0) and f[0, 0] == pytest.approx(400.0, abs=1e-3)
        assert np.all(f[:, 1] <= 850.0)
        assert np.all(f[:, 2] <= 2700.0)

    def test_target_196_preimage(self, tiny_cfg):
        # u = (196 - 60) / 340 = 0.4, so the logit must be ln(0.4 / 0.6)
        net = SpoofNet(tiny_cfg, seed=0)
        net.params["formant.w"].data[:] = 0.0
        z = np.log(0.4 / 0.6)
        assert z == pytest.approx(-0.405465, abs=1e-6)
        net.params["formant.b"].data[:] = np.array([z, 0.0, 0.0])
        f = net.decode_formants(Tensor(np.zeros((8, 8), dtype=np.float32))).data
        np.testing.assert_allclose(f[:, 0], 196.0, rtol=1e-5)


    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_saturated_logits_stay_strictly_inside(self, dtype):
        cfg = toy_config(dtype=dtype)
        net = SpoofNet(cfg, seed=0)
        net.params["formant.w"].data[:] = 0.0
        net.params["formant.w"].data[0, :] = 1e4
        net.params["formant.b"].data[:] = 0.0
        z = np.zeros((2, cfg.embed_dim), dtype=cfg.np_dtype())
        z[0, 0], z[1, 0] = 1.0, -1.0  # logits +1e4 and -1e4
        f = net.decode_formants(Tensor(z)).data
        assert f.dtype == cfg.np_dtype()
        lows = np.array([r[0] for r in FORMANT_RANGES], dtype=f.dtype)
        highs = np.array([r[1] for r in FORMANT_RANGES], dtype=f.dtype)
        assert np.all(f > lows) and np.all(f < highs)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_in_range_logits_are_not_clamped(self, dtype):
        cfg = toy_config(dtype=dtype)
        net = SpoofNet(cfg, seed=0)
        z = Tensor(np.random.default_rng(7).uniform(-3, 3, (64, cfg.embed_dim))
                   .astype(cfg.np_dtype()))
        raw = ad.add(ad.matmul(z, net.params["formant.w"]), net.params["formant.b"])
        lo = np.array([r[0] for r in FORMANT_RANGES], dtype=cfg.np_dtype())
        span = np.array([r[1] - r[0] for r in FORMANT_RANGES], dtype=cfg.np_dtype())
        unclamped = ad.add(ad.mul(ad.sigmoid(raw), span), lo).data
        np.testing.assert_array_equal(net.decode_formants(z).data, unclamped)


class TestVoicingDecoder:
    def test_zero_logits_give_half_and_voiced_mask(self, tiny_cfg):
        net = SpoofNet(tiny_cfg, seed=0)
        net.params["voicing.w"].data[:] = 0.0
        net.params["voicing.b"].data[:] = 0.0
        prob, mask = net.decode_voicing(Tensor(np.ones((8, 8), dtype=np.float32)))
        np.testing.assert_allclose(prob.data, 0.5)
        assert mask.all()  # the 0.5 boundary counts as voiced

    def test_large_logit_saturates(self, tiny_cfg):
        net = SpoofNet(tiny_cfg, seed=0)
        net.params["voicing.w"].data[:] = 0.0
        net.params["voicing.b"].data[:] = 10.0
        prob, mask = net.decode_voicing(Tensor(np.zeros((8, 8), dtype=np.float32)))
        assert np.all(prob.data > 0.9999) and mask.all()


class TestPooling:
    def test_identical_rows_pool_uniformly(self, tiny_cfg):
        import dataclasses

        cfg = dataclasses.replace(tiny_cfg, pred_layers=0)
        net = SpoofNet(cfg, seed=0)
        row = np.random.default_rng(7).standard_normal(8).astype(np.float32)
        z = Tensor(np.tile(row, (8, 1)))
        _, weights = net.pool_and_score(z)
        np.testing.assert_allclose(weights.data, 1.0 / 8.0, rtol=1e-5)

    def test_hand_worked_two_frame_example(self):
        z = Tensor(np.array([[0.0], [np.log(3.0)]]))
        w_h = Tensor(np.array([[1.0]]))
        weights, pooled = attention_pool(z, w_h)
        np.testing.assert_allclose(weights.data[:, 0], [0.25, 0.75], rtol=1e-12)
        np.testing.assert_allclose(pooled.data[0, 0], 0.75 * np.log(3.0), rtol=1e-12)

    def test_logsumexp_pooling_multi_head(self):
        # two heads scoring [0, ln 3] and [ln 3, 0]: symmetric scores, so
        # the weights must be uniform
        z = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        w_h = Tensor(np.log(3.0) * np.eye(2))
        weights, _ = attention_pool(z, w_h)
        np.testing.assert_allclose(weights.data[:, 0], [0.5, 0.5], rtol=1e-12)


class TestInvariants:
    def test_output_contract_on_random_inputs(self, tiny_cfg):
        net = SpoofNet(tiny_cfg, seed=0)
        lows = np.array([r[0] for r in FORMANT_RANGES])
        highs = np.array([r[1] for r in FORMANT_RANGES])
        for seed in range(100):
            out = net.predict(*rand_tokens(tiny_cfg, seed=seed))
            assert np.all(out.formants_hz > lows) and np.all(out.formants_hz < highs)
            assert np.all(out.frame_weights >= 0)
            assert abs(out.frame_weights.sum() - 1.0) < 1e-5
            assert 0.0 < out.score < 1.0
            np.testing.assert_array_equal(out.v_mask, out.voicing_prob >= 0.5)

    def test_deterministic_forward(self, tiny_cfg):
        net = SpoofNet(tiny_cfg, seed=9)
        mag, phase = rand_tokens(tiny_cfg, seed=10)
        a = net.predict(mag, phase)
        b = net.predict(mag, phase)
        assert a.score == b.score
        np.testing.assert_array_equal(a.formants_hz, b.formants_hz)
        np.testing.assert_array_equal(a.frame_weights, b.frame_weights)

    def test_every_parameter_receives_gradient(self, tiny_cfg):
        import dataclasses

        from spoofnet.annotate import FrameAnnotation
        from spoofnet.train import FormantScaler, compound_loss

        cfg = dataclasses.replace(tiny_cfg, dtype="float64")
        net = SpoofNet(cfg, seed=0)
        scaler = FormantScaler(log_mean=np.array([5.0, 6.0, 7.0]),
                               log_std=np.array([0.3, 0.3, 0.3]))
        rng = np.random.default_rng(11)
        got_grad = {name: False for name in net.params}
        for trial in range(3):
            f0 = np.where(rng.uniform(size=8) > 0.4, rng.uniform(80, 300, 8), np.nan)
            ann = FrameAnnotation(f0_hz=f0,
                                  f1_hz=rng.uniform(300, 800, 8),
                                  f2_hz=rng.uniform(900, 2500, 8),
                                  voiced=np.isfinite(f0))
            out = net.forward(rng.standard_normal((8, 16)),
                              rng.standard_normal((8, 16)))
            loss, _ = compound_loss(out, ann, label=trial % 2, scaler=scaler)
            ad.zero_grads(net.params)
            ad.backward(loss)
            for name, p in net.params.items():
                if p.grad is not None and np.any(p.grad != 0.0):
                    got_grad[name] = True
        dead = [n for n, ok in got_grad.items() if not ok]
        assert not dead, f"parameters with no gradient signal: {dead}"


class TestDtype:
    """The config's dtype holds through forward, loss and backward."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_graph_gradients_and_predictions_keep_config_dtype(self, dtype):
        from spoofnet.annotate import FrameAnnotation
        from spoofnet.train import FormantScaler, compound_loss

        cfg = toy_config(dtype=dtype)
        want = np.dtype(dtype)
        net = SpoofNet(cfg, seed=0)
        mag, phase = rand_tokens(cfg, seed=8)
        rng = np.random.default_rng(9)
        n = cfg.n_frames
        f0 = np.where(rng.uniform(size=n) > 0.4, rng.uniform(80, 300, n), np.nan)
        ann = FrameAnnotation(f0_hz=f0, f1_hz=rng.uniform(300, 800, n),
                              f2_hz=rng.uniform(900, 2500, n), voiced=np.isfinite(f0))
        scaler = FormantScaler(log_mean=np.array([5.2, 6.2, 7.2]),
                               log_std=np.array([0.4, 0.3, 0.3]))
        loss, _ = compound_loss(net.forward(mag, phase), ann, 1, scaler)
        ad.backward(loss, retain_graph=True)
        graph = ad._toposort(loss)
        assert {t.dtype for t in graph} == {want}
        assert {t.grad.dtype for t in graph if t.grad is not None} == {want}
        for name, p in net.params.items():
            assert p.grad is not None and p.grad.dtype == want, name
        out = net.predict(mag, phase)
        for field in ("formants_hz", "voicing_prob", "frame_weights"):
            assert getattr(out, field).dtype == want, field


class TestParamCount:
    def test_single_linear_layer_count(self):
        # a D=4 -> 3 projection with bias holds 15 scalars; the counting
        # helper must agree with direct enumeration
        cfg = ModelConfig()
        shapes = {n: s for n, s, _ in parameter_shapes(cfg)}
        assert int(np.prod(shapes["formant.w"])) + int(np.prod(shapes["formant.b"])) \
            == 512 * 3 + 3

    def test_count_matches_instantiated_model(self, tiny_cfg):
        net = SpoofNet(tiny_cfg, seed=0)
        assert count_params(tiny_cfg) == net.count_params()
        assert count_params(tiny_cfg) == sum(v.size for v in net.state_dict().values())

    def test_full_scale_budget(self):
        n = count_params(ModelConfig())
        assert abs(n - 41.8e6) / 41.8e6 <= 0.10

    def test_full_scale_instantiates_and_runs(self):
        net = SpoofNet(ModelConfig(), seed=0)
        assert net.count_params() == count_params(ModelConfig())
        rng = np.random.default_rng(0)
        out = net.predict(rng.standard_normal((128, 256)),
                          rng.standard_normal((128, 256)))
        assert 0.0 < out.score < 1.0
        assert out.formants_hz.shape == (128, 3)

    def test_checkpoint_round_trip_restores_outputs(self, tiny_cfg, tmp_path):
        from spoofnet.checkpoint import load_checkpoint, save_checkpoint

        net = SpoofNet(tiny_cfg, seed=3)
        mag, phase = rand_tokens(tiny_cfg, seed=12)
        before = net.predict(mag, phase)
        save_checkpoint(tmp_path / "m.ckpt", net.state_dict())
        other = SpoofNet(tiny_cfg, seed=99)
        other.load_state(load_checkpoint(tmp_path / "m.ckpt"))
        after = other.predict(mag, phase)
        assert before.score == after.score
        np.testing.assert_array_equal(before.formants_hz, after.formants_hz)


# the per-head reference slices and transposes with its own ops, so it
# does not share the transpose under test
def _narrow_columns(a: Tensor, start: int, length: int) -> Tensor:
    """Columns [start, start + length) of a 2-D tensor, as a copy."""
    data = a.data[:, start:start + length].copy()

    def backward_fn(g):
        full = np.zeros_like(a.data)
        full[:, start:start + length] = g
        ad._accumulate(a, full)

    return ad._result(data, (a,), backward_fn)


def _transpose_2d(a: Tensor) -> Tensor:
    data = a.data.T.copy()

    def backward_fn(g):
        ad._accumulate(a, g.T)

    return ad._result(data, (a,), backward_fn)


def per_head_block(self, x, prefix, heads):
    """Reference: the transformer block with one attention product per
    head, each head sliced out of q/k/v and the results concatenated."""
    p = self.params
    head_dim = p[f"{prefix}.wq"].shape[1] // heads
    h = ad.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    q = ad.add(ad.matmul(h, p[f"{prefix}.wq"]), p[f"{prefix}.bq"])
    k = ad.matmul(h, p[f"{prefix}.wk"])
    v = ad.add(ad.matmul(h, p[f"{prefix}.wv"]), p[f"{prefix}.bv"])
    scale = 1.0 / np.sqrt(head_dim)
    head_outs = []
    for i in range(heads):
        qi = _narrow_columns(q, i * head_dim, head_dim)
        ki = _narrow_columns(k, i * head_dim, head_dim)
        vi = _narrow_columns(v, i * head_dim, head_dim)
        att = ad.softmax(ad.mul(ad.matmul(qi, _transpose_2d(ki)), scale), axis=-1)
        head_outs.append(ad.matmul(att, vi))
    mixed = head_outs[0] if heads == 1 else ad.concat(head_outs, axis=1)
    x = ad.add(x, ad.add(ad.matmul(mixed, p[f"{prefix}.wo"]), p[f"{prefix}.bo"]))
    h2 = ad.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    inner = ad.gelu(ad.add(ad.matmul(h2, p[f"{prefix}.mlp.w1"]), p[f"{prefix}.mlp.b1"]))
    mlp = ad.add(ad.matmul(inner, p[f"{prefix}.mlp.w2"]), p[f"{prefix}.mlp.b2"])
    return ad.add(x, mlp)


class TestBatchedHeads:
    """Attention over a stacked head axis equals the per-head loop bit
    for bit, in predictions and in every parameter gradient."""

    CONFIGS = {
        "toy_float32": toy_config(),
        "float64_one_and_three_heads": toy_config(dtype="float64", enc_heads=1,
                                                  pred_heads=3, pred_head_dim=5),
        "full_width": ModelConfig(enc_layers=1, pred_layers=1),
    }

    @staticmethod
    def run(cfg, seed):
        net = SpoofNet(cfg, seed=seed)
        mag, phase = rand_tokens(cfg, seed=seed + 100)
        pred = net.predict(mag, phase)
        out = net.forward(mag, phase)
        rng = np.random.default_rng(seed + 200)
        loss = ad.tsum(ad.mul(out.formants_hz, rng.standard_normal(out.formants_hz.shape)))
        for t in (out.voicing_prob, out.frame_weights, out.score):
            loss = ad.add(loss, ad.tsum(ad.mul(t, rng.standard_normal(t.shape))))
        ad.backward(loss)
        return pred, {name: p.grad for name, p in net.params.items()}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_per_head_loop(self, name, monkeypatch):
        cfg = self.CONFIGS[name]
        pred, grads = self.run(cfg, seed=5)
        monkeypatch.setattr(SpoofNet, "_block", per_head_block)
        ref_pred, ref_grads = self.run(cfg, seed=5)
        for field in ("formants_hz", "voicing_prob", "v_mask", "frame_weights"):
            np.testing.assert_array_equal(getattr(pred, field), getattr(ref_pred, field))
        assert pred.score == ref_pred.score
        assert grads.keys() == ref_grads.keys()
        for param, g in grads.items():
            assert g is not None, param
            assert g.dtype == ref_grads[param].dtype, param
            np.testing.assert_array_equal(g, ref_grads[param], err_msg=param)


class TestGraphSize:
    """A transformer block records 17 op nodes: layer norms, projections,
    one attention op, the MLP and the residual adds, and no layout nodes
    around the attention. A change that brings some back fails here."""

    @staticmethod
    def op_nodes(cfg):
        net = SpoofNet(cfg, seed=0)
        out = net.forward(*rand_tokens(cfg, seed=1))
        return sum(1 for t in ad._toposort(out.score) if t._parents)

    def test_op_nodes_per_block(self):
        base = self.op_nodes(toy_config())
        assert self.op_nodes(toy_config(pred_layers=2)) - base == 17
        assert self.op_nodes(toy_config(enc_layers=2)) - base == 2 * 17  # two streams
        assert base == 69
