import numpy as np
import pytest

from spoofnet import autodiff as ad
from spoofnet.optim import AdamW


def make_param(value):
    p = ad.parameter(np.array(value, dtype=np.float64))
    return {"w": p}, p


class TestAdamW:
    def test_first_step_bias_corrected(self):
        params, p = make_param([0.0])
        opt = AdamW(params, lr=1e-3, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        # m_hat = v_hat = 1 on step one, so the update is -lr / (1 + eps)
        expected = -1e-3 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(p.data, [expected], rtol=1e-12)

    def test_zero_grad_zero_decay_is_identity(self):
        params, p = make_param([2.5, -1.5])
        opt = AdamW(params, lr=1e-2, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [2.5, -1.5])

    def test_decoupled_decay_shrinks_parameter(self):
        params, p = make_param([4.0])
        opt = AdamW(params, lr=0.1, weight_decay=0.01)
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_allclose(p.data, [4.0 * (1.0 - 0.1 * 0.01)], rtol=1e-12)

    def test_moments_track_parameter_shapes(self):
        params = {"a": ad.parameter(np.zeros((3, 4))),
                  "b": ad.parameter(np.zeros(7))}
        opt = AdamW(params, lr=1e-3)
        assert opt.m["a"].shape == (3, 4) and opt.v["b"].shape == (7,)

    def test_descends_a_quadratic(self):
        params, p = make_param([5.0])
        opt = AdamW(params, lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            loss = ad.reshape(ad.mul(ad.mul(p, 1.0), p), ())
            ad.backward(loss)
            opt.step()
        assert abs(float(p.data[0])) < 0.1


def reference_step(opt, t):
    """AdamW's update written as whole-array expressions, one temporary
    per operation; opt supplies the hyper-parameters and the moments."""
    bc1 = 1.0 - opt.beta1 ** t
    bc2 = 1.0 - opt.beta2 ** t
    for name, p in opt.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m, v = opt.m[name], opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        if opt.weight_decay:
            p.data -= opt.lr * opt.weight_decay * p.data
        p.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


class TestInPlaceStep:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bit_equal_to_whole_array_expressions(self, dtype, weight_decay):
        rng = np.random.default_rng(7)
        shapes = {"w": (5, 4), "b": (4,), "frozen": (3,), "s": ()}
        init = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        opts = [AdamW({k: ad.parameter(a.copy()) for k, a in init.items()},
                      lr=1e-2, weight_decay=weight_decay) for _ in range(2)]
        for t in range(1, 6):
            grads = {k: rng.standard_normal(s).astype(dtype)
                     for k, s in shapes.items() if k != "frozen"}
            for opt in opts:
                for k, p in opt.params.items():
                    p.grad = grads[k].copy() if k in grads else None
            opts[0].step()
            reference_step(opts[1], t)
            for k in shapes:
                for got, want in ((opts[0].params[k].data, opts[1].params[k].data),
                                  (opts[0].m[k], opts[1].m[k]),
                                  (opts[0].v[k], opts[1].v[k])):
                    assert got.dtype == want.dtype == dtype
                    assert got.tobytes() == want.tobytes(), (k, t)
        # the frozen parameter still decays when weight decay is on
        moved = not np.array_equal(opts[0].params["frozen"].data, init["frozen"])
        assert moved == bool(weight_decay)
