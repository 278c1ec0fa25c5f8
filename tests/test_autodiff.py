import inspect
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofnet import autodiff as ad
from spoofnet.autodiff import Tensor
from spoofnet.errors import NotScalar, ShapeError
from tests.conftest import hold_interior_gradients


def numeric_grad(build_loss, param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss wrt one parameter."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(build_loss().data)
        flat[i] = orig - h
        down = float(build_loss().data)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def assert_grad_close(build_loss, params, rtol=1e-4):
    loss = build_loss()
    ad.backward(loss)
    for p in params:
        numeric = numeric_grad(build_loss, p)
        assert p.grad is not None, "no gradient reached the parameter"
        denom = np.maximum(np.maximum(np.abs(numeric), np.abs(p.grad)), 1e-6)
        rel = np.abs(p.grad - numeric) / denom
        assert rel.max() < rtol, f"max relative gradient error {rel.max():.2e}"


def randt(rng, *shape, scale=1.0):
    return ad.parameter(scale * rng.standard_normal(shape))


def test_op_set_is_closed():
    # the public functions of the engine are exactly what the model, the
    # loss and their tests use; a new op is a deliberate change to this list
    public = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
              if fn.__module__ == ad.__name__ and not name.startswith("_")}
    assert public == {"add", "mul", "matmul", "concat", "transpose",
                      "sigmoid", "gelu", "log", "clip", "softmax", "logsumexp",
                      "attention", "layer_norm", "tsum", "parameter",
                      "no_grad", "backward", "zero_grads"}
    dunders = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "__matmul__"}
    assert not dunders & set(vars(Tensor)) and not hasattr(Tensor, "reshape")


class TestForwardValues:
    def test_softmax_uniform_logits(self):
        y = ad.softmax(Tensor(np.zeros((1, 3))), axis=-1)
        np.testing.assert_allclose(y.data, 1.0 / 3.0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((4, 5))
        a = ad.softmax(Tensor(s), axis=-1).data
        b = ad.softmax(Tensor(s + 7.3), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_simplex(self):
        rng = np.random.default_rng(1)
        y = ad.softmax(Tensor(rng.standard_normal((6, 9)) * 30), axis=-1).data
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)

    def test_logsumexp_closed_form(self):
        y = ad.logsumexp(Tensor(np.array([[0.0, np.log(3.0)]])))
        np.testing.assert_allclose(y.data, np.log(4.0), rtol=1e-12)

    def test_logsumexp_overflow_safe(self):
        y = ad.logsumexp(Tensor(np.array([[1000.0, 1000.0]])))
        np.testing.assert_allclose(y.data, 1000.0 + np.log(2.0))

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = ad.matmul(Tensor(a), Tensor(b)).data
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_layer_norm_row_statistics(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 16)) * 3 + 2)
        one = ad.parameter(np.ones(16))
        zero = ad.parameter(np.zeros(16))
        y = ad.layer_norm(x, one, zero).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_is_bit_equal_to_np_var(self, dtype):
        # layer_norm centres once and sums the squares itself; that must
        # be exactly the mean and variance numpy computes
        rng = np.random.default_rng(7)
        x = (rng.standard_normal((4, 128, 512)) * 3 + 2).astype(dtype)
        g = ad.parameter(rng.standard_normal(512).astype(dtype))
        b = ad.parameter(rng.standard_normal(512).astype(dtype))
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        want = (x - mu) * inv * g.data + b.data
        got = ad.layer_norm(Tensor(x), g, b).data
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_is_the_stable_two_branch_formula(self, dtype):
        x = np.array([-800.0, -30.0, -1.5, -0.0, 0.0, 1e-8, 2.0, 40.0, 800.0], dtype=dtype)
        x = np.concatenate([x, np.random.default_rng(8).standard_normal(1000).astype(dtype) * 8])
        want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        got = ad.sigmoid(Tensor(x)).data
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            ad.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3,\)"):
            ad.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros(3)))
        # shapes that broadcast but are not a trailing suffix of a's shape
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 1\)"):
            ad.add(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 1))))
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(1, 4\)"):
            ad.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((1, 4))))
        # mul takes its tensor operand under the same rule as add
        with pytest.raises(ShapeError, match=r"mul.*\(2, 3, 4\).*\(3, 1\)"):
            ad.mul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 1))))
        with pytest.raises(ShapeError, match=r"mul.*\(3, 4\).*\(1, 4\)"):
            ad.mul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((1, 4))))
        with pytest.raises(ShapeError, match=r"mul.*\(4,\).*\(3, 4\)"):
            ad.mul(Tensor(np.zeros(4)), Tensor(np.zeros((3, 4))))
        # a constant must broadcast into a's shape without enlarging it
        with pytest.raises(ShapeError, match=r"mul.*\(4,\).*\(3, 4\)"):
            ad.mul(Tensor(np.zeros(4)), np.zeros((3, 4)))
        with pytest.raises(ShapeError, match=r"add.*\(3, 4\).*\(3,\)"):
            ad.add(Tensor(np.zeros((3, 4))), np.zeros(3))
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
            ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(2, 4, 5\)"):
            ad.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4, 5))))
        with pytest.raises(ShapeError, match=r"transpose.*\(4,\)"):
            ad.transpose(Tensor(np.zeros(4)))


class TestErf:
    """ad._erf is Cephes' erf, the one scipy.special.erf evaluates, so
    gelu gives scipy's values without importing scipy."""

    def test_float32_equals_scipy_bit_for_bit(self):
        from scipy.special import erf
        # every 509th float32 bit pattern in [0, 10], with both signs
        pos = np.arange(0, np.float32(10.0).view(np.uint32) + 1, 509,
                        dtype=np.uint32).view(np.float32)
        x = np.concatenate([pos, -pos])
        got = ad._erf(x.copy())
        assert got.dtype == np.float32
        assert got.tobytes() == erf(x).tobytes()

    def test_float64_within_one_ulp_of_scipy(self):
        from scipy.special import erf
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.standard_normal(100_000) * 3, rng.uniform(-9, 9, 100_000),
                            np.exp(rng.uniform(-700, 0, 10_000))])
        got, want = ad._erf(x.copy()), erf(x)
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 1

    def test_special_values_without_warnings(self):
        from scipy.special import erf
        x = np.array([0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), 8.0, -8.0,
                      np.nextafter(8.0, 0.0), 30.0, -30.0, 1e300, -1e300,
                      np.inf, -np.inf, np.nan, 5e-324])
        with np.errstate(over="ignore"):
            x32 = x.astype(np.float32)  # +-1e300 become +-inf
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            got = ad._erf(x.copy())
            got32 = ad._erf(x32.copy())
        assert got.tobytes() == erf(x).tobytes()
        assert got32.tobytes() == erf(x32).tobytes()
        np.testing.assert_array_equal(got[[8, 9, 10, 11, 12, 13]], [1, -1, 1, -1, 1, -1])
        assert np.signbit(got[1]) and np.isnan(got[14])

    def test_works_in_place_on_any_shape(self):
        from scipy.special import erf
        x = (np.random.default_rng(10).standard_normal((70_000, 3)) * 2).astype(np.float32)
        for view in (x, x.T, x[::2, 1:], x[:0], x[5, 1]):
            y = np.array(view, order="C")
            assert ad._erf(y) is y
            assert y.tobytes() == erf(np.array(view, order="C")).tobytes()
        with pytest.raises(ValueError, match="C-contiguous"):
            ad._erf(np.array(x.T, order="F"))

    def test_gelu_takes_any_layout(self):
        x = (np.random.default_rng(12).standard_normal((64, 48)) * 3).astype(np.float32)
        want = ad.gelu(Tensor(x)).data
        for view in (np.asfortranarray(x), x[:, ::-1][:, ::-1]):
            assert ad.gelu(Tensor(view)).data.tobytes() == want.tobytes()

    def test_gelu_is_the_scipy_formula_bit_for_bit(self):
        from scipy.special import erf
        x = (np.random.default_rng(11).standard_normal((3, 40_000)) * 3).astype(np.float32)
        want = x * (0.5 * (1.0 + erf(x / math.sqrt(2.0))))
        got = ad.gelu(Tensor(x)).data
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


class TestConstantDtype:
    """A constant that is not a Tensor takes the dtype of the tensor."""

    CONSTANTS = {
        "python_float": 0.5,
        "float64_0d": np.array(0.5),
        "float64_vector": np.array([0.5, -1.5, 2.0]),
    }

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    @pytest.mark.parametrize("const", sorted(CONSTANTS))
    def test_float32_tensor_stays_float32(self, op, const):
        a = ad.parameter(np.ones((2, 3), dtype=np.float32))
        out = op(a, self.CONSTANTS[const])
        assert out.dtype == np.float32
        ad.backward(ad.tsum(out))
        assert a.grad.dtype == np.float32

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_float64_tensor_stays_float64(self, op):
        a = ad.parameter(np.ones((2, 3)))
        assert op(a, np.float32(0.5)).dtype == np.float64


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        w = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.tsum(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_sigmoid_grad_at_zero(self):
        x = ad.parameter(np.zeros(()))
        ad.backward(ad.sigmoid(x))
        np.testing.assert_allclose(x.grad, 0.25, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        w = ad.parameter(np.ones((2, 2)))
        with pytest.raises(NotScalar):
            ad.backward(ad.mul(w, 2.0))

    def test_repeated_backward_rejected(self):
        w = ad.parameter(np.ones(3))
        loss = ad.tsum(w)
        ad.backward(loss)
        with pytest.raises(RuntimeError):
            ad.backward(loss)

    def test_grad_accumulates_for_reused_tensor(self):
        x = ad.parameter(np.array([3.0]))
        ad.backward(ad.mul(x, x))  # d(x^2)/dx = 2x; a size-1 loss
        np.testing.assert_allclose(x.grad, [6.0])

    def test_no_grad_blocks_recording(self):
        w = ad.parameter(np.ones(3))
        with ad.no_grad():
            y = ad.tsum(ad.mul(w, 2.0))
        assert y._node is None


class TestFreedGraph:
    """backward frees the graph it walks and never walks a tensor twice."""

    def test_second_walk_over_a_walked_subgraph_rejected(self):
        # h's gradient from the first walk is freed, so it would not count
        x = ad.parameter(np.array([1.0]))
        h = ad.mul(x, 2.0)
        ad.backward(ad.tsum(h))
        with pytest.raises(RuntimeError, match="backward already called"):
            ad.backward(ad.tsum(h))
        np.testing.assert_array_equal(x.grad, [2.0])

    @staticmethod
    def graph():
        """A loss, a parameter, and weak references to the values of two
        interior activations that only the graph could hold: the gelu's
        output, which no backward function reads (sigmoid's reads its
        own output), and the matmul's, which gelu's backward reads."""
        rng = np.random.default_rng(4)
        w = randt(rng, 6, 6)
        m = ad.matmul(Tensor(rng.standard_normal((4, 6))), w)
        h = ad.gelu(m)
        return ad.tsum(ad.sigmoid(h)), w, weakref.ref(h.data), weakref.ref(m.data)

    def test_interior_activation_dies_while_the_loss_is_held(self):
        loss, w, unread, _ = self.graph()
        assert unread() is None
        ad.backward(loss)
        node = loss._node
        assert node.grad is None and node._parents == () and node._backward_fn is None
        assert w.grad is not None and w.grad.shape == (6, 6)

    def test_a_read_activation_lives_until_the_walk_passes_it(self):
        loss, _, _, read = self.graph()
        seen = []

        def probe(a):  # an op whose backward runs before gelu's
            def backward_fn(g):
                seen.append(read() is not None)
                ad._accumulate(a, g)

            return ad._result(a.data.copy(), (a,), backward_fn)

        loss = ad.tsum(probe(loss))
        assert read() is not None
        ad.backward(loss)
        assert seen == [True] and read() is None


class TestGradChecks:
    """Every primitive against central finite differences (float64)."""

    def test_mlp_two_layer(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((4, 6)))
        w1, b1 = randt(rng, 6, 8), ad.parameter(np.zeros(8))
        w2, b2 = randt(rng, 8, 1), ad.parameter(np.zeros(1))

        def loss():
            h = ad.gelu(ad.add(ad.matmul(x, w1), b1))
            out = ad.sigmoid(ad.add(ad.matmul(h, w2), b2))
            return ad.mul(ad.tsum(out), 1.0 / out.data.size)

        assert_grad_close(loss, [w1, b1, w2, b2])

    def test_softmax_grad(self):
        rng = np.random.default_rng(11)
        w = randt(rng, 3, 5)
        c = rng.standard_normal((3, 5))

        def loss():
            return ad.tsum(ad.mul(ad.softmax(w, axis=-1), c))

        assert_grad_close(loss, [w])

    def test_logsumexp_grad(self):
        rng = np.random.default_rng(12)
        w = randt(rng, 4, 3)
        c = rng.standard_normal((4, 1))

        def loss():
            return ad.tsum(ad.mul(ad.logsumexp(w), c))

        assert_grad_close(loss, [w])

    def test_layer_norm_grad(self):
        rng = np.random.default_rng(13)
        w = randt(rng, 4, 6)
        g = ad.parameter(rng.uniform(0.5, 1.5, 6))
        b = ad.parameter(rng.standard_normal(6))
        c = rng.standard_normal((4, 6))

        def loss():
            return ad.tsum(ad.mul(ad.layer_norm(w, g, b), c))

        assert_grad_close(loss, [w, g, b])

    def test_concat_transpose_grad(self):
        rng = np.random.default_rng(14)
        a = randt(rng, 2, 3, 4)
        b = randt(rng, 2, 3, 2)
        c = rng.standard_normal((2, 6, 3))

        def loss():
            joined = ad.concat([a, b])                           # (2, 3, 6)
            return ad.tsum(ad.mul(ad.transpose(joined), c))       # (2, 6, 3)

        assert_grad_close(loss, [a, b])

    def test_stacked_matmul_grad(self):
        rng = np.random.default_rng(18)
        a = randt(rng, 2, 3, 4)
        b = randt(rng, 2, 4, 5)
        c = rng.standard_normal((2, 3, 5))

        def loss():
            return ad.tsum(ad.mul(ad.matmul(a, b), c))

        assert_grad_close(loss, [a, b])

    def test_stacked_by_shared_matrix_matmul_grad(self):
        rng = np.random.default_rng(19)
        a = randt(rng, 2, 3, 4)
        w = randt(rng, 4, 5)
        c = rng.standard_normal((2, 3, 5))

        def loss():
            return ad.tsum(ad.mul(ad.matmul(a, w), c))

        assert_grad_close(loss, [a, w])

    def test_log_exp_clip_grad(self):
        # the voicing BCE's shape: log(p) and log(1 - p) of a clipped p
        rng = np.random.default_rng(15)
        w = ad.parameter(rng.uniform(0.2, 0.8, (5,)))
        c = rng.standard_normal(5)

        def loss():
            p = ad.clip(w, 1e-7, 1.0 - 1e-7)
            one_minus_p = ad.add(ad.mul(p, -1.0), 1.0)
            return ad.tsum(ad.add(ad.log(p), ad.mul(ad.log(one_minus_p), c)))

        assert_grad_close(loss, [w])

    def test_clip_zeroes_grad_outside_range(self):
        w = ad.parameter(np.array([-1.0, 0.5, 2.0]))
        ad.backward(ad.tsum(ad.clip(w, 0.0, 1.0)))
        np.testing.assert_array_equal(w.grad, [0.0, 1.0, 0.0])

    def test_bias_broadcast_grad(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((5, 3)))
        bias = ad.parameter(rng.standard_normal(3))

        def loss():
            return ad.tsum(ad.sigmoid(ad.add(x, bias)))

        assert_grad_close(loss, [bias])

    def test_trailing_table_broadcast_grad(self):
        # an (L, D) table added to every (L, D) matrix of a (B, L, D) stack
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((3, 5, 4)))
        table = ad.parameter(rng.standard_normal((5, 4)))
        c = rng.standard_normal((3, 5, 4))

        def loss():
            return ad.tsum(ad.mul(ad.sigmoid(ad.add(x, table)), c))

        assert_grad_close(loss, [table])

    def test_trailing_vector_product_grad(self):
        # a (D,) gain times every row of a (B, L, D) stack, both tracked
        rng = np.random.default_rng(20)
        x = randt(rng, 2, 3, 4)
        gain = randt(rng, 4)
        c = rng.standard_normal((2, 3, 4))

        def loss():
            return ad.tsum(ad.mul(ad.mul(x, gain), c))

        assert_grad_close(loss, [x, gain])

    def test_mean_axis_grad(self):
        rng = np.random.default_rng(17)
        w = randt(rng, 4, 5)
        c = rng.standard_normal((4, 1))

        def loss():
            return ad.tsum(ad.mul(ad.mul(ad.tsum(w, axis=1), 1.0 / w.data.shape[1]), c))

        assert_grad_close(loss, [w])

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_attention_style_composite(self, seed):
        rng = np.random.default_rng(seed)
        q = randt(rng, 3, 4, scale=0.7)
        k = randt(rng, 3, 4, scale=0.7)
        v = randt(rng, 3, 4, scale=0.7)
        c = rng.standard_normal((3, 4))

        def loss():
            att = ad.softmax(ad.mul(ad.matmul(q, ad.transpose(k)), 0.5), axis=-1)
            return ad.tsum(ad.mul(ad.matmul(att, v), c))

        assert_grad_close(loss, [q, k, v], rtol=2e-4)


class TestDeterminism:
    def test_bitwise_repeatable(self):
        def run():
            rng = np.random.default_rng(42)
            w = ad.parameter(rng.standard_normal((6, 6)))
            x = Tensor(rng.standard_normal((4, 6)))
            loss = ad.tsum(ad.gelu(ad.matmul(x, w)))
            ad.backward(loss)
            return loss.data.copy(), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


def assert_bits_equal(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., L, H*d) -> contiguous (..., H, L, d), in numpy."""
    return x.reshape(*x.shape[:-1], heads, -1).swapaxes(-3, -2).copy()


def join_heads(x: np.ndarray) -> np.ndarray:
    """(..., H, L, d) -> (..., L, H*d), in numpy."""
    return x.swapaxes(-3, -2).reshape(*x.shape[:-3], x.shape[-2], -1)


def attention_chain(q, k, v, scale):
    """The four-op composition ad.attention replaces, on stacks of heads:
    q and v (..., H, L, d), keys transposed to (..., H, d, L)."""
    return ad.matmul(ad.softmax(ad.mul(ad.matmul(q, k), scale), axis=-1), v)


class TestAttention:
    @staticmethod
    def data(dtype, lead, heads, seed=0, length=16, d=8):
        rng = np.random.default_rng(seed)
        shape = (*lead, length, heads * d)
        qkv = {name: rng.standard_normal(shape).astype(dtype) for name in "qkv"}
        return qkv, rng.standard_normal(shape).astype(dtype)

    @staticmethod
    def leaves(qkv, tracked):
        return {name: ad.parameter(x) if name in tracked else Tensor(x)
                for name, x in qkv.items()}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["frames", "batch"])
    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("tracked", ["qkv", "qk", "v"])
    def test_bit_equal_to_per_head_chain(self, dtype, lead, heads, tracked):
        qkv, c = self.data(dtype, lead, heads)
        t = self.leaves(qkv, tracked)
        out = ad.attention(t["q"], t["k"], t["v"], heads)
        ad.backward(ad.tsum(ad.mul(out, c)))

        # the reference splits the heads in numpy, keys transposed
        split = {name: split_heads(x, heads) for name, x in qkv.items()}
        split["k"] = split["k"].mT.copy()
        r = self.leaves(split, tracked)
        d = qkv["q"].shape[-1] // heads
        ref = attention_chain(r["q"], r["k"], r["v"], 1.0 / np.sqrt(d))
        ad.backward(ad.tsum(ad.mul(ref, split_heads(c, heads))))

        assert_bits_equal(out.data, join_heads(ref.data))
        for name in "qkv":
            if name not in tracked:
                assert t[name].grad is None and r[name].grad is None
                continue
            ref_grad = r[name].grad.mT if name == "k" else r[name].grad
            assert_bits_equal(t[name].grad, join_heads(ref_grad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tracked", ["qkv", "qk", "v"])
    def test_blocked_backward_bit_equal_to_per_head_chain(self, dtype, tracked):
        # five rows of 2 x 128 x 128 probabilities: float32 backward takes
        # blocks of 2, 2 and 1 rows, float64 five blocks of one
        lead, heads, length = (5,), 2, 128
        row_bytes = heads * length * length * np.dtype(dtype).itemsize
        block = max(1, ad.ATTENTION_BLOCK_BYTES // row_bytes)
        assert block < lead[0] and (dtype == np.float64 or lead[0] % block)

        qkv, c = self.data(dtype, lead, heads, seed=7, length=length)
        t = self.leaves(qkv, tracked)
        ad.backward(ad.tsum(ad.mul(ad.attention(t["q"], t["k"], t["v"], heads), c)))
        split = {name: split_heads(x, heads) for name, x in qkv.items()}
        split["k"] = split["k"].mT.copy()
        r = self.leaves(split, tracked)
        ref = attention_chain(r["q"], r["k"], r["v"], 1.0 / np.sqrt(8))
        ad.backward(ad.tsum(ad.mul(ref, split_heads(c, heads))))
        for name in tracked:
            ref_grad = r[name].grad.mT if name == "k" else r[name].grad
            assert_bits_equal(t[name].grad, join_heads(ref_grad))

    def test_grad_check(self):
        rng = np.random.default_rng(3)
        q, k, v = (randt(rng, 2, 4, 6, scale=0.7) for _ in range(3))
        c = rng.standard_normal((2, 4, 6))

        def loss():
            return ad.tsum(ad.mul(ad.attention(q, k, v, 2), c))

        assert_grad_close(loss, [q, k, v], rtol=2e-4)

    @pytest.mark.parametrize("shapes, heads", [
        (((2, 4, 6), (2, 4, 6), (2, 4, 3)), 1),   # values of another width
        (((2, 4, 6), (2, 5, 6), (2, 4, 6)), 2),   # keys of other frames
        (((2, 4, 6), (1, 4, 6), (2, 4, 6)), 2),   # keys of another batch
        (((2, 4, 6), (2, 4, 6), (2, 4, 6)), 4),   # width the heads do not divide
        (((6,), (6,), (6,)), 1),                  # no frame axis
    ])
    def test_shape_error_names_the_shapes(self, shapes, heads):
        q, k, v = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError) as err:
            ad.attention(q, k, v, heads)
        for s in shapes:
            assert str(s) in str(err.value)
        assert f"{heads} heads" in str(err.value)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_rows_are_all_nan_as_in_the_chain(self, dtype):
        # a NaN query makes one row of its head's scores NaN, a NaN key one
        # entry of every row of its head's scores; each such row of
        # probabilities, and so of outputs, is all NaN, and the rest equal
        # the chain's bits
        heads, d = 2, 8
        qkv, _ = self.data(dtype, (), heads)
        qkv["q"][3, d + 1] = np.nan   # head 1, frame 3
        qkv["k"][5, 2] = np.nan       # head 0, frame 5
        out = ad.attention(Tensor(qkv["q"]), Tensor(qkv["k"]), Tensor(qkv["v"]), heads).data
        split = {name: split_heads(x, heads) for name, x in qkv.items()}
        ref = attention_chain(Tensor(split["q"]), Tensor(split["k"].mT.copy()),
                              Tensor(split["v"]), 1.0 / np.sqrt(d))
        want = join_heads(ref.data)
        nan_rows = np.zeros(out.shape, dtype=bool)
        nan_rows[:, :d] = True        # every row of head 0
        nan_rows[3, d:] = True        # row 3 of head 1
        np.testing.assert_array_equal(np.isnan(out), nan_rows)
        np.testing.assert_array_equal(np.isnan(want), nan_rows)
        assert out[~nan_rows].tobytes() == want[~nan_rows].tobytes()

    def test_no_grad_records_no_graph(self):
        rng = np.random.default_rng(4)
        q, k, v = (randt(rng, 2, 4, 6) for _ in range(3))
        with ad.no_grad():
            y = ad.attention(q, k, v, 2)
        assert y._node is None
        np.testing.assert_array_equal(y.data, ad.attention(q, k, v, 2).data)


class TestOwnedGradients:
    def test_no_two_gradients_share_memory(self):
        # a residual add hands one g to both operands, transpose and concat
        # hand out views of theirs, and attention gives one tensor three
        # gradients when it is the queries, the keys and the values
        rng = np.random.default_rng(5)
        x = randt(rng, 2, 4, 6)
        w = randt(rng, 6, 6)
        b = randt(rng, 6)
        gain, shift = ad.parameter(np.ones(6)), ad.parameter(np.zeros(6))
        h = ad.layer_norm(x, gain, shift)
        r = ad.add(x, ad.add(ad.matmul(h, w), b))
        att = ad.attention(r, r, r, 2)
        both = ad.transpose(ad.concat([att, r]))                      # (2, 12, 4)
        loss = ad.add(ad.tsum(ad.mul(both, rng.standard_normal((2, 12, 4)))),
                      ad.tsum(ad.sigmoid(r)))
        leaves = [t for t in ad._toposort(loss) if t._backward_fn is None]
        held = hold_interior_gradients(loss)
        ad.backward(loss)
        grads = [g for g, _ in held] + [t.grad for t in leaves if t.grad is not None]
        assert len(grads) > 15
        for i, a in enumerate(grads):
            for c in grads[i + 1:]:
                assert not np.shares_memory(a, c)

    def test_a_passed_through_gradient_is_copied(self):
        t = ad.parameter(np.zeros((2, 3)))
        g = np.ones((3, 2))
        ad._accumulate(t, g.T)
        g[0, 0] = 5.0
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))
        assert t.grad.flags.c_contiguous

    def test_an_owned_gradient_is_taken_and_later_ones_are_added(self):
        t = ad.parameter(np.zeros(3))
        g = np.ones(3)
        ad._accumulate(t, g, owned=True)
        assert t.grad is g
        ad._accumulate(t, np.full(3, 2.0), owned=True)
        np.testing.assert_array_equal(t.grad, [3.0, 3.0, 3.0])

    def test_an_owned_gradient_of_another_dtype_is_cast(self):
        t = ad.parameter(np.zeros(3, dtype=np.float32))
        ad._accumulate(t, np.ones(3), owned=True)
        assert t.grad.dtype == np.float32

    def test_a_fortran_ordered_parameter_gets_a_c_ordered_gradient(self):
        # gradients have one layout, whatever the layout of the value
        t = ad.parameter(np.asfortranarray(np.arange(6.0).reshape(2, 3)))
        ad.backward(ad.tsum(t))
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))
        assert t.grad.flags.c_contiguous
