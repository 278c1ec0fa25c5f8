"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array and remembers how it was produced; calling
:func:`backward` on a scalar walks the recorded graph once in reverse
topological order and accumulates gradients into every tensor that
requires them. The op set is deliberately closed: exactly what the
detector network and its losses need, nothing speculative.

- elementwise: add, mul
- matrices and layout: matmul, concat, reshape, transpose
- attention: attention (softmax(q @ k * scale) @ v over stacked heads)
- nonlinearities: sigmoid, gelu, log, clip
- reductions and normalization: softmax, logsumexp, layer_norm, tsum, tmean
- graph: parameter, no_grad, backward, zero_grads

add and mul share one operand rule. The second operand b is either a
Tensor whose shape is a trailing suffix of a's shape (the same shape, a
(D,) bias against (..., D), an (L, D) table against (B, L, D), or a 0-d
scalar), whose gradient is summed over a's extra leading axes; or a
constant (a Python float, a numpy scalar or an array) that is cast to
a's dtype and must broadcast into a's shape. Subtraction and negation
are add and mul with a negated constant or -1.0.

Values are float32 by default (model-sized buffers); gradient-checking
code builds float64 graphs by passing float64 arrays in. A graph keeps
the dtype of its tensors, so a float32 graph stays float32 forward and
backward, and a float64 graph stays float64. Tensors may carry any
leading axes, such as a batch of utterances; matmul takes stacks of
matrices, (..., m, k) @ (..., k, n) or (..., m, k) @ (k, n). Everything
else must shape-match exactly; mismatches raise ShapeError naming both
shapes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import NotScalar, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """N-dimensional value, optionally tracked by the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "name",
                 "_parents", "_backward_fn", "_backward_done")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.requires_grad = requires_grad and _grad_enabled
        self.grad = None
        self.name = name
        self._parents = ()
        self._backward_fn = None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"


def parameter(data, name: str = "") -> Tensor:
    """A leaf tensor that always participates in gradients."""
    t = Tensor(np.asarray(data), requires_grad=True, name=name)
    t.requires_grad = True  # parameters track grads even inside no_grad
    return t


def _result(data, parents, backward_fn) -> Tensor:
    tracked = _grad_enabled and any(
        p.requires_grad for p in parents if isinstance(p, Tensor)
    )
    out = Tensor(data, requires_grad=tracked)
    if tracked:
        out._parents = tuple(p for p in parents if isinstance(p, Tensor))
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False):
    """Add g into t's gradient. The first contribution becomes the
    gradient: an owned g (an array the backward function has just made
    and keeps no other reference to) is taken as it is when it has t's
    shape, dtype and C layout; any other g (a view, or the one g that
    add hands to both operands) is copied once into t's layout."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif (owned and g.shape == t.data.shape and g.dtype == t.data.dtype
          and g.flags.c_contiguous and t.data.flags.c_contiguous):
        t.grad = g
    else:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)


def _operand(op: str, a: Tensor, b) -> np.ndarray:
    """The values of add/mul's operand b, checked against a: a Tensor's
    shape must be a trailing suffix of a's; a constant is cast to a's
    dtype and must broadcast into a's shape."""
    if isinstance(b, Tensor):
        bd = b.data
        fits = a.data.shape[a.data.ndim - bd.ndim:] == bd.shape
    else:
        bd = np.asarray(b, dtype=a.data.dtype)
        try:
            fits = np.broadcast_shapes(a.data.shape, bd.shape) == a.data.shape
        except ValueError:
            fits = False
    if not fits:
        raise ShapeError(f"{op}: cannot combine shapes {a.data.shape} and {bd.shape}")
    return bd


def _sum_leading(g: np.ndarray, ndim: int) -> np.ndarray:
    """Sum a gradient over the leading axes a suffix-shaped operand lacks."""
    return g if g.ndim == ndim else g.sum(axis=tuple(range(g.ndim - ndim)))


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum a + b under the module's operand rule."""
    bd = _operand("add", a, b)
    data = a.data + bd

    def backward_fn(g):
        _accumulate(a, g)
        if isinstance(b, Tensor):
            gb = _sum_leading(g, bd.ndim)
            _accumulate(b, gb, owned=gb is not g)

    return _result(data, (a, b), backward_fn)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product a * b under the module's operand rule."""
    bd = _operand("mul", a, b)
    data = a.data * bd

    def backward_fn(g):
        _accumulate(a, g * bd, owned=True)
        if isinstance(b, Tensor):
            _accumulate(b, _sum_leading(g * a.data, bd.ndim), owned=True)

    return _result(data, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (..., m, k) @ (..., k, n) over equal leading axes,
    or (..., m, k) @ (k, n) with b shared by every matrix of the stack."""
    sa, sb = a.data.shape, b.data.shape
    if (a.data.ndim < 2 or b.data.ndim < 2 or sa[-1] != sb[-2]
            or (b.data.ndim > 2 and sa[:-2] != sb[:-2])):
        raise ShapeError(f"matmul: cannot multiply shapes {sa} and {sb}")
    data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.mT, owned=True)
        if b.requires_grad:  # a shared (k, n) b sums its gradient over the stack
            _accumulate(b, a.data.mT @ g if b.data.ndim > 2
                        else a.data.reshape(-1, sa[-1]).T @ g.reshape(-1, sb[-1]),
                        owned=True)

    return _result(data, (a, b), backward_fn)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _result(data, tuple(tensors), backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward_fn(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _result(data, (a,), backward_fn)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute the axes as np.transpose does; by default reverse them."""
    try:
        # a contiguous copy: matmul on strided views can round differently
        data = np.transpose(a.data, axes).copy()
    except ValueError as exc:
        raise ShapeError(f"transpose: cannot permute shape {a.data.shape} "
                         f"by axes {axes}") from exc
    inverse = None if axes is None else np.argsort([ax % a.data.ndim for ax in axes])

    def backward_fn(g):
        _accumulate(a, np.transpose(g, inverse))

    return _result(data, (a,), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward_fn(g):
        _accumulate(a, g * y * (1.0 - y), owned=True)

    return _result(y, (a,), backward_fn)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error linear unit, x * Phi(x)."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    y = x * cdf

    def backward_fn(g):
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        _accumulate(a, g * (cdf + x * pdf), owned=True)

    return _result(y, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward_fn(g):
        _accumulate(a, g / a.data, owned=True)

    return _result(data, (a,), backward_fn)


def clip(a: Tensor, lo, hi) -> Tensor:
    """Clamp values to [lo, hi] (scalars, or arrays that broadcast into
    a's shape); gradient is passed through inside the range and zeroed
    where the clamp is active."""
    data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def backward_fn(g):
        _accumulate(a, g * inside, owned=True)

    return _result(data, (a,), backward_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(a, y * (g - dot), owned=True)

    return _result(y, (a,), backward_fn)


def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """log(sum(exp(x))) along an axis, max-subtracted for overflow safety."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = m + np.log(s)
    soft = e / s
    if not keepdims:
        data = data.squeeze(axis=axis)

    def backward_fn(g):
        gk = g if keepdims else np.expand_dims(g, axis=axis)
        _accumulate(a, gk * soft, owned=True)

    return _result(data, (a,), backward_fn)


def attention(q: Tensor, k: Tensor, v: Tensor, scale) -> Tensor:
    """Scaled dot-product attention softmax(q @ k * scale) @ v over a
    stack of heads: q is (..., L, d), k holds the keys already transposed
    to (..., d, L), and v is (..., L, d).

    The (..., L, L) scores live in one buffer, scaled and softmaxed in
    place, and backward reuses one buffer of that size. Every float op
    is the one the matmul, mul, softmax, matmul chain does, on the same
    operands and in the same order, so values and gradients equal the
    chain's bit for bit."""
    sq, sk, sv = q.data.shape, k.data.shape, v.data.shape
    if q.data.ndim < 2 or sk != (*sq[:-2], sq[-1], sq[-2]) or sv != sq:
        raise ShapeError(f"attention: cannot combine queries {sq}, keys {sk} "
                         f"and values {sv}")
    scale = np.asarray(scale, dtype=q.data.dtype)  # cast as mul casts a constant
    y = q.data @ k.data
    y *= scale
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    data = y @ v.data

    def backward_fn(g):
        if v.requires_grad:
            _accumulate(v, y.mT @ g, owned=True)
        if q.requires_grad or k.requires_grad:
            dy = g @ v.data.mT
            dy -= (dy * y).sum(axis=-1, keepdims=True)
            dy *= y
            dy *= scale
            if q.requires_grad:
                _accumulate(q, dy @ k.data.mT, owned=True)
            if k.requires_grad:
                _accumulate(k, q.data.mT @ dy, owned=True)

    return _result(data, (q, k, v), backward_fn)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize each row of the last dim to mean 0 / variance 1, then
    apply the learned elementwise scale and shift."""
    d = a.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: scale/shift must have shape ({d},), got "
            f"{gain.data.shape} and {bias.data.shape}"
        )
    xc = a.data - a.data.mean(axis=-1, keepdims=True)
    # the population variance of np.var, from the one centred array
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward_fn(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(a, inv * (dxhat - m1 - xhat * m2), owned=True)
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=lead), owned=True)
        _accumulate(bias, g.sum(axis=lead), owned=True)

    return _result(data, (a, gain, bias), backward_fn)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        gk = g
        if axis is not None and not keepdims:
            gk = np.expand_dims(g, axis=axis)
        _accumulate(a, np.broadcast_to(gk, a.data.shape))

    return _result(data, (a,), backward_fn)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over an axis, a tuple of axes, or (by default) all of them."""
    total = tsum(a, axis=axis, keepdims=keepdims)
    return mul(total, 1.0 / (a.data.size // total.data.size))


def _toposort(root: Tensor) -> list[Tensor]:
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from loss.

    The loss must be a single scalar; calling backward twice on the same
    graph without rebuilding it is an error because saved activations
    are not reference-counted.
    """
    if loss.data.size != 1:
        raise NotScalar(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already called on this graph; rebuild the "
                           "forward pass before differentiating again")
    loss._backward_done = True
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def zero_grads(params) -> None:
    """Clear gradients on an iterable or dict of tensors."""
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None
