"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. A tracked op result also gets a small
graph node, which keeps its gradient, backward function, parent nodes
and walked mark, and the shape, dtype and layout of its value, but not
the value; a leaf that requires grad (a parameter) is its own node. Each
backward function keeps only the arrays it reads, so an activation dies
as soon as the forward lets go of its Tensor unless a backward function
reads it. Calling :func:`backward` on a scalar walks the graph once in
reverse topological order and accumulates gradients into every node that
requires them. The walk frees the graph as it goes: when it returns,
only the leaves (parameters, and inputs that require grad) keep their
gradients, and each array a backward function kept is released;
``backward(loss, retain_graph=True)`` keeps every node's gradient,
backward function and parent links, and with them the arrays those
functions read. Either way a graph is walked once. The op set is
deliberately closed: exactly what the detector network and its losses
need, nothing speculative.

- elementwise: add, mul
- matrices and layout: matmul, concat, transpose (of the last two axes)
- attention: attention (multi-head softmax(q @ k.T / sqrt(d)) @ v of
  (..., L, H*d) projections)
- nonlinearities: sigmoid, gelu, log, clip
- reductions and normalization: softmax, logsumexp (keeps the reduced
  axis with size 1), layer_norm, tsum, tmean
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


def _layout(data: np.ndarray) -> str:
    """The memory order of a fresh array laid out like data: Fortran for
    a Fortran-ordered array, else C."""
    return "F" if data.flags.f_contiguous and not data.flags.c_contiguous else "C"


class _Node:
    """The graph record of one tracked op result: its gradient, backward
    function, parent nodes and walked mark, and the shape, dtype and
    layout of its value, which it does not keep."""

    __slots__ = ("grad", "_backward_fn", "_parents", "_backward_done",
                 "shape", "dtype", "_order")

    def __init__(self, data: np.ndarray, parents: tuple, backward_fn):
        self.grad = None
        self._backward_fn = backward_fn
        self._parents = parents
        self._backward_done = False
        self.shape, self.dtype = data.shape, data.dtype
        self._order = _layout(data)


class Tensor:
    """N-dimensional value, optionally tracked by the autodiff graph.

    A leaf is its own graph node: it has no parents and no backward
    function, and the walk never marks it."""

    __slots__ = ("data", "requires_grad", "grad", "name", "_op_node")
    _backward_done = False

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.requires_grad = requires_grad and _grad_enabled
        self.grad = None
        self.name = name
        self._op_node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def _node(self):
        """The node this tensor's gradient goes to: a tracked op result's
        own node, the tensor itself for a leaf that requires grad, else
        None."""
        if self._op_node is not None:
            return self._op_node
        return self if self.requires_grad else None

    @property
    def _parents(self):
        return () if self._op_node is None else self._op_node._parents

    @property
    def _backward_fn(self):
        return None if self._op_node is None else self._op_node._backward_fn

    @property
    def _order(self):
        return _layout(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"


def parameter(data, name: str = "") -> Tensor:
    """A leaf tensor that always participates in gradients."""
    t = Tensor(np.asarray(data), requires_grad=True, name=name)
    t.requires_grad = True  # parameters track grads even inside no_grad
    return t


def _nodes(*operands) -> tuple:
    """The graph node of each operand (None for a constant or a tensor
    that needs no gradient)."""
    return tuple(t._node if isinstance(t, Tensor) else None for t in operands)


def _result(data, parents, backward_fn) -> Tensor:
    """Wrap an op's value; when grad is enabled and a parent needs a
    gradient, give it a node that links to the parents' nodes."""
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple(n for n in _nodes(*parents) if n is not None)
        if nodes:
            out.requires_grad = True
            out._op_node = _Node(out.data, nodes, backward_fn)
    return out


def _accumulate(t, g: np.ndarray, owned: bool = False):
    """Add g into the gradient of t (a Tensor, which goes to its node, a
    node, or None for no gradient). The first contribution becomes the
    gradient: an owned g (an array the backward function has just made
    and keeps no other reference to) is taken as it is when it has the
    value's shape, dtype and C layout; any other g (a view, or the one g
    that add hands to both operands) is copied once into the value's
    layout."""
    node = t._node if isinstance(t, Tensor) else t
    if node is None:
        return
    if node.grad is not None:
        node.grad += g
    elif (owned and g.shape == node.shape and g.dtype == node.dtype
          and g.flags.c_contiguous and node._order == "C"):
        node.grad = g
    else:
        node.grad = np.empty(node.shape, node.dtype, order=node._order)
        np.copyto(node.grad, g)


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
    na, nb = _nodes(a, b)
    b_ndim = bd.ndim

    def backward_fn(g):
        _accumulate(na, g)
        if nb is not None:
            gb = _sum_leading(g, b_ndim)
            _accumulate(nb, gb, owned=gb is not g)

    return _result(data, (a, b), backward_fn)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product a * b under the module's operand rule."""
    bd = _operand("mul", a, b)
    data = a.data * bd
    na, nb = _nodes(a, b)
    # each operand's gradient reads the other's values
    a_vals = a.data if nb is not None else None
    b_vals = bd if na is not None else None
    b_ndim = bd.ndim

    def backward_fn(g):
        if na is not None:
            _accumulate(na, g * b_vals, owned=True)
        if nb is not None:
            _accumulate(nb, _sum_leading(g * a_vals, b_ndim), owned=True)

    return _result(data, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (..., m, k) @ (..., k, n) over equal leading axes,
    or (..., m, k) @ (k, n) with b shared by every matrix of the stack."""
    sa, sb = a.data.shape, b.data.shape
    if (a.data.ndim < 2 or b.data.ndim < 2 or sa[-1] != sb[-2]
            or (b.data.ndim > 2 and sa[:-2] != sb[:-2])):
        raise ShapeError(f"matmul: cannot multiply shapes {sa} and {sb}")
    data = a.data @ b.data
    na, nb = _nodes(a, b)
    # each operand's gradient reads the other's values
    a_vals = a.data if nb is not None else None
    b_vals = b.data if na is not None else None

    def backward_fn(g):
        if na is not None:
            _accumulate(na, g @ b_vals.mT, owned=True)
        if nb is not None:  # a shared (k, n) b sums its gradient over the stack
            _accumulate(nb, a_vals.mT @ g if len(sb) > 2
                        else a_vals.reshape(-1, sa[-1]).T @ g.reshape(-1, sb[-1]),
                        owned=True)

    return _result(data, (a, b), backward_fn)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    nodes = _nodes(*tensors)

    def backward_fn(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(node, g[tuple(idx)])

    return _result(data, tuple(tensors), backward_fn)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: shape {a.data.shape} has no two axes to swap")
    # a contiguous copy: matmul on strided views can round differently
    data = a.data.mT.copy()
    na = a._node

    def backward_fn(g):
        _accumulate(na, g.mT)

    return _result(data, (a,), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    na = a._node

    def backward_fn(g):
        _accumulate(na, g * y * (1.0 - y), owned=True)

    return _result(y, (a,), backward_fn)


# Cephes ndtr.c (after Cody 1969), the erf that scipy.special.erf evaluates:
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and 1 - exp(-x^2) P(|x|) / Q(|x|)
# with the sign of x beyond. Coefficients run from the highest power down;
# U and Q have an implied leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
# float64 elements per pass: the three scratch rows stay in L2 cache
_ERF_CHUNK = 1 << 15


def _horner(x: np.ndarray, coefs, out: np.ndarray, monic: bool = False) -> np.ndarray:
    """Cephes polevl (p1evl when monic) of x into out: one multiply and one
    add per coefficient, rounded separately as C without FMA rounds them."""
    if monic:
        np.add(x, coefs[0], out=out)
    else:
        np.multiply(x, coefs[0], out=out)
        out += coefs[1]
    for c in coefs[2 - monic:]:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """Overwrite a C-contiguous float32 or float64 array with its error
    function, and return it.

    Every element takes the float64 steps of Cephes' erf, so a float32
    result is scipy.special.erf's bit for bit and a float64 result is
    within one ulp of it (np.exp may round differently from the C
    library's exp). The |x| <= 1 rational runs over cache-sized chunks of
    every element, with x clamped to [-1, 1] so that no lane overflows;
    the elements beyond are set aside as each chunk is overwritten, and
    their results then replace the chunk's. Cephes switches erfc to a
    third rational at |x| >= 8, but there erfc < 1.2e-29 and 1 - erfc
    rounds to exactly 1, so P/Q evaluated at min(|x|, 8) gives the same
    result without it, and +-inf needs no case of its own. It works in
    place, with three scratch rows, so that a call touches little fresh
    memory: at gelu's sizes the page faults of a new array cost as much as
    a few of the passes."""
    if not x.flags.c_contiguous:
        raise ValueError("_erf works in place: it needs a C-contiguous array")
    flat = x.reshape(-1)
    if not flat.size:
        return x
    scratch = np.empty((3, min(flat.size, _ERF_CHUNK)))
    beyond, values = [], []
    for lo in range(0, flat.size, _ERF_CHUNK):
        xs = flat[lo:lo + _ERF_CHUNK]
        c, z, p = scratch[:, :xs.size]
        np.maximum(xs, -1.0, out=c)
        np.minimum(c, 1.0, out=c)
        big = np.flatnonzero((xs > 1.0) | (xs < -1.0))
        beyond.append(big + lo)
        values.append(xs[big])
        np.multiply(c, c, out=z)
        _horner(z, _ERF_T, p)
        p *= c
        q = _horner(z, _ERF_U, c, monic=True)  # c is spent: its row takes U
        np.divide(p, q, out=xs)
    beyond, values = np.concatenate(beyond), np.concatenate(values)
    for lo in range(0, beyond.size, _ERF_CHUNK):
        xb = values[lo:lo + _ERF_CHUNK]
        b, e, pq = scratch[:, :xb.size]
        np.abs(xb, out=b)
        np.minimum(b, 8.0, out=b)
        np.multiply(b, b, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        e *= _horner(b, _ERFC_P, pq)  # P, then Q, in one row
        e /= _horner(b, _ERFC_Q, pq, monic=True)
        np.subtract(1.0, e, out=e)
        flat[beyond[lo:lo + _ERF_CHUNK]] = np.copysign(e, xb, out=e)
    return x


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error linear unit, x * Phi(x)."""
    x = a.data
    # in the dtype of x, in the order of x * (0.5 * (1.0 + erf(x / sqrt(2))))
    cdf = _erf(np.divide(x, math.sqrt(2.0), order="C"))
    cdf += 1.0
    cdf *= 0.5
    y = x * cdf
    na = a._node

    def backward_fn(g):
        # g * (cdf + x * pdf), pdf = exp(-0.5 * x * x) / sqrt(2 pi), in one buffer
        d = np.multiply(x, -0.5)
        d *= x
        np.exp(d, out=d)
        d /= math.sqrt(2.0 * math.pi)
        d *= x
        d += cdf
        d *= g
        _accumulate(na, d, owned=True)

    return _result(y, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    x = a.data
    data = np.log(x)
    na = a._node

    def backward_fn(g):
        _accumulate(na, g / x, owned=True)

    return _result(data, (a,), backward_fn)


def clip(a: Tensor, lo, hi) -> Tensor:
    """Clamp values to [lo, hi] (scalars, or arrays that broadcast into
    a's shape); gradient is passed through inside the range and zeroed
    where the clamp is active."""
    data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    na = a._node

    def backward_fn(g):
        _accumulate(na, g * inside, owned=True)

    return _result(data, (a,), backward_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    na = a._node

    def backward_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(na, y * (g - dot), owned=True)

    return _result(y, (a,), backward_fn)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """log(sum(exp(x))) along an axis, which is kept with size 1;
    max-subtracted for overflow safety."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = m + np.log(s)
    soft = e / s
    na = a._node

    def backward_fn(g):
        _accumulate(na, g * soft, owned=True)

    return _result(data, (a,), backward_fn)


# attention's backward takes its (..., H, L, L) work a block of leading
# rows at a time, each block's probabilities within this many bytes
ATTENTION_BLOCK_BYTES = 256 << 10


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of the (..., L, H*d)
    query, key and value projections: each head's columns attend as
    softmax(q @ k.T / sqrt(d)) @ v, and the heads' outputs join back
    into one (..., L, H*d) tensor.

    The projections are split into contiguous per-head stacks, q and v
    to (..., H, L, d) and k to (..., H, d, L), so one stacked matmul
    scores every head. The (..., H, L, L) scores live in one buffer,
    scaled and softmaxed in place, and backward keeps them and the
    stacks it reads. Backward makes the probabilities' gradient over
    blocks of leading rows whose H*L*L probabilities fit
    ATTENTION_BLOCK_BYTES, so its temporaries of that kind stay
    block-sized. Every float op is the one the matmul, mul, softmax,
    matmul chain does on those stacks, on the same operands and in the
    same order, each matrix of a stack on its own, so values and
    gradients equal the chain's bit for bit."""
    sq, sk, sv = q.data.shape, k.data.shape, v.data.shape
    if q.data.ndim < 2 or sk != sq or sv != sq or heads < 1 or sq[-1] % heads:
        raise ShapeError(f"attention: cannot split queries {sq}, keys {sk} "
                         f"and values {sv} into {heads} heads")
    d = sq[-1] // heads
    split = (*sq[:-1], heads, d)

    def stack(x):  # (..., L, H*d) -> (..., H, L, d)
        return x.reshape(split).swapaxes(-3, -2).copy()

    def join(x):   # (..., H, L, d) -> (..., L, H*d)
        return x.swapaxes(-3, -2).reshape(sq)

    qh, vh = stack(q.data), stack(v.data)
    kh = np.moveaxis(k.data.reshape(split), -3, -1).copy()  # (..., H, d, L)
    scale = np.asarray(1.0 / math.sqrt(d), dtype=q.data.dtype)
    y = qh @ kh
    y *= scale
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    data = join(y @ vh)
    nq, nk, nv = _nodes(q, k, v)

    def rows(x):  # (..., H, m, n) -> (N, H, m, n), the leading axes flattened
        return x.reshape(-1, *x.shape[-3:])

    # backward keeps the probabilities and the stacks it reads: q's
    # gradient reads the keys, k's the queries, and both the values
    probs = rows(y)
    q_rows = rows(qh) if nk is not None else None
    k_rows = rows(kh) if nq is not None else None
    v_rows = rows(vh) if nq is not None or nk is not None else None
    k_shape = kh.shape
    block = max(1, ATTENTION_BLOCK_BYTES // probs[0].nbytes)

    def backward_fn(g):
        g = stack(g)
        if nv is not None:
            _accumulate(nv, join(y.mT @ g), owned=True)
        if nq is None and nk is None:
            return
        gq = None if nq is None else np.empty_like(g)             # (..., H, L, d)
        gk = None if nk is None else np.empty(k_shape, g.dtype)   # (..., H, d, L)
        g_rows = rows(g)
        for lo in range(0, len(g_rows), block):
            blk = slice(lo, lo + block)
            p = probs[blk]
            dy = g_rows[blk] @ v_rows[blk].mT
            dy -= (dy * p).sum(axis=-1, keepdims=True)
            dy *= p
            dy *= scale
            if gq is not None:
                np.matmul(dy, k_rows[blk].mT, out=rows(gq)[blk])
            if gk is not None:
                np.matmul(q_rows[blk].mT, dy, out=rows(gk)[blk])
        if gq is not None:
            _accumulate(nq, join(gq), owned=True)
        if gk is not None:
            _accumulate(nk, join(gk.mT), owned=True)

    return _result(data, (q, k, v), backward_fn)


LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
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
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    data = xhat * gain.data + bias.data
    na, n_gain, n_bias = _nodes(a, gain, bias)
    gain_vals = gain.data

    def backward_fn(g):
        dxhat = g * gain_vals
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(na, inv * (dxhat - m1 - xhat * m2), owned=True)
        lead = tuple(range(g.ndim - 1))
        _accumulate(n_gain, (g * xhat).sum(axis=lead), owned=True)
        _accumulate(n_bias, g.sum(axis=lead), owned=True)

    return _result(data, (a, gain, bias), backward_fn)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    na, shape = a._node, a.data.shape

    def backward_fn(g):
        gk = g
        if axis is not None and not keepdims:
            gk = np.expand_dims(g, axis=axis)
        _accumulate(na, np.broadcast_to(gk, shape))

    return _result(data, (a,), backward_fn)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over an axis, a tuple of axes, or (by default) all of them."""
    total = tsum(a, axis=axis, keepdims=keepdims)
    return mul(total, 1.0 / (a.data.size // total.data.size))


def _toposort(root: Tensor) -> list:
    """The graph nodes reachable from root's node, each after its
    parents (empty when root is not tracked)."""
    start = root._node
    if start is None:
        return []
    order, visited, stack = [], set(), [(start, False)]
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


def backward(loss: Tensor, retain_graph: bool = False) -> None:
    """Populate .grad on every requires_grad leaf reachable from loss.

    The loss must be a single scalar. The walk runs each interior node's
    backward function once, in reverse topological order. A graph keeps
    only what backward reads: each node keeps its gradient, backward
    function and parent links, but not its op's value, and each backward
    function keeps only the arrays it reads, so an activation that no
    backward function reads is gone before the walk starts. The walk
    frees the graph as it goes: once a node's backward function has run,
    the node drops its gradient, the function (and with it the arrays it
    kept) and its parent links. So a kept activation dies as soon as the
    walk has passed it, and nothing of the graph outlives the call, even
    while the caller still holds the loss. Only the leaves keep their
    gradients. retain_graph=True keeps every node's gradient, backward
    function and parent links instead, and with the functions the arrays
    they read, for code that reads them afterwards (an interior gradient
    is on the node, ``t._node.grad``).

    Either way the walk marks every interior node it passes, and a later
    walk that reaches a marked node (the same loss, or a new loss built
    on a walked subgraph) raises RuntimeError before touching any
    gradient: its stale gradient would count twice, or its freed one not
    at all.
    """
    if loss.data.size != 1:
        raise NotScalar(f"backward needs a scalar loss, got shape {loss.data.shape}")
    order = _toposort(loss)
    if any(node._backward_done for node in order):
        raise RuntimeError("backward already called on this graph; rebuild the "
                           "forward pass before differentiating again")
    if not order:
        return
    root = order[-1]
    root.grad = np.ones(root.shape, root.dtype)
    while order:
        node = order.pop()  # the list lets go of each node as the walk passes it
        if node._backward_fn is None:
            continue
        node._backward_done = True
        if node.grad is not None:
            node._backward_fn(node.grad)
        if not retain_graph:
            node.grad, node._backward_fn, node._parents = None, None, ()


def zero_grads(params) -> None:
    """Clear gradients on an iterable or dict of tensors."""
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None
