"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ShapeError


class AdamW:
    """Bias-corrected Adam moments plus weight decay applied directly to
    the parameter (never folded into the gradient)."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        # two scratch buffers per dtype, as long as the largest parameter
        # of that dtype; every step's temporaries are views into them
        sizes: dict[np.dtype, int] = {}
        for p in params.values():
            sizes[p.data.dtype] = max(sizes.get(p.data.dtype, 0), p.data.size)
        self._scratch = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in sizes.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{name} of shape {p.data.shape}"
                )
            m = self.m[name]
            v = self.v[name]
            buf_a, buf_b = self._scratch[p.data.dtype]
            a = buf_a[:p.data.size].reshape(p.data.shape)
            b = buf_b[:p.data.size].reshape(p.data.shape)
            # in place, the float ops of m += (1 - beta1) * g,
            # v += (1 - beta2) * g * g, p -= lr * wd * p and
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            if self.weight_decay:
                np.multiply(p.data, self.lr * self.weight_decay, out=a)
                p.data -= a
            np.divide(m, bc1, out=a)
            np.divide(v, bc2, out=b)
            a *= self.lr
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a
