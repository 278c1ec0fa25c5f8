"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ShapeError

# Adam's moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# the decoupled weight decay, as a fraction of the learning rate
WEIGHT_DECAY = 0.01


class AdamW:
    """Bias-corrected Adam moments plus weight decay by WEIGHT_DECAY
    applied directly to the parameter (never folded into the gradient)."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        # two scratch buffers per dtype, as long as the largest parameter
        # of that dtype; every step's temporaries are views into them
        sizes: dict[np.dtype, int] = {}
        for p in params.values():
            sizes[p.data.dtype] = max(sizes.get(p.data.dtype, 0), p.data.size)
        self._scratch = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in sizes.items()}

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
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
            # in place, the float ops of m += (1 - BETA1) * g,
            # v += (1 - BETA2) * g * g, p -= lr * wd * p and
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS)
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=a)
            a *= g
            v += a
            np.multiply(p.data, self.lr * WEIGHT_DECAY, out=a)
            p.data -= a
            np.divide(m, bc1, out=a)
            np.divide(v, bc2, out=b)
            a *= self.lr
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            p.data -= a
