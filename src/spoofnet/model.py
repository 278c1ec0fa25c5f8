"""The multi-task detector network.

Two transformer encoders read magnitude and phase tokens, their outputs
are fused into one sequence, and three heads decode it: per-frame
formant trajectories bounded to plausible ranges, per-frame voicing
probabilities, and an attention-pooled utterance-level synthesis score.
The pooling weights double as the frame-importance explanation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dsp import F0_RANGE_HZ, F1_RANGE_HZ, F2_RANGE_HZ, NUM_BINS, NUM_FRAMES
from .errors import DataError, ShapeError, check_least, field_error

# the (f0, F1, F2) output ranges in Hz, and their bounds as float64 arrays
FORMANT_RANGES = (F0_RANGE_HZ, F1_RANGE_HZ, F2_RANGE_HZ)
FORMANT_LO = np.array([r[0] for r in FORMANT_RANGES])
FORMANT_HI = np.array([r[1] for r in FORMANT_RANGES])
FORMANT_LO.flags.writeable = FORMANT_HI.flags.writeable = False
# a frame whose voicing probability reaches this is voiced
VOICING_THRESHOLD = 0.5


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 512
    enc_layers: int = 8
    enc_heads: int = 8
    enc_head_dim: int = 64
    mlp_dim: int = 1024
    pred_layers: int = 4
    pred_heads: int = 6
    pred_head_dim: int = 64
    pool_heads: int = 4
    n_frames: int = NUM_FRAMES  # the frontend's fixed token grid; tests
    n_bins: int = NUM_BINS      # build smaller models directly
    dtype: str = "float32"

    def __post_init__(self):
        # a size is at least 1; a layer count may be 0 (no blocks)
        check_least(self, {"embed_dim": 1, "enc_layers": 0, "enc_heads": 1,
                           "enc_head_dim": 1, "mlp_dim": 1, "pred_layers": 0,
                           "pred_heads": 1, "pred_head_dim": 1, "pool_heads": 1,
                           "n_frames": 1, "n_bins": 1})
        if self.dtype not in ("float32", "float64"):
            raise field_error(self, "dtype", "is not float32 or float64")

    def np_dtype(self):
        return np.dtype(self.dtype).type


def toy_config(**overrides) -> ModelConfig:
    """A small config for tests and desk-scale training."""
    base = dict(embed_dim=16, enc_layers=1, enc_heads=2, enc_head_dim=8,
                mlp_dim=32, pred_layers=1, pred_heads=2, pred_head_dim=8,
                pool_heads=2)
    base.update(overrides)
    return ModelConfig(**base)


@dataclass
class ModelOutput:
    """Numpy predictions with the leading axes of the tokens, as in
    ForwardPass: score is 0-d for one utterance and (B,) for B of them."""

    formants_hz: np.ndarray   # (..., L, 3)
    voicing_prob: np.ndarray  # (..., L)
    v_mask: np.ndarray        # (..., L) bool, prob >= VOICING_THRESHOLD
    score: np.ndarray         # (...) P(fake) in (0, 1)
    frame_weights: np.ndarray  # (..., L), non-negative, sums to 1 over L


@dataclass
class ForwardPass:
    """Differentiable outputs of one forward pass.

    Each field keeps the leading axes of the tokens: shapes below are for
    one utterance, and a batch of B utterances prefixes them with B, e.g.
    formants_hz (B, L, 3) and score (B, 1, 1)."""

    formants_hz: Tensor   # (..., L, 3)
    voicing_prob: Tensor  # (..., L, 1)
    score: Tensor         # (..., 1, 1)
    frame_weights: Tensor  # (..., L, 1)


def _block_shapes(prefix: str, d: int, heads: int, head_dim: int, mlp: int):
    # no key bias: a constant added to every key cancels in the softmax,
    # so its gradient is identically zero (a dead parameter)
    a = heads * head_dim
    return [
        (f"{prefix}.ln1.g", (d,), "ones"),
        (f"{prefix}.ln1.b", (d,), "zeros"),
        (f"{prefix}.wq", (d, a), "xavier"),
        (f"{prefix}.bq", (a,), "zeros"),
        (f"{prefix}.wk", (d, a), "xavier"),
        (f"{prefix}.wv", (d, a), "xavier"),
        (f"{prefix}.bv", (a,), "zeros"),
        (f"{prefix}.wo", (a, d), "xavier"),
        (f"{prefix}.bo", (d,), "zeros"),
        (f"{prefix}.ln2.g", (d,), "ones"),
        (f"{prefix}.ln2.b", (d,), "zeros"),
        (f"{prefix}.mlp.w1", (d, mlp), "xavier"),
        (f"{prefix}.mlp.b1", (mlp,), "zeros"),
        (f"{prefix}.mlp.w2", (mlp, d), "xavier"),
        (f"{prefix}.mlp.b2", (d,), "zeros"),
    ]


def parameter_shapes(cfg: ModelConfig) -> list[tuple[str, tuple, str]]:
    """(name, shape, init kind) for every learnable parameter, in the
    fixed creation order used by both initialization and counting."""
    d, l, m = cfg.embed_dim, cfg.n_frames, cfg.n_bins
    shapes = []
    for stream in ("mag", "phase"):
        shapes.append((f"enc_{stream}.proj.w", (m, d), "xavier"))
        shapes.append((f"enc_{stream}.proj.b", (d,), "zeros"))
        shapes.append((f"enc_{stream}.pos", (l, d), "zeros"))
        for i in range(cfg.enc_layers):
            shapes += _block_shapes(f"enc_{stream}.layer{i}", d,
                                    cfg.enc_heads, cfg.enc_head_dim, cfg.mlp_dim)
    shapes.append(("fuse.w", (2 * d, d), "xavier"))
    shapes.append(("fuse.b", (d,), "zeros"))
    shapes.append(("formant.w", (d, 3), "xavier"))
    shapes.append(("formant.b", (3,), "zeros"))
    shapes.append(("voicing.w", (d, 1), "xavier"))
    shapes.append(("voicing.b", (1,), "zeros"))
    for i in range(cfg.pred_layers):
        shapes += _block_shapes(f"pred.layer{i}", d,
                                cfg.pred_heads, cfg.pred_head_dim, cfg.mlp_dim)
    shapes.append(("pool.w", (d, cfg.pool_heads), "xavier"))
    shapes.append(("score.ln.g", (d,), "ones"))
    shapes.append(("score.ln.b", (d,), "zeros"))
    shapes.append(("score.w", (d, 1), "xavier"))
    shapes.append(("score.b", (1,), "zeros"))
    return shapes


def count_params(cfg: ModelConfig) -> int:
    """Exact number of learnable scalars for a config."""
    return sum(int(np.prod(shape)) for _, shape, _ in parameter_shapes(cfg))


def _checked_state(cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every parameter of the config from arrays, in the config's dtype;
    extra names are ignored, and a missing name or a shape other than the
    config's is a DataError (the arrays disagree with the config they
    came with).

    An array already in the config's dtype is returned itself, without a
    copy: the model it goes into owns it from there on."""
    dtype = cfg.np_dtype()
    state = {}
    for name, shape, _ in parameter_shapes(cfg):
        if name not in arrays:
            raise DataError(f"checkpoint is missing parameter {name!r}")
        value = np.asarray(arrays[name])
        if value.shape != shape:
            raise DataError(
                f"checkpoint parameter {name!r} has shape {value.shape}, "
                f"expected {shape}"
            )
        state[name] = value.astype(dtype, copy=False)
    return state


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Xavier-uniform projections, zero biases and positional tables,
    unit/zero layer-norm scale/shift. Draw order is fixed by
    parameter_shapes, so a seed pins every value."""
    rng = np.random.default_rng(seed)
    dtype = cfg.np_dtype()
    params: dict[str, Tensor] = {}
    for name, shape, kind in parameter_shapes(cfg):
        if kind == "xavier":
            fan_in, fan_out = shape[0], shape[1]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-limit, limit, size=shape)
        elif kind == "ones":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        params[name] = ad.parameter(data.astype(dtype))
    return params


def attention_pool(z: Tensor, w_pool: Tensor) -> tuple[Tensor, Tensor]:
    """Multi-head frame scoring collapsed to one weight per frame.

    Frames are scored by logsumexp over the heads' projections, the
    scores softmax to a distribution over the L frames, and the sequence
    is collapsed to its weighted average. z is (..., L, D); returns
    (weights (..., L, 1), pooled (..., 1, D)).
    """
    scores = ad.matmul(z, w_pool)                       # (..., L, H)
    s = ad.logsumexp(scores)                            # (..., L, 1)
    weights = ad.softmax(s, axis=-2)                    # (..., L, 1)
    pooled = ad.matmul(ad.transpose(weights), z)       # (..., 1, D)
    return weights, pooled


class SpoofNet:
    """Detector with formant, voicing and synthesis-score heads."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.params = init_params(cfg, seed)

    @classmethod
    def from_state(cls, cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> SpoofNet:
        """A model loaded from checkpoint arrays, without a random init;
        the arrays are checked as load_state checks them."""
        model = cls.__new__(cls)
        model.cfg = cfg
        model.params = {name: ad.parameter(value)
                        for name, value in _checked_state(cfg, arrays).items()}
        return model

    # -- persistence ----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: p.data.copy() for k, p in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Take in every parameter of the config, checked by _checked_state;
        on a DataError no parameter has changed."""
        for name, value in _checked_state(self.cfg, arrays).items():
            self.params[name].data = value

    # -- network pieces ---------------------------------------------------

    def _as_input(self, tokens) -> Tensor:
        """One (L, M) token grid, or a stack of them (..., L, M)."""
        arr = np.asarray(tokens, dtype=self.cfg.np_dtype())
        expected = (self.cfg.n_frames, self.cfg.n_bins)
        if arr.shape[-2:] != expected:
            raise ShapeError(f"token grid has shape {arr.shape}, expected "
                             f"{expected} or a stack of them")
        return Tensor(arr)

    def _block(self, x: Tensor, prefix: str, heads: int) -> Tensor:
        p = self.params
        h = ad.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
        q = ad.add(ad.matmul(h, p[f"{prefix}.wq"]), p[f"{prefix}.bq"])
        k = ad.matmul(h, p[f"{prefix}.wk"])
        v = ad.add(ad.matmul(h, p[f"{prefix}.wv"]), p[f"{prefix}.bv"])
        mixed = ad.attention(q, k, v, heads)
        x = ad.add(x, ad.add(ad.matmul(mixed, p[f"{prefix}.wo"]), p[f"{prefix}.bo"]))
        h2 = ad.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
        inner = ad.gelu(ad.add(ad.matmul(h2, p[f"{prefix}.mlp.w1"]), p[f"{prefix}.mlp.b1"]))
        mlp = ad.add(ad.matmul(inner, p[f"{prefix}.mlp.w2"]), p[f"{prefix}.mlp.b2"])
        return ad.add(x, mlp)

    def _stream(self, tokens: Tensor, stream: str) -> Tensor:
        p = self.params
        x = ad.add(ad.matmul(tokens, p[f"enc_{stream}.proj.w"]), p[f"enc_{stream}.proj.b"])
        x = ad.add(x, p[f"enc_{stream}.pos"])
        for i in range(self.cfg.enc_layers):
            x = self._block(x, f"enc_{stream}.layer{i}", self.cfg.enc_heads)
        return x

    def encode(self, mag_tokens, phase_tokens) -> Tensor:
        """Fused (..., L, D) sequence feeding all three heads."""
        mag, phase = self._as_input(mag_tokens), self._as_input(phase_tokens)
        if mag.shape != phase.shape:
            raise ShapeError(f"magnitude tokens have shape {mag.shape} but "
                             f"phase tokens {phase.shape}")
        z_mag = self._stream(mag, "mag")
        z_phase = self._stream(phase, "phase")
        both = ad.concat([z_mag, z_phase])  # (..., L, 2D)
        return ad.add(ad.matmul(both, self.params["fuse.w"]), self.params["fuse.b"])

    def decode_formants(self, z_enc: Tensor) -> Tensor:
        """Per-frame formant trajectories in Hz, each squashed into its
        open range (lo, hi) of FORMANT_RANGES via lo + sigmoid(z) * (hi - lo).

        Where rounding has already carried the squash onto a bound (a
        saturated sigmoid, or a product that rounds up to hi), the value
        is clamped to the nearest representable number inside the range;
        everywhere else the clamp leaves it unchanged."""
        raw = ad.add(ad.matmul(z_enc, self.params["formant.w"]), self.params["formant.b"])
        dtype = raw.data.dtype
        lo, hi = FORMANT_LO.astype(dtype), FORMANT_HI.astype(dtype)
        span = (FORMANT_HI - FORMANT_LO).astype(dtype)
        hz = ad.add(ad.mul(ad.sigmoid(raw), span), lo)
        return ad.clip(hz, np.nextafter(lo, hi), np.nextafter(hi, lo))

    def decode_voicing(self, z_enc: Tensor) -> Tensor:
        """Per-frame voicing probability (..., L, 1)."""
        raw = ad.add(ad.matmul(z_enc, self.params["voicing.w"]), self.params["voicing.b"])
        return ad.sigmoid(raw)

    def pool_and_score(self, z_enc: Tensor) -> tuple[Tensor, Tensor]:
        """(synthesis score (..., 1, 1), frame weights (..., L, 1))."""
        z = z_enc
        for i in range(self.cfg.pred_layers):
            z = self._block(z, f"pred.layer{i}", self.cfg.pred_heads)
        weights, pooled = attention_pool(z, self.params["pool.w"])
        normed = ad.layer_norm(pooled, self.params["score.ln.g"], self.params["score.ln.b"])
        logit = ad.add(ad.matmul(normed, self.params["score.w"]), self.params["score.b"])
        return ad.sigmoid(logit), weights

    def forward(self, mag_tokens, phase_tokens) -> ForwardPass:
        """Full differentiable pass; all heads read the same encoding.

        Tokens are one utterance's (L, M) grids or a batch (B, L, M) of
        them; one graph serves the whole batch, and every output keeps
        the batch axis (see ForwardPass). Utterances never mix: row i of
        each output depends on row i of the tokens alone."""
        z_enc = self.encode(mag_tokens, phase_tokens)
        formants = self.decode_formants(z_enc)
        voicing_prob = self.decode_voicing(z_enc)
        score, weights = self.pool_and_score(z_enc)
        return ForwardPass(formants_hz=formants, voicing_prob=voicing_prob,
                           score=score, frame_weights=weights)

    def predict(self, mag_tokens, phase_tokens) -> ModelOutput:
        """Inference-mode forward of one utterance's (L, M) tokens or a
        (B, L, M) stack of them, returning numpy values (see ModelOutput)."""
        with ad.no_grad():
            out = self.forward(mag_tokens, phase_tokens)
        prob = out.voicing_prob.data[..., 0]
        return ModelOutput(
            formants_hz=out.formants_hz.data,
            voicing_prob=prob,
            v_mask=prob >= VOICING_THRESHOLD,  # the boundary counts as voiced
            score=out.score.data[..., 0, 0],
            frame_weights=out.frame_weights.data[..., 0],
        )
