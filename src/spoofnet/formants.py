"""Frame-level F1/F2 estimation via Burg-method linear prediction.

The signal is pre-emphasized, framed in step with the STFT, windowed
with a Gaussian taper, and fitted with an order-10 all-pole model whose
complex roots give candidate (frequency, bandwidth) resonances. The two
lowest candidates inside a plausible speech band with reasonable
bandwidth are reported as (f1, f2); dropout frames inherit the previous
frame's values, range midpoints seed frame zero.

All frames of an utterance go through the lattice and the root finder
together, and each value is computed exactly as a one-frame call would
compute it:

- The lattice's per-row dot products use np.vecdot, which reduces each
  row the way np.dot reduces a vector; einsum and (f * b).sum(axis)
  group the additions differently and change the last bits.
- Roots are the eigenvalues of the stacked companion matrices that
  np.roots would build one at a time, with trailing zero coefficients
  stripped first, as np.roots strips them. Pole magnitudes use
  np.hypot, which matches abs() of one root where np.abs of a complex
  array does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dsp import (F1_RANGE_HZ, F2_RANGE_HZ, FRAME_LEN, HOP_LEN, SAMPLE_RATE, FixedWaveform,
                  frame_signal)

F1_FALLBACK_HZ = sum(F1_RANGE_HZ) / 2.0  # range midpoints
F2_FALLBACK_HZ = sum(F2_RANGE_HZ) / 2.0


@dataclass(frozen=True)
class FormantConfig:
    order: int = 10
    preemphasis: float = 0.97
    frame_len: ClassVar[int] = FRAME_LEN
    hop: ClassVar[int] = HOP_LEN
    min_freq_hz: float = 50.0
    max_freq_hz: float = 5500.0
    max_bandwidth_hz: float = 400.0
    window_std_fraction: float = 1.0 / 6.0

    def key(self) -> str:
        return (
            f"burg:{self.order}:{self.preemphasis}:{self.frame_len}:{self.hop}:"
            f"{self.min_freq_hz}:{self.max_freq_hz}:{self.max_bandwidth_hz}:"
            f"{self.window_std_fraction}"
        )


def burg(x: np.ndarray, order: int) -> np.ndarray:
    """Burg-method LPC coefficients [1, a1, ..., a_order].

    Minimizes the summed forward and backward prediction error through a
    lattice recursion; reflection coefficients stay in [-1, 1] so the
    resulting polynomial is minimum-phase (all roots inside the unit
    circle). A (rows, n) stack runs one lattice per row and returns
    (rows, order + 1); a row whose error energy reaches zero keeps the
    coefficients it had at that point.
    """
    rows = np.atleast_2d(x).astype(np.float64)
    a = np.zeros((rows.shape[0], order + 1))
    a[:, 0] = 1.0
    f = rows[:, 1:]
    b = rows[:, :-1]
    running = np.ones(rows.shape[0], dtype=bool)
    for m in range(min(order, f.shape[1])):
        den = np.vecdot(f, f) + np.vecdot(b, b)
        running &= ~(den <= 0.0)
        # k = 0 leaves a stopped row's coefficients and errors as they are
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.where(running, -2.0 * np.vecdot(f, b) / den, 0.0)[:, None]
        a[:, 1 : m + 2] += k * a[:, m::-1]
        f, b = f[:, 1:] + k * b[:, 1:], b[:, :-1] + k * f[:, :-1]
    return a if np.ndim(x) == 2 else a[0]


def lpc_resonances(a: np.ndarray, sample_rate: int) -> np.ndarray:
    """(frequency_hz, bandwidth_hz) of each upper-half-plane pole, in
    ascending order.

    For a (rows, order + 1) stack of polynomials the result is
    (rows, n, 2), where n is the largest pole count of any row and
    shorter rows are padded with NaN; a 1-D polynomial gives its one row.
    Roots are the eigenvalues of the companion matrix, as np.roots
    computes them, trailing zero coefficients stripped.
    """
    stack = np.atleast_2d(a)
    order = stack.shape[1] - 1
    # np.roots drops trailing zero coefficients, so rows whose lattice
    # stopped early have a companion matrix of lower degree
    nonzero = stack != 0.0
    degree = order - np.argmax(nonzero[:, ::-1], axis=1)
    roots = np.zeros(stack.shape[:1] + (order,), dtype=np.complex128)
    for d in np.unique(degree[degree > 0]):
        sel = np.flatnonzero(degree == d)
        companion = np.zeros((sel.size, d, d))
        companion[:, 0, :] = -stack[sel, 1 : d + 1] / stack[sel, :1]
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        roots[sel, :d] = np.linalg.eigvals(companion)
    upper = roots.imag > 0.0
    freq = np.where(upper, np.angle(roots) * sample_rate / (2.0 * np.pi), np.nan)
    # hypot, not np.abs: abs of a complex array takes a vectorized path that
    # differs in the last bit from abs of a single root
    magnitude = np.hypot(roots.real, roots.imag)
    with np.errstate(divide="ignore"):
        bandwidth = np.where(upper, -np.log(magnitude) * sample_rate / np.pi, np.nan)
    # sort by (frequency, bandwidth), NaN padding last
    idx = np.lexsort((bandwidth, freq), axis=-1)[:, : upper.sum(axis=1).max(initial=0)]
    out = np.stack([np.take_along_axis(freq, idx, -1),
                    np.take_along_axis(bandwidth, idx, -1)], axis=-1)
    return out if np.ndim(a) == 2 else out[0]


def gaussian_window(n: int, std_fraction: float) -> np.ndarray:
    half = (n - 1) / 2.0
    idx = np.arange(n) - half
    return np.exp(-0.5 * (idx / (std_fraction * n)) ** 2)


def preemphasize(x: np.ndarray, coeff: float) -> np.ndarray:
    y = x.astype(np.float64).copy()
    y[1:] -= coeff * x[:-1]
    return y


def track_formants(
    x: FixedWaveform, cfg: FormantConfig = FormantConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (f1, f2) arrays aligned with the STFT framing."""
    frames = frame_signal(preemphasize(x.samples, cfg.preemphasis))
    window = gaussian_window(FRAME_LEN, cfg.window_std_fraction)
    resonances = lpc_resonances(burg(frames * window, cfg.order), SAMPLE_RATE)
    freq, bandwidth = resonances[..., 0], resonances[..., 1]
    qualifies = ((cfg.min_freq_hz < freq) & (freq < cfg.max_freq_hz)
                 & (bandwidth < cfg.max_bandwidth_hz))
    # the two lowest qualifying frequencies per frame; NaN marks a shortfall
    lowest = np.sort(np.where(qualifies, freq, np.nan), axis=1)
    lowest = np.pad(lowest, ((0, 0), (0, 2)), constant_values=np.nan)[:, :2]
    found = lowest[:, 0] < lowest[:, 1]
    # dropout frames hold the latest estimate; before the first one, the fallbacks
    latest = np.maximum.accumulate(np.where(found, np.arange(found.size), -1))
    f1 = np.where(latest >= 0, lowest[latest, 0], F1_FALLBACK_HZ)
    f2 = np.where(latest >= 0, lowest[latest, 1], F2_FALLBACK_HZ)
    return f1, f2
