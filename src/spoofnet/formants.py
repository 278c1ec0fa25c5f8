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

import numpy as np

from .dsp import (F1_RANGE_HZ, F2_RANGE_HZ, FRAME_LEN, HOP_LEN, SAMPLE_RATE, FixedWaveform,
                  frame_signal)

F1_FALLBACK_HZ = sum(F1_RANGE_HZ) / 2.0  # range midpoints
F2_FALLBACK_HZ = sum(F2_RANGE_HZ) / 2.0

LPC_ORDER = 10
PREEMPHASIS = 0.97
# a qualifying resonance lies strictly inside this band, narrower than MAX_BANDWIDTH_HZ
MIN_FREQ_HZ = 50.0
MAX_FREQ_HZ = 5500.0
MAX_BANDWIDTH_HZ = 400.0
# the Gaussian taper's standard deviation, as a fraction of the frame length
WINDOW_STD_FRACTION = 1.0 / 6.0

# Part of every cache key. The text is a label, not a full description:
# the algorithm itself is not in it, so edit it by hand with any change
# that alters the tracks.
FORMANT_KEY = (f"burg:{LPC_ORDER}:{PREEMPHASIS}:{FRAME_LEN}:{HOP_LEN}:{MIN_FREQ_HZ}:"
               f"{MAX_FREQ_HZ}:{MAX_BANDWIDTH_HZ}:{WINDOW_STD_FRACTION}")


def burg(rows: np.ndarray, order: int) -> np.ndarray:
    """Burg-method LPC coefficients [1, a1, ..., a_order] of each row of a
    float64 (rows, n) stack, as (rows, order + 1).

    Minimizes the summed forward and backward prediction error through a
    lattice recursion, one lattice per row; reflection coefficients stay
    in [-1, 1] so each polynomial is minimum-phase (all roots inside the
    unit circle). A row whose error energy reaches zero keeps the
    coefficients it had at that point.
    """
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
    return a


def lpc_resonances(stack: np.ndarray) -> np.ndarray:
    """(frequency_hz, bandwidth_hz) of each upper-half-plane pole of each
    row of a (rows, order + 1) stack of polynomials, in ascending order.

    The result is (rows, n, 2), where n is the largest pole count of any
    row and shorter rows are padded with NaN. Roots are the eigenvalues
    of the companion matrix, as np.roots computes them, trailing zero
    coefficients stripped.
    """
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
    freq = np.where(upper, np.angle(roots) * SAMPLE_RATE / (2.0 * np.pi), np.nan)
    # hypot, not np.abs: abs of a complex array takes a vectorized path that
    # differs in the last bit from abs of a single root
    magnitude = np.hypot(roots.real, roots.imag)
    with np.errstate(divide="ignore"):
        bandwidth = np.where(upper, -np.log(magnitude) * SAMPLE_RATE / np.pi, np.nan)
    # sort by (frequency, bandwidth), NaN padding last
    idx = np.lexsort((bandwidth, freq), axis=-1)[:, : upper.sum(axis=1).max(initial=0)]
    return np.stack([np.take_along_axis(freq, idx, -1),
                     np.take_along_axis(bandwidth, idx, -1)], axis=-1)


def gaussian_window(n: int, std_fraction: float) -> np.ndarray:
    half = (n - 1) / 2.0
    idx = np.arange(n) - half
    return np.exp(-0.5 * (idx / (std_fraction * n)) ** 2)


_TAPER = gaussian_window(FRAME_LEN, WINDOW_STD_FRACTION)
_TAPER.flags.writeable = False


def preemphasize(x: np.ndarray, coeff: float) -> np.ndarray:
    y = x.astype(np.float64).copy()
    y[1:] -= coeff * x[:-1]
    return y


def track_formants(x: FixedWaveform) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (f1, f2) arrays aligned with the STFT framing."""
    frames = frame_signal(preemphasize(x.samples, PREEMPHASIS))
    resonances = lpc_resonances(burg(frames * _TAPER, LPC_ORDER))
    freq, bandwidth = resonances[..., 0], resonances[..., 1]
    qualifies = (MIN_FREQ_HZ < freq) & (freq < MAX_FREQ_HZ) & (bandwidth < MAX_BANDWIDTH_HZ)
    # the two lowest qualifying frequencies per frame; NaN marks a shortfall
    lowest = np.sort(np.where(qualifies, freq, np.nan), axis=1)
    lowest = np.pad(lowest, ((0, 0), (0, 2)), constant_values=np.nan)[:, :2]
    found = lowest[:, 0] < lowest[:, 1]
    # dropout frames hold the latest estimate; before the first one, the fallbacks
    latest = np.maximum.accumulate(np.where(found, np.arange(found.size), -1))
    f1 = np.where(latest >= 0, lowest[latest, 0], F1_FALLBACK_HZ)
    f2 = np.where(latest >= 0, lowest[latest, 1], F2_FALLBACK_HZ)
    return f1, f2
