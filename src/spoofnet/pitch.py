"""Probabilistic pitch tracking for frame-level f0 ground truth.

Per frame, a YIN cumulative-mean-normalized difference function yields
candidate period troughs; each candidate is weighted by the share of a
uniform threshold prior it would be selected under. A Viterbi pass over
a log-spaced pitch grid plus one unvoiced state smooths the track.
Frames with no winning pitch state are reported as NaN (unvoiced).

The stages perform the same floating-point operations, in the same
order, as a plain per-frame, per-trough, per-threshold and per-state
loop over the full grid, so the tracks (and the cache records built
from them) are bit-for-bit those of the loop:

- The dense front end runs once over an utterance's whole
  (n_frames, FRAME_LEN) frame matrix (``frame_troughs``): the FFT
  difference function, the CMNDF, the energy check, trough detection and
  parabolic refinement. rfft, irfft and cumsum along the last axis give
  each row exactly the bytes of the single-frame call, and the rest is
  elementwise. The complex product |spec|^2 is the exception: numpy
  rounds the last bit of a 2-D product differently on some frames, so
  ``difference_function`` multiplies one row at a time.
- The threshold vote stays per frame (``frame_candidates``, once per
  frame on that frame's troughs): it is a handful of small calls on a
  few troughs, and a batched vote measured only about 10% faster. A
  threshold's winner is the first trough whose running-minimum depth
  falls below it, found with searchsorted. A candidate's probability is
  its win count looked up in a running sum of 1/N_THRESHOLDS, because
  repeated addition and count * weight round differently.
- In the Viterbi step a bin holds a finite score only if it has a
  candidate of non-zero probability in its frame; every other score is
  -inf and loses every comparison. So the decoder keeps scores only for
  each frame's few candidate bins and the unvoiced state, and each max
  over them, taken in ascending bin order, is the full O(B^2) max
  exactly, including its first-index tie-breaking. The L1 distance
  transform (O(B) per frame) is not used: paths that tie in exact
  arithmetic are separated only by rounding, and the transform rounds
  differently.
"""

from __future__ import annotations

import operator

import numpy as np

from .dsp import F0_RANGE_HZ, FRAME_LEN, HOP_LEN, SAMPLE_RATE, FixedWaveform, frame_signal

FMIN_HZ, FMAX_HZ = F0_RANGE_HZ
# uniform prior over YIN thresholds in (0, THRESHOLD_MAX]
THRESHOLD_MAX = 0.35
N_THRESHOLDS = 100
# Viterbi grid: 10-cent bins spanning [FMIN_HZ, FMAX_HZ]
CENTS_PER_BIN = 10.0
N_BINS = int(np.floor(1200.0 * np.log2(FMAX_HZ / FMIN_HZ) / CENTS_PER_BIN)) + 1
# cost in nats per grid bin of pitch movement between frames
JUMP_COST_PER_BIN = 0.1
# probability of flipping voiced<->unvoiced between frames
SWITCH_PROB = 0.01
ENERGY_FLOOR = 1e-12
# the YIN lag range: one period at FMAX_HZ .. at FMIN_HZ, kept two lags
# inside the frame so every trough has both neighbours
TAU_MIN = max(2, int(np.floor(SAMPLE_RATE / FMAX_HZ)))
TAU_MAX = min(FRAME_LEN - 2, int(np.ceil(SAMPLE_RATE / FMIN_HZ)))

# Part of every cache key. The text is a label, not a full description:
# ENERGY_FLOOR and the algorithm itself are not in it, so edit it by hand
# with any change that alters the tracks.
PITCH_KEY = (f"pyin:{FMIN_HZ}:{FMAX_HZ}:{FRAME_LEN}:{HOP_LEN}:{THRESHOLD_MAX}:"
             f"{N_THRESHOLDS}:{CENTS_PER_BIN}:{JUMP_COST_PER_BIN}:{SWITCH_PROB}")

# The threshold grid and the probability mass of 0..N_THRESHOLDS wins,
# shared read-only by every frame. The mass after `wins` sequential
# additions of 1/N_THRESHOLDS: add.accumulate sums in order, so this is
# exact where wins * weight is not.
_THRESHOLDS = THRESHOLD_MAX * (np.arange(1, N_THRESHOLDS + 1) / N_THRESHOLDS)
_WIN_MASS = np.concatenate([[0.0], np.cumsum(np.full(N_THRESHOLDS, 1.0 / N_THRESHOLDS))])
_THRESHOLDS.flags.writeable = False
_WIN_MASS.flags.writeable = False


def difference_function(frames: np.ndarray, tau_max: int) -> np.ndarray:
    """YIN squared-difference function d(tau) for tau in [0, tau_max],
    along the last axis of one frame or a stack of frames.

    Computed exactly via the autocorrelation identity
    d(tau) = e[N-tau] + (e[N] - e[tau]) - 2 r(tau), with r obtained by
    FFT, so the cost is O(N log N) rather than O(N * tau_max).
    """
    n = frames.shape[-1]
    fft_size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(frames, n=fft_size)
    # |spec|^2 in place, one row at a time: a 1-D product per row rounds
    # as the single-frame product does, and the whole-matrix product does not
    for row in spec.reshape(-1, spec.shape[-1]):
        np.multiply(row, np.conj(row), out=row)
    acf = np.fft.irfft(spec)[..., : tau_max + 1]
    energy = np.zeros(frames.shape[:-1] + (n + 1,))
    np.cumsum(frames * frames, axis=-1, out=energy[..., 1:])
    # e[N - tau] and e[tau] for tau = 0..tau_max
    tail = energy[..., n - tau_max : n + 1][..., ::-1]
    d = tail + (energy[..., n, None] - energy[..., : tau_max + 1]) - 2.0 * acf
    return np.maximum(d, 0.0)


def cmndf(d: np.ndarray) -> np.ndarray:
    """Cumulative-mean-normalized difference along the last axis; 1 at
    lag 0 by definition, and wherever the cumulative sum is still 0."""
    out = np.ones_like(d)
    cumulative = np.cumsum(d[..., 1:], axis=-1)
    np.divide(d[..., 1:] * np.arange(1, d.shape[-1]), cumulative,
              out=out[..., 1:], where=cumulative > 0)
    return out


def frame_troughs(frames: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parabolically refined CMNDF troughs inside [TAU_MIN, TAU_MAX] of
    each FRAME_LEN-sample frame of a (n_frames, FRAME_LEN) stack: one
    (lags, depths) pair per frame, in lag order. A frame below the energy
    floor has none."""
    d = difference_function(frames, TAU_MAX + 1)
    nd = cmndf(d)
    nd[np.vecdot(frames, frames) < ENERGY_FLOOR] = 1.0  # flat: no trough
    inner = nd[:, TAU_MIN : TAU_MAX + 1]
    is_trough = (inner <= nd[:, TAU_MIN - 1 : TAU_MAX]) & (inner < nd[:, TAU_MIN + 1 : TAU_MAX + 2])
    rows, cols = np.nonzero(is_trough)
    trough_lags = cols + TAU_MIN

    # lags lie in [2, nd.shape[1] - 2], so both neighbours exist
    left, mid, right = nd[rows, trough_lags - 1], nd[rows, trough_lags], nd[rows, trough_lags + 1]
    denom = left - 2.0 * mid + right
    curved = denom > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 0.5 * (left - right) / denom
    lag = np.where(curved, trough_lags + shift, trough_lags)
    depth = np.where(curved, mid - 0.25 * (left - right) * shift, mid)

    ends = np.cumsum(np.bincount(rows, minlength=len(frames))).tolist()
    return [(lag[lo:hi], depth[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)]


def frame_candidates(lag: np.ndarray, depth: np.ndarray) -> list[tuple[float, float]]:
    """Pitch candidates (frequency_hz, probability) for one frame, from
    its refined troughs (``frame_troughs``).

    Each trough is scored by the fraction of thresholds under which plain
    YIN (pick the first trough below threshold) would select it.
    """
    # plain YIN under threshold s picks the first trough below s, which is
    # where the running minimum of the depths first drops below s
    running_min = np.minimum.accumulate(depth)
    winner = np.searchsorted(-running_min, -_THRESHOLDS, side="right")
    wins = np.bincount(winner, minlength=depth.size + 1)[: depth.size]
    probs = _WIN_MASS[wins]

    keep = probs > 0.0
    freqs = np.clip(SAMPLE_RATE / lag[keep], FMIN_HZ, FMAX_HZ)
    return list(zip(freqs.tolist(), probs[keep].tolist()))


def viterbi_track(candidates_per_frame: list[list[tuple[float, float]]]) -> np.ndarray:
    """Decode a smooth f0 track; NaN marks unvoiced frames.

    States are the pitch grid bins plus one unvoiced state. Moving k bins
    between voiced frames costs JUMP_COST_PER_BIN * k nats; switching
    voicing state costs -log(SWITCH_PROB).
    """
    n_bins = unvoiced = N_BINS
    n_frames = len(candidates_per_frame)
    counts = [len(cands) for cands in candidates_per_frame]
    flat = [fp for cands in candidates_per_frame for fp in cands]
    freqs = np.array([f for f, _ in flat], dtype=np.float64)
    probs = np.array([p for _, p in flat], dtype=np.float64)
    frame_of = np.repeat(np.arange(n_frames), counts)
    bins = np.clip(np.round(1200.0 * np.log2(freqs / FMIN_HZ) / CENTS_PER_BIN),
                   0, n_bins - 1).astype(np.intp)

    # a bin's probability is the sum of its candidates, accumulated in
    # candidate order through log space; its frequency is the strongest
    # candidate's. Each round merges the earliest pending candidate of
    # every (frame, bin) cell, so shared cells are merged in order.
    obs_voiced = np.full(n_frames * n_bins, -np.inf)
    cand_freq = np.full(n_frames * n_bins, np.nan)
    cell = frame_of * n_bins + bins
    pending = np.arange(cell.size)
    while pending.size:
        _, first = np.unique(cell[pending], return_index=True)
        merge = pending[first]
        c, p = cell[merge], probs[merge]
        seen = np.isfinite(obs_voiced[c])
        prev = np.exp(obs_voiced[c])  # 0.0 where unseen
        strongest = ~seen | (p > prev)
        cand_freq[c[strongest]] = freqs[merge][strongest]
        obs_voiced[c] = np.log(prev + p)
        pending = np.delete(pending, first)
    obs_voiced = obs_voiced.reshape(n_frames, n_bins)
    cand_freq = cand_freq.reshape(n_frames, n_bins)

    # per-frame total probability: bincount adds each candidate to its
    # frame's total in candidate order, as a running total does
    total = np.bincount(frame_of, weights=probs, minlength=n_frames)
    obs_unvoiced = np.log(np.maximum(1.0 - total, 1e-9))

    # the decoder runs over each frame's finite states only: the bins with
    # a candidate of non-zero probability, ascending, then the unvoiced state
    rows, cols = np.nonzero(np.isfinite(obs_voiced))
    ends = np.cumsum(np.bincount(rows, minlength=n_frames)).tolist()
    states = [list(zip(cols[lo:hi].tolist(), obs_voiced[rows[lo:hi], cols[lo:hi]].tolist()))
              for lo, hi in zip([0] + ends[:-1], ends)]
    obs_unvoiced = obs_unvoiced.tolist()
    switch = float(-np.log(SWITCH_PROB))
    stay = float(-np.log(1.0 - SWITCH_PROB))
    prior = float(np.log(0.5))

    # Python floats add, subtract and compare as numpy's float64 elementwise
    # ops do. Scanning in ascending bin order and keeping only a strictly
    # better score (as max does) keeps the first index on ties, as argmax
    # does, with the voiced bins before the unvoiced state.
    score_of = operator.itemgetter(1)
    prev = [(b, o + prior) for b, o in states[0]]
    prev_u = obs_unvoiced[0] + prior
    back = []  # per frame from the second: (bin -> previous state, unvoiced's previous)
    for t in range(1, n_frames):
        from_u = prev_u - switch
        score, came_from = [], {}
        for j, o in states[t]:
            best, arg = -np.inf, unvoiced
            for i, s in prev:
                v = s - JUMP_COST_PER_BIN * abs(i - j) - stay
                if v > best:
                    best, arg = v, i
            if from_u > best:
                best, arg = from_u, unvoiced
            score.append((j, o + best))
            came_from[j] = arg
        arg_v, best_v = max(prev, key=score_of, default=(unvoiced, -np.inf))
        from_v = best_v - switch
        from_uu = prev_u - stay
        if from_v > from_uu:
            prev_u, u_from = obs_unvoiced[t] + from_v, arg_v
        else:
            prev_u, u_from = obs_unvoiced[t] + from_uu, unvoiced
        back.append((came_from, u_from))
        prev = score

    state, best = max(prev, key=score_of, default=(unvoiced, -np.inf))
    if prev_u > best:
        state = unvoiced
    f0 = np.full(n_frames, np.nan)
    for t in range(n_frames - 1, -1, -1):
        if state != unvoiced:
            f0[t] = cand_freq[t, state]
        if t:
            came_from, u_from = back[t - 1]
            state = u_from if state == unvoiced else came_from[state]
    return np.clip(f0, FMIN_HZ, FMAX_HZ)


def track_pitch(x: FixedWaveform) -> np.ndarray:
    """Per-frame f0 in Hz aligned with the STFT framing; NaN = unvoiced."""
    troughs = frame_troughs(frame_signal(x.samples))
    return viterbi_track([frame_candidates(lag, depth) for lag, depth in troughs])
