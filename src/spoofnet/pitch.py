"""Probabilistic pitch tracking for frame-level f0 ground truth.

Per frame, a YIN cumulative-mean-normalized difference function yields
candidate period troughs; each candidate is weighted by the share of a
uniform threshold prior it would be selected under. A Viterbi pass over
a log-spaced pitch grid plus one unvoiced state smooths the track.
Frames with no winning pitch state are reported as NaN (unvoiced).

Both stages are array code that performs the same floating-point
operations, in the same order, as a plain per-trough, per-threshold and
per-state loop, so the tracks (and the cache records built from them)
are bit-for-bit those of the loop:

- A threshold's winner is the first trough whose running-minimum depth
  falls below it, found with searchsorted. A candidate's probability is
  its win count looked up in a running sum of 1/n_thresholds, because
  repeated addition and count * weight round differently.
- In the Viterbi step a bin holds a finite score only if it had a
  candidate in the previous frame; every other score is -inf and loses
  every comparison. Taking the voiced-to-voiced max over the few finite
  rows therefore gives the full O(B^2) max exactly, including its
  first-index tie-breaking. The L1 distance transform (O(B) per frame)
  is not used: paths that tie in exact arithmetic are separated only by
  rounding, and the transform rounds differently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dsp import F0_RANGE_HZ, FRAME_LEN, HOP_LEN, SAMPLE_RATE, FixedWaveform, frame_signal


@dataclass(frozen=True)
class PitchConfig:
    fmin_hz: float = F0_RANGE_HZ[0]
    fmax_hz: float = F0_RANGE_HZ[1]
    frame_len: ClassVar[int] = FRAME_LEN
    hop: ClassVar[int] = HOP_LEN
    # uniform prior over YIN thresholds in (0, threshold_max]
    threshold_max: float = 0.35
    n_thresholds: int = 100
    # Viterbi grid: 10-cent bins spanning [fmin, fmax]
    cents_per_bin: float = 10.0
    # cost in nats per grid bin of pitch movement between frames
    jump_cost_per_bin: float = 0.1
    # probability of flipping voiced<->unvoiced between frames
    switch_prob: float = 0.01
    energy_floor: float = 1e-12

    def key(self) -> str:
        return (
            f"pyin:{self.fmin_hz}:{self.fmax_hz}:{self.frame_len}:{self.hop}:"
            f"{self.threshold_max}:{self.n_thresholds}:{self.cents_per_bin}:"
            f"{self.jump_cost_per_bin}:{self.switch_prob}"
        )


def difference_function(frame: np.ndarray, tau_max: int) -> np.ndarray:
    """YIN squared-difference function d(tau) for tau in [0, tau_max].

    Computed exactly via the autocorrelation identity
    d(tau) = e[N-tau] + (e[N] - e[tau]) - 2 r(tau), with r obtained by
    FFT, so the cost is O(N log N) rather than O(N * tau_max).
    """
    n = frame.size
    fft_size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(frame, n=fft_size)
    acf = np.fft.irfft(spec * np.conj(spec))[: tau_max + 1]
    energy = np.concatenate([[0.0], np.cumsum(frame * frame)])
    taus = np.arange(tau_max + 1)
    d = energy[n - taus] + (energy[n] - energy[taus]) - 2.0 * acf
    return np.maximum(d, 0.0)


def cmndf(d: np.ndarray) -> np.ndarray:
    """Cumulative-mean-normalized difference; 1 at lag 0 by definition."""
    out = np.ones_like(d)
    cumulative = np.cumsum(d[1:])
    positive = cumulative > 0
    out[1:][positive] = d[1:][positive] * np.arange(1, d.size)[positive] / cumulative[positive]
    return out


@functools.lru_cache(maxsize=16)
def _threshold_prior(cfg: PitchConfig) -> tuple[np.ndarray, np.ndarray]:
    """The threshold grid and the probability mass of 0..n_thresholds wins,
    built once per config and shared read-only by every frame."""
    thresholds = cfg.threshold_max * (np.arange(1, cfg.n_thresholds + 1) / cfg.n_thresholds)
    # probability after `wins` sequential additions of 1/n_thresholds;
    # add.accumulate sums in order, so this is exact where wins * weight is not
    weight = 1.0 / cfg.n_thresholds
    mass = np.concatenate([[0.0], np.cumsum(np.full(cfg.n_thresholds, weight))])
    thresholds.flags.writeable = False
    mass.flags.writeable = False
    return thresholds, mass


def frame_candidates(
    frame: np.ndarray, sample_rate: int, cfg: PitchConfig
) -> list[tuple[float, float]]:
    """Pitch candidates (frequency_hz, probability) for one frame.

    Troughs of the normalized difference inside the lag range are scored
    by the fraction of thresholds under which plain YIN (pick the first
    trough below threshold) would select them.
    """
    if float(np.dot(frame, frame)) < cfg.energy_floor:
        return []
    tau_min = max(2, int(np.floor(sample_rate / cfg.fmax_hz)))
    tau_max = min(frame.size - 2, int(np.ceil(sample_rate / cfg.fmin_hz)))
    d = difference_function(frame, tau_max + 1)
    nd = cmndf(d)
    lags = np.arange(tau_min, tau_max + 1)
    inner = nd[tau_min : tau_max + 1]
    is_trough = (inner <= nd[lags - 1]) & (inner < nd[lags + 1])
    trough_lags = lags[is_trough]
    if trough_lags.size == 0:
        return []

    # parabolic refinement of every trough; lags lie in [2, nd.size - 2],
    # so both neighbours exist
    left, mid, right = nd[trough_lags - 1], nd[trough_lags], nd[trough_lags + 1]
    denom = left - 2.0 * mid + right
    curved = denom > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 0.5 * (left - right) / denom
    lag = np.where(curved, trough_lags + shift, trough_lags)
    depth = np.where(curved, mid - 0.25 * (left - right) * shift, mid)

    # plain YIN under threshold s picks the first trough below s, which is
    # where the running minimum of the depths first drops below s
    thresholds, mass = _threshold_prior(cfg)
    running_min = np.minimum.accumulate(depth)
    winner = np.searchsorted(-running_min, -thresholds, side="right")
    wins = np.bincount(winner, minlength=depth.size + 1)[: depth.size]
    probs = mass[wins]

    keep = probs > 0.0
    freqs = np.clip(sample_rate / lag[keep], cfg.fmin_hz, cfg.fmax_hz)
    return list(zip(freqs.tolist(), probs[keep].tolist()))


def _pitch_grid(cfg: PitchConfig) -> np.ndarray:
    """Geometric pitch grid from fmin upward in cents_per_bin steps."""
    n_bins = int(np.floor(1200.0 * np.log2(cfg.fmax_hz / cfg.fmin_hz) / cfg.cents_per_bin)) + 1
    return cfg.fmin_hz * 2.0 ** (cfg.cents_per_bin * np.arange(n_bins) / 1200.0)


def viterbi_track(
    candidates_per_frame: list[list[tuple[float, float]]], cfg: PitchConfig
) -> np.ndarray:
    """Decode a smooth f0 track; NaN marks unvoiced frames.

    States are the pitch grid bins plus one unvoiced state. Moving k bins
    between voiced frames costs jump_cost_per_bin * k nats; switching
    voicing state costs -log(switch_prob).
    """
    grid = _pitch_grid(cfg)
    n_bins = grid.size
    unvoiced = n_bins
    n_frames = len(candidates_per_frame)
    counts = [len(cands) for cands in candidates_per_frame]
    flat = [fp for cands in candidates_per_frame for fp in cands]
    freqs = np.array([f for f, _ in flat], dtype=np.float64)
    probs = np.array([p for _, p in flat], dtype=np.float64)
    frame_of = np.repeat(np.arange(n_frames), counts)
    bins = np.clip(np.round(1200.0 * np.log2(freqs / cfg.fmin_hz) / cfg.cents_per_bin),
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

    # per-frame total probability, summed in candidate order: cumsum along
    # a zero-padded row adds sequentially, as a running total does
    slot = np.arange(cell.size) - np.repeat(np.cumsum(counts) - counts, counts)
    padded = np.zeros((n_frames, max(counts, default=0) + 1))
    padded[frame_of, slot] = probs
    total = np.cumsum(padded, axis=1)[:, -1]
    obs_unvoiced = np.log(np.maximum(1.0 - total, 1e-9))

    switch = -np.log(cfg.switch_prob)
    stay = -np.log(1.0 - cfg.switch_prob)
    jump = cfg.jump_cost_per_bin * np.abs(np.arange(n_bins)[:, None] - np.arange(n_bins)[None, :])

    dp = np.full((n_frames, n_bins + 1), -np.inf)
    bp = np.zeros((n_frames, n_bins + 1), dtype=np.int32)
    dp[0, :n_bins] = obs_voiced[0] + np.log(0.5)
    dp[0, unvoiced] = obs_unvoiced[0] + np.log(0.5)

    for t in range(1, n_frames):
        prev_v = dp[t - 1, :n_bins]
        prev_u = dp[t - 1, unvoiced]

        # only bins that held a candidate are finite; the rest are -inf and
        # can never win, so the max over the finite rows is the full max
        finite = np.flatnonzero(np.isfinite(prev_v))
        if finite.size:
            vv = prev_v[finite, None] - jump[finite] - stay
            best_vv = vv.max(axis=0)
            argbest_vv = finite[vv.argmax(axis=0)]
        else:
            best_vv = np.full(n_bins, -np.inf)
            argbest_vv = np.zeros(n_bins, dtype=np.intp)
        from_u = prev_u - switch
        take_u = from_u > best_vv
        dp[t, :n_bins] = obs_voiced[t] + np.where(take_u, from_u, best_vv)
        bp[t, :n_bins] = np.where(take_u, unvoiced, argbest_vv)

        from_v = prev_v.max() - switch
        from_uu = prev_u - stay
        if from_v > from_uu:
            dp[t, unvoiced] = obs_unvoiced[t] + from_v
            bp[t, unvoiced] = int(prev_v.argmax())
        else:
            dp[t, unvoiced] = obs_unvoiced[t] + from_uu
            bp[t, unvoiced] = unvoiced

    path = np.empty(n_frames, dtype=np.int32)
    path[-1] = int(dp[-1].argmax())
    for t in range(n_frames - 2, -1, -1):
        path[t] = bp[t + 1, path[t + 1]]

    voiced = path != unvoiced
    state = np.where(voiced, path, 0)
    f = cand_freq[np.arange(n_frames), state]
    f0 = np.where(voiced, np.where(np.isfinite(f), f, grid[state]), np.nan)
    return np.clip(f0, cfg.fmin_hz, cfg.fmax_hz)


def track_pitch(x: FixedWaveform, cfg: PitchConfig = PitchConfig()) -> np.ndarray:
    """Per-frame f0 in Hz aligned with the STFT framing; NaN = unvoiced."""
    candidates = [frame_candidates(f, SAMPLE_RATE, cfg) for f in frame_signal(x.samples)]
    return viterbi_track(candidates, cfg)
