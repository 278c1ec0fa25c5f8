"""Waveform ingestion and the magnitude/phase feature frontend.

Every utterance is resampled to 16 kHz, trimmed, peak-normalized and
tiled/truncated to exactly 33,024 samples (2.064 s). Features are a
512/256 STFT with a Hann window, kept as paired log-magnitude and
sine-of-phase grids of 128 frames x 256 bins. Tokens for the encoders
are whole frames (one token per time step, all frequency bins).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import InvalidAudio, ShapeError, SilentAudio

SAMPLE_RATE = 16000
FIXED_NUM_SAMPLES = 33024
FRAME_LEN = 512
HOP_LEN = 256
NUM_BINS = 256
NUM_FRAMES = (FIXED_NUM_SAMPLES - FRAME_LEN) // HOP_LEN + 1  # 128
LOG_FLOOR = 1e-10

TRIM_BLOCK_SECONDS = 0.020
DEFAULT_SILENCE_THRESHOLD_DB = -40.0

# plausible voice ranges in Hz, shared by the trackers and the model's outputs
F0_RANGE_HZ = (60.0, 400.0)
F1_RANGE_HZ = (200.0, 850.0)
F2_RANGE_HZ = (800.0, 2700.0)


@dataclass
class Waveform:
    """Mono audio at 16 kHz with processing provenance flags."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE
    trimmed: bool = False
    normalized: bool = False

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise InvalidAudio(f"waveform must be 1-D, got shape {self.samples.shape}")


@dataclass
class FixedWaveform:
    """Waveform cut or tiled to exactly 33,024 samples."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape != (FIXED_NUM_SAMPLES,):
            raise InvalidAudio(
                f"fixed waveform must have {FIXED_NUM_SAMPLES} samples, "
                f"got {self.samples.shape}"
            )


@dataclass
class FeatureGrid:
    """Paired log-magnitude and sin-phase grids of n_frames x n_bins."""

    log_mag: np.ndarray
    sin_phase: np.ndarray
    n_frames: int = NUM_FRAMES
    n_bins: int = NUM_BINS

    def __post_init__(self):
        expected = (self.n_frames, self.n_bins)
        if self.log_mag.shape != expected or self.sin_phase.shape != expected:
            raise ShapeError(
                f"feature grids must be {expected}, got log_mag "
                f"{self.log_mag.shape} and sin_phase {self.sin_phase.shape}"
            )


def _data_chunk_end(path) -> tuple[int, int]:
    """(offset where the data chunk's declared payload ends, file size)
    of a WAV that scipy has parsed. RIFX sizes are big-endian; an RF64
    file keeps the data size in its ds64 chunk."""
    with open(path, "rb") as f:
        form = f.read(12)[:4]
        order = ">I" if form == b"RIFX" else "<I"
        rf64_data_size = 0
        end = 0
        while len(head := f.read(8)) == 8:
            chunk_id, size = head[:4], struct.unpack(order, head[4:])[0]
            if chunk_id == b"data":
                end = f.tell() + (rf64_data_size if form == b"RF64" else size)
                break
            if chunk_id == b"ds64":
                rf64_data_size = struct.unpack("<Q", f.read(16)[8:])[0]
                size -= 16
            f.seek(size + size % 2, 1)
        return end, os.fstat(f.fileno()).st_size


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM or 32-bit float WAV file.

    Stereo files are reduced to their first channel. Returns an
    un-ingested Waveform at the file's native rate; pass it through
    :func:`ingest` before any further processing. A file whose data
    chunk ends before the size its header declares (cut short by an
    interrupted copy, say) raises InvalidAudio: scipy would only warn
    and return the samples present.
    """
    try:
        rate, data = wavfile.read(path)
        end, file_size = _data_chunk_end(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise InvalidAudio(f"cannot read WAV file {path}: {exc}") from exc
    if end > file_size:
        raise InvalidAudio(f"truncated WAV file {path}: its data chunk ends at "
                           f"byte {end} but the file has {file_size} bytes")
    if data.ndim == 2:
        data = data[:, 0]
    if data.size == 0:
        raise InvalidAudio(f"empty WAV file: {path}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise InvalidAudio(
            f"unsupported WAV sample format {data.dtype} in {path}; "
            "expected 16-bit PCM or 32-bit float"
        )
    return ingest(samples, rate)


def write_wav(path, samples: np.ndarray, rate: int = SAMPLE_RATE) -> None:
    """Write samples in [-1, 1] as a 16-bit PCM WAV file."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    wavfile.write(path, rate, (clipped * 32767.0).astype(np.int16))


def ingest(raw_samples, rate: int) -> Waveform:
    """Convert raw samples at any rate into a mono 16 kHz Waveform.

    Resampling is linear interpolation; adequate at this scale and
    trivially replaceable by a polyphase resampler if fidelity at high
    frequencies ever matters.
    """
    if rate <= 0:
        raise InvalidAudio(f"sample rate must be positive, got {rate}")
    x = np.asarray(raw_samples, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, 0]
    if x.size == 0:
        raise InvalidAudio("empty audio input")
    n_bad = x.size - np.count_nonzero(np.isfinite(x))
    if n_bad:
        raise InvalidAudio(f"{n_bad} of {x.size} samples are non-finite (NaN or inf)")
    if rate == SAMPLE_RATE:
        return Waveform(x.copy(), SAMPLE_RATE)
    n_out = int(round(x.size * SAMPLE_RATE / rate))
    if n_out == 0:
        raise InvalidAudio(f"input too short to resample: {x.size} samples at {rate} Hz")
    positions = np.arange(n_out) * (rate / SAMPLE_RATE)
    resampled = np.interp(positions, np.arange(x.size), x)
    return Waveform(resampled, SAMPLE_RATE)


def trim_silence(
    w: Waveform, threshold_db: float = DEFAULT_SILENCE_THRESHOLD_DB
) -> Waveform:
    """Drop leading/trailing blocks quieter than threshold_db below peak.

    Activity is measured as the peak amplitude of 20 ms blocks relative
    to the global peak. Raises SilentAudio when nothing survives.
    """
    x = w.samples
    peak = np.max(np.abs(x))
    if peak == 0.0:
        raise SilentAudio("all-zero signal")
    block = max(1, int(round(TRIM_BLOCK_SECONDS * w.sample_rate)))
    n_blocks = int(np.ceil(x.size / block))
    padded = np.zeros(n_blocks * block)
    padded[: x.size] = np.abs(x)
    block_peaks = padded.reshape(n_blocks, block).max(axis=1)
    with np.errstate(divide="ignore"):
        block_db = 20.0 * np.log10(block_peaks / peak)
    active = np.flatnonzero(block_db >= threshold_db)
    if active.size == 0:
        raise SilentAudio(f"no blocks above {threshold_db} dB relative to peak")
    start = active[0] * block
    end = min((active[-1] + 1) * block, x.size)
    return Waveform(x[start:end].copy(), w.sample_rate, trimmed=True,
                    normalized=w.normalized)


def peak_normalize(w: Waveform) -> Waveform:
    """Scale so the maximum absolute sample is exactly 1.0."""
    peak = np.max(np.abs(w.samples))
    if peak == 0.0:
        raise SilentAudio("cannot normalize an all-zero signal")
    return Waveform(w.samples / peak, w.sample_rate, trimmed=w.trimmed,
                    normalized=True)


def fix_length(w: Waveform) -> FixedWaveform:
    """Tile short signals by repetition, truncate long ones, to 33,024."""
    x = w.samples
    if x.size >= FIXED_NUM_SAMPLES:
        return FixedWaveform(x[:FIXED_NUM_SAMPLES].copy())
    reps = int(np.ceil(FIXED_NUM_SAMPLES / x.size))
    return FixedWaveform(np.tile(x, reps)[:FIXED_NUM_SAMPLES])


def preprocess(
    w: Waveform, silence_threshold_db: float = DEFAULT_SILENCE_THRESHOLD_DB
) -> FixedWaveform:
    """Trim silence, normalize to peak 1.0 and fix the length.

    The trim/normalize steps deliberately destroy absolute-level and
    edge-silence cues so the detector cannot shortcut on them.
    """
    return fix_length(peak_normalize(trim_silence(w, silence_threshold_db)))


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window, the analysis window for all framing here."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_signal(x: np.ndarray, frame_len: int = FRAME_LEN,
                 hop: int = HOP_LEN) -> np.ndarray:
    """Slice a 1-D signal into (n_frames, frame_len) without padding."""
    n_frames = (x.size - frame_len) // hop + 1
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    return x[idx]


def stft_features(x: FixedWaveform) -> FeatureGrid:
    """Compute the 128x256 log-magnitude and sin-phase grids.

    512-sample Hann-windowed frames with hop 256, 512-point DFT; the 256
    non-negative-frequency bins below Nyquist are kept. Magnitudes get a
    1e-10 floor inside the log so the grid stays finite on digital zero.
    """
    frames = frame_signal(x.samples) * hann_window(FRAME_LEN)[None, :]
    spectrum = np.fft.rfft(frames, n=FRAME_LEN, axis=1)[:, :NUM_BINS]
    log_mag = np.log(np.abs(spectrum) + LOG_FLOOR)
    sin_phase = np.sin(np.angle(spectrum))
    return FeatureGrid(log_mag=log_mag, sin_phase=sin_phase)


def tokenize(g: FeatureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Slice the grids into per-frame tokens of width n_bins.

    Token t is the whole frequency column of frame t, in time order; on
    the row-major grids this is simply the rows themselves, so the op is
    a copy that fixes the contract rather than a reshape.
    """
    return g.log_mag.copy(), g.sin_phase.copy()
