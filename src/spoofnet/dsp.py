"""Waveform ingestion and the magnitude/phase feature frontend.

Every utterance is resampled to 16 kHz, trimmed, peak-normalized and
tiled/truncated to exactly 33,024 samples (2.064 s). Features are a
512/256 STFT with a Hann window, kept as paired log-magnitude and
sine-of-phase grids of 128 frames x 256 bins. Tokens for the encoders
are whole frames (one token per time step, all frequency bins).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

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
# the lowest input rate whose Nyquist band still holds all of F2
MIN_SAMPLE_RATE = int(2 * F2_RANGE_HZ[1])


@dataclass
class Waveform:
    """Mono audio at 16 kHz."""

    samples: np.ndarray
    sample_rate: ClassVar[int] = SAMPLE_RATE

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
    """Paired log-magnitude and sin-phase grids of 128 frames x 256 bins."""

    log_mag: np.ndarray
    sin_phase: np.ndarray

    def __post_init__(self):
        expected = (NUM_FRAMES, NUM_BINS)
        if self.log_mag.shape != expected or self.sin_phase.shape != expected:
            raise ShapeError(
                f"feature grids must be {expected}, got log_mag "
                f"{self.log_mag.shape} and sin_phase {self.sin_phase.shape}"
            )


# fmt chunk format tags, and the last 12 bytes of a WAVE_FORMAT_EXTENSIBLE
# subformat GUID, whose first 4 bytes hold the format tag; the GUID's
# middle fields follow the file's byte order
WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT, WAVE_FORMAT_EXTENSIBLE = 1, 3, 0xFFFE
_SUBFORMAT_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
                        ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}
_SAMPLE_DTYPES = {(WAVE_FORMAT_PCM, 16): "i2", (WAVE_FORMAT_IEEE_FLOAT, 32): "f4",
                  (WAVE_FORMAT_IEEE_FLOAT, 64): "f8"}


def _sample_format(fmt: bytes, order: str, path) -> tuple[int, int, np.dtype]:
    """(sample rate, channels, sample dtype) from a fmt chunk's payload."""
    tag, channels, rate, _, block_align, bits = struct.unpack_from(order + "HHIIHH", fmt)
    if (tag == WAVE_FORMAT_EXTENSIBLE and len(fmt) >= 40
            and fmt[28:40] == _SUBFORMAT_GUID_TAIL[order]):
        tag = struct.unpack_from(order + "I", fmt, 24)[0]
    code = _SAMPLE_DTYPES.get((tag, bits))
    if code is None or channels == 0 or block_align != channels * bits // 8:
        raise InvalidAudio(
            f"unsupported WAV sample format (tag {tag:#x}, {bits} bits, "
            f"{channels} channels, block align {block_align}) in {path}; "
            "expected 16-bit PCM or 32/64-bit float")
    return rate, channels, np.dtype(order + code)


def _parse_wav(blob: bytes, path) -> tuple[int, np.ndarray]:
    """(sample rate, first-channel samples) of a WAV file's bytes.

    One pass over the chunk headers: `fmt ` gives the sample format and
    `data` the samples. RIFX sizes, fields and samples are big-endian;
    an RF64 file keeps the data size in its ds64 chunk. Chunks after
    `data`, and a trailing partial sample frame, are ignored."""
    form = blob[:4]
    if form not in (b"RIFF", b"RIFX", b"RF64") or blob[8:12] != b"WAVE":
        raise InvalidAudio(f"not a RIFF/RIFX/RF64 WAVE file: {path}")
    order = ">" if form == b"RIFX" else "<"
    sample_format = None
    rf64_data_size = 0
    pos = 12
    while True:
        if pos + 8 > len(blob):
            raise InvalidAudio(f"no data chunk in WAV file {path}")
        chunk_id, size = blob[pos:pos + 4], struct.unpack_from(order + "I", blob, pos + 4)[0]
        pos += 8
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            sample_format = _sample_format(blob[pos:pos + size], order, path)
        elif chunk_id == b"ds64":
            rf64_data_size = struct.unpack_from("<Q", blob, pos + 8)[0]
        pos += size + size % 2
    if sample_format is None:
        raise InvalidAudio(f"no fmt chunk before the data chunk in WAV file {path}")
    end = pos + (rf64_data_size if form == b"RF64" else size)
    if end > len(blob):
        raise InvalidAudio(f"truncated WAV file {path}: its data chunk ends at "
                           f"byte {end} but the file has {len(blob)} bytes")
    rate, channels, dtype = sample_format
    n_frames = (end - pos) // (channels * dtype.itemsize)
    data = np.frombuffer(blob, dtype, count=n_frames * channels, offset=pos)
    return rate, data[::channels]


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM or 32/64-bit float WAV file: little-endian
    (RIFF), big-endian (RIFX) or RF64, any channel count, with a plain or
    WAVE_FORMAT_EXTENSIBLE fmt chunk.

    Returns the first channel through :func:`ingest`: a mono 16 kHz
    Waveform. A file whose data chunk ends before the size its header
    declares (cut short by an interrupted copy, say) raises InvalidAudio
    rather than yielding the samples present, as does any other sample
    format.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
        rate, data = _parse_wav(blob, path)
    except FileNotFoundError:
        raise
    except (OSError, struct.error) as exc:  # struct.error: a header cut off
        raise InvalidAudio(f"cannot read WAV file {path}: {exc}") from exc
    if data.size == 0:
        raise InvalidAudio(f"empty WAV file: {path}")
    # a NaN payload may warn in the cast; ingest rejects it next anyway
    with np.errstate(invalid="ignore"):
        samples = data.astype(np.float64)
    if data.dtype.kind == "i":
        samples /= 32768.0
    return ingest(samples, rate)


def write_wav(path, samples: np.ndarray, rate: int = SAMPLE_RATE) -> None:
    """Write samples in [-1, 1] as a mono 16-bit PCM WAV file: the
    44-byte canonical header, then the samples."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = (clipped * 32767.0).astype("<i2")
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVE",
                         b"fmt ", 16, WAVE_FORMAT_PCM, 1, rate, 2 * rate, 2, 16,
                         b"data", pcm.nbytes)
    with open(path, "wb") as f:
        f.write(header + pcm.tobytes())


def ingest(raw_samples, rate: int) -> Waveform:
    """Convert raw samples at MIN_SAMPLE_RATE or above into a mono 16 kHz
    Waveform by linear interpolation, adequate at this scale. A lower rate,
    whose audio cannot carry F2 and whose upsampling could blow a tiny file
    up into a huge array, raises InvalidAudio before any resampling."""
    if rate < MIN_SAMPLE_RATE:
        raise InvalidAudio(f"sample rate {rate} Hz is below the least usable "
                           f"{MIN_SAMPLE_RATE} Hz")
    x = np.asarray(raw_samples, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, 0]
    if x.size == 0:
        raise InvalidAudio("empty audio input")
    n_bad = x.size - np.count_nonzero(np.isfinite(x))
    if n_bad:
        raise InvalidAudio(f"{n_bad} of {x.size} samples are non-finite (NaN or inf)")
    if rate == SAMPLE_RATE:
        return Waveform(x.copy())
    n_out = int(round(x.size * SAMPLE_RATE / rate))
    if n_out == 0:
        raise InvalidAudio(f"input too short to resample: {x.size} samples at {rate} Hz")
    positions = np.arange(n_out) * (rate / SAMPLE_RATE)
    resampled = np.interp(positions, np.arange(x.size), x)
    return Waveform(resampled)


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
    block = max(1, int(round(TRIM_BLOCK_SECONDS * SAMPLE_RATE)))
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
    return Waveform(x[start:end].copy())


def peak_normalize(w: Waveform) -> Waveform:
    """Scale so the maximum absolute sample is exactly 1.0."""
    peak = np.max(np.abs(w.samples))
    if peak == 0.0:
        raise SilentAudio("cannot normalize an all-zero signal")
    return Waveform(w.samples / peak)


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
    """Slice a 1-D signal into (n_frames, frame_len) without padding, as a
    read-only view of x."""
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]


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
