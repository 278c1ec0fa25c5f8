"""Fuzzed file readers: the score file, the run config, the manifest,
WAV audio and the annotation cache.

For arbitrary bytes, and for a valid file with one byte changed or the
tail cut off, each reader returns a value or raises a DataError (exit 2
at the CLI), never another exception. The cache reader is the read path
of annotate_corpus: every record of the file turned into an annotation,
where a DataError makes that utterance a cache miss.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from spoofnet.annotate import FrameAnnotation, annotation_from_record, annotation_to_record
from spoofnet.cache import _load_cache_file, _write_cache_file
from spoofnet.config import load_run_config, write_config
from spoofnet.dsp import SAMPLE_RATE, ingest, read_wav, write_wav
from spoofnet.errors import DataError
from spoofnet.manifest import Manifest, ManifestEntry, load_manifest, save_manifest
from spoofnet.metrics import ScoreRecord, read_scores, write_scores
from spoofnet.model import toy_config
from spoofnet.train import TrainConfig


def write_valid_scores(path):
    rng = np.random.default_rng(0)
    write_scores(path, [
        ScoreRecord("u1", 0.73, 1, dataset_tag="synth", codec_tag="mp3",
                    frame_weights=rng.dirichlet(np.ones(4)),
                    voicing_prob=rng.uniform(0, 1, 4),
                    gt_voiced=np.array([True, False, True, True])),
        ScoreRecord("u2", 0.11, 0),
    ])


def write_valid_config(path):
    write_config(path, toy_config(), TrainConfig(), header="run configuration")


def write_valid_manifest(path):
    save_manifest(path, Manifest([
        ManifestEntry("u1", path.parent / "a.wav", "real", split="train"),
        ManifestEntry("u2", path.parent / "b.wav", "fake", "ds", "mp3", "val"),
    ]))


def write_valid_pcm_wav(path):
    write_wav(path, np.sin(np.arange(120) / 5.0))


def write_valid_float_wav(path):
    # stereo float at 8 kHz: the first-channel and resampling paths
    wave = np.stack([np.sin(np.arange(60) / 3.0), np.zeros(60)], axis=1)
    wavfile.write(path, 8000, wave.astype(np.float32))


def wav_bytes(samples, rate=SAMPLE_RATE, form=b"RIFF", extensible=False):
    """A WAV file of samples, (n,) or (n, channels), in their own dtype:
    little-endian RIFF, big-endian RIFX (every header field and sample
    byte-swapped) or RF64 (sizes in a ds64 chunk), with a plain or a
    WAVE_FORMAT_EXTENSIBLE fmt chunk."""
    e = ">" if form == b"RIFX" else "<"
    samples = samples.reshape(len(samples), -1)
    channels, width = samples.shape[1], samples.dtype.itemsize
    tag = 3 if samples.dtype.kind == "f" else 1  # IEEE float or PCM
    fmt = struct.pack(e + "HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                      rate * channels * width, channels * width, 8 * width)
    if extensible:
        # cbSize, valid bits, channel mask, then the subformat GUID
        # {tag-0000-0010-8000-00AA00389B71}, its first three fields in file order
        fmt += struct.pack(e + "HHIIHH", 22, 8 * width, 0, tag, 0, 0x10) + \
            bytes.fromhex("800000aa00389b71")
    payload = samples.astype(samples.dtype.newbyteorder(e)).tobytes()
    rf64 = form == b"RF64"
    chunks = (b"fmt " + struct.pack(e + "I", len(fmt)) + fmt + b"data"
              + struct.pack(e + "I", 0xFFFFFFFF if rf64 else len(payload)) + payload)
    if rf64:  # RIFF size (set below), data size, sample count, table length
        chunks = b"ds64" + struct.pack("<IQQQI", 28, 0, len(payload), len(samples), 0) + chunks
    blob = bytearray(form + struct.pack(e + "I", 0xFFFFFFFF if rf64 else 4 + len(chunks))
                     + b"WAVE" + chunks)
    if rf64:
        blob[20:28] = struct.pack("<Q", len(blob) - 8)
    return bytes(blob)


SHORT_PCM16 = np.round(8000 * np.sin(np.arange(120) / 5.0)).astype(np.int16)


def write_valid_rifx_pcm_wav(path):
    path.write_bytes(wav_bytes(SHORT_PCM16, form=b"RIFX"))


def write_valid_rf64_wav(path):
    path.write_bytes(wav_bytes(SHORT_PCM16, form=b"RF64"))


def write_valid_extensible_float_wav(path):
    wave = np.stack([np.sin(np.arange(60) / 3.0), np.zeros(60)], axis=1)
    path.write_bytes(wav_bytes(wave.astype(np.float32), rate=8000, extensible=True))


def write_valid_cache(path):
    nan = np.nan
    f0 = np.array([nan, 120.5, 121.0, nan, 180.25])
    ann = FrameAnnotation(f0_hz=f0, f1_hz=np.linspace(400.0, 800.0, 5),
                          f2_hz=np.linspace(1200.0, 2400.0, 5), voiced=np.isfinite(f0))
    _write_cache_file(path, {utt_id: {**annotation_to_record(utt_id, ann), "key": "k" + utt_id}
                             for utt_id in ("u1", "u2")})


def read_cache(path):
    return [annotation_from_record(row) for row in _load_cache_file(path).values()]


READERS = {
    "scores": (write_valid_scores, read_scores),
    "config": (write_valid_config, load_run_config),
    "manifest": (write_valid_manifest, load_manifest),
    "pcm_wav": (write_valid_pcm_wav, read_wav),
    "float_wav": (write_valid_float_wav, read_wav),
    "rifx_pcm_wav": (write_valid_rifx_pcm_wav, read_wav),
    "rf64_wav": (write_valid_rf64_wav, read_wav),
    "extensible_float_wav": (write_valid_extensible_float_wav, read_wav),
    "cache": (write_valid_cache, read_cache),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """(scratch directory, {reader name: bytes of a valid file})."""
    d = tmp_path_factory.mktemp("readers")
    blobs = {}
    for name, (write, _) in READERS.items():
        path = d / f"valid.{name}"
        write(path)
        blobs[name] = path.read_bytes()
    return d, blobs


def read_or_data_error(name, path, blob):
    path.write_bytes(blob)
    try:
        READERS[name][1](path)
    except DataError:
        pass


@pytest.mark.parametrize("name", sorted(READERS))
class TestMalformedReaders:
    @given(blob=st.binary(max_size=400))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_load_or_raise_data_error(self, valid_files, name, blob):
        d, _ = valid_files
        read_or_data_error(name, d / f"fuzz.{name}", blob)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_or_changed_byte_loads_or_raises_data_error(
            self, valid_files, name, data):
        d, blobs = valid_files
        blob = blobs[name]
        if data.draw(st.booleans(), label="truncate"):
            mutated = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="position")
            byte = data.draw(st.integers(0, 255), label="byte")
            mutated = blob[:pos] + bytes([byte]) + blob[pos + 1:]
        read_or_data_error(name, d / f"mutated.{name}", mutated)


# -- the own WAV reader and writer against scipy.io.wavfile -----------------

def scipy_read_wav(path):
    """read_wav as it was built on scipy.io.wavfile.read: the first
    channel, PCM16 scaled by 1/32768, float widened to float64."""
    rate, data = wavfile.read(path)
    if data.ndim == 2:
        data = data[:, 0]
    if data.dtype.kind == "i":
        return ingest(data.astype(np.float64) / 32768.0, rate)
    return ingest(data.astype(np.float64), rate)


@pytest.mark.parametrize("n", [1, 2, 119, 4000, 33024])
def test_write_wav_bytes_equal_scipy_write(tmp_path, n):
    # values past +-1 are clipped; the rest truncate toward zero
    x = 1.2 * np.sin(np.arange(n) * 0.37)
    write_wav(tmp_path / "own.wav", x)
    pcm = (np.clip(x, -1.0, 1.0) * 32767.0).astype(np.int16)
    wavfile.write(tmp_path / "scipy.wav", SAMPLE_RATE, pcm)
    assert (tmp_path / "own.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


PCM16 = np.round(12000 * np.sin(np.arange(3000) / 7.0)).astype(np.int16)
STEREO = np.stack([np.sin(np.arange(3000) / 9.0), np.cos(np.arange(3000) / 4.0)], axis=1)
SCIPY_WRITTEN = {
    "pcm16": (SAMPLE_RATE, PCM16),
    "pcm16_22k": (22050, PCM16),
    "float32": (SAMPLE_RATE, (PCM16 / 40000.0).astype(np.float32)),
    "float64": (8000, PCM16 / 40000.0),
    "stereo_pcm16": (SAMPLE_RATE, (STEREO * 20000).astype(np.int16)),
    "stereo_float32": (44100, STEREO.astype(np.float32)),
}
HAND_WRITTEN = {
    "rifx_pcm16": wav_bytes(PCM16, form=b"RIFX"),
    "rifx_float32": wav_bytes((PCM16 / 40000.0).astype(np.float32), form=b"RIFX"),
    "rifx_stereo_float64": wav_bytes(STEREO, 8000, form=b"RIFX"),
    "rf64_pcm16": wav_bytes(PCM16, form=b"RF64"),
    "extensible_pcm16": wav_bytes(PCM16, extensible=True),
    "extensible_stereo_float32": wav_bytes(STEREO.astype(np.float32), extensible=True),
    "rifx_extensible_float32": wav_bytes((PCM16 / 40000.0).astype(np.float32),
                                         form=b"RIFX", extensible=True),
}


@pytest.mark.parametrize("name", sorted(SCIPY_WRITTEN) + sorted(HAND_WRITTEN))
def test_read_wav_returns_the_samples_scipy_read(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    if name in SCIPY_WRITTEN:
        wavfile.write(path, *SCIPY_WRITTEN[name])
    else:
        path.write_bytes(HAND_WRITTEN[name])
    own, reference = read_wav(path), scipy_read_wav(path)
    assert own.dtype == reference.dtype == np.float64 and own.ndim == 1
    assert own.tobytes() == reference.tobytes()
    assert np.abs(own).max() > 0.1
