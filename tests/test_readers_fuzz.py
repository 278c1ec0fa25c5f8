"""Fuzzed file readers: the score file, the run config, the manifest,
WAV audio and the annotation cache.

For arbitrary bytes, and for a valid file with one byte changed or the
tail cut off, each reader returns a value or raises a DataError (exit 2
at the CLI), never another exception. The cache reader is the read path
of annotate_corpus: every record of the file turned into an annotation,
where a DataError makes that utterance a cache miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from spoofnet.annotate import FrameAnnotation, annotation_from_record, annotation_to_record
from spoofnet.cache import _load_cache_file, _write_cache_file
from spoofnet.config import load_run_config, write_config
from spoofnet.dsp import read_wav, write_wav
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


# a WAV cut short loads what is left, with scipy's warning
@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
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
