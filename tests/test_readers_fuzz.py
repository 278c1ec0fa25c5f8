"""Fuzzed text readers: the score file, the run config and the manifest.

For arbitrary bytes, and for a valid file with one byte changed or the
tail cut off, each reader returns a value or raises a DataError (exit 2
at the CLI), never another exception.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofnet.config import load_run_config, write_config
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


READERS = {
    "scores": (write_valid_scores, read_scores),
    "config": (write_valid_config, load_run_config),
    "manifest": (write_valid_manifest, load_manifest),
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
