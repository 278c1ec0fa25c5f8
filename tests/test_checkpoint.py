import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofnet.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from spoofnet.errors import DataError
from spoofnet.model import SpoofNet, toy_config


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "layer.w": rng.standard_normal((3, 4)).astype(np.float32),
            "layer.b": rng.standard_normal(4).astype(np.float64),
            "scalar": np.array(2.5, dtype=np.float32),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays)
        back = load_checkpoint(path)
        assert set(back) == set(arrays)
        for name in arrays:
            assert back[name].dtype == arrays[name].dtype
            np.testing.assert_array_equal(back[name], arrays[name])

    def test_payload_is_little_endian(self, tmp_path):
        path = tmp_path / "one.ckpt"
        save_checkpoint(path, {"x": np.array([1.0], dtype=np.float32)})
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        # header(12) + name_len(2) + "x"(1) + dtype/ndim(2) + dim(4) = 21
        assert blob[21:25] == struct.pack("<f", 1.0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", 99, 0))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        save_checkpoint(path, {"x": np.ones(8, dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-6])
        with pytest.raises(DataError):
            load_checkpoint(path)


    def test_oversized_entry_rejected_before_allocating(self, tmp_path):
        # one float32 entry of 2^32 elements (16 GiB) in a 100-byte file
        entry = (struct.pack("<H", 1) + b"w" + struct.pack("<BB", 0, 2)
                 + struct.pack("<2I", 65536, 65536))
        blob = MAGIC + struct.pack("<II", 1, 1) + entry
        path = tmp_path / "huge.ckpt"
        path.write_bytes(blob.ljust(100, b"\0"))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="truncated checkpoint entry 'w'"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestModelLoad:
    def test_from_state_takes_loaded_arrays_without_a_copy(self, tmp_path):
        cfg = toy_config()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, SpoofNet(cfg, seed=1).state_dict())
        arrays = load_checkpoint(path)
        net = SpoofNet.from_state(cfg, arrays)
        for name, p in net.params.items():
            assert np.shares_memory(p.data, arrays[name]), name


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    """(scratch path, bytes of a small valid checkpoint)."""
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_checkpoint(path, {
        "enc.w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "enc.b": np.array([0.5, -1.0, 2.0]),
        "gain": np.array(1.5, dtype=np.float32),
    })
    return path.with_name("mutated.ckpt"), path.read_bytes()


class TestMalformed:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_truncated_or_changed_byte_loads_or_raises_data_error(
            self, valid_checkpoint, data):
        path, blob = valid_checkpoint
        if data.draw(st.booleans(), label="truncate"):
            mutated = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="position")
            byte = data.draw(st.integers(0, 255), label="byte")
            mutated = blob[:pos] + bytes([byte]) + blob[pos + 1:]
        path.write_bytes(mutated)
        try:
            load_checkpoint(path)
        except DataError:
            pass
