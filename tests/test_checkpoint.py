import mmap
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofnet.checkpoint import ALIGN, MAGIC, load_checkpoint, save_checkpoint
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
        # header(12) + name_len(2) + "x"(1) + dtype/ndim(2) + dim(4) = 21,
        # padded up to the 64-byte boundary
        assert blob[64:68] == struct.pack("<f", 1.0)

    @pytest.mark.parametrize("dtype", [">f4", ">f8", "<f4", "<f8"])
    def test_float_keeps_its_width_in_either_byte_order(self, tmp_path, dtype):
        arr = (np.arange(-3, 3).reshape(2, 3) / 3).astype(dtype)
        assert arr.dtype == np.dtype(dtype)
        path = tmp_path / "order.ckpt"
        save_checkpoint(path, {"x": arr})
        back = load_checkpoint(path)["x"]
        assert back.dtype == np.dtype(dtype).newbyteorder("<")
        np.testing.assert_array_equal(back, arr)

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


def v1_blob(arrays):
    """A version 1 file, packed by hand: each payload right after its
    dims, with no pad."""
    blob = MAGIC + struct.pack("<II", 1, len(arrays))
    for name, arr in arrays.items():
        code = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}[arr.dtype]
        encoded = name.encode("utf-8")
        blob += struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I", len(encoded), encoded,
                            code, arr.ndim, *arr.shape)
        blob += arr.tobytes()
    return blob


def mixed_arrays():
    """Entries whose headers end at many different offsets mod 64."""
    rng = np.random.default_rng(4)
    return {
        "w": rng.standard_normal((3, 5)).astype(np.float32),
        "enc.layers.0.attn.qkv.w": rng.standard_normal((4, 2, 3)),
        "b": rng.standard_normal(7).astype(np.float32),
        "scalar": np.array(-0.25),
        "empty": np.zeros((0, 4), dtype=np.float32),
        "\u00e9t\u00e9.g": rng.standard_normal(65).astype(np.float32),
    }


class TestLayout:
    def test_every_payload_starts_on_a_64_byte_boundary(self, tmp_path):
        arrays = mixed_arrays()
        path = tmp_path / "v2.ckpt"
        save_checkpoint(path, arrays)
        blob = path.read_bytes()
        assert struct.unpack_from("<II", blob, 4) == (2, len(arrays))
        pos = 12
        for name, arr in arrays.items():
            (n,) = struct.unpack_from("<H", blob, pos)
            assert blob[pos + 2:pos + 2 + n].decode("utf-8") == name
            pos += 4 + n + 4 * arr.ndim
            offset = blob.index(arr.tobytes(), pos) if arr.size else -(-pos // ALIGN) * ALIGN
            assert offset % ALIGN == 0 and offset - pos < ALIGN, name
            assert blob[pos:offset] == bytes(offset - pos), name
            pos = offset + arr.nbytes
        assert pos == len(blob)

    def test_version_1_file_loads_bit_equal(self, tmp_path):
        arrays = mixed_arrays()
        path = tmp_path / "v1.ckpt"
        path.write_bytes(v1_blob(arrays))
        back = load_checkpoint(path)
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype and back[name].shape == arr.shape, name
            assert back[name].tobytes() == arr.tobytes(), name
            assert back[name].flags.aligned and back[name].flags.writeable, name


def mapping_of(arr):
    """The buffer at the root of an array's base chain."""
    while isinstance(arr, (np.ndarray, memoryview)):
        arr = arr.base if isinstance(arr, np.ndarray) else arr.obj
    return arr


class TestMappedLoad:
    def test_arrays_are_writeable_views_of_one_mapping(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, mixed_arrays())
        back = load_checkpoint(path)
        roots = {id(mapping_of(arr)) for arr in back.values()}
        assert len(roots) == 1
        assert isinstance(mapping_of(back["w"]), mmap.mmap)
        for name, arr in back.items():
            assert arr.flags.writeable and arr.flags.aligned, name
            assert arr.ctypes.data % ALIGN == 0, name

    def test_writing_to_a_loaded_array_leaves_the_file_unchanged(self, tmp_path):
        arrays = mixed_arrays()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays)
        before = path.read_bytes()
        back = load_checkpoint(path)
        back["w"][...] = 7.0
        back["scalar"][()] = 1.0
        assert np.all(back["w"] == 7.0) and back["scalar"] == 1.0
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_checkpoint(path)["w"], arrays["w"])

    def test_saving_over_a_live_model_leaves_its_arrays_unchanged(self, tmp_path):
        cfg = toy_config()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, SpoofNet(cfg, seed=1).state_dict())
        live = SpoofNet.from_state(cfg, load_checkpoint(path))
        snapshot = live.state_dict()
        other = SpoofNet(cfg, seed=2).state_dict()
        save_checkpoint(path, other)
        for name, p in live.params.items():
            assert p.data.tobytes() == snapshot[name].tobytes(), name
        for name, arr in load_checkpoint(path).items():
            assert arr.tobytes() == other[name].tobytes(), name


class TestAtomicSave:
    def test_failed_save_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, mixed_arrays())
        before = path.read_bytes()
        # the second name cannot be encoded, after the first entry is written
        broken = {"ok": np.ones(1000, dtype=np.float32), "\ud800": np.ones(3)}
        with pytest.raises(UnicodeEncodeError):
            save_checkpoint(path, broken)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]


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
