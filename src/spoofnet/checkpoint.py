"""Binary checkpoint format: a named-parameter table.

Layout (all integers little-endian):

    magic   4 bytes  b"SPNC"
    version u32      currently 1
    count   u32      number of entries
    entry   repeated:
        name_len u16, name utf-8,
        dtype    u8 (0 = float32, 1 = float64),
        ndim     u8, dims ndim * u32,
        payload  raw values, little-endian, row-major
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"SPNC"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    """Write a name -> array table; values are cast to their own dtype's
    little-endian layout."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            if arr.dtype not in _CODE_FOR:
                arr = arr.astype(np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", _CODE_FOR[arr.dtype], arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into a name -> array dict; a file that is
    not a well-formed checkpoint raises DataError.

    Each payload is read straight into its final array, and its declared
    size is checked against the bytes left in the file before the array
    is allocated, so a corrupt shape cannot ask for a huge buffer."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise DataError(f"not a checkpoint file: {path}")
        size = os.fstat(fh.fileno()).st_size
        arrays: dict[str, np.ndarray] = {}
        try:
            version, count = struct.unpack("<II", fh.read(8))
            if version != VERSION:
                raise DataError(f"unsupported checkpoint version {version} in {path}")
            for _ in range(count):
                (name_len,) = struct.unpack("<H", fh.read(2))
                name = fh.read(name_len).decode("utf-8")
                code, ndim = struct.unpack("<BB", fh.read(2))
                shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
                if code not in _DTYPE_CODES:
                    raise DataError(f"unknown dtype code {code} for entry {name!r}")
                dtype = _DTYPE_CODES[code]
                # Python integers: a corrupt shape cannot overflow into a valid size
                nbytes = math.prod(shape) * dtype.itemsize
                if nbytes > size - fh.tell():
                    raise DataError(f"truncated checkpoint entry {name!r} in {path}")
                arr = np.empty(shape, dtype=dtype)
                if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                    raise DataError(f"truncated checkpoint entry {name!r} in {path}")
                arrays[name] = arr
        # ValueError: a name that is not UTF-8, or a shape numpy cannot hold
        except (struct.error, ValueError) as exc:
            raise DataError(f"malformed checkpoint {path}: {exc}") from exc
    return arrays
