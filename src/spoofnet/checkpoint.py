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
    not a well-formed checkpoint raises DataError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DataError(f"not a checkpoint file: {path}")
    arrays: dict[str, np.ndarray] = {}
    try:
        version, count = struct.unpack_from("<II", blob, 4)
        if version != VERSION:
            raise DataError(f"unsupported checkpoint version {version} in {path}")
        offset = 12
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            code, ndim = struct.unpack_from("<BB", blob, offset)
            offset += 2
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            if code not in _DTYPE_CODES:
                raise DataError(f"unknown dtype code {code} for entry {name!r}")
            dtype = _DTYPE_CODES[code]
            # Python integers: a corrupt shape cannot overflow into a valid size
            nbytes = math.prod(shape) * dtype.itemsize
            payload = blob[offset:offset + nbytes]
            if len(payload) != nbytes:
                raise DataError(f"truncated checkpoint entry {name!r} in {path}")
            offset += nbytes
            arrays[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    # ValueError: a name that is not UTF-8, or a shape numpy cannot hold
    except (struct.error, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from exc
    return arrays
