"""Binary checkpoint format: a named-parameter table.

Layout (all integers little-endian):

    magic   4 bytes  b"SPNC"
    version u32      2 (the only version read)
    count   u32      number of entries
    entry   repeated:
        name_len u16, name utf-8,
        dtype    u8 (0 = float32, 1 = float64),
        ndim     u8, dims ndim * u32,
        pad      zero bytes up to the next file offset that is a multiple
                 of 64,
        payload  raw values, little-endian, row-major

The pad puts every payload on a 64-byte boundary, so a load maps the
file copy-on-write and hands out each payload as a view of the mapping:
no allocation and no copy, and a write to a loaded array never reaches
the file. A save writes a temp file next to the target and renames it
over the path, so a file that a live model has mapped is never rewritten
in place, and a save that fails leaves the previous file as it was.
Other writers must replace a loaded checkpoint the same way: the pages a
process has not written to still read the file, so a rewrite in place
changes its weights, and a truncation faults it with SIGBUS.
"""

from __future__ import annotations

import math
import mmap
import struct

import numpy as np

from .errors import DataError
from .fileio import replace_atomically

MAGIC = b"SPNC"
VERSION = 2
ALIGN = 64

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
# by (kind, item size), so a big-endian float keeps its width
_CODE_FOR = {(dt.kind, dt.itemsize): code for code, dt in _DTYPE_CODES.items()}


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    """Write a name -> array table atomically. float32 and float64 keep
    their width, whatever their byte order; any other dtype is stored as
    float64. Payloads are written little-endian."""
    with replace_atomically(path, "xb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            code = _CODE_FOR.get((arr.dtype.kind, arr.dtype.itemsize), 1)
            encoded = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I", len(encoded),
                                 encoded, code, arr.ndim, *arr.shape))
            fh.write(bytes(-fh.tell() % ALIGN))
            fh.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into a name -> array dict; a file that is
    not a well-formed checkpoint raises DataError.

    The arrays are writeable copy-on-write views of the mapped file. Each
    payload's declared size is checked against the bytes left in the file
    before its array is made, so a corrupt shape cannot ask for a huge
    buffer."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        if header[:4] != MAGIC:
            raise DataError(f"not a checkpoint file: {path}")
        try:
            version, count = struct.unpack("<II", header[4:])
            if version != VERSION:
                raise DataError(f"unsupported checkpoint version {version} in {path}")
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
            arrays: dict[str, np.ndarray] = {}
            pos = 12
            for _ in range(count):
                (name_len,) = struct.unpack_from("<H", buf, pos)
                name = buf[pos + 2:pos + 2 + name_len].decode("utf-8")
                pos += 2 + name_len
                code, ndim = struct.unpack_from("<BB", buf, pos)
                shape = struct.unpack_from(f"<{ndim}I", buf, pos + 2)
                pos += 2 + 4 * ndim
                if code not in _DTYPE_CODES:
                    raise DataError(f"unknown dtype code {code} for entry {name!r}")
                dtype = _DTYPE_CODES[code]
                pos += -pos % ALIGN
                # Python integers: a corrupt shape cannot overflow into a valid size
                nbytes = math.prod(shape) * dtype.itemsize
                if nbytes > len(buf) - pos:
                    raise DataError(f"truncated checkpoint entry {name!r} in {path}")
                arrays[name] = np.frombuffer(buf, dtype, nbytes // dtype.itemsize,
                                             pos).reshape(shape)
                pos += nbytes
        # ValueError: a name that is not UTF-8, or a shape numpy cannot hold
        except (struct.error, ValueError) as exc:
            raise DataError(f"malformed checkpoint {path}: {exc}") from exc
    return arrays
