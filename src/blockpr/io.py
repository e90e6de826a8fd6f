"""BPR1 binary interchange format.

BPR1 layout: magic bytes ``BPR1``, u32 little-endian rows, u32 cols, u8
kind flag (0 = vector, 1 = dense, 3 = krbd in single precision). A krbd
payload continues with u32 K and K per-block (u32 rows, u32 cols) headers.
Entries follow as interleaved (re, im) little-endian pairs, row-major,
blocks in order for krbd, and end the file: float64 pairs (16 bytes per
entry) for kinds 0 and 1, float32 pairs (8 bytes) for kind 3. Kind 2, the
double-precision krbd of older files, is refused, and its number is not
reused. A malformed file, or an array whose dimensions do not fit a u32,
raises :class:`BPR1Error`.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from .core import KRBDMatrix

__all__ = ["BPR1Error", "load_bpr1", "save_bpr1"]

_MAGIC = b"BPR1"
_KIND_VECTOR = 0
_KIND_DENSE = 1
_KIND_KRBD32 = 3

Saveable = Union[np.ndarray, KRBDMatrix]


class BPR1Error(ValueError):
    """A file is not valid BPR1, or an array does not fit the format."""


def _u32(*values: int) -> bytes:
    if any(not 0 <= v < 2**32 for v in values):
        raise BPR1Error(f"dimensions {values} do not fit BPR1's u32 header fields")
    return struct.pack(f"<{len(values)}I", *values)


def save_bpr1(path: str | Path, obj: Saveable) -> None:
    """Write a vector, dense matrix, or KRBD matrix in BPR1 format.

    Each array's buffer goes to the file as it is; only an array that is
    not C-ordered little-endian complex128 (complex64 for KRBD blocks) is
    converted first.
    """
    if isinstance(obj, KRBDMatrix):
        head = [_MAGIC, _u32(*obj.shape), bytes([_KIND_KRBD32]), _u32(obj.n_blocks)]
        head += [_u32(*b.shape) for b in obj.blocks]
        arrays, dtype = obj.blocks, "<c8"
    else:
        a = np.asarray(obj, dtype=np.complex128)
        if a.ndim == 1:
            head = [_MAGIC, _u32(len(a), 1), bytes([_KIND_VECTOR])]
        elif a.ndim == 2:
            head = [_MAGIC, _u32(*a.shape), bytes([_KIND_DENSE])]
        else:
            raise BPR1Error(f"cannot save array of shape {a.shape}")
        arrays, dtype = (a,), "<c16"
    with open(path, "wb") as fh:
        fh.write(b"".join(head))
        for a in arrays:
            # a complex array is exactly its interleaved (re, im) float pairs
            fh.write(np.ascontiguousarray(a, dtype=dtype).data)


def _require(fh: BinaryIO, size: int, n: int) -> None:
    """Raise unless ``n`` of the file's ``size`` bytes are left to read.

    Checked before a read allocates, so a header declaring more than the
    file holds raises however large it is.
    """
    if n > size - fh.tell():
        raise BPR1Error("truncated BPR1 file")


def _read_exact(fh: BinaryIO, size: int, n: int) -> bytes:
    _require(fh, size, n)
    data = fh.read(n)
    if len(data) != n:
        raise BPR1Error("truncated BPR1 file")
    return data


def _read_entries(fh: BinaryIO, size: int, shape: tuple[int, ...],
                  dtype: str = "<c16") -> np.ndarray:
    """The next ``shape`` entries of ``dtype``, read straight into a fresh array."""
    out_dtype = np.dtype(dtype)
    n = out_dtype.itemsize * math.prod(shape)
    _require(fh, size, n)
    out = np.empty(shape, dtype=out_dtype)
    if fh.readinto(out.reshape(-1).view(np.uint8)) != n:
        raise BPR1Error("truncated BPR1 file")
    return out.astype(out_dtype.type, copy=False)


def load_bpr1(path: str | Path) -> Saveable:
    """Read a BPR1 file; returns ndarray (1-D or 2-D) or KRBDMatrix.

    Each payload is read straight into the array returned. Vectors and
    dense matrices come back writeable complex128; kind-3 KRBD blocks come
    back read-only complex64, so the KRBDMatrix holds them without a copy.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = _read_exact(fh, size, 4)
        if magic != _MAGIC:
            raise BPR1Error(f"bad magic {magic!r}, expected {_MAGIC!r}")
        rows, cols, kind = struct.unpack("<IIB", _read_exact(fh, size, 9))
        if kind == _KIND_VECTOR:
            if cols != 1:
                raise BPR1Error("vector payload must have cols == 1")
            out = _read_entries(fh, size, (rows,))
        elif kind == _KIND_DENSE:
            out = _read_entries(fh, size, (rows, cols))
        elif kind == _KIND_KRBD32:
            k = struct.unpack("<I", _read_exact(fh, size, 4))[0]
            dims = struct.unpack(f"<{2 * k}I", _read_exact(fh, size, 8 * k))
            blocks = []
            for shape in zip(dims[::2], dims[1::2]):
                block = _read_entries(fh, size, shape, "<c8")
                block.setflags(write=False)
                blocks.append(block)
            try:
                out = KRBDMatrix(tuple(blocks))
            except ValueError as exc:
                raise BPR1Error(f"bad block headers or entries: {exc}") from None
            if out.shape != (rows, cols):
                raise BPR1Error("block headers inconsistent with overall shape")
        elif kind == 2:
            raise BPR1Error("BPR1 kind 2 (double-precision krbd) is no longer read; "
                            "regenerate the instance with `blockpr gen`")
        else:
            raise BPR1Error(f"unknown BPR1 kind flag {kind}")
        trailing = size - fh.tell()
    if trailing:
        raise BPR1Error(f"{trailing} trailing bytes after the BPR1 payload")
    return out
