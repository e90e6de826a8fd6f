"""BPR1 binary interchange format.

BPR1 layout: magic bytes ``BPR1``, u32 little-endian rows, u32 cols, u8
kind flag (0 = vector, 1 = dense, 2 = krbd). A krbd payload continues with
u32 K and K per-block (u32 rows, u32 cols) headers. Entries follow as
float64 little-endian interleaved (re, im) pairs, row-major, blocks in
order for krbd, and end the file. A malformed file, or an array whose
dimensions do not fit a u32, raises :class:`BPR1Error`.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .core import KRBDMatrix

__all__ = ["BPR1Error", "load_bpr1", "save_bpr1"]

_MAGIC = b"BPR1"
_KIND_VECTOR = 0
_KIND_DENSE = 1
_KIND_KRBD = 2

Saveable = Union[np.ndarray, KRBDMatrix]


class BPR1Error(ValueError):
    """A file is not valid BPR1, or an array does not fit the format."""


def _u32(*values: int) -> bytes:
    if any(not 0 <= v < 2**32 for v in values):
        raise BPR1Error(f"dimensions {values} do not fit BPR1's u32 header fields")
    return struct.pack(f"<{len(values)}I", *values)


def _entry_bytes(a: np.ndarray) -> bytes:
    # complex128 is exactly interleaved (re, im) float64 pairs
    return np.ascontiguousarray(a, dtype="<c16").tobytes()


def save_bpr1(path: str | Path, obj: Saveable) -> None:
    """Write a vector, dense matrix, or KRBD matrix in BPR1 format."""
    path = Path(path)
    if isinstance(obj, KRBDMatrix):
        head = [_MAGIC, _u32(*obj.shape), bytes([_KIND_KRBD]), _u32(obj.n_blocks)]
        head += [_u32(*b.shape) for b in obj.blocks]
        payload = b"".join(head) + b"".join(_entry_bytes(b) for b in obj.blocks)
    else:
        a = np.asarray(obj, dtype=np.complex128)
        if a.ndim == 1:
            head = _MAGIC + _u32(len(a), 1) + bytes([_KIND_VECTOR])
        elif a.ndim == 2:
            head = _MAGIC + _u32(*a.shape) + bytes([_KIND_DENSE])
        else:
            raise BPR1Error(f"cannot save array of shape {a.shape}")
        payload = head + _entry_bytes(a)
    path.write_bytes(payload)


def _read_exact(buf: bytes, offset: int, n: int) -> tuple[bytes, int]:
    if offset + n > len(buf):
        raise BPR1Error("truncated BPR1 file")
    return buf[offset : offset + n], offset + n


def _read_entries(buf: bytes, offset: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    data, offset = _read_exact(buf, offset, 16 * math.prod(shape))
    return np.frombuffer(data, dtype="<c16").astype(np.complex128).reshape(shape), offset


def load_bpr1(path: str | Path) -> Saveable:
    """Read a BPR1 file; returns ndarray (1-D or 2-D) or KRBDMatrix."""
    buf = Path(path).read_bytes()
    magic, off = _read_exact(buf, 0, 4)
    if magic != _MAGIC:
        raise BPR1Error(f"bad magic {magic!r}, expected {_MAGIC!r}")
    head, off = _read_exact(buf, off, 9)
    rows, cols, kind = struct.unpack("<IIB", head)
    if kind == _KIND_VECTOR:
        if cols != 1:
            raise BPR1Error("vector payload must have cols == 1")
        out, off = _read_entries(buf, off, (rows,))
    elif kind == _KIND_DENSE:
        out, off = _read_entries(buf, off, (rows, cols))
    elif kind == _KIND_KRBD:
        kbytes, off = _read_exact(buf, off, 4)
        k = struct.unpack("<I", kbytes)[0]
        shapes = []
        for _ in range(k):
            h, off = _read_exact(buf, off, 8)
            shapes.append(struct.unpack("<II", h))
        blocks = []
        for shape in shapes:
            block, off = _read_entries(buf, off, shape)
            blocks.append(block)
        try:
            out = KRBDMatrix(tuple(blocks))
        except ValueError as exc:
            raise BPR1Error(f"bad block headers or entries: {exc}") from None
        if out.shape != (rows, cols):
            raise BPR1Error("block headers inconsistent with overall shape")
    else:
        raise BPR1Error(f"unknown BPR1 kind flag {kind}")
    if off != len(buf):
        raise BPR1Error(f"{len(buf) - off} trailing bytes after the BPR1 payload")
    return out
