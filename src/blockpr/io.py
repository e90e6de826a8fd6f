"""BPR1 binary interchange format plus a debugging CSV form.

BPR1 layout: magic bytes ``BPR1``, u32 little-endian rows, u32 cols, u8
kind flag (0 = vector, 1 = dense, 2 = krbd). A krbd payload continues with
u32 K and K per-block (u32 rows, u32 cols) headers. Entries follow as
float64 little-endian interleaved (re, im) pairs, row-major, blocks in
order for krbd, and end the file. A malformed file, or an array whose
dimensions do not fit a u32, raises :class:`BPR1Error`.

The CSV form writes entries as ``a+bi`` text, one matrix row per line
(vectors: one entry per line). It exists for eyeballing small problems;
BPR1 is the canonical format.
"""

from __future__ import annotations

import math
import re
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .core import BlockPartition, KRBDMatrix, as_complex_vector, as_dense_matrix

__all__ = ["BPR1Error", "load_bpr1", "load_csv", "save_bpr1", "save_csv"]

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
            part = BlockPartition(tuple(s[0] for s in shapes), tuple(s[1] for s in shapes))
        except ValueError as exc:
            raise BPR1Error(f"bad block headers: {exc}") from None
        if (part.total_rows, part.total_cols) != (rows, cols):
            raise BPR1Error("block headers inconsistent with overall shape")
        out = KRBDMatrix(part, tuple(blocks))
    else:
        raise BPR1Error(f"unknown BPR1 kind flag {kind}")
    if off != len(buf):
        raise BPR1Error(f"{len(buf) - off} trailing bytes after the BPR1 payload")
    return out


def _fmt_entry(z: complex) -> str:
    re_, im_ = float(np.real(z)), float(np.imag(z))
    sign = "+" if im_ >= 0 or np.isnan(im_) else "-"
    return f"{re_!r}{sign}{abs(im_)!r}i"


_FLOAT = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_ENTRY_RE = re.compile(rf"^\s*({_FLOAT})\s*([+-]\s*(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i\s*$")


def _parse_entry(s: str) -> complex:
    m = _ENTRY_RE.match(s)
    if m is None:
        raise ValueError(f"cannot parse complex entry {s!r}")
    return complex(float(m.group(1)), float(m.group(2).replace(" ", "")))


def save_csv(path: str | Path, obj: np.ndarray) -> None:
    """Write a vector (one entry per line) or dense matrix as a+bi text."""
    a = np.asarray(obj, dtype=np.complex128)
    if a.ndim == 1:
        lines = [_fmt_entry(z) for z in a]
    elif a.ndim == 2:
        lines = [",".join(_fmt_entry(z) for z in row) for row in a]
    else:
        raise ValueError(f"cannot save array of shape {a.shape}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_csv(path: str | Path) -> np.ndarray:
    """Read a+bi text; single-column files come back as 1-D vectors."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rows.append([_parse_entry(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError("empty CSV file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged CSV rows")
    a = np.array(rows, dtype=np.complex128)
    if width == 1:
        vec = a[:, 0]
        return as_complex_vector(vec, check_finite=False)
    return as_dense_matrix(a, check_finite=False)
