"""Domain types for block-structured phase retrieval problems.

Vectors and dense matrices are plain numpy arrays; :func:`as_complex_vector`
coerces signals. Structured containers (:class:`BlockPartition`,
:class:`KRBDMatrix`, :class:`PRInstance`, :class:`BlockPRInstance`) are
frozen dataclasses that check the shape and finiteness of every array they
store and keep it read-only and C-contiguous, so every type here is
immutable after construction and shared copy-on-write by forked workers.
Measurements are intensities |H x|^2; a solver that needs magnitudes takes
their square roots itself.

K-RBD blocks are complex64 (two 32-bit floats per entry): they are what
the blocking step iterates on, and single precision halves their memory
and their matrix-vector products' time. Everything else (signals,
estimates, the tuning matrix) is complex128 and measurements are float64;
a dense operator keeps complex64 or complex128 as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Literal, Sequence, Union

import numpy as np

__all__ = [
    "BlockPRInstance",
    "BlockPartition",
    "KRBDMatrix",
    "PRInstance",
    "as_complex_vector",
    "concat_blocks",
]


def _frozen(a: np.ndarray, dtype, ndim: int) -> np.ndarray:
    """``a`` as a read-only, C-contiguous ``dtype`` array: ``a`` itself if it is one, else one copy.

    Raises ValueError unless the array has ``ndim`` dimensions, none of
    them zero, and finite entries; a value beyond ``dtype``'s range becomes
    infinite, and is refused with them.
    """
    if not (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.flags.c_contiguous
        and not a.flags.writeable
    ):
        with np.errstate(over="ignore"):
            a = np.array(a, dtype=dtype, order="C")
        a.setflags(write=False)
    what = "matrix" if ndim == 2 else "measurement vector"
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D {what}, got shape {a.shape}")
    if 0 in a.shape:
        raise ValueError(f"{what} has a zero dimension: shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} has non-finite entries")
    return a


def as_complex_vector(x, *, check_finite: bool = True) -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting NaN/Inf components."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    if check_finite and not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite entries")
    return a


@dataclass(frozen=True)
class BlockPartition:
    """Row/column sizes of the K diagonal blocks of a block matrix.

    ``row_sizes[i] x col_sizes[i]`` is the shape of block i; the blocks
    tile the diagonal of an M x N matrix with M = sum(row_sizes) and
    N = sum(col_sizes).
    """

    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_sizes", tuple(int(m) for m in self.row_sizes))
        object.__setattr__(self, "col_sizes", tuple(int(n) for n in self.col_sizes))
        if len(self.row_sizes) != len(self.col_sizes):
            raise ValueError("row_sizes and col_sizes must have equal length")
        if len(self.row_sizes) == 0:
            raise ValueError("partition needs at least one block")
        if any(m <= 0 for m in self.row_sizes) or any(n <= 0 for n in self.col_sizes):
            raise ValueError("block sizes must be positive")

    @property
    def n_blocks(self) -> int:
        return len(self.row_sizes)

    @property
    def total_rows(self) -> int:
        return sum(self.row_sizes)

    @property
    def total_cols(self) -> int:
        return sum(self.col_sizes)

    def row_slices(self) -> list[slice]:
        return [slice(end - m, end) for m, end in zip(self.row_sizes, accumulate(self.row_sizes))]

    def col_slices(self) -> list[slice]:
        return [slice(end - n, end) for n, end in zip(self.col_sizes, accumulate(self.col_sizes))]


@dataclass(frozen=True)
class KRBDMatrix:
    """K-rectangular-block-diagonal matrix: only the diagonal blocks are stored.

    ``KRBDMatrix(blocks)`` takes the K diagonal blocks (2-D, nonempty)
    and derives ``partition`` from their shapes. Each block is stored as a
    read-only, C-contiguous complex64 array: one that already is one is
    kept as it is, any other is cast once. An entry that is not finite
    after the cast, one beyond float32's range included, raises
    ValueError. The logical full matrix is zero outside the blocks; those
    zeros are never materialized except by an explicit :meth:`to_dense`.
    """

    blocks: tuple[np.ndarray, ...]
    partition: BlockPartition = field(init=False)

    def __post_init__(self):
        blocks = tuple(_frozen(b, np.complex64, 2) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "partition", BlockPartition(
            tuple(b.shape[0] for b in blocks), tuple(b.shape[1] for b in blocks)))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.partition.total_rows, self.partition.total_cols)

    @property
    def n_blocks(self) -> int:
        return self.partition.n_blocks

    def to_dense(self) -> np.ndarray:
        """Materialize the full matrix, zeros included, in the blocks' complex64."""
        full = np.zeros(self.shape, dtype=np.complex64)
        for b, rs, cs in zip(self.blocks, self.partition.row_slices(), self.partition.col_slices()):
            full[rs, cs] = b
        return full


Operator = Union[np.ndarray, KRBDMatrix]


def concat_blocks(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-block sub-vectors in index order."""
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one part")
    return np.concatenate([as_complex_vector(p, check_finite=False) for p in parts])


@dataclass(frozen=True)
class PRInstance:
    """A phase retrieval measurement problem.

    ``measurements`` holds the intensities |op @ x|^2 of the unknown signal
    x; ``kind`` must be "intensity", and any other kind raises ValueError.
    A dense ``operator`` is kept in complex64 or complex128 as given; any
    other dtype becomes complex128.
    ``snr_db`` is noise metadata only (math.inf or None means noiseless).
    """

    operator: Operator
    measurements: np.ndarray
    kind: Literal["intensity"]
    snr_db: float | None = None

    def __post_init__(self):
        meas = _frozen(self.measurements, np.float64, 1)
        if np.any(meas < 0):
            raise ValueError("measurements must be nonnegative")
        object.__setattr__(self, "measurements", meas)
        if self.kind != "intensity":
            raise ValueError(f"measurements must be intensities, got kind {self.kind!r}")
        if not isinstance(self.operator, KRBDMatrix):
            dtype = getattr(self.operator, "dtype", None)
            if dtype not in (np.complex64, np.complex128):
                dtype = np.complex128
            object.__setattr__(self, "operator", _frozen(self.operator, dtype, 2))
        rows = self.operator.shape[0]
        if len(meas) != rows:
            raise ValueError(f"got {len(meas)} measurements for {rows} operator rows")

    @property
    def shape(self) -> tuple[int, int]:
        return self.operator.shape


@dataclass(frozen=True)
class BlockPRInstance:
    """A block-diagonal PR problem plus the global phase-tuning measurements.

    The L = round(beta * K) tuning rows are extra measurements stored
    separately from the base problem; ``tuning_measurements`` holds their
    intensities, as ``base`` does. beta >= 4 is recommended for reliable
    tuning but smaller values are accepted (useful for failure studies).
    """

    base: PRInstance
    tuning_matrix: np.ndarray
    tuning_measurements: np.ndarray
    beta: float

    def __post_init__(self):
        if not isinstance(self.base.operator, KRBDMatrix):
            raise ValueError("base operator must be a KRBDMatrix")
        tm = _frozen(self.tuning_matrix, np.complex128, 2)
        object.__setattr__(self, "tuning_matrix", tm)
        ty = _frozen(self.tuning_measurements, np.float64, 1)
        if np.any(ty < 0):
            raise ValueError("tuning measurements must be nonnegative")
        object.__setattr__(self, "tuning_measurements", ty)
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        n = self.base.operator.shape[1]
        if tm.shape[1] != n:
            raise ValueError(f"tuning matrix has {tm.shape[1]} columns, expected {n}")
        if len(ty) != tm.shape[0]:
            raise ValueError("tuning measurement length does not match tuning matrix rows")
        k = self.base.operator.n_blocks
        if round(self.beta * k) != tm.shape[0]:
            raise ValueError(
                f"L = {tm.shape[0]} tuning rows inconsistent with beta*K = {self.beta}*{k}"
            )

    @property
    def partition(self) -> BlockPartition:
        return self.base.operator.partition
