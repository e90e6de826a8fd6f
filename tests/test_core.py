import numpy as np
import pytest

from blockpr.core import (
    BlockPartition,
    BlockPRInstance,
    KRBDMatrix,
    PRInstance,
    concat_blocks,
)
from blockpr.forward import apply
from blockpr.rng import complex_normal, generator


def test_partition_basic():
    p = BlockPartition((3, 6), (1, 2))
    assert p.n_blocks == 2
    assert p.total_rows == 9
    assert p.total_cols == 3
    assert p.row_slices() == [slice(0, 3), slice(3, 9)]


def test_partition_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BlockPartition((), ())
    with pytest.raises(ValueError):
        BlockPartition((1, 0), (1, 1))
    with pytest.raises(ValueError):
        BlockPartition((1, 2), (1,))


def test_make_krbd_two_blocks():
    # two 2x1 blocks -> M=4, N=2, K=2
    k = KRBDMatrix([np.ones((2, 1)), np.ones((2, 1))])
    assert k.shape == (4, 2)
    assert k.n_blocks == 2


def test_make_krbd_single_block_is_dense():
    k = KRBDMatrix([np.arange(6).reshape(2, 3).astype(complex)])
    assert k.n_blocks == 1
    assert np.array_equal(k.to_dense(), k.blocks[0])


def test_make_krbd_partition_follows_block_shapes():
    # shapes 3x1 and 6x2 are consistent with m_i = ceil(alpha*n_i), alpha=3
    k = KRBDMatrix([np.ones((3, 1)), np.ones((6, 2))])
    assert k.partition == BlockPartition((3, 6), (1, 2))
    assert k.partition.col_slices() == [slice(0, 1), slice(1, 3)]
    for m_i, n_i in zip(k.partition.row_sizes, k.partition.col_sizes):
        assert m_i == int(np.ceil(3 * n_i))
    with pytest.raises(TypeError):  # the partition is derived, never passed
        KRBDMatrix(k.partition, k.blocks)


def test_make_krbd_errors():
    with pytest.raises(ValueError, match="at least one block"):
        KRBDMatrix([])
    with pytest.raises(ValueError, match="zero dimension"):
        KRBDMatrix([np.ones((2, 1)), np.zeros((0, 2))])
    with pytest.raises(ValueError, match="2-D matrix"):
        KRBDMatrix([np.ones((2, 1)), np.ones(3)])
    with pytest.raises(ValueError, match="non-finite"):
        KRBDMatrix([np.array([[np.nan]])])


def test_krbd_blocks_are_immutable():
    k = KRBDMatrix([np.eye(2, dtype=complex)])
    with pytest.raises(ValueError):
        k.blocks[0][0, 0] = 5.0


def test_krbd_keeps_a_read_only_complex64_block_without_a_copy():
    block = complex_normal(generator(6), (6, 2)).astype(np.complex64)
    block.setflags(write=False)
    k = KRBDMatrix([block])
    assert k.blocks[0] is block


def test_krbd_rounds_other_blocks_to_read_only_complex64_once():
    rng = generator(6)
    drawn = complex_normal(rng, (6, 2))
    writeable64 = complex_normal(rng, (4, 2)).astype(np.complex64)
    k = KRBDMatrix([drawn, writeable64, np.ones((3, 1))])
    for b, given in zip(k.blocks, (drawn, writeable64)):
        assert b.dtype == np.complex64 and b.flags.c_contiguous and not b.flags.writeable
        assert b is not given and not np.shares_memory(b, given)
    assert k.blocks[0].tobytes() == drawn.astype(np.complex64).tobytes()


@pytest.mark.parametrize("value", [1e39, -1e39j, 3.5e38 + 0j])
def test_krbd_rejects_an_entry_beyond_float32_range(value):
    # finite in complex128, infinite once rounded to the blocks' complex64
    block = np.ones((2, 1), dtype=complex)
    block[1, 0] = value
    with pytest.raises(ValueError, match="non-finite"):
        KRBDMatrix([block])


def test_krbd_dense_round_trip():
    rng = generator(7)
    k = KRBDMatrix([complex_normal(rng, (3, 2)), complex_normal(rng, (5, 4))])
    full = k.to_dense()
    assert full.shape == (8, 6)
    assert full.dtype == np.complex64
    assert np.array_equal(full[:3, :2], k.blocks[0])
    assert np.array_equal(full[3:, 2:], k.blocks[1])
    assert not full[:3, 2:].any() and not full[3:, :2].any()


def test_concat_examples():
    assert np.array_equal(concat_blocks([np.array([1.0]), np.array([2.0])]), [1, 2])
    assert np.array_equal(concat_blocks([np.array([3j])]), [3j])
    with pytest.raises(ValueError):
        concat_blocks([])


@pytest.mark.parametrize("sizes", [(16,) * 4, (1, 3, 60), (64,)])
def test_split_concat_round_trip_bitwise(sizes):
    rng = generator(123)
    x = complex_normal(rng, sum(sizes))
    part = BlockPartition(tuple(2 * s for s in sizes), tuple(sizes))
    back = concat_blocks([x[cs] for cs in part.col_slices()])
    assert back.tobytes() == x.tobytes()


def test_single_block_apply_matches_dense_exactly():
    # K=1 block path and dense path share the same matvec: 0 ULP apart
    rng = generator(5)
    h = complex_normal(rng, (12, 8))
    x = complex_normal(rng, 8)
    k = KRBDMatrix([h])
    assert apply(k, x).tobytes() == (k.to_dense() @ x).tobytes()


@pytest.mark.parametrize("dtype, kept", [
    (np.complex64, np.complex64), (np.complex128, np.complex128),
    (np.float32, np.complex128), (np.float64, np.complex128), (np.int64, np.complex128),
])
def test_pr_instance_dense_operator_precision(dtype, kept):
    # a dense operator keeps either complex precision; anything else is complex128
    h = np.eye(3, dtype=dtype)
    op = PRInstance(h, np.ones(3), "intensity").operator
    assert op.dtype == kept and not op.flags.writeable
    h.setflags(write=False)
    assert (PRInstance(h, np.ones(3), "intensity").operator is h) == (dtype == kept)


def test_pr_instance_validation():
    h = np.eye(3, dtype=complex)
    inst = PRInstance(h, np.ones(3), "intensity")
    assert inst.shape == (3, 3)
    with pytest.raises(ValueError):
        PRInstance(h, np.ones(2), "intensity")
    with pytest.raises(ValueError):
        PRInstance(h, -np.ones(3), "intensity")
    # measurements are intensities; the solvers take their square roots
    for kind in ("magnitude", "amplitude"):
        with pytest.raises(ValueError, match=f"got kind '{kind}'"):
            PRInstance(h, np.ones(3), kind)
    with pytest.raises(ValueError):
        PRInstance(h, np.array([1.0, np.inf, 0.0]), "intensity")


def test_block_pr_instance_validation():
    rng = generator(9)
    op = KRBDMatrix([complex_normal(rng, (4, 2)), complex_normal(rng, (4, 2))])
    base = PRInstance(op, np.ones(8), "intensity")
    a = complex_normal(rng, (10, 4))
    inst = BlockPRInstance(base, a, np.ones(10), beta=5.0)
    assert inst.tuning_matrix.shape == (10, 4)
    assert inst.partition.n_blocks == 2

    with pytest.raises(ValueError):  # L != beta*K
        BlockPRInstance(base, a, np.ones(10), beta=4.0)
    with pytest.raises(ValueError):  # tuning matrix column mismatch
        BlockPRInstance(base, complex_normal(rng, (10, 3)), np.ones(10), beta=5.0)
    dense_base = PRInstance(np.eye(4, dtype=complex), np.ones(4), "intensity")
    with pytest.raises(ValueError):  # base operator must be block-diagonal
        BlockPRInstance(dense_base, a, np.ones(10), beta=5.0)
