import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockpr.core import KRBDMatrix
from blockpr.io import BPR1Error, load_bpr1, save_bpr1
from blockpr.rng import complex_normal, generator


def test_vector_round_trip(tmp_path):
    v = complex_normal(generator(1), 17)
    save_bpr1(tmp_path / "v.bpr1", v)
    back = load_bpr1(tmp_path / "v.bpr1")
    assert back.ndim == 1
    assert back.tobytes() == v.tobytes()


def test_dense_round_trip(tmp_path):
    m = complex_normal(generator(2), (5, 3))
    save_bpr1(tmp_path / "m.bpr1", m)
    back = load_bpr1(tmp_path / "m.bpr1")
    assert back.shape == (5, 3)
    assert np.array_equal(back, m)


def test_krbd_round_trip(tmp_path):
    rng = generator(3)
    k = KRBDMatrix([complex_normal(rng, (3, 1)), complex_normal(rng, (6, 2))])
    save_bpr1(tmp_path / "k.bpr1", k)
    back = load_bpr1(tmp_path / "k.bpr1")
    assert isinstance(back, KRBDMatrix)
    assert back.partition == k.partition
    for b1, b2 in zip(back.blocks, k.blocks):
        assert b1.dtype == np.complex64 and np.array_equal(b1, b2)


def test_krbd_layout_is_kind_3_with_float32_pairs(tmp_path):
    # header, then K, the (rows, cols) of each block, and 8 bytes per entry
    blocks = [np.array([[1 + 2j], [3 - 4j]]), np.array([[0.5j, -1.5]])]
    save_bpr1(tmp_path / "k.bpr1", KRBDMatrix(blocks))
    raw = (tmp_path / "k.bpr1").read_bytes()
    assert raw[:13] == b"BPR1" + struct.pack("<IIB", 3, 3, 3)
    assert struct.unpack("<5I", raw[13:33]) == (2, 2, 1, 1, 2)
    assert np.frombuffer(raw[33:], dtype="<f4").tolist() == [1, 2, 3, -4, 0, 0.5, -1.5, 0]


def test_kind_2_krbd_is_refused(tmp_path):
    # a KRBD file with float64 pairs, as written before single-precision blocks
    block = complex_normal(generator(5), (3, 2))
    raw = b"BPR1" + struct.pack("<IIBI2I", 3, 2, 2, 1, 3, 2) + block.astype("<c16").tobytes()
    (tmp_path / "k2.bpr1").write_bytes(raw)
    with pytest.raises(BPR1Error, match="kind 2 .* regenerate the instance with `blockpr gen`"):
        load_bpr1(tmp_path / "k2.bpr1")


def test_kind_2_krbd_entry_beyond_float32_range_is_rejected(tmp_path):
    # the kind is refused before the payload is read, so an entry that
    # float32 cannot hold never reaches a block as inf
    block = np.array([[1.0, 2e39j]])
    raw = b"BPR1" + struct.pack("<IIBI2I", 1, 2, 2, 1, 1, 2) + block.astype("<c16").tobytes()
    (tmp_path / "k2.bpr1").write_bytes(raw)
    with pytest.raises(BPR1Error, match="kind 2"):
        load_bpr1(tmp_path / "k2.bpr1")


def test_header_layout(tmp_path):
    # magic + u32 rows + u32 cols + u8 kind, little endian
    save_bpr1(tmp_path / "v.bpr1", np.array([1 + 2j]))
    raw = (tmp_path / "v.bpr1").read_bytes()
    assert raw[:4] == b"BPR1"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 1
    assert raw[12] == 0
    assert np.frombuffer(raw[13:], dtype="<f8").tolist() == [1.0, 2.0]


def test_bad_magic(tmp_path):
    (tmp_path / "bad.bpr1").write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ValueError, match="magic"):
        load_bpr1(tmp_path / "bad.bpr1")


def test_truncated_file(tmp_path):
    save_bpr1(tmp_path / "v.bpr1", np.ones(4, dtype=complex))
    raw = (tmp_path / "v.bpr1").read_bytes()
    (tmp_path / "cut.bpr1").write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_bpr1(tmp_path / "cut.bpr1")


def test_trailing_bytes_rejected(tmp_path):
    save_bpr1(tmp_path / "v.bpr1", np.ones(4, dtype=complex))
    with open(tmp_path / "v.bpr1", "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(BPR1Error, match="1 trailing bytes"):
        load_bpr1(tmp_path / "v.bpr1")


@pytest.mark.parametrize("shape", [(2**32, 0), (0, 2**32)])
def test_save_rejects_dimensions_past_u32(tmp_path, shape):
    with pytest.raises(ValueError, match="do not fit"):
        save_bpr1(tmp_path / "big.bpr1", np.zeros(shape, dtype=complex))
    assert not (tmp_path / "big.bpr1").exists()


def test_krbd_bad_block_headers(tmp_path):
    # K = 0: a KRBD header with no blocks
    (tmp_path / "k0.bpr1").write_bytes(b"BPR1" + bytes(8) + b"\x03" + bytes(4))
    with pytest.raises(BPR1Error, match="block headers"):
        load_bpr1(tmp_path / "k0.bpr1")


@pytest.mark.parametrize("head", [
    struct.pack("<IIB", 2**31, 2**31, 1),
    struct.pack("<IIBIII", 2**31, 2**31, 3, 1, 2**31, 2**31),
    struct.pack("<IIBI", 2**31, 2**31, 3, 2**32 - 1),
], ids=["dense", "krbd-block", "krbd-count"])
def test_huge_header_on_a_short_file_is_truncated(tmp_path, head):
    # the payload is checked against the bytes left before anything is
    # allocated, so a 2^31 x 2^31 header raises BPR1Error, not MemoryError
    (tmp_path / "big.bpr1").write_bytes(b"BPR1" + head + bytes(16))
    with pytest.raises(BPR1Error, match="truncated"):
        load_bpr1(tmp_path / "big.bpr1")


@pytest.fixture(scope="module")
def krbd_4mb():
    rng = generator(8)
    return KRBDMatrix(tuple(complex_normal(rng, (256, 64)) for _ in range(16)))


def test_save_bpr1_writes_the_arrays_own_buffers(tmp_path, krbd_4mb, traced_peak):
    # 16 complex64 blocks of 256 x 64: 8 bytes per entry, 2.1 MB of payload
    _, peak = traced_peak(lambda: save_bpr1(tmp_path / "k.bpr1", krbd_4mb))
    assert (tmp_path / "k.bpr1").stat().st_size > 8 * 16 * 256 * 64
    assert peak < 0.5e6


def test_load_bpr1_reads_straight_into_the_arrays(tmp_path, krbd_4mb, traced_peak):
    # the blocks returned are the only copy of the payload
    save_bpr1(tmp_path / "k.bpr1", krbd_4mb)
    back, peak = traced_peak(lambda: load_bpr1(tmp_path / "k.bpr1"))
    assert peak <= 1.1 * (tmp_path / "k.bpr1").stat().st_size
    assert _same(krbd_4mb, back)


def test_only_krbd_blocks_load_read_only(tmp_path):
    # KRBDMatrix keeps read-only blocks as they are; vectors and dense
    # matrices are the caller's to change
    rng = generator(4)
    save_bpr1(tmp_path / "k.bpr1", KRBDMatrix((complex_normal(rng, (3, 1)),)))
    save_bpr1(tmp_path / "v.bpr1", complex_normal(rng, 3))
    save_bpr1(tmp_path / "m.bpr1", complex_normal(rng, (3, 2)))
    assert not load_bpr1(tmp_path / "k.bpr1").blocks[0].flags.writeable
    assert load_bpr1(tmp_path / "v.bpr1").flags.writeable
    assert load_bpr1(tmp_path / "m.bpr1").flags.writeable


# any complex128 value, NaN payloads and infinities included, round-trips
# bitwise; KRBD blocks are complex64 and must be finite (a finite complex128
# value beyond float32's range is not a valid block entry: it is rejected)
_entries = st.complex_numbers(allow_nan=True, allow_infinity=True)
_finite64 = st.complex_numbers(width=64, allow_nan=False, allow_infinity=False)
_vectors = arrays(np.complex128, st.integers(0, 12), elements=_entries)
_matrices = arrays(np.complex128, st.tuples(st.integers(0, 6), st.integers(0, 6)), elements=_entries)
_krbds = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=4
).flatmap(lambda shapes: st.tuples(*(arrays(np.complex64, s, elements=_finite64)
                                     for s in shapes)))
_saveables = st.one_of(_vectors, _matrices, _krbds.map(KRBDMatrix))


@pytest.fixture(scope="module")
def bpr1_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bpr1") / "f.bpr1"


def _same(a, b) -> bool:
    if isinstance(a, KRBDMatrix):
        return (isinstance(b, KRBDMatrix) and a.partition == b.partition
                and all(x.tobytes() == y.tobytes() for x, y in zip(a.blocks, b.blocks)))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(obj=_saveables)
def test_round_trip_property(bpr1_path, obj):
    save_bpr1(bpr1_path, obj)
    assert _same(obj, load_bpr1(bpr1_path))


@given(obj=_saveables, data=st.data())
def test_truncated_file_property(bpr1_path, obj, data):
    save_bpr1(bpr1_path, obj)
    raw = bpr1_path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="kept bytes")
    bpr1_path.write_bytes(raw[:cut])
    with pytest.raises(BPR1Error, match="truncated"):
        load_bpr1(bpr1_path)


@given(obj=_saveables, extra=st.binary(min_size=1, max_size=64))
def test_extended_file_property(bpr1_path, obj, extra):
    save_bpr1(bpr1_path, obj)
    bpr1_path.write_bytes(bpr1_path.read_bytes() + extra)
    with pytest.raises(BPR1Error, match=f"{len(extra)} trailing bytes"):
        load_bpr1(bpr1_path)
