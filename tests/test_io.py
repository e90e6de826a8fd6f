import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockpr.core import KRBDMatrix, make_krbd
from blockpr.io import BPR1Error, load_bpr1, load_csv, save_bpr1, save_csv
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
    k = make_krbd([complex_normal(rng, (3, 1)), complex_normal(rng, (6, 2))])
    save_bpr1(tmp_path / "k.bpr1", k)
    back = load_bpr1(tmp_path / "k.bpr1")
    assert isinstance(back, KRBDMatrix)
    assert back.partition == k.partition
    for b1, b2 in zip(back.blocks, k.blocks):
        assert np.array_equal(b1, b2)


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
    (tmp_path / "k0.bpr1").write_bytes(b"BPR1" + bytes(8) + b"\x02" + bytes(4))
    with pytest.raises(BPR1Error, match="block headers"):
        load_bpr1(tmp_path / "k0.bpr1")


# any complex128 value, NaN payloads and infinities included, round-trips
# bitwise; KRBD blocks must be finite
_entries = st.complex_numbers(allow_nan=True, allow_infinity=True)
_finite = st.complex_numbers(allow_nan=False, allow_infinity=False)
_vectors = arrays(np.complex128, st.integers(0, 12), elements=_entries)
_matrices = arrays(np.complex128, st.tuples(st.integers(0, 6), st.integers(0, 6)), elements=_entries)
_krbds = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=4
).flatmap(lambda shapes: st.tuples(*(arrays(np.complex128, s, elements=_finite) for s in shapes)))
_saveables = st.one_of(_vectors, _matrices, _krbds.map(make_krbd))


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


def test_csv_round_trip_matrix(tmp_path):
    m = complex_normal(generator(4), (3, 4))
    save_csv(tmp_path / "m.csv", m)
    back = load_csv(tmp_path / "m.csv")
    assert np.array_equal(back, m)  # repr-precision floats round-trip exactly


def test_csv_round_trip_vector(tmp_path):
    v = np.array([1.5 + 2.25j, -3.0 - 0.5j, 0.0 + 0j])
    save_csv(tmp_path / "v.csv", v)
    text = (tmp_path / "v.csv").read_text()
    assert text.splitlines()[0] == "1.5+2.25i"
    assert text.splitlines()[1] == "-3.0-0.5i"
    back = load_csv(tmp_path / "v.csv")
    assert back.ndim == 1
    assert np.array_equal(back, v)


def test_csv_scientific_notation_round_trip(tmp_path):
    v = np.array([1e-05 + 2e-07j, -3.25e8 - 1.5e-12j, 2.0 + 0.125j])
    save_csv(tmp_path / "sci.csv", v)
    back = load_csv(tmp_path / "sci.csv")
    assert np.array_equal(back, v)


def test_csv_rejects_garbage(tmp_path):
    (tmp_path / "g.csv").write_text("1.0+2.0i,banana\n")
    with pytest.raises(ValueError):
        load_csv(tmp_path / "g.csv")
