import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logiczono.bitvec import BitMatrix, BitVector
from logiczono.points import PointSet, enumerate_points
from logiczono.sets import ConstrainedPolyLogicalZonotope as CPLZ, IdAllocator
from logiczono.setio import (
    load_bindings,
    load_input_bindings,
    load_set,
    set_to_json,
)
from conftest import naive_enumerate, random_cplz, same_set


def test_bitstring_orientation(alloc):
    doc = {"kind": "lz", "n": 2, "c": "10", "G": []}
    s = load_set(doc, alloc)
    assert s.c.bits().tolist() == [1, 0]


def test_lz_roundtrip(alloc):
    l = CPLZ.lz(
        BitVector.from01("011"),
        BitMatrix.from_columns([BitVector.from01("110"), BitVector.from01("001")]),
        alloc,
    )
    doc = {"kind": "lz", "n": 3, "c": "011", "G": ["110", "001"]}
    back = load_set(doc, alloc)
    assert back.c == l.c and back.G == l.G
    assert back.E == BitMatrix.identity(2) and back.m == back.q == 0
    assert set(back.id).isdisjoint(l.id)
    doc = set_to_json(back)
    assert doc["kind"] == "cplz" and doc["c"] == "011" and doc["G"] == ["110", "001"]
    assert doc["E"] == ["10", "01"] and same_set(load_set(doc, alloc), back)


def test_plz_roundtrip(alloc):
    p = CPLZ.unconstrained(
        BitVector.from01("01"),
        BitMatrix.from_columns([BitVector.from01("10")]),
        BitMatrix.from_bool(np.array([[1], [0]], dtype=bool)),
        alloc.fresh(2),
    )
    doc = {"kind": "plz", "n": 2, "c": "01", "G": ["10"], "E": ["10"], "id": list(p.id)}
    back = load_set(doc, alloc)
    assert same_set(back, p) and back.m == back.q == 0
    assert same_set(load_set(set_to_json(back), alloc), p)


def test_cplz_roundtrip(rng, alloc):
    for _ in range(20):
        z = random_cplz(rng, alloc)
        back = load_set(set_to_json(z), alloc)
        assert isinstance(back, CPLZ) and same_set(back, z)
        assert enumerate_points(back) == enumerate_points(z)


def test_absent_fields_default_empty(alloc):
    s = load_set({"kind": "cplz", "n": 2, "c": "10", "id": []}, alloc)
    assert s.h == 0 and s.p == 0 and s.m == 0 and s.q == 0
    assert enumerate_points(s) == PointSet.from_bitstrings(["10"])
    for kind in ("lz", "plz"):
        s = load_set({"kind": kind, "n": 2, "c": "10"}, alloc)
        assert s.h == 0 and s.p == 0 and s.m == 0 and s.q == 0


def test_matrix_column_length_checked(alloc):
    with pytest.raises(ValueError):
        load_set({"kind": "lz", "n": 3, "c": "000", "G": ["10"]}, alloc)
    with pytest.raises(ValueError):
        load_set({"kind": "plz", "n": 1, "c": "0", "G": ["1"], "E": ["11"], "id": [1]}, alloc)


def test_unknown_kind(alloc):
    with pytest.raises(ValueError):
        load_set({"kind": "interval", "n": 1, "c": "0"}, alloc)
    with pytest.raises(ValueError):
        load_set(["0", "1"], alloc)


def _bits(n):
    return st.text("01", min_size=n, max_size=n)


@st.composite
def lz_docs(draw):
    n = draw(st.integers(1, 6))
    return {"kind": "lz", "n": n, "c": draw(_bits(n)), "G": draw(st.lists(_bits(n), max_size=5))}


@st.composite
def plz_docs(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    h = draw(st.integers(0, 5))
    ids = draw(st.lists(st.integers(1, 10**6), min_size=p, max_size=p, unique=True))
    return {
        "kind": "plz",
        "n": n,
        "c": draw(_bits(n)),
        "G": draw(st.lists(_bits(n), min_size=h, max_size=h)),
        "E": draw(st.lists(_bits(p), min_size=h, max_size=h)),
        "id": ids,
    }


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_json_roundtrip_is_bit_identical(seed):
    z = random_cplz(np.random.default_rng(seed), IdAllocator(), n_max=70, h_max=6, m_max=70)
    assert same_set(load_set(set_to_json(z), IdAllocator()), z)


@settings(max_examples=100, deadline=None)
@given(st.one_of(lz_docs(), plz_docs()))
def test_lz_and_plz_documents_enumerate_exactly(doc):
    z = load_set(doc, IdAllocator())
    assert set(enumerate_points(z).to_bitstrings()) == naive_enumerate(z)
    written = set_to_json(z)
    assert all(written[key] == doc[key] for key in doc if key != "kind")
    assert same_set(load_set(written, IdAllocator()), z)


def test_points_shorthand_pair(alloc):
    z = load_set({"points": ["1001", "0110"]}, alloc)
    assert z.p == 1
    assert z.c.to01() == "1001"  # the first listed point, not the least
    assert enumerate_points(z) == PointSet.from_bitstrings(["1001", "0110"])


def test_points_shorthand_affine_quad(alloc):
    quad = ["00", "01", "10", "11"]
    z = load_set({"points": quad}, alloc)
    assert z.p == 2
    assert enumerate_points(z) == PointSet.from_bitstrings(quad)


def test_points_shorthand_singleton(alloc):
    z = load_set({"points": ["111"]}, alloc)
    assert z.h == 0 and z.p == 0


def test_points_shorthand_non_affine_is_one_set(alloc):
    three = ["00", "01", "10"]
    z = load_set({"points": three}, alloc)
    assert isinstance(z, CPLZ) and z.p == 2 and z.m == 0
    assert enumerate_points(z) == PointSet.from_bitstrings(three)


def test_points_shorthand_dedup(alloc):
    z = load_set({"points": ["01", "01"]}, alloc)
    assert z.h == 0


def test_points_mixed_lengths_rejected(alloc):
    with pytest.raises(ValueError):
        load_set({"points": ["0", "00"]}, alloc)


def test_load_bindings(alloc):
    doc = {
        "a": {"points": ["0", "1"]},
        "b": {"kind": "lz", "n": 1, "c": "1", "G": []},
    }
    bound = load_bindings(doc, alloc)
    assert set(bound) == {"a", "b"}
    assert isinstance(bound["a"], CPLZ) and isinstance(bound["b"], CPLZ)
    assert enumerate_points(bound["b"]) == PointSet.from_bitstrings(["1"])


def test_load_input_bindings_per_step(alloc):
    doc = [{"u": {"points": ["0"]}}, {"u": {"points": ["1"]}}]
    per_step = load_input_bindings(doc, alloc)
    assert isinstance(per_step, list) and len(per_step) == 2
    assert enumerate_points(per_step[1]["u"]) == PointSet.from_bitstrings(["1"])


def test_fresh_ids_skip_explicit_document_ids():
    # the explicit ids come after the documents that take fresh ones, and still win
    alloc = IdAllocator()
    bound = load_bindings({
        "a": {"kind": "lz", "n": 2, "c": "00", "G": ["10", "01"]},
        "b": {"points": ["00", "01", "11"]},
        "c": {"kind": "plz", "n": 1, "c": "0", "G": ["1"], "E": ["10"], "id": [1, 3]},
        "d": {"kind": "cplz", "n": 1, "c": "0", "G": ["1"], "E": ["1"], "id": [2]},
    }, alloc)
    ids = [i for s in bound.values() for i in s.id]
    assert len(ids) == 7 and len(set(ids)) == 7
    assert min(alloc.fresh(1)) > max(ids)
    single = IdAllocator()
    load_set({"kind": "cplz", "n": 1, "c": "0", "G": ["1"], "E": ["1"], "id": [5]}, single)
    assert single.fresh(1) == [6]
