import numpy as np
import pytest

from logiczono.bitvec import BitMatrix, BitVector
from logiczono.points import PointSet, enumerate_points
from logiczono.sets import (
    ConstrainedPolyLogicalZonotope as CPLZ,
    LogicalZonotope,
    PolyLogicalZonotope,
)
from logiczono.setio import (
    load_bindings,
    load_input_bindings,
    set_from_json,
    set_from_points,
    set_to_json,
)
from conftest import random_cplz


def test_bitstring_orientation():
    doc = {"kind": "lz", "n": 2, "c": "10", "G": []}
    s = set_from_json(doc)
    assert s.c[0] == 1 and s.c[1] == 0


def test_lz_roundtrip():
    l = LogicalZonotope(
        BitVector.from01("011"),
        BitMatrix.from_columns([BitVector.from01("110"), BitVector.from01("001")]),
    )
    doc = set_to_json(l)
    assert doc == {"kind": "lz", "n": 3, "c": "011", "G": ["110", "001"]}
    back = set_from_json(doc)
    assert back.c == l.c and back.G == l.G


def test_plz_roundtrip(alloc):
    p = PolyLogicalZonotope(
        BitVector.from01("01"),
        BitMatrix.from_columns([BitVector.from01("10")]),
        BitMatrix.from_bool(np.array([[1], [0]], dtype=bool)),
        alloc.fresh(2),
    )
    back = set_from_json(set_to_json(p))
    assert isinstance(back, PolyLogicalZonotope)
    assert back.E == p.E and list(back.id) == list(p.id)


def test_cplz_roundtrip(rng, alloc):
    for _ in range(20):
        z = random_cplz(rng, alloc)
        back = set_from_json(set_to_json(z))
        assert isinstance(back, CPLZ)
        assert (back.c, back.G, back.E, back.A, back.b, back.R, tuple(back.id)) == (
            z.c, z.G, z.E, z.A, z.b, z.R, tuple(z.id),
        )
        assert enumerate_points(back) == enumerate_points(z)


def test_absent_fields_default_empty():
    s = set_from_json({"kind": "cplz", "n": 2, "c": "10", "id": []})
    assert s.h == 0 and s.p == 0 and s.m == 0 and s.q == 0
    assert enumerate_points(s) == PointSet.from_bitstrings(["10"])


def test_matrix_column_length_checked():
    with pytest.raises(ValueError):
        set_from_json({"kind": "lz", "n": 3, "c": "000", "G": ["10"]})


def test_unknown_kind():
    with pytest.raises(ValueError):
        set_from_json({"kind": "interval", "n": 1, "c": "0"})


def test_points_shorthand_pair(alloc):
    z = set_from_points(["1001", "0110"], alloc)
    assert z.p == 1
    assert enumerate_points(z) == PointSet.from_bitstrings(["1001", "0110"])


def test_points_shorthand_affine_quad(alloc):
    quad = ["00", "01", "10", "11"]
    z = set_from_points(quad, alloc)
    assert z.p == 2
    assert enumerate_points(z) == PointSet.from_bitstrings(quad)


def test_points_shorthand_singleton(alloc):
    z = set_from_points(["111"], alloc)
    assert z.h == 0 and z.p == 0


def test_points_shorthand_non_affine_is_one_set(alloc):
    three = ["00", "01", "10"]
    z = set_from_points(three, alloc)
    assert isinstance(z, CPLZ) and z.p == 2 and z.m == 0
    assert enumerate_points(z) == PointSet.from_bitstrings(three)


def test_points_shorthand_dedup(alloc):
    z = set_from_points(["01", "01"], alloc)
    assert z.h == 0


def test_points_mixed_lengths_rejected(alloc):
    with pytest.raises(ValueError):
        set_from_points(["0", "00"], alloc)


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
