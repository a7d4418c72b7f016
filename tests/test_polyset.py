"""PolygonSet: whole-set geometry equals the per-object geometry.

The set derives areas, MBRs and the kernel's CSR edge table for all its
rings at once; these tests hold it byte-for-byte to independent per-ring
references (the ``np.roll`` derivations and the per-polygon
``EdgeTable.build`` loop the set replaced), and hold its validator to
the exact error :class:`RectilinearPolygon` raises for each bad ring.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError, RectilinearityError, RingClosureError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon, first_invalid_ring
from repro.geometry.polyset import EdgeTable, PolygonSet
from repro.geometry.raster import extract_polygons, fill_holes
from repro.pixelbox.kernel import PairBatch


def rolled_edges(v):
    """Per-ring ``(vertical, horizontal)`` edges by ``np.roll``."""
    w = np.roll(v, -1, axis=0)
    out = []
    for axis in (0, 1):
        along = v[:, axis] == w[:, axis]
        a, b = v[along, 1 - axis], w[along, 1 - axis]
        out.append(np.column_stack([v[along, axis], np.minimum(a, b), np.maximum(a, b)]))
    return out


def reference_table(polygons):
    """The per-polygon ``EdgeTable.build`` loop, over rolled edges."""
    offsets = np.zeros(len(polygons) + 1, dtype=np.int64)
    v_chunks, h_chunks = [], []
    for i, poly in enumerate(polygons):
        v_edges, h_edges = rolled_edges(poly.vertices)
        assert len(v_edges) == len(h_edges)
        offsets[i + 1] = offsets[i] + len(v_edges)
        v_chunks.append(v_edges)
        h_chunks.append(h_edges)
    v_flat = np.concatenate(v_chunks + [np.zeros((0, 3), np.int64)]).astype(np.int32)
    h_flat = np.concatenate(h_chunks + [np.zeros((0, 3), np.int64)]).astype(np.int32)
    columns = (*v_flat.T, *h_flat.T)
    return EdgeTable(*(np.ascontiguousarray(c) for c in columns), offsets)


def assert_tables_equal(got, want):
    for f in fields(EdgeTable):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


@st.composite
def rings(draw):
    """A valid ring: the largest traced component of a random mask,
    shifted, and traversed either way."""
    h, w = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    bits = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    mask = fill_holes(np.array(bits, dtype=bool).reshape(h, w))
    mask[0, 0] = True
    poly = max(extract_polygons(mask), key=lambda p: p.area)
    poly = poly.translate(draw(st.integers(-50, 50)), draw(st.integers(-50, 50)))
    return poly.reversed() if draw(st.booleans()) else poly


@settings(max_examples=60, deadline=None)
@given(st.lists(rings(), max_size=8), st.data())
def test_set_geometry_equals_per_object_geometry(polys, data):
    pset = PolygonSet.from_polygons(polys)
    assert len(pset) == len(polys) and list(pset) == polys
    assert PolygonSet(pset.vertices, pset.offsets) == pset  # validates
    shoelace = [
        abs(int(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])) // 2)
        for v in (p.vertices for p in polys)
    ]
    assert pset.areas.tolist() == shoelace == [p.area for p in polys]
    assert pset.mbrs.reshape(-1, 4).tolist() == [list(p.mbr.as_tuple()) for p in polys]
    for poly in polys:
        for got, want in zip((poly.vertical_edges, poly.horizontal_edges), rolled_edges(poly.vertices)):
            assert got.tobytes() == want.tobytes()
    assert_tables_equal(pset.edges, reference_table(polys))
    idx = np.array(
        data.draw(st.lists(st.integers(0, max(len(polys) - 1, 0)), max_size=10 if polys else 0)),
        dtype=np.int64,
    )
    assert_tables_equal(pset.edges.take(idx), reference_table([polys[i] for i in idx]))


BAD_RINGS = {
    "too few": [(0, 0), (4, 0), (4, 4)],
    "closure": [(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)],
    "odd count": [(0, 0), (4, 0), (4, 4), (2, 4), (0, 4)],
    "diagonal": [(0, 0), (4, 0), (4, 4), (1, 5)],
    "diagonal closing edge": [(0, 0), (4, 0), (4, 4), (1, 4)],
    "zero length": [(0, 0), (4, 0), (4, 0), (4, 4), (0, 4), (0, 4)],
    "non-alternating": [(0, 0), (2, 0), (4, 0), (4, 4), (2, 4), (0, 4)],
}


def error_of(vertices):
    with pytest.raises(GeometryError) as info:
        RectilinearPolygon(vertices)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(BAD_RINGS))
@pytest.mark.parametrize("at", [0, 3])
@pytest.mark.parametrize("empty_after", [False, True])
def test_set_raises_the_per_object_error(name, at, empty_after):
    good = [RectilinearPolygon.from_box(Box(i, 0, i + 3, 2)).vertices for i in range(3)]
    bad = np.array(BAD_RINGS[name], dtype=np.int64)
    # An empty ring after the bad one (trailing when ``at`` is 3) must not
    # take the bad ring's last vertex out of its checks.
    rings_ = good[:at] + [bad] + [np.zeros((0, 2), np.int64)] * empty_after + good[at:]
    offsets = np.cumsum([0] + [len(r) for r in rings_])
    vertices = np.concatenate(rings_)
    assert first_invalid_ring(vertices, offsets)[0] == at
    with pytest.raises(GeometryError) as info:
        PolygonSet(vertices, offsets)
    assert (type(info.value), str(info.value)) == error_of(bad)
    assert type(info.value) in (RectilinearityError, RingClosureError)


@settings(max_examples=80, deadline=None)
@given(rings(), st.sampled_from(["close", "drop", "shift", "repeat", "split"]), st.data())
def test_mutated_ring_errors_match(poly, mutation, data):
    v = poly.vertices.tolist()
    k = data.draw(st.integers(0, len(v) - 1))
    if mutation == "close":
        v.append(v[0])
    elif mutation == "drop":
        del v[k]
    elif mutation == "shift":
        v[k] = [v[k][0] + 1, v[k][1]]
    elif mutation == "repeat":
        v.insert(k, v[k])
    else:  # a collinear vertex on an edge, twice: an even count that stops alternating
        for _ in range(2):
            (x0, y0), (x1, y1) = v[k], v[(k + 1) % len(v)]
            v.insert(k + 1, [(x0 + x1) // 2, (y0 + y1) // 2] if abs(x1 - x0) + abs(y1 - y0) > 1 else v[k])
    bad = np.array(v, dtype=np.int64)
    want = error_of(bad)
    with pytest.raises(GeometryError) as info:
        PolygonSet(bad, [0, len(bad)])
    assert (type(info.value), str(info.value)) == want


def test_edge_table_rejects_coordinates_beyond_int32():
    big = RectilinearPolygon.from_box(Box(2**31 - 2, 0, 2**31 + 2, 4))
    pset = PolygonSet.from_polygons([RectilinearPolygon.from_box(Box(0, 0, 2, 2)), big])
    assert pset.areas.tolist() == [4, 16]  # int64 geometry is fine
    with pytest.raises(GeometryError, match=r"polygon 1: vertex \(2147483650, 0\)"):
        pset.edges


def test_views_and_batches_share_the_set():
    polys = [RectilinearPolygon.from_box(Box(i, i, i + 2, i + 3)) for i in range(4)]
    pset = PolygonSet.from_polygons(polys)
    assert PolygonSet.from_polygons(pset) is pset
    assert pset[-1] == polys[3] and pset == PolygonSet.from_polygons(polys[:])
    with pytest.raises(IndexError):
        pset[4]
    assert not pset[0].vertices.flags.writeable
    pairs = [(polys[0], polys[1]), (polys[0], polys[2]), (polys[3], polys[1])]
    batch = PairBatch.from_pairs(pairs)
    assert PairBatch.from_pairs(batch) is batch
    assert batch.left_idx.tolist() == [0, 0, 1] and batch.right_idx.tolist() == [0, 1, 0]
    assert list(batch.left) == [polys[0], polys[3]]
    assert len(batch[1:]) == 2 and batch[1:].left is batch.left
    with pytest.raises(GeometryError, match="offsets"):
        PolygonSet(pset.vertices, [0, 3])
