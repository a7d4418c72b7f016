"""Property-based tests (hypothesis) for the core invariants.

These encode the correctness arguments of the paper:

* pixelization is exact on rectilinear polygons (areas == pixel counts);
* every PixelBox variant equals the exact vector overlay (§3.4's
  PostGIS cross-validation);
* the indirect-union identity |p u q| = |p| + |q| - |p n q|;
* Lemma 1 box positions agree with brute-force pixel classification;
* the Hilbert curve is a bijection; the MBR join equals brute-force
  search, pair for pair and in order;
* text serialization round-trips.
"""

import functools
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import native
from repro.backends import get_backend
from repro.errors import ParseError
from repro.exact.boolean import intersection_area, union_area
from repro.exact.decompose import decompose
from repro.exact.measure import union_area_of_boxes
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.raster import extract_polygons, fill_holes, polygon_to_mask
from repro.index.hilbert import d_to_xy, xy_to_d
from repro.index.join import SortedMBRs, mbr_pair_join, sweep_join
from repro.io import parser_cpu
from repro.io.parser_cpu import parse_fsm, parse_vectorized
from repro.io.polyfile import format_polygon, parse_line
from repro.pixelbox.common import BoxPosition, LaunchConfig, Method
from repro.pixelbox.engine import compute_pair
from repro.pixelbox.sampling import box_position
from tests.conftest import mbr_pair_join_bruteforce

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
masks = st.builds(
    lambda bits, w: np.array(bits, dtype=bool).reshape(-1, w),
    st.integers(2, 9).flatmap(
        lambda w: st.tuples(
            st.lists(st.booleans(), min_size=2 * w, max_size=8 * w).filter(
                lambda b: len(b) % w == 0
            ),
            st.just(w),
        )
    ).map(lambda t: t[0]),
    st.shared(st.integers(2, 9), key="w"),
)


@st.composite
def mask_strategy(draw, max_side=10):
    h = draw(st.integers(2, max_side))
    w = draw(st.integers(2, max_side))
    bits = draw(
        st.lists(st.booleans(), min_size=h * w, max_size=h * w)
    )
    return np.array(bits, dtype=bool).reshape(h, w)


@st.composite
def polygon_strategy(draw, max_side=10):
    mask = fill_holes(draw(mask_strategy(max_side)))
    polys = extract_polygons(mask)
    if not polys:
        # Guarantee non-empty: set one pixel.
        mask[0, 0] = True
        polys = extract_polygons(mask)
    return max(polys, key=lambda p: p.area)


@st.composite
def box_strategy(draw, span=24, max_side=10):
    x0 = draw(st.integers(-span, span))
    y0 = draw(st.integers(-span, span))
    return Box(
        x0, y0,
        x0 + draw(st.integers(1, max_side)),
        y0 + draw(st.integers(1, max_side)),
    )


# ----------------------------------------------------------------------
# Raster / geometry invariants
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(mask_strategy())
def test_extraction_conserves_area(mask):
    filled = fill_holes(mask)
    polys = extract_polygons(mask)
    assert sum(p.area for p in polys) == int(filled.sum())


@settings(max_examples=60, deadline=None)
@given(mask_strategy())
def test_extraction_rasterizes_back(mask):
    filled = fill_holes(mask)
    frame = Box(0, 0, mask.shape[1], mask.shape[0])
    acc = np.zeros_like(filled)
    for poly in extract_polygons(mask):
        acc |= polygon_to_mask(poly, frame)
    assert np.array_equal(acc, filled)


@settings(max_examples=60, deadline=None)
@given(polygon_strategy())
def test_shoelace_equals_pixel_count(poly):
    assert poly.area == int(polygon_to_mask(poly).sum())


@settings(max_examples=60, deadline=None)
@given(polygon_strategy(), st.integers(2, 5))
def test_scaling_squares_area(poly, factor):
    assert poly.scale(factor).area == poly.area * factor * factor


@settings(max_examples=60, deadline=None)
@given(polygon_strategy())
def test_decomposition_is_exact_partition(poly):
    rects = decompose(poly)
    assert sum(r.size for r in rects) == poly.area
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            assert not rects[i].intersects(rects[j])


# ----------------------------------------------------------------------
# PixelBox == exact overlay (the §3.4 validation)
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(polygon_strategy(), polygon_strategy(),
       st.sampled_from(list(Method)))
def test_pixelbox_equals_exact(p, q, method):
    res = compute_pair(p, q, method)
    assert res.intersection == intersection_area(p, q)
    assert res.union == union_area(p, q)


@settings(max_examples=30, deadline=None)
@given(polygon_strategy(), polygon_strategy(), st.integers(1, 4))
def test_pixelbox_scaled_deep_recursion(p, q, factor):
    cfg = LaunchConfig(block_size=16, pixel_threshold=16)
    ps, qs = p.scale(factor), q.scale(factor)
    res = compute_pair(ps, qs, Method.PIXELBOX, cfg)
    assert res.intersection == intersection_area(ps, qs)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(polygon_strategy(), polygon_strategy()),
                min_size=1, max_size=6))
def test_batch_kernel_equals_exact(pairs):
    res = get_backend("batch").compare_pairs(pairs)
    for k, (p, q) in enumerate(pairs):
        assert res.intersection[k] == intersection_area(p, q)
        assert res.union[k] == union_area(p, q)


@settings(max_examples=60, deadline=None)
@given(polygon_strategy(), polygon_strategy())
def test_union_identity(p, q):
    assert union_area(p, q) == p.area + q.area - intersection_area(p, q)


@settings(max_examples=60, deadline=None)
@given(polygon_strategy(), box_strategy(span=12))
def test_lemma1_against_bruteforce(poly, box):
    mask = polygon_to_mask(poly, box)
    got = box_position(box, poly)
    if mask.all():
        assert got in (BoxPosition.INSIDE, BoxPosition.HOVER)
    elif not mask.any():
        assert got in (BoxPosition.OUTSIDE, BoxPosition.HOVER)
    else:
        assert got == BoxPosition.HOVER
    # When Lemma 1 answers IN/OUT it must be exact.
    if got == BoxPosition.INSIDE:
        assert mask.all()
    if got == BoxPosition.OUTSIDE:
        assert not mask.any()


# ----------------------------------------------------------------------
# Klee measure
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.lists(box_strategy(span=15, max_side=8), max_size=12))
def test_klee_matches_mask(boxes):
    area = union_area_of_boxes(boxes)
    if not boxes:
        assert area == 0
        return
    mask = np.zeros((60, 60), dtype=bool)
    for b in boxes:
        mask[b.y0 + 25 : b.y1 + 25, b.x0 + 25 : b.x1 + 25] = True
    assert area == int(mask.sum())


# ----------------------------------------------------------------------
# Hilbert curve / R-tree
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.data())
def test_hilbert_bijection(order, data):
    side = 1 << order
    x = data.draw(st.integers(0, side - 1))
    y = data.draw(st.integers(0, side - 1))
    assert d_to_xy(order, xy_to_d(order, x, y)) == (x, y)


@settings(max_examples=25, deadline=None)
@given(st.lists(box_strategy(span=40), min_size=0, max_size=25),
       st.lists(box_strategy(span=40), min_size=0, max_size=25))
def test_join_equals_bruteforce(boxes_a, boxes_b):
    left = [RectilinearPolygon.from_box(b) for b in boxes_a]
    right = [RectilinearPolygon.from_box(b) for b in boxes_b]
    fast = mbr_pair_join(left, right)
    slow = mbr_pair_join_bruteforce(left, right)
    assert fast.left_idx.tolist() == slow.left_idx.tolist()
    assert fast.right_idx.tolist() == slow.right_idx.tolist()


# Shared coordinates make boxes touch, repeat and collapse to zero width
# or height; the outer ones sit at the int32 limits and one past them.
_COORDS = st.sampled_from((-(2**31), -(2**31) + 1, 2**31 - 1, 2**31)) | st.integers(
    -4, 4
)
_SPAN_ALL = (-(2**31) - 1, -(2**31) - 1, 2**31 + 1, 2**31 + 1)


@st.composite
def mbr_array_strategy(draw, max_size=20):
    """An ``(n, 4)`` MBR array, maybe empty, maybe with repeated rows and
    one box that spans every other box."""
    rows = []
    for _ in range(draw(st.integers(0, max_size))):
        x0, x1 = sorted(draw(st.tuples(_COORDS, _COORDS)))
        y0, y1 = sorted(draw(st.tuples(_COORDS, _COORDS)))
        rows.append((x0, y0, x1, y1))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), _SPAN_ALL)
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _overlapping_rows(a, b):
    """Every ``(i, j)`` whose rows overlap strictly, ``i`` then ``j``
    ascending, in Python integers."""
    return [
        (i, j)
        for i, (ax0, ay0, ax1, ay1) in enumerate(a.tolist())
        for j, (bx0, by0, bx1, by1) in enumerate(b.tolist())
        if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1
    ]


@settings(max_examples=200, deadline=None)
@given(mbr_array_strategy(), mbr_array_strategy())
@example(np.zeros((0, 4), dtype=np.int64), np.array([_SPAN_ALL]))
@example(  # a shared edge, a zero-width and a zero-area box
    np.array([(0, 0, 2, 2), (2, 0, 4, 2), (0, 0, 0, 2)]),
    np.array([(2, 0, 4, 2), (1, 1, 1, 1)]),
)
def test_mbr_array_join_equals_bruteforce(boxes_a, boxes_b):
    join = sweep_join(SortedMBRs.of(boxes_a), SortedMBRs.of(boxes_b))
    assert join.left_idx.dtype == join.right_idx.dtype == np.int64
    got = list(zip(join.left_idx.tolist(), join.right_idx.tolist()))
    assert got == _overlapping_rows(boxes_a, boxes_b)


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(polygon_strategy())
def test_text_roundtrip(poly):
    assert parse_line(format_polygon(poly)) == poly


def _parsers():
    """The FSM reference, then the production parser under each byte
    scan: NumPy always, C whenever a compiler is on PATH."""
    parsers = [parse_fsm, functools.partial(parser_cpu._parse, scan=parser_cpu._numpy_scan)]
    if native.load() is not None:
        parsers.append(functools.partial(parser_cpu._parse, scan=parser_cpu.compiled_scan))
    elif any(shutil.which(c) for c in native.COMPILERS):
        pytest.fail(f"a C compiler is on PATH, yet {native.status()}")
    return parsers


@settings(max_examples=30, deadline=None)
@given(st.lists(polygon_strategy(), min_size=0, max_size=6))
def test_parsers_agree(polys):
    text = "\n".join(format_polygon(p) for p in polys)
    for parse in _parsers():
        assert parse(text) == polys
    assert parse_vectorized(text) == polys


_TEXT_BYTES = b"0123456789, \t\r\n-#ab;\x00\x80\xff"


def _parse_outcome(parse, raw):
    """Polygons, or the message of the ParseError raised."""
    try:
        return list(parse(raw))
    except ParseError as exc:
        return ("ParseError", str(exc))


@st.composite
def polygon_text(draw):
    """Valid polygon lines (and a comment) with a few bytes overwritten."""
    lines = [format_polygon(p) for p in draw(st.lists(polygon_strategy(4), max_size=3))]
    raw = bytearray("\n".join(["# head"] + lines).encode())
    for _ in range(draw(st.integers(0, 3))):
        if raw:
            raw[draw(st.integers(0, len(raw) - 1))] = draw(st.sampled_from(_TEXT_BYTES))
    return bytes(raw)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=60).map(
    lambda b: bytes(_TEXT_BYTES[c % len(_TEXT_BYTES)] for c in b)), polygon_text()))
@example(b"0,0 -4,0 -4,4 0,4")
@example(b"0,0 4,0 4,4 0,4\n1,1 3,1 3,3 1,3 # note")
@example(b"0,0 4,0 4;4 0,4")
@example(b"0,0 100000000000000000,0 100000000000000000,4 0,4")  # 18 digits
@example(b"0,0 1000000000000000000,0 1000000000000000000,4 0,4")  # 19 digits
@example(b"0,0 4,0 4,4 0,4\n1,1 3,1 3,3 1,3")  # last line without a newline
@example(b"0,0 4,0 4,4 0,4#")  # a ``#`` directly after a digit
@example(b"# head\r\n0,0 4,0 4,4 0,4\r\n1,1 3,1 3,3 1,3\r\n")  # CRLF
@example(b"")
@example(b"# only\n\n  # comments")
@example(b"0,0 4,0\x00 4,4 0,4")  # NUL
@example(b"0,0 4,0 4,4 0,4\n\x80\xff")  # bytes of 0x80 and above
def test_parsers_accept_and_reject_alike(raw):
    """The production parser, under either byte scan, accepts exactly
    what the FSM accepts: equal polygons, or a ParseError with the same
    message."""
    fsm, *vectorized = (_parse_outcome(parse, raw) for parse in _parsers())
    assert vectorized == [fsm] * len(vectorized)
