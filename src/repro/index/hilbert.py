"""Hilbert space-filling curve (2-D).

The paper's builder stage uses a Hilbert R-tree (§4.1, citing Kamel &
Faloutsos) because bulk-loading small polygons in Hilbert order is fast
and yields well-clustered leaves; here that tree indexes the SDBMS
baseline's tables.  This module provides the curve itself:
a bijection between ``(x, y)`` cells of a ``2**order x 2**order`` grid and
positions along the curve.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexError_

__all__ = ["xy_to_d", "d_to_xy", "hilbert_keys"]


def xy_to_d(order: int, x: int, y: int) -> int:
    """Curve position of cell ``(x, y)`` on a ``2**order`` grid."""
    _check(order, x, y)
    rx = ry = 0
    d = 0
    s = 1 << (order - 1)
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        x, y = _rotate(s, x, y, rx, ry)
        s //= 2
    return d


def d_to_xy(order: int, d: int) -> tuple[int, int]:
    """Cell coordinates of curve position ``d`` (inverse of xy_to_d)."""
    side = 1 << order
    if not 0 <= d < side * side:
        raise IndexError_(f"curve position {d} out of range for order {order}")
    x = y = 0
    t = d
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        x, y = _rotate(s, x, y, rx, ry)
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return (x, y)


def hilbert_keys(order: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized ``xy_to_d`` for arrays of cell coordinates.

    Coordinates outside the grid are clamped — the curve is used as a
    sort key, so clamping only affects clustering quality at the image
    fringe, never correctness.
    """
    side = 1 << order
    x = np.clip(np.asarray(xs, dtype=np.int64), 0, side - 1).copy()
    y = np.clip(np.asarray(ys, dtype=np.int64), 0, side - 1).copy()
    d = np.zeros_like(x)
    s = side // 2
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant (vectorized form of _rotate).
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x, y = (np.where(swap, y_f, x_f), np.where(swap, x_f, y_f))
        s //= 2
    return d


def _rotate(s: int, x: int, y: int, rx: int, ry: int) -> tuple[int, int]:
    """Rotate/flip a quadrant so the curve orientation is preserved."""
    if ry == 0:
        if rx == 1:
            x = s - 1 - x
            y = s - 1 - y
        x, y = y, x
    return (x, y)


def _check(order: int, x: int, y: int) -> None:
    if order < 1 or order > 31:
        raise IndexError_(f"hilbert order must be in [1, 31], got {order}")
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise IndexError_(
            f"cell ({x}, {y}) outside the 2^{order} grid"
        )
