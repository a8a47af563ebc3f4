"""Exact planar predicates on integer points.

All plabic-triangulation geometry in this package lives on integer
coordinates (sums of moment-curve values), so every predicate here is
integer arithmetic; no floats, no epsilons.  Where centroids or midpoints
are needed, callers pass coordinates scaled by 3, or by 6 for both, to stay
integral.
"""

from __future__ import annotations

from typing import Sequence

Point = tuple[int, int]


def orient(o: Point, a: Point, b: Point) -> int:
    """Sign of the cross product (a-o) x (b-o): +1 left turn, -1 right, 0 collinear."""
    v = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return (v > 0) - (v < 0)


def shoelace2(points: Sequence[Point]) -> int:
    """Twice the signed area of a closed polygonal walk (positive = CCW)."""
    total = 0
    m = len(points)
    for i in range(m):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % m]
        total += x0 * y1 - x1 * y0
    return total


def triangle_area2(a: Point, b: Point, c: Point) -> int:
    return abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def winding_number(walk: Sequence[Point], z: Point) -> int:
    """Winding number of a closed walk around z, counting clockwise turns
    as positive.

    Counts signed crossings of the horizontal ray from z to -infinity.  It is
    undefined for a point on the walk, so such a z raises ValueError.
    """
    if not walk:
        return 0
    zx, zy = z
    w = 0
    px, py = walk[-1]
    for qx, qy in walk:
        if py <= zy <= qy or qy <= zy <= py:
            # orient(p, q, z), inlined
            o = (qx - px) * (zy - py) - (qy - py) * (zx - px)
            if o == 0 and (px <= zx <= qx or qx <= zx <= px):
                raise ValueError("point %s lies on the walk" % (z,))
            if py <= zy < qy and o < 0:
                w += 1
            elif qy <= zy < py and o > 0:
                w -= 1
        px, py = qx, qy
    return w
