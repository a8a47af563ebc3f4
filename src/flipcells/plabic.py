"""Plabic triangulations, their moves, and the complexes X, Y and T.

The canonical representation of a trivalent plabic graph is its plabic
triangulation: vertex labels are k-subsets of [n] (stored as bitmasks),
placed at the exact integer point (sum t_i, sum t_i^2) over the label, with
the boundary given by the Grassmann-necklace walk.  Triangle colors are
derived from labels alone: a triple with a common (k-1)-intersection is
white, one with a (k+1)-union is black.

The moves (white/black trivalent flips and the square relabeling), the
seed and the flip-graph enumeration operate on this representation.  The
cross sections of Z(n, 3) tilings, the dual plabic graph, the UP/DOWN layer
machinery, move realization and SVG export are in `sections`, which the
package loads on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import combinat
from .combinat import (
    BLACK,
    SITE_CACHE_SIZE,
    WHITE,
    DecoratedPermutation,
    GrassmannNecklace,
    elems_of,
    mask_of,
)
from .errors import (
    ArgumentError,
    MalformedGraphError,
    PreconditionError,
    ValidationError,
)
from .flipgraph import (
    DEFAULT_VERTEX_CAP,
    FlipGraph,
    PayloadView,
    bfs_closure,
    collector_paused,
    commuting_square,
    move_cycle,
    sorted_cells,
    union_classes,
)
from .geometry import orient, shoelace2, triangle_area2, winding_number


@lru_cache(maxsize=None)
def pos(mask: int) -> tuple[int, int]:
    """Exact planar position of a label: (sum of t_i, sum of t_i^2), t_i = i."""
    y = z = 0
    m = mask
    while m:
        low = m & -m
        i = low.bit_length()
        y += i
        z += i * i
        m ^= low
    return (y, z)


def cyclic_walk(n: int, k: int) -> tuple[int, ...]:
    """Boundary walk of the full cross-section: necklace of pi(n, k)."""
    return combinat.necklace_masks(combinat.cyclic_decorated(n, k))


@lru_cache(maxsize=1)
def walked_segments(boundary: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The segments a boundary walk steps along, as sorted label pairs.

    Every vertex of a flip graph has the same walk, so one entry serves a
    whole build; a sweep over connectivities keeps no stale walks.
    """
    return frozenset(
        [(a, b) if a < b else (b, a) for a, b in zip(boundary, boundary[1:] + boundary[:1]) if a != b]
    )


@lru_cache(maxsize=SITE_CACHE_SIZE)
def triangle_color(tri: tuple[int, int, int]) -> str:
    """WHITE or BLACK; raises ValidationError for a triple that is neither,
    which the memo does not store, so a repeat raises again."""
    a, b, c = tri
    k = bin(a).count("1")
    if bin(a & b & c).count("1") == k - 1:
        return WHITE
    if bin(a | b | c).count("1") == k + 1:
        return BLACK
    raise ValidationError("label triple %s is neither white nor black" % (tri,))


@lru_cache(maxsize=SITE_CACHE_SIZE)
def _ccw_sides(tri) -> tuple[tuple[tuple[int, int], int, int], ...]:
    """The sides of a sorted triangle in counterclockwise order, each as
    (sorted label pair, opposite label, +1 or -1 as the opposite label lies
    left or right of the pair read from its smaller label).

    The sides run counterclockwise as their opposite labels do.  A white or
    black triangle is never flat: its points lie on a translate of the
    moment curve.
    """
    a, b, c = tri
    s = orient(pos(a), pos(b), pos(c))
    if s > 0:
        return (((b, c), a, s), ((a, c), b, -s), ((a, b), c, s))
    return (((b, c), a, s), ((a, b), c, s), ((a, c), b, -s))


@lru_cache(maxsize=SITE_CACHE_SIZE)
def _area2(tri) -> int:
    """Twice the area of a triangle."""
    a, b, c = tri
    return triangle_area2(pos(a), pos(b), pos(c))


def _norm_tri(labels) -> tuple[int, int, int]:
    t = tuple(sorted(labels))
    if len(set(t)) != 3:
        raise ValidationError("triangle needs three distinct labels")
    return t


@dataclass(frozen=True)
class PlabicTriangulation:
    """A labeled 2-colored triangulation of the region inside a necklace walk."""

    n: int
    k: int
    triangles: tuple[tuple[int, int, int], ...]
    boundary: tuple[int, ...]

    def __post_init__(self):
        if len(self.boundary) != self.n:
            raise ValidationError("boundary walk must have n entries")
        if tuple(sorted(self.triangles)) != self.triangles:
            raise ValidationError("triangles must be stored sorted")

    @staticmethod
    def make(n: int, k: int, triangles, boundary) -> "PlabicTriangulation":
        tris = tuple(sorted(_norm_tri(t) for t in triangles))
        return PlabicTriangulation(n, k, tris, tuple(boundary))

    def key(self) -> tuple[tuple[int, int, int], ...]:
        return self.triangles

    def labels(self) -> frozenset[int]:
        out = set(self.boundary)
        for t in self.triangles:
            out.update(t)
        return frozenset(out)

    def interior_labels(self) -> frozenset[int]:
        return self.labels() - set(self.boundary)

    def necklace(self) -> GrassmannNecklace:
        return GrassmannNecklace.make(self.n, [elems_of(m) for m in self.boundary])

    def walk_steps(self) -> list[tuple[int, int, int]]:
        """Non-degenerate boundary steps (i, from_label, to_label), 1-based i."""
        out = []
        for i in range(1, self.n + 1):
            a = self.boundary[i - 1]
            b = self.boundary[i % self.n]
            if a != b:
                out.append((i, a, b))
        return out

    def boundary_area2(self) -> int:
        return abs(shoelace2([pos(m) for m in self.boundary]))

    def triangles_area2(self) -> int:
        return sum(map(_area2, self.triangles))

    def check(self) -> None:
        """Structural invariants: label sizes, colors, distinct triangles,
        area, weak separation."""
        for lab in self.labels():
            if bin(lab).count("1") != self.k or lab >> self.n:
                raise ValidationError("label %s is not a k-subset of [n]" % (elems_of(lab),))
        for t in self.triangles:
            triangle_color(t)
        # a doubled triangle can stand in for a missing one of equal area
        if len(set(self.triangles)) != len(self.triangles):
            raise ValidationError("a triangle is listed twice")
        if self.triangles_area2() != self.boundary_area2():
            raise ValidationError("triangles do not tile the boundary region")
        # pairwise, so the cost is bounded by the labels held, not by C(n, k)
        for a, b in itertools.combinations(sorted(self.labels()), 2):
            if not combinat.is_weakly_separated_mask(a, b):
                raise ValidationError(
                    "labels %s and %s are not weakly separated" % (elems_of(a), elems_of(b))
                )

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "k": self.k,
            "triangles": [
                {"labels": [list(elems_of(l)) for l in t], "color": triangle_color(t)}
                for t in self.triangles
            ],
            "boundary": [list(elems_of(m)) for m in self.boundary],
            "positions": {
                ",".join(map(str, elems_of(l))): list(pos(l)) for l in sorted(self.labels())
            },
        }

    @staticmethod
    def from_json(data: dict) -> "PlabicTriangulation":
        """Read the `to_json` form; colors and positions are recomputed.
        JSON of another shape, or a triangulation that fails `check`,
        raises ValidationError."""
        n = data.get("n") if isinstance(data, dict) else None
        if not (
            type(n) is int
            and type(data.get("k")) is int
            and isinstance(data.get("triangles"), list)
            and isinstance(data.get("boundary"), list)
            and all(combinat.is_subset_json(b, n) for b in data["boundary"])
            and all(
                isinstance(t, dict)
                and isinstance(t.get("labels"), list)
                and all(combinat.is_subset_json(l, n) for l in t["labels"])
                for t in data["triangles"]
            )
        ):
            raise ValidationError(
                'a plabic triangulation is {"n": int, "k": int, "triangles": '
                '[{"labels": [subset, ...]}, ...], "boundary": [subset, ...]} '
                "with subsets of [n] as lists"
            )
        tris = [tuple(mask_of(l) for l in t["labels"]) for t in data["triangles"]]
        boundary = [mask_of(b) for b in data["boundary"]]
        sigma = PlabicTriangulation.make(data["n"], data["k"], tris, boundary)
        sigma.check()
        return sigma


# ---------------------------------------------------------------------------
# the dual graph's links and strands, walked on the triangles


def _dual_links(sigma: PlabicTriangulation):
    """The links of the dual graph, read off the triangles.

    Side s of triangle t, counted in `_ccw_sides` order, is slot 3t + s.
    Returns the triangle colors, the `_ccw_sides` of each triangle, `link`
    and `entry`.  `link[slot]` is the slot across the side's interior
    segment, -i when the leg b_i crosses the side, or None when no dual
    edge does.  `entry[i]`, for each boundary step I_i -> I_{i+1} that
    moves, is the slot its leg crosses, or -j for a direct b_i -- b_j
    edge.  Raises ValidationError when the triangles do not tile the
    region inside the walk.
    """
    colors = list(map(triangle_color, sigma.triangles))
    sides = list(map(_ccw_sides, sigma.triangles))
    # seg_map[seg]: (slot, +1 or -1 as the opposite label lies left or
    # right of seg) of every side along seg
    seg_map: dict[tuple[int, int], list[tuple[int, int]]] = {}
    slot = 0
    for tri_sides in sides:
        for seg, _, side in tri_sides:
            seg_map.setdefault(seg, []).append((slot, side))
            slot += 1
    link: list[int | None] = [None] * slot
    walked = walked_segments(sigma.boundary)
    for seg, lst in seg_map.items():
        if seg in walked:
            continue
        if len(lst) == 1:
            raise ValidationError(
                "interior segment %s borders a single triangle" % (seg,)
            )
        if len(lst) != 2:
            raise ValidationError("segment %s borders %d triangles" % (seg, len(lst)))
        (s1, side1), (s2, side2) = lst
        if side1 == side2:
            raise ValidationError("triangles overlap across segment %s" % (seg,))
        link[s1] = s2
        link[s2] = s1

    walk = sigma.boundary
    steps = list(zip(walk, walk[1:] + walk[:1]))
    entry: dict[int, int] = {}
    index = None  # step -> its number, or 0 if the walk takes it twice; built at the first hanging step
    for i, (a, b) in enumerate(steps, 1):
        if a == b:
            continue
        up, seg = (1, (a, b)) if a < b else (-1, (b, a))
        inner = None
        for s, side in seg_map.get(seg, ()):
            if side == up:
                if inner is not None:
                    raise ValidationError("boundary step %d has two inner triangles" % i)
                inner = s
        if inner is not None:
            if link[inner] is not None:
                raise ValidationError("boundary steps %d and %d cross one side" % (-link[inner], i))
            link[inner] = -i
            entry[i] = inner
            continue
        if index is None:
            index = {}
            for j, step in enumerate(steps, 1):
                index[step] = 0 if step in index else j
        partner = index.get((b, a))
        if not partner:
            raise ValidationError("hanging boundary step %d has no reverse partner" % i)
        entry[i] = -partner
    return colors, sides, link, entry


def trip_permutation(sigma: PlabicTriangulation) -> DecoratedPermutation:
    """`sections.strand_permutation(sections.dual_graph(sigma))`, walked on
    the triangles.

    A strand that enters a triangle across one side leaves it across the
    next side counterclockwise at a white triangle and the previous one at
    a black triangle, counting only the sides the dual graph has an edge
    across.  Raises what `dual_graph` and `strand_permutation` raise on the
    same triangulation.
    """
    return DecoratedPermutation.make(*_trips(sigma))


def _trips(sigma: PlabicTriangulation) -> tuple[tuple[int, ...], dict[int, str]]:
    """The image and the fixed-point colors of `trip_permutation`."""
    n, walk = sigma.n, sigma.boundary
    colors, _, link, entry = _dual_links(sigma)
    # a strand that enters a triangle at one slot leaves it at the next
    # linked slot counterclockwise (white, +1) or clockwise (black, +2) and
    # crosses to `link` of that slot.  That step is one-to-one and no slot
    # a leg enters by is in its image, so every walk ends at a leg.
    turn = [1 if c == WHITE else 2 for c in colors]
    # each b_i has its leg, its direct edge or, at a step that stays put,
    # its fixed point; a direct edge to b_j is a second edge at b_j unless
    # b_j's direct edge is the same one
    extra = [-s for i, s in entry.items() if s < 0 and entry[-s] != -i]
    if extra:
        raise MalformedGraphError("boundary vertex b_%d must have exactly one edge" % min(extra))

    image = []
    fixed = {}
    for i in range(1, n + 1):
        at = entry.get(i)
        if at is None:
            image.append(i)
            fixed[i] = BLACK if walk[i - 1] >> (i - 1) & 1 else WHITE
            continue
        while at >= 0:
            t, s = divmod(at, 3)
            base, step = 3 * t, turn[t]
            s = (s + step) % 3
            while link[base + s] is None:
                s = (s + step) % 3
            at = link[base + s]
        image.append(-at)
        if -at == i:
            # a strand back at its own leg through a triangle with one edge
            # is a fixed point of that triangle's color, as in the dual graph
            base = entry[i] - entry[i] % 3
            one_edge = link[base : base + 3].count(None) == 2
            fixed[i] = colors[base // 3] if one_edge else WHITE
    return tuple(image), fixed


# ---------------------------------------------------------------------------
# moves


@dataclass(frozen=True)
class Move:
    """A local move: remove some triangles, add others.

    kind M1 = white trivalent flip, M3 = black trivalent flip, M2 = square
    relabeling (center -> replacement).
    """

    kind: str
    removed: tuple[tuple[int, int, int], ...]
    added: tuple[tuple[int, int, int], ...]
    center: int = 0
    replacement: int = 0

    def __hash__(self) -> int:
        """The hash of the fields, computed once per move: every stored-move
        lookup hashes its key, and each site's `Move` is one shared object."""
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self.removed, self.added, self.center, self.replacement))

    def support_labels(self) -> frozenset[int]:
        """The labels of the removed and added triangles.

        Computed once per move and shared by every caller.
        """
        return self._support

    @cached_property
    def _support(self) -> frozenset[int]:
        out = set()
        for t in self.removed + self.added:
            out.update(t)
        return frozenset(out)

    @cached_property
    def _span(self) -> tuple[int, int]:
        """The AND and the OR of the support labels."""
        common, union = -1, 0
        for lab in self._support:
            common &= lab
            union |= lab
        return common, union


def available_moves(sigma: PlabicTriangulation) -> tuple[Move, ...]:
    """All moves available in sigma, sorted canonically: the sites of its
    triangles (`_triangle_sites`) that lie in sigma, off the boundary walk.
    sigma need not be a triangulation (the sections of a tiling that is not
    fine overlap), so a flip counts only when its side borders two of
    sigma's triangles, and a square move only when its center lies in four.
    A triangle listed twice, or one `_triangle_sites` rejects, raises
    ValidationError."""
    n, k, tris = sigma.n, sigma.k, sigma.triangles
    have = set(tris)
    if len(have) != len(tris):
        raise ValidationError("a triangle is listed twice")
    avoid = walked_segments(sigma.boundary).union(sigma.boundary)
    by_kind: dict[str, list[Move]] = {"M1": [], "M2": [], "M3": []}  # each comes out sorted, as `tris` is
    for t in tris:
        for move, at in _triangle_sites(n, k, t):
            if at in avoid or not have.issuperset(move.removed):
                continue
            if move.kind == "M2":
                whole = sum(at in u for u in tris) == 4
            else:
                whole = sum(at[0] in u and at[1] in u for u in tris) == 2
            if whole:
                by_kind[move.kind].append(move)
    return tuple(by_kind["M1"] + by_kind["M2"] + by_kind["M3"])


@lru_cache(maxsize=SITE_CACHE_SIZE)
def _triangle_sites(n: int, k: int, t: tuple[int, int, int]) -> tuple[tuple[Move, object], ...]:
    """The moves whose first removed triangle is t, in (kind, removed,
    added) order, each with the side it flips or the center it relabels.

    Oh-Postnikov-Speyer's rule decides each move from its own triangles: a
    flip of t and a later triangle of its color across a side (`_flip_move`),
    or a square move at a label of t whose star is the square pattern
    (`_square_move`).  The white triangles on a side (a, b) add an element
    outside a | b to a & b; the black ones take an element of a & b out of
    a | b.  Raises ValidationError unless t is a white or black triangle of
    increasing k-subsets of [n]."""
    a, b, c = t
    if not (a < b < c and a.bit_count() == b.bit_count() == c.bit_count() == k and not c >> n):
        raise ValidationError("triangle %s is not on increasing k-subsets of [n]" % (t,))
    white = triangle_color(t) == WHITE
    found = []
    for side in ((a, b), (a, c), (b, c)):
        low, high = side[0] & side[1], side[0] | side[1]
        thirds = [low | x for x in _bits(~high & (1 << n) - 1)] if white else [high ^ y for y in _bits(low)]
        for other in (tuple(sorted((*side, third))) for third in thirds):
            move = _flip_move(t, other) if other > t else None
            if move is not None:
                found.append((move, side))
    for center in t:
        for star in _square_stars(n, center, t):
            if star[0] == t:
                found.append((_square_move(center, star), center))
    found.sort(key=lambda site: (site[0].kind, site[0].removed, site[0].added))
    return tuple(found)


@lru_cache(maxsize=SITE_CACHE_SIZE)
def _square_move(center: int, star: tuple[tuple[int, int, int], ...]) -> Move | None:
    """The square move at `center`, whose star is the four distinct sorted
    triangles `star`, or None unless the five labels form a square.

    The labels decide it alone (Oh-Postnikov-Speyer).  If they form a
    square, the center is Sxy and each outer label S plus two of x, y, z,
    w.  A triangle {Sxy, p, q} is white only for {Sxz, Sxw} or {Syz, Syw},
    black only for {Sxz, Syz} or {Sxw, Syw}, and neither for any other
    pair, which `triangle_color` rejects.  So four colored triangles are
    these four, and their colors alternate around the center."""
    for t in star:
        triangle_color(t)
    v2 = square_relabel(center, {x for t in star for x in t if x != center})
    if v2 is None:
        return None
    added = tuple(sorted(_norm_tri([v2 if x == center else x for x in t]) for t in star))
    return Move("M2", star, added, center=center, replacement=v2)


@lru_cache(maxsize=SITE_CACHE_SIZE)
def _flip_move(t1: tuple[int, int, int], t2: tuple[int, int, int]) -> Move | None:
    """The flip of the diagonal shared by triangles t1 < t2, or None unless
    they have one color and form a convex quadrilateral.  Every caller
    passes two triangles with a common side; other triangles raise
    ValueError at the unpacking."""
    c1 = triangle_color(t1)
    if c1 != triangle_color(t2):
        return None
    ((a,), (d,)) = set(t1).difference(t2), set(t2).difference(t1)
    b_, c_ = (x for x in t1 if x != a)
    if orient(pos(a), pos(d), pos(b_)) * orient(pos(a), pos(d), pos(c_)) >= 0:
        return None
    if orient(pos(b_), pos(c_), pos(a)) * orient(pos(b_), pos(c_), pos(d)) >= 0:
        return None
    added = tuple(sorted((_norm_tri((a, b_, d)), _norm_tri((a, c_, d)))))
    return Move("M1" if c1 == WHITE else "M3", (t1, t2), added)


def square_relabel(center: int, outer) -> int | None:
    """The label that replaces `center` in a square move whose four outer
    labels are `outer`, or None if the five labels do not form a square."""
    common = union = center
    for lab in outer:
        common &= lab
        union |= lab
    diff = union & ~common
    if len(outer) != 4 or bin(diff).count("1") != 4:
        return None
    return common | (diff & ~center)


def apply_move(sigma: PlabicTriangulation, move: Move) -> PlabicTriangulation:
    if move not in available_moves(sigma):
        raise PreconditionError("move is not available in this triangulation")
    tris = set(sigma.triangles)
    tris.difference_update(move.removed)
    tris.update(move.added)
    return PlabicTriangulation.make(sigma.n, sigma.k, tris, sigma.boundary)


# ---------------------------------------------------------------------------
# the Oh-Postnikov-Speyer realization from a label collection


def _tile_labels(n: int, k: int, labels: list[int], walk: tuple[int, ...], chords=()) -> PlabicTriangulation:
    """`sections.triangulation_from_labels` on sorted, weakly separated
    label masks and a walk of masks.

    Each clique polygon is triangulated so that the `chords` (sorted label
    pairs) among its vertices are kept, and fanned from its least label
    otherwise.
    """
    if not set(walk) <= set(labels):
        raise ValidationError("boundary label missing from the collection")
    tris = []
    for poly in _cliques(labels, n).values():
        tris.extend(_triangulate_with_chords(poly, chords) if chords else _fan_triangles(poly))
    tris.sort()
    sigma = PlabicTriangulation(n, k, tuple(tris), walk)
    if sigma.triangles_area2() != sigma.boundary_area2():
        raise ValidationError("clique polygons do not tile the necklace region")
    return sigma


@lru_cache(maxsize=SITE_CACHE_SIZE)
def _clique_keys(n: int, lab: int) -> tuple[int, ...]:
    """The cliques a label can join, one per element i of [n]: the label
    minus i when it holds i (white), the label plus i when not (black)."""
    return tuple(lab ^ 1 << i for i in range(n))


def _cliques(labels, n: int) -> dict[int, tuple[int, ...]]:
    """The white and black clique polygons of a label collection: key ->
    members in convex order (the order of the element each adds to or
    removes from the key).

    A white key (the members' intersection) is below its members and a
    black key (their union) above them.
    """
    groups: dict[int, list[int]] = {}
    for lab in sorted(labels):
        for key in _clique_keys(n, lab):
            if key in groups:
                groups[key].append(lab)
            else:
                groups[key] = [lab]
    # ascending members add ascending elements to a white key and remove
    # descending elements from a black key
    return {
        key: tuple(members) if key < members[0] else tuple(members[::-1])
        for key, members in groups.items()
        if len(members) >= 3
    }


@lru_cache(maxsize=SITE_CACHE_SIZE)
def _fan_triangles(poly: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The triangles, each sorted, that fan a polygon of distinct labels from
    its least label."""
    low = min(poly)
    apex = poly.index(low)
    ring = poly[apex + 1 :] + poly[:apex]
    return tuple([(low, a, b) if a < b else (low, b, a) for a, b in zip(ring, ring[1:])])


def _triangulate_with_chords(poly: tuple[int, ...], chords) -> list[tuple[int, int, int]]:
    """The sorted triangles of a convex polygon of distinct labels that keep
    the chords (sorted label pairs) among its vertices, which must not
    cross; the pieces between them are fanned from their least labels.
    Chords along the polygon's sides change nothing."""
    members = set(poly)
    inner = sorted(c for c in chords if c[0] in members and c[1] in members)
    for a, b in inner:
        ia, ib = sorted((poly.index(a), poly.index(b)))
        if ib - ia in (1, len(poly) - 1):
            continue
        left = poly[ia : ib + 1]
        right = poly[ib:] + poly[: ia + 1]
        return _triangulate_with_chords(left, inner) + _triangulate_with_chords(right, inner)
    return list(_fan_triangles(poly))


# ---------------------------------------------------------------------------
# enumeration


def seed_triangulation(p: DecoratedPermutation) -> PlabicTriangulation:
    """Canonical seed: a maximal weakly separated collection inside the
    necklace walk, tiled by its white and black clique polygons
    (Oh-Postnikov-Speyer).

    The collection starts from the necklace labels, which must be pairwise
    weakly separated, and scans the other k-subsets once in colex order
    (`combinat.colex_greedy`).  It keeps a candidate whose bit survives
    the AND of the separation rows of the labels kept so far and whose
    point the walk winds around.  A candidate that passes the separation
    test but lies on the walk has no winding number, and raises
    ValidationError.  The clique polygons must tile the walk's region
    (area check), and the strands walked on the triangles from each leg
    (`trip_permutation`) must give back p.
    """
    walk = combinat.necklace_masks(p)
    n, k = p.n, walk[0].bit_count()
    if k == 0 or k == n:
        return PlabicTriangulation(n, k, (), walk)
    walk_pts = [pos(m) for m in walk]

    def inside(cand: int) -> bool:
        try:
            return winding_number(walk_pts, pos(cand)) != 0
        except ValueError as exc:
            raise ValidationError("label %s lies on the necklace walk" % (elems_of(cand),)) from exc

    kept = combinat.colex_greedy(n, k, sorted(set(walk)), inside)
    sigma = _tile_labels(n, k, sorted(kept), walk)
    image, fixed = _trips(sigma)
    if image != p.image or tuple(sorted(fixed.items())) != p.fixed_color:
        raise AssertionError("seed triangulation has wrong strand permutation")
    return sigma


def enumerate_plabic(
    p: DecoratedPermutation,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> FlipGraph:
    """BFS closure of the moves M1/M2/M3 from the canonical seed.

    The BFS runs over int keys of `_triangle_table(n, k)`, whose order is
    the order of the sorted triangle tuples, so vertex ids are those of the
    tuples.  Expanding a vertex is one pass over its triangle bits
    (`_TriangleTable.scan`) that collects every move site whose triangles
    are all present and whose side or center is off the boundary walk; a
    successor's key is the vertex's XOR the site's mask.  No vertex is
    decoded during the BFS: the constructor checks the boundary, which is
    the seed's, and that the triangles are sorted, which the sorted table
    gives every key.  After the BFS each vertex is its sorted triangles, and
    `payloads` decodes it each time it is read.  Each edge is labelled by
    the move from its lower vertex id to the other.
    """
    seed = seed_triangulation(p)
    n, k, boundary = seed.n, seed.k, seed.boundary
    table = _triangle_table(n, k)
    avoid = walked_segments(boundary).union(boundary)

    def decode(tris):
        return PlabicTriangulation(n, k, tris, boundary)

    graph = bfs_closure(
        table.key(seed.triangles),
        lambda frontier: (table.scan(key, avoid) for key in frontier),
        decode,
        vertex_cap,
        "vertex cap %d exceeded enumerating plabic graphs" % vertex_cap,
    )
    graph.vertices = list(map(table.unpack, graph.vertices))
    graph.payloads = PayloadView(decode, graph.vertices)
    return graph


class _TriangleTable:
    """Every white and black triangle of k-subsets of [n], in sorted order,
    and the move sites over them.

    A set of these triangles is an int: the triangle of rank r is bit
    U - 1 - r, U the number of triangles.  A key is the complement of that
    mask in U bits, so that over sets of one size, as the triangulations of
    one flip graph are, int order is the order of the sorted triangle
    tuples.

    Each triangle's sites are its `_triangle_sites`.  In a triangulation, a
    side borders at most two triangles and a square pattern around its
    center is the whole star, so a site is available exactly when its
    triangles are present and its flipped side, or its center, is not on
    the boundary walk.
    """

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        tris = []
        # white: k - 1 common elements and three more; black: k + 1
        # elements, three of which are left out in turn
        for common in itertools.combinations(range(n), k - 1) if k else ():
            low = sum(1 << i for i in common)
            rest = [1 << i for i in range(n) if not low >> i & 1]
            tris.extend((low | a, low | b, low | c) for a, b, c in itertools.combinations(rest, 3))
        for union in itertools.combinations(range(n), k + 1):
            high = sum(1 << i for i in union)
            left_out = itertools.combinations([1 << i for i in union], 3)
            tris.extend((high ^ c, high ^ b, high ^ a) for a, b, c in left_out)
        tris.sort()
        self.triangles = tuple(tris)
        self.top = len(tris) - 1
        self.full = (1 << len(tris)) - 1
        self.rank = {t: r for r, t in enumerate(tris)}
        self._sites: list[tuple | None] = [None] * len(tris)

    def bits(self, triangles) -> int:
        """The mask of a set of triangles of the table."""
        rank, top = self.rank, self.top
        return sum(1 << top - rank[t] for t in triangles)

    def key(self, triangles) -> int:
        """The key of a set of triangles of the table."""
        return self.full ^ self.bits(triangles)

    def sites(self, r: int) -> tuple[tuple[int, int, Move, object, int], ...]:
        """The sites whose lowest triangle has rank r, built on first use,
        in (kind, removed, added) order.  Each is (need, xor, move, avoid,
        kind): the mask of the triangles the move removes, the mask whose
        XOR takes a key to its successor's, the `Move`, the side or center
        that must not be on the boundary walk, and 0, 1 or 2 for M1, M2 or
        M3."""
        out = self._sites[r]
        if out is not None:
            return out
        out = []
        for move, avoid in _triangle_sites(self.n, self.k, self.triangles[r]):
            need = self.bits(move.removed)
            out.append((need, need | self.bits(move.added), move, avoid, int(move.kind[1]) - 1))
        self._sites[r] = out = tuple(out)
        return out

    def ranks(self, key: int) -> list[int]:
        """The ranks of the triangles of `key`, ascending."""
        bits, top = self.full ^ key, self.top
        out = []
        while bits:
            high = bits.bit_length() - 1
            bits ^= 1 << high
            out.append(top - high)
        return out

    def unpack(self, key: int) -> tuple[tuple[int, int, int], ...]:
        """The sorted triangles of `key`."""
        return tuple(map(self.triangles.__getitem__, self.ranks(key)))

    def scan(self, key: int, avoid) -> list[tuple[Move, int]]:
        """The moves of `key` in `available_moves` order, each with its
        successor's key, read in one pass over its triangles.  `avoid`
        holds the walked sides and the boundary labels.

        A site is listed under its lowest triangle, the first of the move's
        removed triangles, so each kind's moves come out of the pass sorted.
        """
        have = self.full ^ key
        sites = self._sites
        by_kind: tuple[list, list, list] = ([], [], [])
        for r in self.ranks(key):
            here = sites[r]
            if here is None:
                here = self.sites(r)
            for need, xor, move, at, kind in here:
                if have & need == need and at not in avoid:
                    by_kind[kind].append((move, key ^ xor))
        return by_kind[0] + by_kind[1] + by_kind[2]


@lru_cache(maxsize=None)
def _triangle_table(n: int, k: int) -> _TriangleTable:
    return _TriangleTable(n, k)


def _square_stars(n: int, center: int, tri: tuple[int, int, int]):
    """The stars, each four sorted triangles in sorted order, of the square
    patterns at `center` that hold the colored triangle `tri`.

    A pattern is a center Sxy with outer labels Sxz, Sxw, Syz, Syw (see
    `_square_move`).  `tri` leaves the center by one element y and enters
    two, z and w, when white, so x is any other element of the center; when
    black it leaves by x and y and enters z, so w is any element outside.
    """
    p, q = (lab for lab in tri if lab != center)
    gone, came = center & ~p, p & ~center
    if gone == center & ~q:
        pairs = [(gone | x, came | q & ~center) for x in _bits(center & ~gone)]
    else:
        pairs = [(gone | center & ~q, came | w) for w in _bits(((1 << n) - 1) & ~(center | came))]
    for xy, zw in pairs:
        (x, y), (z, w) = _bits(xy), _bits(zw)
        s = center & ~xy
        sxz, sxw, syz, syw = s | x | z, s | x | w, s | y | z, s | y | w
        star = ((center, sxz, sxw), (center, syz, syw), (center, sxz, syz), (center, sxw, syw))
        yield tuple(sorted(tuple(sorted(t)) for t in star))


def _bits(mask: int) -> list[int]:
    """The one-bit masks of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# the complex X (all moves) and its quotients Y and T


@lru_cache(maxsize=SITE_CACHE_SIZE)
def _family(h: int, five: int, common: int) -> tuple[frozenset[int], tuple[int, ...], int]:
    """The embedded pi(5, h) family on the 5-set `five` over the labels
    `common` (S): its labels S u psi(K), over the h-subsets K of [5] and psi
    the order-preserving map from [5] onto `five`; its sub-walk, the
    necklace of pi(5, h) through psi, joined to S; and twice the area the
    sub-walk encloses.  h = 1/4 give white/black pentagons, 2/3 decagons.
    """
    psi = _bits(five)
    family = frozenset(common | sum(kk) for kk in itertools.combinations(psi, h))
    necklace = combinat.necklace_masks(combinat.cyclic_decorated(5, h))
    walk5 = tuple(common | sum(x for i, x in enumerate(psi) if m >> i & 1) for m in necklace)
    return family, walk5, abs(shoelace2([pos(b) for b in walk5]))


def _x_cells(graph: FlipGraph, collapsed, hs):
    """X's cells in the one pass of `quotient_complex`, each read from a
    pair of moves at its lowest vertex: ("quad", (v, va, vab, vb)) for two
    moves whose kinds are not `collapsed`, and (h, cycle) for the cell of
    an embedded pi(5, h) family, h in `hs`, of X's length (`_X_CELLS`).
    Vertex 0 alone is decoded, for k and the shared boundary walk.
    """
    first = graph.payloads[0]
    k, boundary = first.k, frozenset(first.boundary)
    moves = graph.moves
    for v, out in enumerate(moves):
        up = [(move, w) for move, w in out.items() if w > v]
        named = set()
        for (a, va), (b, vb) in itertools.combinations(up, 2):
            # a quad needs no independence test: moves that remove a common
            # triangle never close a square, since no move adds back what
            # it removed
            if a.kind not in collapsed and b.kind not in collapsed:
                quad = commuting_square(moves, v, a, va, b, vb)
                if quad is not None:
                    yield "quad", quad
            (a_and, a_or), (b_and, b_or) = a._span, b._span
            common = a_and & b_and
            five = (a_or | b_or) & ~common
            h = k - common.bit_count()
            if h in hs and five.bit_count() == 5:
                named.add((h, five, common))
        if not named:
            continue
        tris = graph.vertices[v]
        labs = boundary.union(*tris)
        for h, five, common in sorted(named, key=lambda f: (f[0], elems_of(f[1]), elems_of(f[2]))):
            family, walk5, area = _family(h, five, common)
            if not labs.issuperset(walk5) or sum(_area2(t) for t in tris if family.issuperset(t)) != area:
                continue
            cycle = move_cycle(graph, v, lambda m: m.support_labels() <= family, _X_CELLS[h][1], by_id=True)
            if min(cycle) == v:
                yield h, tuple(cycle)


# The complexes read off X's flip graph: the move kinds each collapses, and
# the embedded sub-necklaces it keeps (h -> name and length of the projected
# cell).  X collapses nothing and keeps every family.  Y collapses the
# trivalent moves, so its decagons project to pentagons of square moves.  T
# collapses the black flips: black decagons project to pentagons, and black
# pentagons to a point.
_QUOTIENTS = {
    "X": (
        frozenset(),
        {1: ("pentagon_white", 5), 2: ("decagon_white", 10), 3: ("decagon_black", 10), 4: ("pentagon_black", 5)},
    ),
    "Y": (frozenset({"M1", "M3"}), {2: ("pentagon", 5), 3: ("pentagon", 5)}),
    "T": (
        frozenset({"M3"}),
        {1: ("pentagon_white", 5), 2: ("decagon", 10), 3: ("pentagon_square", 5)},
    ),
}
_X_CELLS = _QUOTIENTS["X"][1]


@collector_paused
def build_plabic_complex(
    p: DecoratedPermutation,
    kind: str,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
):
    """The 2-complex of trivalent plabic graphs (kind "X"), of their
    square-move classes ("Y") or of triple crossing diagrams ("T") for a
    decorated permutation: its flip graph, enumerated once, read by
    `quotient_complex`.  A triple crossing diagram has no black fixed point.

    Returns (TwoComplex, cells), cells the (name, cycle) list.
    """
    if kind not in _QUOTIENTS:
        raise ArgumentError("kind must be 'X', 'Y' or 'T'")
    if kind == "T" and any(c == BLACK for _, c in p.fixed_color):
        raise ArgumentError("triple crossing diagrams have undecorated fixed points")
    return quotient_complex(enumerate_plabic(p, vertex_cap=vertex_cap), kind)[:2]


def quotient_complex(graph: FlipGraph, kind: str):
    """The complex `kind` ("X", "Y" or "T") of `_QUOTIENTS`, read off X's
    flip graph.

    Its vertices are the classes of X vertices joined by collapsed moves,
    numbered in order of their lowest X id, and its edges the other moves
    between distinct classes.  X collapses nothing, so each of its vertices
    is its own class and its edges are the graph's.

    X's cells are read in one pass over each vertex's pairs of moves to
    higher ids (`_x_cells`), each from a pair at its lowest vertex.  A
    commuting pair of moves that are not collapsed is a quad, kept when its
    corners lie in four classes.  A pair names the family S u psi(K) of an
    embedded pi(5, h) sub-necklace when, S the AND of its support labels
    and A their OR with S removed, |A| = 5 and h = k - |S| is kept.  At
    every vertex of an embedded cell its two moves span exactly S and A: a
    pentagon's are the flips of two diagonals of one pentagon
    triangulation, which cover its five labels; a decagon's are a square
    move, on S plus two of four elements of A, so their AND is S, and a
    trivalent flip, whose labels hold S and the fifth element.  So every
    cell is named at its lowest vertex.  A vertex carries a named family
    when the family's sub-walk is among its labels and its triangles
    inside the family tile the sub-walk's region.  The cell is then walked
    from the vertex towards its lower neighbour id, and kept when the
    vertex is its lowest.  At one vertex the families are walked by h, then
    by A and by S in lex order, and the projection keeps the first cell
    found for each class set.  Each kept embedded cell must project, with
    repeated classes merged, onto a simple cycle of its table length, or
    AssertionError is raised.

    Returns (TwoComplex, cells, class of each X vertex), cells the (name,
    cycle) list: for X its sorted quads, then its sorted embedded cells;
    for Y and T all its cells sorted together.
    """
    from .topology import TwoComplex

    collapsed, table = _QUOTIENTS[kind]
    cls = union_classes(graph.n_vertices, ((u, v) for u, v, m in graph.edges if m.kind in collapsed))

    edges = sorted(
        {
            (min(cls[u], cls[v]), max(cls[u], cls[v]))
            for u, v, m in graph.edges
            if m.kind not in collapsed and cls[u] != cls[v]
        }
    )

    quads = {}
    embedded = {}  # the kept sub-necklaces: 5 or 10 classes, never a quad's 4
    for h, cyc in _x_cells(graph, collapsed, table):
        if h == "quad":
            quad = tuple(cls[v] for v in cyc)
            if len(set(quad)) == 4:
                quads.setdefault(frozenset(quad), ("quad", quad))
            continue
        name, length = table[h]
        proj = []
        for v in cyc:
            if not proj or proj[-1] != cls[v]:
                proj.append(cls[v])
        if len(proj) > 1 and proj[-1] == proj[0]:
            proj.pop()
        if len(proj) != length or len(set(proj)) != length:
            raise AssertionError("%s does not project to a %d-cycle of %s" % (_X_CELLS[h][0], length, kind))
        embedded.setdefault(frozenset(proj), (name, tuple(proj)))
    # the pinned X hashes (PINNED_HASHES, PINNED_INPUT_HASHES) list X's quads
    # before its embedded cells; the pinned Y and T hashes sort all cells together
    cell_list = sorted_cells(quads) + sorted_cells(embedded) if not collapsed else sorted_cells(quads | embedded)
    complex_ = TwoComplex.from_graph(max(cls) + 1, edges, [cyc for _, cyc in cell_list])
    return complex_, cell_list, cls
