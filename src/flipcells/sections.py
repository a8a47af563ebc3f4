"""Cross sections of Z(n, 3) tilings and what is read off them: the dual
plabic graph and its strands, UP/DOWN layers, move realization by flips,
tiling alignment and SVG export.

Every function here works on the plabic triangulations of `plabic`, but no
certificate runs them, so the package loads this module on first use: a
`flipcells plabic`, `tcd` or `zcomplex` process never compiles it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import combinat
from .combinat import BLACK, WHITE, DecoratedPermutation, GrassmannNecklace, LabelCollection, elems_of, mask_of
from .errors import ArgumentError, MalformedGraphError, PreconditionError, ValidationError
from .geometry import winding_number
from .plabic import (
    Move,
    PlabicTriangulation,
    _dual_links,
    _flip_move,
    _tile_labels,
    available_moves,
    cyclic_walk,
    pos,
    triangle_color,
    walked_segments,
)
from .zonotope import SignedSubset, Tiling, ZonotopeSpec


# ---------------------------------------------------------------------------
# cross-sections of Z(n, 3) tilings


def cross_section(tiling: Tiling, k: int) -> PlabicTriangulation:
    """The level-k plabic triangulation of a fine zonotopal tiling of Z(n, 3):
    the triangles `_cut` from its tiles."""
    spec = tiling.spec
    if spec.d != 3:
        raise ArgumentError("cross sections are defined for d = 3")
    if not 1 <= k <= spec.n - 1:
        raise ArgumentError("level k must lie in [1, n-1]")
    tris = [_cut(plus, zero, k) for zero, plus in zip(spec.dsubsets, tiling.plus)]
    return PlabicTriangulation.make(spec.n, k, filter(None, tris), cyclic_walk(spec.n, k))


def _tile_of(tri: tuple[int, int, int]) -> tuple[int, int]:
    """The Z(n, 3) tile a white or black triangle is cut from, as masks
    (plus, zero): the labels' intersection, and the three elements of their
    union outside it."""
    plus = _tri_and(tri)
    return plus, _tri_or(tri) & ~plus


def _cut(plus: int, zero: int, level: int) -> tuple[int, int, int] | None:
    """The sorted triangle that level cuts from the tile (plus, zero): white,
    near the tile's bottom vertex, when |plus| = level - 1; black, near its
    top, when |plus| = level - 2; None when the level misses the tile."""
    bits = [1 << (i - 1) for i in elems_of(zero)]
    size = plus.bit_count()
    if size == level - 1:
        return tuple(sorted(plus | b for b in bits))
    if size == level - 2:
        return tuple(sorted((plus | zero) & ~b for b in bits))
    return None


# ---------------------------------------------------------------------------
# plabic graphs (dual side)


@dataclass(frozen=True)
class PlabicGraph:
    """A planar bicolored graph with boundary legs and a rotation system.

    Internal vertices are indexed 0..m-1 with colors; edge ends are either
    ("v", idx) or ("b", i) with i in [1, n].  `rotations[v]` lists darts
    (edge_id, end_index) in counterclockwise order around v.
    """

    n: int
    colors: tuple[str, ...]
    edges: tuple[tuple[tuple, tuple], ...]
    rotations: tuple[tuple[tuple[int, int], ...], ...]

    @cached_property
    def _boundary_legs(self) -> dict[int, list[int]]:
        """Boundary vertex i -> the edges at b_i, each listed once."""
        legs: dict[int, list[int]] = {}
        for e, ends in enumerate(self.edges):
            for i in {end[1] for end in ends if end[0] == "b"}:
                legs.setdefault(i, []).append(e)
        return legs

    def boundary_edge(self, i: int) -> int:
        hits = self._boundary_legs.get(i, [])
        if len(hits) != 1:
            raise MalformedGraphError("boundary vertex b_%d must have exactly one edge" % i)
        return hits[0]

    def degree(self, v: int) -> int:
        return len(self.rotations[v])


def dual_graph(sigma: PlabicTriangulation) -> PlabicGraph:
    """Planar dual of a plabic triangulation, with boundary legs b_1..b_n.

    b_i attaches across the boundary step I_i -> I_{i+1}; a step with no
    triangle on its inner (left) side pairs up with the reverse traversal of
    the same segment and yields a direct b_i -- b_j edge; a stalled step
    (fixed point) yields an isolated vertex colored by the necklace.  The
    darts at a triangle run counterclockwise as its `_ccw_sides` do.
    """
    return _dual(sigma)[0]


def _dual(sigma: PlabicTriangulation) -> tuple[PlabicGraph, list[tuple[int, int]]]:
    """`dual_graph`, and the label segment each of its edges crosses: the
    segment (a, a) for the leg of a step that stays at a."""
    colors, sides, link, entry = _dual_links(sigma)
    walk, n = sigma.boundary, sigma.n
    edges: list[tuple[tuple, tuple]] = []
    segments: list[tuple[int, int]] = []
    dart: list[tuple[int, int] | None] = [None] * len(link)  # the dart across each slot

    # interior edges between triangles, by segment
    interior = sorted(
        (sides[s1 // 3][s1 % 3][0], s1, s2)
        for s1, s2 in enumerate(link)
        if s2 is not None and s2 > s1
    )
    for seg, s1, s2 in interior:
        dart[s1], dart[s2] = (len(edges), 0), (len(edges), 1)
        edges.append((("v", s1 // 3), ("v", s2 // 3)))
        segments.append(seg)

    # boundary legs and direct edges, in step order; a direct edge between
    # two hanging steps is added at the first of them
    for i, s in entry.items():
        if s >= 0:
            dart[s] = (len(edges), 0)
            edges.append((("v", s // 3), ("b", i)))
            segments.append(sides[s // 3][s % 3][0])
        elif not (-s < i and entry.get(-s) == -i):
            edges.append((("b", i), ("b", -s)))
            segments.append((walk[i - 1], walk[i % n]))

    rotations = [tuple(d for d in dart[s : s + 3] if d is not None) for s in range(0, len(dart), 3)]

    # isolated vertices for fixed points, one dart each
    for i in range(1, n + 1):
        a = walk[i - 1]
        if a == walk[i % n]:
            rotations.append(((len(edges), 0),))
            colors.append(BLACK if a >> (i - 1) & 1 else WHITE)
            edges.append((("v", len(colors) - 1), ("b", i)))
            segments.append((a, a))
    return PlabicGraph(n, tuple(colors), tuple(edges), tuple(rotations)), segments


def strand_permutation(graph: PlabicGraph) -> DecoratedPermutation:
    """Rules-of-the-road walk: at a white vertex take the next dart
    counterclockwise of the arrival dart, at a black vertex the previous one."""
    image = []
    colors = {}
    for i in range(1, graph.n + 1):
        j, _ = _strand_walk(graph, i)
        image.append(j)
        if j == i:
            e = graph.boundary_edge(i)
            other = graph.edges[e][0] if graph.edges[e][1] == ("b", i) else graph.edges[e][1]
            if other[0] == "v" and graph.degree(other[1]) == 1:
                colors[i] = graph.colors[other[1]]
            else:
                colors[i] = WHITE
    return DecoratedPermutation.make(tuple(image), colors)


def _strand_walk(graph: PlabicGraph, i: int) -> tuple[int, list[tuple[int, int]]]:
    """Endpoint and traversal list [(edge, entered_end), ...] of strand i."""
    e = graph.boundary_edge(i)
    end = 0 if graph.edges[e][0] == ("b", i) else 1
    # move along e away from b_i
    path = []
    cap = 2 * len(graph.edges) + 2
    while True:
        target_end = 1 - end
        path.append((e, target_end))
        target = graph.edges[e][target_end]
        if target[0] == "b":
            return target[1], path
        v = target[1]
        rot = graph.rotations[v]
        try:
            pos_in_rot = rot.index((e, target_end))
        except ValueError as exc:
            raise MalformedGraphError("dart missing from rotation") from exc
        step = 1 if graph.colors[v] == WHITE else -1
        e, end = rot[(pos_in_rot + step) % len(rot)]
        if len(path) > cap:
            raise MalformedGraphError("strand %d exceeded 2|E| steps" % i)


@dataclass
class ReducednessReport:
    ok: bool
    violations: list[str]


def is_reduced(graph: PlabicGraph) -> ReducednessReport:
    """Check the reduced-plabic-graph conditions; failures are reported."""
    violations = []
    try:
        walks = {i: _strand_walk(graph, i) for i in range(1, graph.n + 1)}
    except MalformedGraphError as exc:
        return ReducednessReport(False, [str(exc)])

    internal = {
        e
        for e, (a, b) in enumerate(graph.edges)
        if a[0] == "v" and b[0] == "v"
    }
    traversals: dict[int, list[int]] = {e: [] for e in internal}
    for i, (_, path) in walks.items():
        for e, _ in path:
            if e in traversals:
                traversals[e].append(i)
    for e, strands in sorted(traversals.items()):
        if len(strands) != 2 or len(set(strands)) != 2:
            violations.append(
                "edge %d traversed by strands %s, expected two distinct" % (e, strands)
            )

    for i, j in itertools.combinations(range(1, graph.n + 1), 2):
        pos_i = {e: t for t, (e, _) in enumerate(walks[i][1])}
        pos_j = {e: t for t, (e, _) in enumerate(walks[j][1])}
        common = sorted(set(pos_i) & set(pos_j) & internal)
        for e1, e2 in itertools.combinations(common, 2):
            if (pos_i[e1] - pos_i[e2]) * (pos_j[e1] - pos_j[e2]) > 0:
                violations.append(
                    "strands %d and %d double-cross edges %d and %d" % (i, j, e1, e2)
                )

    for i in range(1, graph.n + 1):
        if walks[i][0] == i:
            e = graph.boundary_edge(i)
            other = graph.edges[e][0] if graph.edges[e][1] == ("b", i) else graph.edges[e][1]
            if not (other[0] == "v" and graph.degree(other[1]) == 1):
                violations.append("fixed point %d is not an isolated-vertex lollipop" % i)
    return ReducednessReport(not violations, violations)


# A (minimal) triple crossing diagram is the bipartite-normalized plabic
# graph it corresponds to: white vertices trivalent, black regions fully
# contracted.  Its complex T is X modulo black flips, built by
# `plabic.build_plabic_complex(p, "T")`.
@dataclass(frozen=True)
class TripleCrossingDiagram:
    """The plabic image of a triple crossing diagram."""

    graph: PlabicGraph
    connectivity: DecoratedPermutation


def as_tcd(graph: PlabicGraph) -> TripleCrossingDiagram:
    """Validate that a plabic graph is the image of a triple crossing diagram:
    white vertices trivalent (isolated fixed-point markers aside), no edge
    joins two black vertices, and the graph is reduced."""
    for e, (a, b) in enumerate(graph.edges):
        if a[0] == "v" and b[0] == "v":
            if graph.colors[a[1]] == BLACK and graph.colors[b[1]] == BLACK:
                raise ValidationError("black-black edge %d" % e)
    for v, color in enumerate(graph.colors):
        if color == WHITE and graph.degree(v) not in (1, 3):
            raise ValidationError("white vertex degree %d at vertex %d" % (graph.degree(v), v))
    report = is_reduced(graph)
    if not report.ok:
        raise ValidationError("not reduced: %s" % report.violations[0])
    return TripleCrossingDiagram(graph, strand_permutation(graph))


# ---------------------------------------------------------------------------
# the Oh-Postnikov-Speyer realization from a label collection


def triangulation_from_labels(
    collection: LabelCollection, boundary: GrassmannNecklace
) -> PlabicTriangulation:
    """Build the plabic triangulation of a weakly separated collection:
    white/black cliques become convex polygons fanned from their
    colex-minimal vertex."""
    labels = sorted(mask_of(s) for s in collection.labels)
    combinat.separated_from_all(collection.n, collection.k, labels)
    walk = tuple(mask_of(s) for s in boundary.sets)
    return _tile_labels(collection.n, collection.k, labels, walk)


# ---------------------------------------------------------------------------
# UP/DOWN layer machinery


def _tri_and(t):
    return t[0] & t[1] & t[2]


def _tri_or(t):
    return t[0] | t[1] | t[2]


def layer_step(sigma: PlabicTriangulation, direction: str) -> PlabicTriangulation:
    """The neighboring cross-section of a full cyclic plabic triangulation.

    Going up, black triangles are forced by the white triangles below: the
    clique tiler keeps their sides as chords, which rebuilds them, and fans
    the white clique polygons.  Going down is the mirror image.
    """
    n, k = sigma.n, sigma.k
    if sigma.boundary != cyclic_walk(n, k):
        raise ArgumentError("layer_step needs a full cyclic cross-section")
    if direction not in ("up", "down"):
        raise ArgumentError("direction must be 'up' or 'down'")
    k2 = k + 1 if direction == "up" else k - 1
    if not 1 <= k2 <= n - 1:
        raise ArgumentError("target level %d out of [1, n-1]" % k2)
    # the level-k triangles of one color are cut from tiles that level k2 cuts too
    color = WHITE if direction == "up" else BLACK
    fixed = [_cut(*_tile_of(t), k2) for t in sigma.triangles if triangle_color(t) == color]
    walk = cyclic_walk(n, k2)
    labels = set(walk)
    chords = set()
    for t in fixed:
        labels.update(t)
        chords.update(itertools.combinations(t, 2))
    return _tile_labels(n, k2, sorted(labels), walk, chords)


def extend_to_tiling(sigma: PlabicTriangulation) -> Tiling:
    """Stack layer steps to recover a fine zonotopal tiling of Z(n, 3) whose
    level-k cross-section is exactly `sigma` (cyclic boundary required)."""
    n, k = sigma.n, sigma.k
    if sigma.boundary != cyclic_walk(n, k):
        raise ArgumentError("extend_to_tiling needs a full cyclic cross-section")
    levels = {k: sigma}
    for j in range(k + 1, n):
        levels[j] = layer_step(levels[j - 1], "up")
    for j in range(k - 1, 0, -1):
        levels[j] = layer_step(levels[j + 1], "down")
    spec = ZonotopeSpec(n, 3)
    tiles = []
    for j in range(1, n):
        for t in levels[j].triangles:
            if triangle_color(t) == WHITE:
                plus, zero = _tile_of(t)
                tiles.append(SignedSubset(n, plus, spec.full_mask & ~(plus | zero)))
    tiling = Tiling.from_tiles(spec, tiles)
    if cross_section(tiling, k) != sigma:
        raise AssertionError("extend_to_tiling does not round-trip at level k")
    return tiling


def embed_in_cyclic(sigma: PlabicTriangulation) -> PlabicTriangulation:
    """A full cyclic plabic triangulation that holds sigma's triangles
    verbatim: sigma's labels grown to a maximal weakly separated collection
    by one colex scan (`combinat.colex_greedy`), tiled keeping the sides of
    sigma's triangles and the segments of its walk as chords."""
    n, k = sigma.n, sigma.k
    walk = cyclic_walk(n, k)
    if sigma.boundary == walk:
        return sigma
    chords = set(walked_segments(sigma.boundary))
    for t in sigma.triangles:
        chords.update(itertools.combinations(t, 2))
    labels = combinat.colex_greedy(n, k, sorted(sigma.labels()))
    full = _tile_labels(n, k, sorted(labels), walk, chords)
    if not set(sigma.triangles) <= set(full.triangles):
        raise AssertionError("embedding does not contain the original triangulation")
    return full


def up_down_graph(sigma: PlabicTriangulation, direction: str) -> PlabicTriangulation:
    """UP/DOWN of a plabic triangulation with arbitrary connectivity: embed
    it in a full cyclic triangulation, take the adjacent layer, and restrict
    that to the shifted necklace walk, which raises ValidationError when
    the layer does not restrict to it."""
    if direction not in ("up", "down"):
        raise ArgumentError("direction must be 'up' or 'down'")
    necklace = sigma.necklace()
    if len(set(necklace.sets)) == 1:
        raise PreconditionError("UP/DOWN undefined for identity connectivity")
    shifted = combinat.necklace_shift(necklace, direction)
    if len(set(shifted.sets)) == 1:
        raise PreconditionError("%s connectivity is an identity" % direction.upper())
    walk = tuple(mask_of(s) for s in shifted.sets)
    return restrict_to_walk(layer_step(embed_in_cyclic(sigma), direction), walk)


def restrict_to_walk(sigma: PlabicTriangulation, walk: tuple[int, ...]) -> PlabicTriangulation:
    """Sub-triangulation of the region enclosed by a necklace walk; raises
    ValidationError when the walk passes through a triangle, winds twice
    around one, or encloses triangles that do not tile its region."""
    walk_pts = [tuple(3 * c for c in pos(m)) for m in walk]
    keep = []
    for t in sigma.triangles:
        cx = sum(pos(l)[0] for l in t)
        cy = sum(pos(l)[1] for l in t)
        try:
            w = winding_number(walk_pts, (cx, cy))
        except ValueError as exc:
            raise ValidationError(
                "necklace walk passes through triangle %s" % ([elems_of(l) for l in t],)
            ) from exc
        if abs(w) > 1:
            raise ValidationError("necklace walk winds more than once")
        if w:
            keep.append(t)
    out = PlabicTriangulation.make(sigma.n, sigma.k, keep, walk)
    if out.triangles_area2() != out.boundary_area2():
        raise ValidationError("restricted triangles do not tile the necklace region")
    return out


# ---------------------------------------------------------------------------
# flips <-> square moves, move realization, tiling alignment


def flip_move_correspondence(tiling: Tiling) -> list[tuple]:
    """The bijection between available flips and square moves across layers.

    Returns [(FlipSite, level, Move)]; the square move of a flip with prefix
    P sits at level |P| + 2, centered on P u {i : s_i = 1}.
    """
    from .zonotope import available_flips

    spec = tiling.spec
    if spec.d != 3:
        raise ArgumentError("flip/move correspondence is defined for d = 3")
    sections: dict[int, PlabicTriangulation] = {}
    moves: dict[int, tuple[Move, ...]] = {}
    out = []
    for site in available_flips(tiling):
        p_sz = bin(site.prefix).count("1")
        level = p_sz + 2
        elems = site.elements()
        v = site.prefix
        v2 = site.prefix
        for e, s in zip(elems, site.bits):
            if s:
                v |= 1 << (e - 1)
            else:
                v2 |= 1 << (e - 1)
        if level not in sections:
            sections[level] = cross_section(tiling, level)
            moves[level] = available_moves(sections[level])
        match = [
            m
            for m in moves[level]
            if m.kind == "M2" and m.center == v and m.replacement == v2
        ]
        if len(match) != 1:
            raise AssertionError("flip at %s has no unique square move" % (elems,))
        out.append((site, level, match[0]))
    return out


def realize_trivalent_move(tiling: Tiling, k: int, move: Move) -> list:
    """A flip sequence whose prefix leaves every level >= k (black move) or
    <= k (white move) unchanged and whose last flip performs exactly `move`
    in the level-k cross-section."""
    seq, _ = _realize_move(tiling, k, move)
    return seq


def _realize_move(tiling: Tiling, k: int, move: Move) -> tuple[list, Tiling]:
    from .zonotope import apply_flip, available_flips

    if move.kind not in ("M1", "M3"):
        raise ArgumentError("only trivalent moves can be realized by flips")
    sigma = cross_section(tiling, k)
    if move not in available_moves(sigma):
        raise PreconditionError("move is not available in the level-%d section" % k)
    black = move.kind == "M3"
    (plus1, zero1), (plus2, zero2) = map(_tile_of, move.removed)
    if black and plus1 | zero1 != plus2 | zero2:
        raise AssertionError("black move triangles must share their union")
    if not black and plus1 != plus2:
        raise AssertionError("white move triangles must share their intersection")
    s4 = zero1 | zero2
    shared = zero1 & zero2
    if black:
        center = (plus1 | zero1) & ~s4 | (zero1 ^ zero2)
        adj = k - 1
        clique_of = _tri_or
    else:
        center = plus1 | shared
        adj = k + 1
        clique_of = _tri_and
    clique_masks = [
        (center | (1 << (b - 1))) if black else (center & ~(1 << (b - 1)))
        for b in elems_of(shared)
    ]
    seq: list = []
    guard = 0
    while True:
        guard += 1
        if guard > 64 * tiling.spec.n**3:
            raise AssertionError("move realization recursion exceeded its bound")
        hit = next((s for s in available_flips(tiling) if s.smask == s4), None)
        if hit is not None:
            seq.append(hit)
            return seq, apply_flip(tiling, hit)
        progressed = False
        section = cross_section(tiling, adj)
        for cl in clique_masks:
            star = [
                t
                for t in section.triangles
                if center in t and clique_of(t) == cl
            ]
            if len(star) <= 1:
                continue
            sub = _star_reduction_move(section, center, cl, clique_of)
            subseq, tiling = _realize_move(tiling, adj, sub)
            seq.extend(subseq)
            progressed = True
            break
        if not progressed:
            raise AssertionError("flip unavailable but no ear reduction applies")


def _star_reduction_move(section, center, clique, clique_of) -> Move:
    """A trivalent move inside one clique region that lowers the center's
    degree.  The clique key fixes the color of the triangles that carry it,
    so the move's kind is the clique's."""
    for m in available_moves(section):
        if any(clique_of(t) != clique for t in m.removed):
            continue
        if not all(center in t for t in m.removed):
            continue
        if sum(1 for t in m.added if center in t) == 1:
            return m
    raise AssertionError("no star-reducing move available in the clique")


def align_tilings(a: Tiling, b: Tiling, k: int) -> list:
    """A flip sequence from `a` to `b` that never alters the level-k section."""
    if cross_section(a, k) != cross_section(b, k):
        raise PreconditionError("tilings differ in the level-k cross-section")
    n = a.spec.n
    cur = a
    seq: list = []
    for j in range(k + 1, n - 1):
        path = _section_match_moves(cross_section(cur, j), cross_section(b, j), WHITE)
        for move in path:
            subseq, cur = _realize_move(cur, j, move)
            seq.extend(subseq)
    for j in range(k - 1, 1, -1):
        path = _section_match_moves(cross_section(cur, j), cross_section(b, j), BLACK)
        for move in path:
            subseq, cur = _realize_move(cur, j, move)
            seq.extend(subseq)
    if cur.key() != b.key():
        raise AssertionError("alignment did not converge")
    return seq


def _section_match_moves(sig_from: PlabicTriangulation, sig_to: PlabicTriangulation, color: str):
    """Trivalent moves (of one color) transforming one section into another
    that agrees with it up to the triangulation of that color's regions."""
    if sig_from.labels() != sig_to.labels():
        raise AssertionError("sections disagree on labels")
    other = [t for t in sig_from.triangles if triangle_color(t) != color]
    if other != [t for t in sig_to.triangles if triangle_color(t) != color]:
        raise AssertionError("sections disagree outside the free color")
    by_clique_from: dict[int, set] = {}
    by_clique_to: dict[int, set] = {}
    keyf = _tri_and if color == WHITE else _tri_or
    for t in sig_from.triangles:
        if triangle_color(t) == color:
            by_clique_from.setdefault(keyf(t), set()).add(t)
    for t in sig_to.triangles:
        if triangle_color(t) == color:
            by_clique_to.setdefault(keyf(t), set()).add(t)
    moves = []
    for clique in sorted(by_clique_from):
        cur = by_clique_from[clique]
        tgt = by_clique_to.get(clique, set())
        if cur == tgt:
            continue
        verts = sorted({x for t in cur for x in t})
        moves.extend(_poly_flip_path(verts, cur, tgt))
    return moves


def _poly_flip_path(verts, tris_from, tris_to):
    """Flip path between two triangulations of the same convex vertex set."""
    to_fan_a = _fan_path(verts, tris_from)
    to_fan_b = _fan_path(verts, tris_to)
    return to_fan_a + [_flip_move(*m.added) for m in reversed(to_fan_b)]


def _fan_path(verts, tris):
    """Flips carrying a triangulation to the fan from the colex-min vertex.

    The vertices are the labels of one clique, which lie on a translate of
    the moment curve: every two adjacent triangles form a convex
    quadrilateral of one color, so `_flip_move` flips them."""
    apex = min(verts)
    moves = []
    tris = set(tris)
    while True:
        star = [t for t in tris if apex in t]
        if len(star) == len(verts) - 2:
            return moves
        pairs = (
            (st, t)
            for t in sorted(tris)
            if apex not in t
            for st in sorted(star)
            if len(set(t) & set(st)) == 2
        )
        pair = next(pairs, None)
        if pair is None:
            raise AssertionError("fan path stalled")
        move = _flip_move(*sorted(pair))
        moves.append(move)
        tris.difference_update(move.removed)
        tris.update(move.added)


# ---------------------------------------------------------------------------
# SVG export


def triangulation_to_svg(
    sigma: PlabicTriangulation,
    dual_overlay: bool = False,
    strands: bool = False,
) -> str:
    """Render a plabic triangulation (rounding coordinates only here)."""
    scale = 24.0
    labs = sorted(sigma.labels())
    pts = {l: pos(l) for l in labs}
    if pts:
        xs = [p[0] for p in pts.values()]
        ys = [p[1] for p in pts.values()]
        x0, y0 = min(xs), min(ys)
        w = max(2, max(xs) - x0) + 2
        h = max(2, max(ys) - y0) + 2
    else:
        x0 = y0 = 0
        w = h = 2

    def xy(p):
        return ((p[0] - x0 + 1) * scale, (h - (p[1] - y0 + 1)) * scale)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
        % (int(w * scale) + 1, int(h * scale) + 1)
    ]
    fill = {WHITE: "#ffffff", BLACK: "#b0b0b0"}
    for t in sigma.triangles:
        cords = " ".join("%.2f,%.2f" % xy(pts[l]) for l in t)
        lines.append(
            '<polygon points="%s" fill="%s" stroke="black" stroke-width="1"/>'
            % (cords, fill[triangle_color(t)])
        )
    for i, a, b in sigma.walk_steps():
        xa, ya = xy(pts[a])
        xb, yb = xy(pts[b])
        lines.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#2040c0" stroke-width="2"/>'
            % (xa, ya, xb, yb)
        )
    for l in labs:
        x, y = xy(pts[l])
        lines.append('<circle cx="%.2f" cy="%.2f" r="3" fill="black"/>' % (x, y))
        lines.append(
            '<text x="%.2f" y="%.2f" font-size="10">%s</text>'
            % (x + 4, y - 4, "".join(map(str, elems_of(l))))
        )
    if dual_overlay or strands:
        g, segments = _dual(sigma)
    if dual_overlay:
        centers = {
            ("v", v): (sum(pts[l][0] for l in t) / 3, sum(pts[l][1] for l in t) / 3)
            for v, t in enumerate(sigma.triangles)
        }
        for e, (a, b) in enumerate(g.edges):
            if a in centers and b in centers:
                xa, ya = xy(centers[a])
                xb, yb = xy(centers[b])
                lines.append(
                    '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#c03030" stroke-width="1.5"/>'
                    % (xa, ya, xb, yb)
                )
        for key, (cx, cy) in centers.items():
            x, y = xy((cx, cy))
            color = "#ffffff" if g.colors[key[1]] == WHITE else "#000000"
            lines.append(
                '<circle cx="%.2f" cy="%.2f" r="5" fill="%s" stroke="black"/>' % (x, y, color)
            )
    if strands:
        # each strand runs through the midpoints of the segments it crosses
        anchors = [((pos(a)[0] + pos(b)[0]) / 2, (pos(a)[1] + pos(b)[1]) / 2) for a, b in segments]
        for i in range(1, sigma.n + 1):
            _, path = _strand_walk(g, i)
            cords = " ".join("%.2f,%.2f" % xy(anchors[e]) for e, _ in path)
            lines.append(
                '<polyline points="%s" fill="none" stroke="#108040" '
                'stroke-width="1" stroke-dasharray="4 2"/>' % cords
            )
    lines.append("</svg>")
    return "\n".join(lines)
