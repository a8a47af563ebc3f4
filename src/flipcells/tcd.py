"""Triple crossing diagrams through their plabic images.

A (minimal) triple crossing diagram is stored as the bipartite-normalized
plabic data it corresponds to: white regions triangulated, black regions
fully contracted.  The state is therefore (label collection, white
triangles); black regions are recomputed from the labels.  The 2<->2 moves
are white trivalent flips, and square moves followed by re-contraction of
the black side.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import plabic
from .combinat import BLACK, WHITE, DecoratedPermutation
from .errors import ArgumentError, ValidationError
from .flipgraph import DEFAULT_VERTEX_CAP, FlipGraph, bfs_closure, commuting_squares, move_cycle
from .geometry import shoelace2, triangle_area2
from .plabic import (
    PlabicGraph,
    PlabicTriangulation,
    _black_cliques,
    _chain_pairs,
    _fan_triangles,
    _norm_tri,
    available_moves,
    is_reduced,
    pos,
    seed_triangulation,
    strand_permutation,
    triangle_color,
)


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


@dataclass(frozen=True)
class TCDState:
    """Normal form of a diagram: labels plus the white triangulation."""

    n: int
    k: int
    whites: tuple[tuple[int, int, int], ...]
    labels: tuple[int, ...]
    boundary: tuple[int, ...]

    def key(self):
        return (self.whites, self.labels)

    def label_set(self) -> frozenset[int]:
        return frozenset(self.labels)

    def black_cliques(self) -> dict[int, list[int]]:
        """Union mask -> members (labels) in convex (removed-element) order."""
        return _black_cliques(self.labels, self.n)

    def representative(self) -> PlabicTriangulation:
        """Trivalent representative: black cliques fanned canonically."""
        tris = list(self.whites)
        for poly in self.black_cliques().values():
            tris.extend(_fan_triangles(poly))
        return PlabicTriangulation.make(self.n, self.k, tris, self.boundary)


def normalize(sigma: PlabicTriangulation) -> TCDState:
    """Contract the black side of a trivalent plabic triangulation."""
    whites = tuple(sorted(t for t in sigma.triangles if triangle_color(t) == WHITE))
    return TCDState(sigma.n, sigma.k, whites, tuple(sorted(sigma.labels())), sigma.boundary)


@dataclass(frozen=True)
class TCDMove:
    """A 2<->2 move: a white flip, or a square relabel plus re-contraction."""

    kind: str  # "M1" or "M2"
    removed_whites: tuple[tuple[int, int, int], ...]
    added_whites: tuple[tuple[int, int, int], ...]
    center: int = 0
    replacement: int = 0

    def support_labels(self) -> frozenset[int]:
        out = {self.center, self.replacement} - {0}
        for t in self.removed_whites + self.added_whites:
            out.update(t)
        return frozenset(out)


def _white_moves(state: TCDState) -> list[TCDMove]:
    """White trivalent flips of the state (via its representative)."""
    rep = state.representative()
    out = []
    for m in available_moves(rep):
        if m.kind == "M1":
            out.append(TCDMove("M1", m.removed, m.added))
    return out


def _square_moves(state: TCDState) -> list[TCDMove]:
    """Square sites of the contracted diagram: interior labels whose star is
    two white triangles alternating with two black regions."""
    labs = state.label_set()
    boundary_set = set(state.boundary)
    cliques = state.black_cliques()
    star_w: dict[int, list[tuple[int, int, int]]] = {}
    for t in state.whites:
        for lab in t:
            star_w.setdefault(lab, []).append(t)
    out = []
    for v in sorted(labs):
        if v in boundary_set:
            continue
        whites = star_w.get(v, [])
        if len(whites) != 2:
            continue
        black_faces = []
        for u, members in cliques.items():
            if v in members:
                idx = members.index(v)
                nb = (members[idx - 1], members[(idx + 1) % len(members)])
                black_faces.append((u, nb))
        if len(black_faces) != 2:
            continue
        faces = [("w", t, tuple(x for x in t if x != v)) for t in whites]
        faces += [("b", u, nb) for u, nb in black_faces]
        order = _chain_pairs([f[2] for f in faces])
        if order is None:
            continue
        kinds = [faces[i][0] for i in order]
        if kinds in (["w", "b", "w", "b"], ["b", "w", "b", "w"]):
            outer = sorted({x for f in faces for x in f[2]})
            if len(outer) != 4:
                continue
            all5 = [v] + outer
            common = all5[0]
            union = 0
            for lab in all5:
                common &= lab
                union |= lab
            diff = union & ~common
            if bin(diff).count("1") != 4:
                continue
            v2 = common | (diff & ~v)
            if v2 in labs:
                continue
            added = tuple(
                sorted(_norm_tri((nb[0], v2, nb[1])) for u, nb in black_faces)
            )
            out.append(TCDMove("M2", tuple(sorted(whites)), added, center=v, replacement=v2))
    return out


def apply_tcd_move(state: TCDState, move: TCDMove) -> TCDState:
    whites = set(state.whites)
    if move.kind == "M1":
        whites.difference_update(move.removed_whites)
        whites.update(move.added_whites)
        return TCDState(state.n, state.k, tuple(sorted(whites)), state.labels, state.boundary)
    whites.difference_update(move.removed_whites)
    whites.update(move.added_whites)
    labels = sorted(set(state.labels) - {move.center} | {move.replacement})
    return TCDState(state.n, state.k, tuple(sorted(whites)), tuple(labels), state.boundary)


def tcd_neighbors(state: TCDState) -> list[tuple[TCDMove, TCDState]]:
    """All 2<->2 neighbors of a normalized diagram, sorted canonically."""
    moves = _white_moves(state) + _square_moves(state)
    moves.sort(key=lambda m: (m.kind, m.removed_whites, m.added_whites, m.center))
    return [(m, apply_tcd_move(state, m)) for m in moves]


def seed_state(p: DecoratedPermutation) -> TCDState:
    return normalize(seed_triangulation(p))


def permutation_for_tcd(image) -> DecoratedPermutation:
    """Plain permutations get white (undecorated) fixed points."""
    image = tuple(image)
    fixed = [i for i in range(1, len(image) + 1) if image[i - 1] == i]
    return DecoratedPermutation.make(image, {i: WHITE for i in fixed})


def enumerate_tcd(p: DecoratedPermutation, vertex_cap: int = DEFAULT_VERTEX_CAP) -> FlipGraph:
    """BFS closure of the 2<->2 moves.  Stored moves are labelled by their
    TCDMove, edges by the move kind."""
    graph = bfs_closure(
        seed_state(p),
        lambda frontier: map(tcd_neighbors, frontier),
        vertex_cap,
        "vertex cap exceeded enumerating diagrams",
        key=TCDState.key,
    )
    graph.edges = [(u, v, move.kind) for u, v, move in graph.edges]
    return graph


# ---------------------------------------------------------------------------
# the complex T


_T_CELL_LEN = {1: 5, 2: 10, 3: 5}
_T_CELL_KIND = {1: "pentagon_white", 2: "decagon", 3: "pentagon_square"}


def _embedded_present(state: TCDState, family: frozenset, walk5) -> bool:
    labs = state.label_set()
    if any(b not in labs for b in walk5):
        return False
    area = abs(shoelace2([pos(b) for b in walk5]))
    if area == 0:
        return False
    total = sum(
        triangle_area2(pos(a), pos(b), pos(c))
        for a, b, c in state.whites
        if a in family and b in family and c in family
    )
    for u, members in state.black_cliques().items():
        if all(m in family for m in members):
            total += abs(shoelace2([pos(m) for m in members]))
    return total == area


def _disjoint_support(a: TCDMove, b: TCDMove) -> bool:
    return not a.support_labels() & b.support_labels()


def build_t_complex(p, vertex_cap: int = DEFAULT_VERTEX_CAP):
    """The 2-complex of triple crossing diagrams for a permutation.

    Accepts a plain one-line permutation or a DecoratedPermutation with
    white fixed points.  Returns (TwoComplex, info).
    """
    from .topology import TwoComplex

    if not isinstance(p, DecoratedPermutation):
        p = permutation_for_tcd(p)
    elif any(c != WHITE for _, c in p.fixed_color):
        raise ArgumentError("triple crossing diagrams have undecorated fixed points")
    graph = enumerate_tcd(p, vertex_cap=vertex_cap)
    k = graph.payloads[0].k

    cells = {}
    for quad, _, _ in commuting_squares(graph, _disjoint_support):
        cells.setdefault(frozenset(quad), ("quad", quad))

    # families outside, vertices inside
    for h, family, walk5 in plabic._embedded_candidates(p.n, k):
        if h > 3:
            continue
        for vid, state in enumerate(graph.payloads):
            if not _embedded_present(state, family, walk5):
                continue
            cycle = move_cycle(
                graph, vid, lambda m: m.support_labels() <= family, _T_CELL_LEN[h], by_id=True
            )
            cells.setdefault(frozenset(cycle), (_T_CELL_KIND[h], tuple(cycle)))

    cell_list = [
        (name, cyc)
        for _, (name, cyc) in sorted(cells.items(), key=lambda kv: tuple(sorted(kv[0])))
    ]
    complex_ = TwoComplex.from_graph(
        graph.n_vertices,
        [(u, v) for u, v, _ in graph.edges],
        [cyc for _, cyc in cell_list],
    )
    info = {
        "kind": "T",
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "cells": [(name, list(cyc)) for name, cyc in cell_list],
        "graph": graph,
    }
    return complex_, info
