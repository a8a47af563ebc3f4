"""Triple crossing diagrams through their plabic images.

A (minimal) triple crossing diagram is stored as the bipartite-normalized
plabic data it corresponds to: white regions triangulated, black regions
fully contracted.  The state is therefore (label collection, white
triangles); black regions are recomputed from the labels.  The 2<->2 moves
are plabic `Move`s: white trivalent flips of the white triangles, and square
moves followed by re-contraction of the black side.  The complex T is read
with the plabic cell finders, applied to the contracted states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .combinat import BLACK, WHITE, DecoratedPermutation
from .errors import ArgumentError, ValidationError
from .flipgraph import DEFAULT_VERTEX_CAP, FlipGraph, bfs_closure, collector_paused, commuting_squares, sorted_cells
from .plabic import (
    Move,
    PlabicGraph,
    PlabicTriangulation,
    _black_cliques,
    _chain_pairs,
    _norm_tri,
    embedded_cells,
    is_reduced,
    seed_triangulation,
    square_relabel,
    strand_permutation,
    triangle_color,
    trivalent_flips,
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

    def black_cliques(self) -> dict[int, list[int]]:
        """Union mask -> members (labels) in convex (removed-element) order.

        Computed once per state and shared by every caller: do not mutate.
        """
        return self._cliques

    @cached_property
    def _cliques(self) -> dict[int, list[int]]:
        return _black_cliques(self.labels, self.n)

    def polygons(self) -> tuple[tuple[int, ...], ...]:
        """The polygons that tile the region: white triangles and black cliques."""
        return self.whites + tuple(tuple(m) for m in self.black_cliques().values())


def normalize(sigma: PlabicTriangulation) -> TCDState:
    """Contract the black side of a trivalent plabic triangulation."""
    whites = tuple(sorted(t for t in sigma.triangles if triangle_color(t) == WHITE))
    return TCDState(sigma.n, sigma.k, whites, tuple(sorted(sigma.labels())), sigma.boundary)


def _square_moves(state: TCDState) -> list[Move]:
    """Square sites of the contracted diagram: interior labels whose star is
    two white triangles alternating with two black regions."""
    labs = set(state.labels)
    boundary_set = set(state.boundary)
    cliques = state.black_cliques()
    star_w: dict[int, list[tuple[int, int, int]]] = {}
    for t in state.whites:
        for lab in t:
            star_w.setdefault(lab, []).append(t)
    out = []
    for v in state.labels:
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
        if kinds not in (["w", "b", "w", "b"], ["b", "w", "b", "w"]):
            continue
        v2 = square_relabel(v, {x for f in faces for x in f[2]})
        if v2 is None or v2 in labs:
            continue
        added = tuple(sorted(_norm_tri((nb[0], v2, nb[1])) for u, nb in black_faces))
        out.append(Move("M2", tuple(sorted(whites)), added, center=v, replacement=v2))
    return out


def apply_tcd_move(state: TCDState, move: Move) -> TCDState:
    whites = set(state.whites).difference(move.removed).union(move.added)
    labels = state.labels
    if move.kind == "M2":
        labels = tuple(sorted(set(labels) - {move.center} | {move.replacement}))
    return TCDState(state.n, state.k, tuple(sorted(whites)), labels, state.boundary)


def tcd_neighbors(state: TCDState) -> list[tuple[Move, TCDState]]:
    """All 2<->2 neighbors of a normalized diagram, sorted canonically."""
    moves = trivalent_flips(state.whites, state.boundary) + _square_moves(state)
    moves.sort(key=lambda m: (m.kind, m.removed, m.added, m.center))
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
    plabic Move, edges by the move kind."""
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


_T_CELLS = {1: ("pentagon_white", 5), 2: ("decagon", 10), 3: ("pentagon_square", 5)}


def _disjoint_support(a: Move, b: Move) -> bool:
    return not a.support_labels() & b.support_labels()


@collector_paused()
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
    cells = {}
    for quad, _, _ in commuting_squares(graph, _disjoint_support):
        cells.setdefault(frozenset(quad), ("quad", quad))
    cells.update(embedded_cells(graph, _T_CELLS))
    cell_list = sorted_cells(cells)
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
