"""Flip graphs: vertices are canonical encodings, edges are labeled moves.

`bfs_closure` is the one enumerator behind tilings, plabic graphs and triple
crossing diagrams.  It holds each vertex once, as its canonical encoding,
and `PayloadView` decodes a vertex's object from it on access.  It scans
every vertex's moves exactly once and stores them.  The builders read
every cell from a pair of those stored moves at its lowest vertex, with
dictionary lookups alone: `commuting_square` tests a pair for a square,
and `move_cycle` walks the cycle of the moves inside a family.
`sorted_cells` is the canonical order of the cells found, and
`union_classes` the connected classes of a pair list.  `collector_paused`
keeps the cyclic garbage collector off while a build runs.
"""

from __future__ import annotations

import functools
import gc
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .errors import ResourceCapExceeded

DEFAULT_VERTEX_CAP = 200_000


@dataclass
class FlipGraph:
    """A connected graph of configurations related by single flips/moves.

    `vertices[i]` is the canonical encoding of vertex i (vertex ids are
    assigned in sorted encoding order, so the structure is deterministic);
    a zonotopal tiling is encoded as its packed key, big-endian `bytes`,
    and a plabic triangulation as its sorted triangles.  `ranks[i]` is the
    BFS distance from the canonical seed; for zonotopal tilings this equals
    the poset rank.  `payloads` is a `PayloadView` of the vertices: the
    decoded object of vertex i is built from `vertices[i]` each time it is
    read, and none is kept.

    `moves[i]` maps the label of every move available at vertex i to the
    vertex it leads to, in the order the producer scanned them.  Edges are
    read from it: one per adjacent pair u < w, labelled by the first move at
    u that reaches w.
    """

    vertices: list[Any]
    edges: list[tuple[int, int, Any]]
    ranks: list[int]
    min_vertex: int
    max_vertex: int | None = None
    payloads: PayloadView | None = None
    moves: list[dict[Any, int]] | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def is_single_cycle(self) -> bool:
        """A cycle through three or more vertices.  A `bfs_closure` graph is
        connected, so two distinct move targets at every vertex and as many
        edges as vertices make it one cycle."""
        return (
            self.n_vertices >= 3
            and self.n_vertices == self.n_edges
            and all(len(set(out.values())) == 2 for out in self.moves)
        )

    def to_dot(self, name: str = "flipgraph") -> str:
        """GraphViz text with rank-based layering hints."""
        lines = ["graph %s {" % name, "  node [shape=circle, fontsize=8];"]
        by_rank: dict[int, list[int]] = {}
        for i, r in enumerate(self.ranks):
            by_rank.setdefault(r, []).append(i)
        for r in sorted(by_rank):
            members = " ".join(str(i) for i in by_rank[r])
            lines.append("  { rank=same; %s }" % members)
        for u, v in sorted((min(u, v), max(u, v)) for u, v, _ in self.edges):
            lines.append("  %d -- %d;" % (u, v))
        lines.append("}")
        return "\n".join(lines)


class PayloadView(Sequence):
    """The decoded objects behind a list of encodings, as a read-only
    sequence: `decode(key)` builds, and so checks, each one when it is read
    (by index, slice or iteration); none is kept."""

    def __init__(self, decode: Callable[[Any], Any], keys: list[Any]):
        self.decode = decode
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.decode(key) for key in self._keys[i]]
        return self.decode(self._keys[i])

    def __iter__(self):
        return map(self.decode, self._keys)


def bfs_closure(
    seed: Any,
    expand: Callable[[list[Any]], Iterable[Iterable[tuple[Any, Any]]]],
    decode: Callable[[Any], Any],
    vertex_cap: int,
    overflow: str,
) -> FlipGraph:
    """BFS closure of a move relation from the encoding `seed`.

    The BFS holds encodings only: hashable, ordered, canonical keys.
    `expand(frontier)` yields, for the keys of a BFS level, each one's
    labelled moves `(label, next key)` in scan order; it is called once per
    level, so each vertex is scanned exactly once.  Vertex ids follow sorted
    key order and ranks are BFS depths; `payloads` decodes a key by
    `decode` on access.  More than `vertex_cap` vertices raise
    ResourceCapExceeded(`overflow`).  Labels must be unique among the moves
    of one vertex.
    """
    visited = {seed: 0}  # key -> discovery id, in discovery order
    depth = [0]
    found: list[list[tuple[Any, int]]] = []  # by discovery id = expansion order
    frontier = [seed]
    level = 0
    while frontier:
        next_frontier = []
        for out in expand(frontier):
            row = []
            for label, key in out:
                w = visited.get(key)
                if w is None:
                    w = len(visited)
                    if w >= vertex_cap:
                        raise ResourceCapExceeded(overflow, partial_count=w)
                    visited[key] = w
                    depth.append(level + 1)
                    next_frontier.append(key)
                row.append((label, w))
            found.append(row)
        frontier = next_frontier
        level += 1

    keys = list(visited)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    remap = [0] * len(order)
    for new, old in enumerate(order):
        remap[old] = new
    moves = [{label: remap[w] for label, w in found[old]} for old in order]
    edges = []
    for u, out in enumerate(moves):
        firsts: dict[int, Any] = {}
        for label, w in out.items():
            if w > u:
                firsts.setdefault(w, label)
        edges.extend((u, w, label) for w, label in sorted(firsts.items()))
    vertices = [keys[i] for i in order]
    return FlipGraph(
        vertices,
        edges,
        [depth[i] for i in order],
        remap[0],
        payloads=PayloadView(decode, vertices),
        moves=moves,
    )


def commuting_square(moves: list[dict[Any, int]], v: int, a: Any, va: int, b: Any, vb: int):
    """The square `(v, va, vab, vb)` that the moves `a` from v to va and
    `b` from v to vb close, or None: `a` then `b` and `b` then `a` meet at
    vab above v, and the four vertices are distinct.  Paired only over
    moves to higher ids, as the builders pair them, each square is found
    once, from its lowest corner: the one an all-corner scan finds first.
    """
    vab = moves[va].get(b)
    if vab is None or vab <= v or vab != moves[vb].get(a):
        return None
    quad = (v, va, vab, vb)
    return quad if len(set(quad)) == 4 else None


def collector_paused(func: Callable) -> Callable:
    """Decorate `func` to keep the cyclic garbage collector off in every call.

    A build allocates millions of long-lived containers and frees none of
    them, so the collections it would trigger find nothing to collect.  The
    wrapper is a plain try/finally: the collector's state on entry is
    restored on every exit, errors included, and a nested call leaves it
    off until the outermost call exits.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def move_cycle(
    graph: FlipGraph,
    start: int,
    allowed: Callable[[Any], bool],
    expected: int,
    by_id: bool = False,
) -> list[int]:
    """The cycle through `start` walked by the moves whose label is `allowed`.

    Every vertex on it must have exactly two allowed moves, and the cycle
    must have `expected` vertices.  The walk leaves `start` by its first
    allowed move in scan order, or towards the lower vertex id if `by_id`.
    """

    def nbrs(v):
        return [w for label, w in graph.moves[v].items() if allowed(label)]

    first = nbrs(start)
    if len(first) != 2:
        raise AssertionError("restricted moves at vertex %d are not 2-regular" % start)
    cycle = [start]
    prev, cur = start, min(first) if by_id else first[0]
    while cur != start:
        cycle.append(cur)
        if len(cycle) > expected:
            raise AssertionError("restricted cycle longer than %d" % expected)
        step = [w for w in nbrs(cur) if w != prev]
        if len(step) != 1:
            raise AssertionError("restricted moves at vertex %d are not 2-regular" % cur)
        prev, cur = cur, step[0]
    if len(cycle) != expected:
        raise AssertionError("restricted cycle length %d != %d" % (len(cycle), expected))
    return cycle


def sorted_cells(cells: dict[frozenset[int], tuple]) -> list[tuple]:
    """The values of `cells`, keyed by vertex set, in the canonical cell
    order: by sorted vertex set."""
    return [cells[key] for key in sorted(cells, key=sorted)]


def union_classes(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The class of each of 0..n-1 under the equivalence that `pairs`
    generates, classes numbered in order of their lowest member."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    # every root is its class's lowest member, so it is met first as itself
    number: dict[int, int] = {}
    return [number.setdefault(find(x), len(number)) for x in range(n)]
