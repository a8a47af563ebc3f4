"""Triple crossing diagrams through their plabic images.

A (minimal) triple crossing diagram is the bipartite-normalized plabic graph
it corresponds to: white vertices trivalent, black regions fully contracted.
Its 2<->2 moves are the white trivalent flips (M1) and the square moves
(M2); a black flip (M3) leaves the contracted diagram unchanged.  So the
complex T is the complex X of trivalent plabic graphs modulo black flips:
`plabic.build_plabic_complex(p, "T")` builds it as it builds X and Y, from
one row of `plabic._QUOTIENTS`.  This module keeps the diagram's validation
and the reading of a plain permutation's fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import BLACK, WHITE, DecoratedPermutation
from .errors import ValidationError
from .plabic import PlabicGraph, is_reduced, strand_permutation


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


def permutation_for_tcd(image, colors: dict[int, str] | None = None) -> DecoratedPermutation:
    """The connectivity of triple crossing diagrams from a one-line image:
    a fixed point that `colors` leaves bare is white (undecorated).  A
    color on a point that is not fixed raises ArgumentError; a black fixed
    point is kept, and `plabic.build_plabic_complex` rejects it for T."""
    image = tuple(image)
    fixed = [i for i in range(1, len(image) + 1) if image[i - 1] == i]
    return DecoratedPermutation.make(image, dict.fromkeys(fixed, WHITE) | (colors or {}))
