"""Flip graphs of zonotopal tilings, plabic graphs, and triple crossing
diagrams, with certified simply connected 2-complexes."""

from .combinat import (
    BLACK,
    WHITE,
    DecoratedPermutation,
    GrassmannNecklace,
    LabelCollection,
    cyclic_decorated,
    decorated_of,
    extend_to_maximal_ws,
    helicity,
    is_weakly_separated,
    necklace_of,
    necklace_shift,
)
from .plabic import (
    Move,
    PlabicGraph,
    PlabicTriangulation,
    align_tilings,
    apply_move,
    available_moves,
    build_plabic_complex,
    cross_section,
    dual_graph,
    embed_in_cyclic,
    enumerate_plabic,
    extend_to_tiling,
    flip_move_correspondence,
    is_reduced,
    layer_step,
    realize_trivalent_move,
    strand_permutation,
    triangulation_from_labels,
    up_down_graph,
)
from .tcd import TripleCrossingDiagram, as_tcd
from .topology import (
    GroupPresentation,
    TwoComplex,
    certificate,
    certify_trivial,
    h1,
    pi1_presentation,
)
from .zonotope import (
    FlipSite,
    SignedSubset,
    Tiling,
    ZonotopeSpec,
    apply_flip,
    available_flips,
    build_z_complex,
    enumerate_tilings,
    minimal_tiling,
    to_tile,
    validate_tiling,
    zonotope_spec,
)

__version__ = "0.1.0"
