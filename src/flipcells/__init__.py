"""Flip graphs of zonotopal tilings, plabic graphs, and triple crossing
diagrams, with certified simply connected 2-complexes.

The names of `sections` (cross sections, dual graphs, UP/DOWN, move
realization) and `exact` (exact tiling checks) resolve on first use, which
imports their module: a certificate never compiles them.
"""

import importlib
import types

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
    PlabicTriangulation,
    apply_move,
    available_moves,
    build_plabic_complex,
    enumerate_plabic,
)
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
    zonotope_spec,
)

__version__ = "0.1.0"

# name -> the module that defines it, imported by `__getattr__` on first use
_LAZY = {
    **dict.fromkeys(
        "PlabicGraph TripleCrossingDiagram align_tilings as_tcd cross_section dual_graph embed_in_cyclic "
        "extend_to_tiling flip_move_correspondence is_reduced layer_step realize_trivalent_move "
        "strand_permutation triangulation_from_labels up_down_graph".split(),
        "sections",
    ),
    "to_tile": "exact",
    "validate_tiling": "exact",
}

# every public name: the classes and functions above, not the submodules
__all__ = sorted(
    [name for name, value in globals().items() if not (name[0] == "_" or isinstance(value, types.ModuleType))]
    + list(_LAZY)
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _LAZY[name], __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
