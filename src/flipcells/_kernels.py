"""The numpy flip-availability scan, the tests' reference for the per-flip
update of `zonotope.FlipTables`; no library module imports it.

For every tiling and every (d+1)-subset S, the scan gathers the d+1 tiles
whose zero set lies in S, compares their plus-masks outside S and checks
that the in-S membership bits alternate, vectorized with numpy over all the
tilings.
"""

from __future__ import annotations

BACKEND = "numpy"


def scan_available(plus, tiles_idx, elem_bits, smask):
    """Availability matrix (n_tilings, n_subsets) for a frontier of tilings.

    `plus` is an unsigned matrix of per-tile plus-masks, one row per
    tiling; the remaining arrays are the columns of
    `ZonotopeSpec.flip_sites_table()`: tile indices, element bits and
    subset masks.
    """
    gathered = plus[:, tiles_idx]  # (n_tilings, n_subsets, d+1)
    prefix = gathered & ~smask[None, :, None]
    eq = (prefix == prefix[:, :, :1]).all(axis=2)
    bits = (gathered & elem_bits[None, :, :]) != 0
    alt = (bits[:, :, :-1] != bits[:, :, 1:]).all(axis=2)
    return eq & alt
