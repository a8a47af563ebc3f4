"""Flip-availability scan kernel for tiling enumeration.

The scan is the innermost loop of `zonotope.enumerate_tilings`: for every
tiling in a BFS frontier and every (d+1)-subset S, gather the d+1 tiles
whose zero set lies in S, compare their plus-masks outside S and check that
the in-S membership bits alternate.  It is vectorized with numpy over the
whole frontier.
"""

from __future__ import annotations

BACKEND = "numpy"


def scan_available(plus, tiles_idx, elem_bits, smask):
    """Availability matrix (n_tilings, n_subsets) for a frontier of tilings.

    `plus` is an unsigned matrix of per-tile plus-masks, as read by
    `ZonotopeSpec.key_rows`; the remaining tables come from
    `ZonotopeSpec.flip_tables_np()`.
    """
    gathered = plus[:, tiles_idx]  # (n_tilings, n_subsets, d+1)
    prefix = gathered & ~smask[None, :, None]
    eq = (prefix == prefix[:, :, :1]).all(axis=2)
    bits = (gathered & elem_bits[None, :, :]) != 0
    alt = (bits[:, :, :-1] != bits[:, :, 1:]).all(axis=2)
    return eq & alt
