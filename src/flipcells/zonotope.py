"""Fine zonotopal tilings of the cyclic zonotope Z(n, d).

A tiling is stored as one plus-mask per d-subset of [n]: the tile whose
zero set is the d-subset Z has X+ = plus-mask, X- = complement of both.
Subsets are bitmasks over [n] (bit i-1 represents element i) and are kept
in colexicographic order, which coincides with ascending mask order.  The
flip graph keys each tiling by its plus masks packed into one `bytes`
object (`ZonotopeSpec.pack`), and decodes a `Tiling` only when asked.

Only the enumeration's flip scan uses numpy.  `build_z_complex` reads the
2-cells, the quads of commuting flips and the (2d+4)-gons of coarse
(d+2)-tiles, from the moves the enumeration stored, in one pass.

The exact check of a tiling's geometry and the tilings' JSON form are in
`exact`, which the package loads on first use.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

from . import _kernels
from .combinat import elems_of, mask_of
from .errors import ArgumentError, PreconditionError, ResourceCapExceeded, ValidationError
from .flipgraph import (
    DEFAULT_VERTEX_CAP,
    FlipGraph,
    bfs_closure,
    collector_paused,
    commuting_square,
    move_cycle,
    sorted_cells,
)


@dataclass(frozen=True)
class ZonotopeSpec:
    """Moment-curve data for Z(n, d) with parameters t_i = i.

    The degenerate case d = n (a single tile) is allowed here so that layer
    stacking can rebuild Z(3, 3); the public `zonotope_spec` stays strict.
    """

    n: int
    d: int

    def __post_init__(self):
        if self.d < 1 or self.d > self.n:
            raise ArgumentError("need 1 <= d <= n")

    @property
    def t(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @property
    def v(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(ti**p for p in range(self.d)) for ti in self.t)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @lru_cache(maxsize=None)
    def _dsubsets(self) -> tuple[tuple[int, ...], dict[int, int]]:
        masks = sorted(mask_of(c) for c in itertools.combinations(range(1, self.n + 1), self.d))
        return tuple(masks), {m: i for i, m in enumerate(masks)}

    @property
    def dsubsets(self) -> tuple[int, ...]:
        """Zero-set masks in colex (= ascending mask) order, one per tile."""
        return self._dsubsets()[0]

    def tile_index(self, zero_mask: int) -> int:
        return self._dsubsets()[1][zero_mask]

    @property
    def key_width(self) -> int:
        """Bytes per plus mask in a packed key: the narrowest of 1, 2, 4 and
        8 that holds n bits."""
        return next(w for w in (1, 2, 4, 8) if self.n <= 8 * w)

    @lru_cache(maxsize=None)
    def _key_struct(self) -> struct.Struct:
        code = "BHIQ"[self.key_width.bit_length() - 1]
        return struct.Struct(">%d%s" % (len(self.dsubsets), code))

    def pack(self, plus) -> bytes:
        """The packed key of a tiling: its plus masks in colex order, each
        big-endian in `key_width` bytes.  All keys of a spec have one length
        and every mask one width, so keys compare as bytes exactly as the
        plus tuples compare: vertex ids follow the same order."""
        return self._key_struct().pack(*plus)

    def unpack(self, key: bytes) -> tuple[int, ...]:
        """The plus masks of a packed key, in colex order."""
        return self._key_struct().unpack(key)

    def key_rows(self, keys):
        """The plus masks of a list of packed keys as one native unsigned
        matrix (len(keys), C(n, d)), read by one `np.frombuffer`."""
        import numpy as np  # deferred: only the tiling scans need numpy

        width = self.key_width
        rows = np.frombuffer(b"".join(keys), dtype=">u%d" % width)
        return rows.reshape(len(keys), len(self.dsubsets)).astype("u%d" % width, copy=False)

    def row_keys(self, rows) -> list[bytes]:
        """The packed keys of a matrix of plus masks, inverse to `key_rows`.
        numpy computes in native byte order, so the rows are put back into
        big-endian order before each is cut into one `bytes` object."""
        import numpy as np  # deferred: only the tiling scans need numpy

        width = self.key_width
        rows = np.ascontiguousarray(rows, dtype=">u%d" % width)
        return rows.view(np.dtype((np.void, width * len(self.dsubsets)))).ravel().tolist()

    @lru_cache(maxsize=None)
    def flip_sites_table(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
        """For every (d+1)-subset S (ascending mask order): (smask, tile
        indices of the d+1 tiles with zero set S \\ {i}, element bits of the
        removed i, both in ascending element order)."""
        out = []
        for comb in itertools.combinations(range(1, self.n + 1), self.d + 1):
            smask = mask_of(comb)
            tiles = tuple(self.tile_index(smask & ~(1 << (i - 1))) for i in comb)
            bits = tuple(1 << (i - 1) for i in comb)
            out.append((smask, tiles, bits))
        out.sort(key=lambda rec: rec[0])
        return tuple(out)

    @lru_cache(maxsize=None)
    def flip_tables_np(self):
        """`flip_sites_table` as arrays (tile indices, element bits, smask),
        the masks in the native dtype of `key_rows`."""
        import numpy as np  # deferred: only the tiling scan needs numpy

        sites = self.flip_sites_table()
        dtype = "u%d" % self.key_width
        tiles_idx = np.array([rec[1] for rec in sites], dtype=np.int64)
        elem_bits = np.array([rec[2] for rec in sites], dtype=dtype)
        smask = np.array([rec[0] for rec in sites], dtype=dtype)
        return tiles_idx, elem_bits, smask

    def det_of(self, mask: int) -> int:
        """det of the moment-curve vectors indexed by a d-subset (Vandermonde)."""
        elems = elems_of(mask)
        prod = 1
        for a, b in itertools.combinations(elems, 2):
            prod *= self.t[b - 1] - self.t[a - 1]
        return prod

    def total_volume2(self) -> int:
        return sum(abs(self.det_of(m)) for m in self.dsubsets)


@dataclass(frozen=True)
class SignedSubset:
    """A pair of disjoint subsets (X+, X-) of [n]; X0 is the complement."""

    n: int
    plus: int
    minus: int

    def __post_init__(self):
        if self.plus & self.minus:
            raise ValidationError("plus and minus sets must be disjoint")
        full = (1 << self.n) - 1
        if (self.plus | self.minus) & ~full:
            raise ValidationError("signed subset exceeds the ground set")

    @property
    def zero(self) -> int:
        return ((1 << self.n) - 1) & ~(self.plus | self.minus)

    def sign_string(self) -> str:
        out = []
        for i in range(self.n):
            bit = 1 << i
            out.append("+" if self.plus & bit else "-" if self.minus & bit else "0")
        return "".join(out)

    @staticmethod
    def from_sign_string(s: str) -> "SignedSubset":
        if s.strip("+-0"):
            raise ValidationError('a sign string has characters from "+-0" only: %r' % s)
        plus = sum(1 << i for i, c in enumerate(s) if c == "+")
        minus = sum(1 << i for i, c in enumerate(s) if c == "-")
        return SignedSubset(len(s), plus, minus)


# Largest n whose sign masks fit the uint64 tables of the tiling scans.
MAX_N = 64


def zonotope_spec(n: int, d: int) -> ZonotopeSpec:
    if d < 1 or d >= n:
        raise ArgumentError("need 1 <= d < n")
    if n > MAX_N:
        raise ArgumentError("need n <= %d: the tiling scans hold sign masks as uint64" % MAX_N)
    return ZonotopeSpec(n, d)


@dataclass(frozen=True)
class Tiling:
    """A fine zonotopal tiling: one plus-mask per d-subset (colex order)."""

    spec: ZonotopeSpec
    plus: tuple[int, ...]

    def __post_init__(self):
        if len(self.plus) != len(self.spec.dsubsets):
            raise ValidationError("tiling must carry one tile per d-subset of [n]")
        outside = ~self.spec.full_mask
        for zero, plus in zip(self.spec.dsubsets, self.plus):
            if plus & zero:
                raise ValidationError("plus mask overlaps the zero set")
            if plus & outside:
                raise ValidationError("plus mask exceeds the ground set")

    def tile(self, zero_mask: int) -> SignedSubset:
        p = self.plus[self.spec.tile_index(zero_mask)]
        return SignedSubset(self.spec.n, p, self.spec.full_mask & ~(p | zero_mask))

    def tiles(self) -> tuple[SignedSubset, ...]:
        return tuple(self.tile(z) for z in self.spec.dsubsets)

    def key(self) -> bytes:
        """The packed key of `ZonotopeSpec.pack`: the vertex encoding of the
        flip graph of `enumerate_tilings`."""
        return self.spec.pack(self.plus)

    def sign_strings(self) -> list[str]:
        return [x.sign_string() for x in self.tiles()]

    @staticmethod
    def from_tiles(spec: ZonotopeSpec, tiles) -> "Tiling":
        by_zero = {}
        for x in tiles:
            z = x.zero
            if z in by_zero:
                raise ValidationError("two tiles share the zero set %s" % (elems_of(z),))
            by_zero[z] = x.plus
        try:
            plus = tuple(by_zero[z] for z in spec.dsubsets)
        except KeyError as exc:
            raise ValidationError("missing tile for zero set") from exc
        return Tiling(spec, plus)


@dataclass(frozen=True)
class FlipSite:
    """An available flip: the (d+1)-subset S, the common prefix S_i^+ and the
    alternating membership bits s_i (in ascending element order)."""

    smask: int
    prefix: int
    bits: tuple[int, ...]

    def elements(self) -> tuple[int, ...]:
        return elems_of(self.smask)


def minimal_tiling(spec: ZonotopeSpec) -> Tiling:
    """Bottom of the flip poset: lower faces of the lift with heights t_i^d.

    With heights h_i = t_i^d the supporting polynomial for the d-subset S is
    prod_{i in S}(t - t_i), so j joins X+ exactly when S has an odd number of
    elements above j.
    """
    plus = []
    for zero in spec.dsubsets:
        elems = elems_of(zero)
        p = 0
        for j in range(1, spec.n + 1):
            bit = 1 << (j - 1)
            if zero & bit:
                continue
            above = sum(1 for i in elems if i > j)
            if above % 2 == 1:
                p |= bit
        plus.append(p)
    return Tiling(spec, tuple(plus))


def available_flips(tiling: Tiling) -> tuple[FlipSite, ...]:
    """All flip sites available in the tiling (Def: common prefixes outside S
    and strictly alternating membership bits along S)."""
    spec = tiling.spec
    out = []
    for smask, tiles, bits in spec.flip_sites_table():
        prefix = tiling.plus[tiles[0]] & ~smask
        ok = True
        prev = None
        for ti, bit in zip(tiles, bits):
            p = tiling.plus[ti]
            if p & ~smask != prefix:
                ok = False
                break
            b = 1 if p & bit else 0
            if prev is not None and b == prev:
                ok = False
                break
            prev = b
        if ok:
            sbits = tuple(1 if tiling.plus[ti] & bit else 0 for ti, bit in zip(tiles, bits))
            out.append(FlipSite(smask, prefix, sbits))
    return tuple(out)


def apply_flip(tiling: Tiling, site: FlipSite) -> Tiling:
    """Toggle the membership of i between X_i^+ and X_i^- for every i in S."""
    spec = tiling.spec
    for avail in available_flips(tiling):
        if avail.smask == site.smask:
            break
    else:
        raise PreconditionError("flip %s is not available" % (site.elements(),))
    plus = list(tiling.plus)
    _, tiles, bits = next(rec for rec in spec.flip_sites_table() if rec[0] == site.smask)
    for ti, bit in zip(tiles, bits):
        plus[ti] ^= bit
    return Tiling(spec, tuple(plus))


# ---------------------------------------------------------------------------
# enumeration


@collector_paused
def enumerate_tilings(spec: ZonotopeSpec, vertex_cap: int = DEFAULT_VERTEX_CAP) -> FlipGraph:
    """BFS closure of the flip relation from the minimal tiling.

    Vertices are packed keys (`ZonotopeSpec.pack`), so vertex ids follow
    the order of the plus tuples.  A frontier is read by one
    `np.frombuffer`, every tiling in it is checked against its zero sets
    (each vertex sits in exactly one frontier), and it is scanned in one
    batch by `_kernels.scan_available`.  Every successor key is then built
    at once: the available (tiling, site) pairs in row-major order, their
    rows gathered and the site's element bits XORed into its d+1 tiles.
    Each flip is labelled by its (d+1)-subset mask.  `payloads` decodes
    and checks a `Tiling` from its key on access.

    Asserts gradedness and the uniqueness of the extremes.  numpy is
    imported on the first call, not with the package, so commands that
    enumerate no tilings start without it.  A cap below C(n, d+1) + 1, the
    length of a maximal chain of the graded flip poset, raises before the
    flip tables are built.
    """
    overflow = "vertex cap %d exceeded enumerating Z(%d,%d)" % (vertex_cap, spec.n, spec.d)
    if spec_top_rank(spec) + 1 > vertex_cap:
        raise ResourceCapExceeded(overflow, partial_count=0)
    import numpy as np  # deferred: only the tiling scan needs numpy

    tiles_idx, elem_bits, smask_np = spec.flip_tables_np()
    zeros = np.array(spec.dsubsets, dtype=smask_np.dtype)

    def expand(frontier):
        plus = spec.key_rows(frontier)
        if (plus & zeros).any():
            raise ValidationError("plus mask overlaps the zero set")
        rows, sites = np.nonzero(_kernels.scan_available(plus, tiles_idx, elem_bits, smask_np))
        succ = plus[rows]
        succ[np.arange(len(rows))[:, None], tiles_idx[sites]] ^= elem_bits[sites]
        keys = spec.row_keys(succ)
        labels = smask_np[sites].tolist()
        start = 0
        for end in np.bincount(rows, minlength=len(frontier)).cumsum().tolist():
            yield zip(labels[start:end], keys[start:end])
            start = end

    def decode(key):
        return Tiling(spec, spec.unpack(key))

    graph = bfs_closure(spec.pack(minimal_tiling(spec).plus), expand, decode, vertex_cap, overflow)
    ranks = graph.ranks
    for u, w, _ in graph.edges:
        if abs(ranks[u] - ranks[w]) != 1:
            raise AssertionError("flip graph is not graded by BFS depth")
    top = spec_top_rank(spec)
    minima = [i for i, r in enumerate(ranks) if r == 0]
    maxima = [i for i, r in enumerate(ranks) if r == top]
    if len(minima) != 1 or len(maxima) != 1 or max(ranks) != top:
        raise AssertionError("flip poset extremes are not unique at ranks 0 and C(n,d+1)")
    graph.max_vertex = maxima[0]
    return graph


def flipgraph_to_json(graph: FlipGraph) -> dict:
    """The flip graph of `enumerate_tilings`: each edge with its flip's
    (d+1)-subset, and each vertex as the sign strings of its tiles."""
    return {
        "schema_version": 1,
        "n_vertices": graph.n_vertices,
        "edges": [{"u": u, "v": v, "flip": list(elems_of(label))} for u, v, label in graph.edges],
        "ranks": list(graph.ranks),
        "min_vertex": graph.min_vertex,
        "max_vertex": graph.max_vertex,
        "vertices": [t.sign_strings() for t in graph.payloads],
    }


def spec_top_rank(spec: ZonotopeSpec) -> int:
    return math.comb(spec.n, spec.d + 1)


# ---------------------------------------------------------------------------
# the flip 2-complex: commuting squares and coarse-tile (2d+4)-gons


@collector_paused
def build_z_complex(graph: FlipGraph):
    """2-cells over the flip graph: operationally commuting flip pairs give
    quadrilaterals; coarse (d+2)-subset tiles give (2d+4)-gon cycles.

    Both are read in one pass over the pairs of moves to higher vertex ids
    at each vertex v, from the moves stored by `enumerate_tilings`.  Two
    flips whose union T has d + 2 elements lie in one packet and never
    commute.  They are a gon's flips at its lowest vertex when T is a
    coarse tile of v: the plus masks of T's C(d+2, 2) member tiles agree
    outside T.  The gon is then walked from v by the flips inside T.  Any
    other pair is a quad when it commutes, by `commuting_square`.  Returns
    (TwoComplex, cells) where cells is a list of (kind, vertex cycle).
    """
    from .topology import TwoComplex

    if not graph.payloads or not graph.moves:
        raise PreconditionError("build_z_complex needs tiling payloads and moves")
    spec: ZonotopeSpec = graph.payloads[0].spec
    gon = 2 * spec.d + 4
    # the tile indices of the C(d+2, 2) tiles whose zero set lies in T
    members: dict[int, list[int]] = {}
    for comb in itertools.combinations(range(1, spec.n + 1), spec.d + 2):
        tmask = mask_of(comb)
        members[tmask] = [spec.tile_index(tmask & ~mask_of(ij)) for ij in itertools.combinations(comb, 2)]

    moves = graph.moves
    cells: dict[frozenset[int], tuple[str, tuple[int, ...]]] = {}
    for v, out in enumerate(moves):
        up = [(label, w) for label, w in out.items() if w > v]
        plus = None
        for (a, va), (b, vb) in itertools.combinations(up, 2):
            tmask = a | b
            tiles = members.get(tmask)
            if tiles is None:
                quad = commuting_square(moves, v, a, va, b, vb)
                if quad is not None:
                    cells.setdefault(frozenset(quad), ("quad", quad))
                continue
            if plus is None:
                plus = spec.unpack(graph.vertices[v])
            if len({plus[i] & ~tmask for i in tiles}) == 1:
                # the walk leaves v by its first flip inside T in scan order,
                # not towards the lower vertex id: the pinned hashes record it
                cycle = tuple(move_cycle(graph, v, lambda smask: smask & ~tmask == 0, gon))
                cells.setdefault(frozenset(cycle), ("gon%d" % gon, cycle))

    cell_list = sorted_cells(cells)
    complex_ = TwoComplex.from_graph(
        graph.n_vertices,
        [(u, v) for u, v, _ in graph.edges],
        [cyc for _, cyc in cell_list],
    )
    return complex_, cell_list
