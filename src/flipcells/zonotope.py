"""Fine zonotopal tilings of the cyclic zonotope Z(n, d).

A tiling is stored as one plus-mask per d-subset of [n]: the tile whose
zero set is the d-subset Z has X+ = plus-mask, X- = complement of both.
Subsets are bitmasks over [n] (bit i-1 represents element i) and are kept
in colexicographic order, which coincides with ascending mask order.

A tiling is an element of the higher Bruhat order B(n, d).  The flip graph
keys it by its inversion set, one int with one bit per (d+1)-subset
(`Tiling.key`), and decodes a `Tiling` only when asked.  The enumeration
carries each tiling's available flips as one int mask, updated per flip
from the packets that contain it (`FlipTables`).  `build_z_complex` reads
the 2-cells, the quads of commuting flips and the (2d+4)-gons of coarse
(d+2)-tiles, from the moves the enumeration stored and the keys, in one
pass.

The exact check of a tiling's geometry and the tilings' JSON form are in
`exact`, which the package loads on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

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
    def key_sites(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
        """The records of `flip_sites_table` in the order of their bits in a
        tiling's key (`Tiling.key`), bit 0 first: as the bits they are read
        off are in the plus tuple, the first tile and its largest element
        highest.  So keys sort as the plus tuples do."""
        return tuple(sorted(self.flip_sites_table(), key=lambda rec: (-rec[1][-1], rec[2][-1])))

    @lru_cache(maxsize=None)
    def flip_tables(self) -> FlipTables:
        """The flip rule of `enumerate_tilings`, built once per (n, d)."""
        return FlipTables(self)

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


# Largest n accepted, a bound on the input that the CLI reports as a usage
# error.  No encoding needs it: keys are ints of any width.
MAX_N = 64


def zonotope_spec(n: int, d: int) -> ZonotopeSpec:
    if d < 1 or d >= n:
        raise ArgumentError("need 1 <= d < n")
    if n > MAX_N:
        raise ArgumentError("need n <= %d" % MAX_N)
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

    def key(self) -> int:
        """The inversion set, the vertex encoding of `enumerate_tilings`: bit
        b holds bit max(S) of the tile S \\ {max S}, S the b-th site of
        `ZonotopeSpec.key_sites`.  It is 0 in the minimal tiling and only a
        flip at S toggles it."""
        plus = self.plus
        return sum(1 << b for b, (_, tiles, bits) in enumerate(self.spec.key_sites()) if plus[tiles[-1]] & bits[-1])

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


class FlipTables:
    """The flip rule of Z(n, d) as the higher Bruhat order B(n, d).

    A tiling is reached from the minimal one by flipping each (d+1)-subset
    of its inversion set U once.  U is an int: bit i is the i-th site of
    `flip_sites_table`, in ascending mask order.  The packet of a (d+2)-set
    P is P minus one element, in lex order.  S can be flipped at U when,
    for every P that contains S, U with S toggled meets P's packet in a lex
    prefix or a lex suffix (Manin-Schechtman; Ziegler).  At a consistent U
    exactly two members of a packet keep it so when toggled, its two ends.
    `available` applies the rule from scratch.

    A flip at S changes only the packets that contain S, so only the
    availability of S's packet mates.  The mate T in P = S u T is available
    after S is added exactly when it is an end of P and, unless it was
    available before, an end of each of its other packets: `flip_up`.

    `moves[1 << i]` is site i's label (its mask) and its bit in a tiling's
    key (`Tiling.key`), which the flip toggles.
    """

    def __init__(self, spec: ZonotopeSpec):
        sites = spec.flip_sites_table()
        index = {smask: i for i, (smask, _, _) in enumerate(sites)}
        key_bit = {smask: 1 << b for b, (smask, _, _) in enumerate(spec.key_sites())}
        self.moves = {1 << i: (smask, key_bit[smask]) for i, (smask, _, _) in enumerate(sites)}
        self._full = (1 << len(sites)) - 1
        # (members, ends): ends[U & members] is the mask of P's two ends at U
        packets = []
        of: dict[int, list[tuple[int, dict[int, int]]]] = {low: [] for low in self.moves}
        for comb in itertools.combinations(range(1, spec.n + 1), spec.d + 2):
            pmask = mask_of(comb)
            # P's packet in lex order: P minus its largest element first
            lex = [1 << index[pmask & ~(1 << (p - 1))] for p in reversed(comb)]
            consistent = {sum(lex[:j]) for j in range(len(lex) + 1)} | {sum(lex[j:]) for j in range(len(lex) + 1)}
            packet = (sum(lex), {pat: sum(b for b in lex if pat ^ b in consistent) for pat in consistent})
            packets.append(packet)
            for b in lex:
                of[b].append(packet)
        self._packets = tuple(packets)
        # per site S: the mask that clears S's mates, and per packet P of S
        # the mate of S that is P's other end, with the mate's other packets,
        # for every pattern of P that a consistent U with S in it can show
        self._keep: dict[int, int] = {}
        self._mates: dict[int, tuple] = {}
        for low in self.moves:
            keep, mates = self._full, []
            for members, ends in of[low]:
                keep &= ~(members ^ low)
                mate_of = {}
                for pat, both in ends.items():
                    if pat & both & low:
                        mate = both ^ low
                        mate_of[pat] = (mate, tuple(q for q in of[mate] if q[0] != members))
                mates.append((members, mate_of))
            self._keep[low], self._mates[low] = keep, tuple(mates)

    def available(self, u: int) -> int:
        """The mask of the sites that can be flipped at the inversion set u."""
        blocked = 0
        for members, ends in self._packets:
            blocked |= members & ~ends[u & members]
        return self._full & ~blocked

    def flip_up(self, u: int, avail: int, low: int) -> int:
        """The available sites after adding site `low` to the inversion set
        u, whose available sites are `avail`."""
        u |= low
        after = avail & self._keep[low]
        for members, mate_of in self._mates[low]:
            mate, others = mate_of[u & members]
            if not avail & mate:
                for m, ends in others:
                    if not ends[u & m] & mate:
                        mate = 0
                        break
            after |= mate
        return after


# ---------------------------------------------------------------------------
# enumeration


@collector_paused
def enumerate_tilings(spec: ZonotopeSpec, vertex_cap: int = DEFAULT_VERTEX_CAP) -> FlipGraph:
    """BFS closure of the flip relation from the minimal tiling.

    Vertices are keys (`Tiling.key`), so vertex ids follow the order of the
    plus tuples.  The seed's key is 0.  Each vertex of a frontier carries
    its inversion set in `FlipTables`' site order and its mask of available
    flips.  Its moves are its available sites in ascending mask order, each
    labelled by its (d+1)-subset mask and leading to the key with the
    site's bit toggled.  A move up the poset reaches a vertex of the next
    frontier, which takes its state from the first such move: the flip
    added to the inversion set, and the availability updated by
    `FlipTables.flip_up`.  `payloads` decodes a key by applying the flips
    of its sites to the minimal tiling, and checks the `Tiling`, on access.

    Asserts gradedness and the uniqueness of the extremes.  A cap below
    C(n, d+1) + 1, the length of a maximal chain of the graded flip poset,
    raises before the flip tables are built.
    """
    overflow = "vertex cap %d exceeded enumerating Z(%d,%d)" % (vertex_cap, spec.n, spec.d)
    if spec_top_rank(spec) + 1 > vertex_cap:
        raise ResourceCapExceeded(overflow, partial_count=0)
    tables = spec.flip_tables()
    moves, flip_up = tables.moves, tables.flip_up
    # key -> (inversion set, available sites), per frontier
    state = {0: (0, tables.available(0))}

    def expand(frontier):
        nonlocal state
        up = {}
        for key in frontier:
            u, avail = state[key]
            out = []
            rest = avail
            while rest:
                low = rest & -rest
                rest ^= low
                label, bit = moves[low]
                succ = key ^ bit
                out.append((label, succ))
                if not u & low and succ not in up:
                    up[succ] = (u | low, flip_up(u, avail, low))
            yield out
        state = up

    minimal, sites = minimal_tiling(spec).plus, spec.key_sites()

    def decode(key):
        plus = list(minimal)
        while key:
            b = key.bit_length() - 1
            key ^= 1 << b
            _, tiles, bits = sites[b]
            for ti, bit in zip(tiles, bits):
                plus[ti] ^= bit
        return Tiling(spec, tuple(plus))

    graph = bfs_closure(0, expand, decode, vertex_cap, overflow)
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
    outside T.  That is read off v's key: j outside Z is in Z's plus mask
    when it is in the minimal tiling's, which holds j when Z has an odd
    number of elements above j, XOR when the key holds the site Z u {j}.
    The gon is then walked from v by the flips inside T.  Any other pair is
    a quad when it commutes, by `commuting_square`.  Returns (TwoComplex,
    cells) where cells is a list of (kind, vertex cycle).
    """
    from .topology import TwoComplex

    if not graph.payloads or not graph.moves:
        raise PreconditionError("build_z_complex needs tiling payloads and moves")
    spec: ZonotopeSpec = graph.payloads[0].spec
    gon = 2 * spec.d + 4
    key_bit = dict(spec.flip_tables().moves.values())
    # per (d+2)-set T and each bit j outside it, (A, B): A holds the key
    # bits of the sites Z u {j} over T's member tiles Z, and B those whose Z
    # has an odd number of bits above j; bit j of the members' plus masks
    # agrees when (key & A) ^ B is 0 or A
    coarse: dict[int, list[tuple[int, int]]] = {}
    for comb in itertools.combinations(range(1, spec.n + 1), spec.d + 2):
        tmask = mask_of(comb)
        zeros = [tmask & ~mask_of(ij) for ij in itertools.combinations(comb, 2)]
        coarse[tmask] = [
            (sum(key_bit[z | 1 << j] for z in zeros), sum(key_bit[z | 1 << j] for z in zeros if (z >> j).bit_count() & 1))
            for j in range(spec.n)
            if not tmask >> j & 1
        ]

    moves, keys = graph.moves, graph.vertices
    cells: dict[frozenset[int], tuple[str, tuple[int, ...]]] = {}
    for v, out in enumerate(moves):
        up = [(label, w) for label, w in out.items() if w > v]
        for (a, va), (b, vb) in itertools.combinations(up, 2):
            tmask = a | b
            tests = coarse.get(tmask)
            if tests is None:
                quad = commuting_square(moves, v, a, va, b, vb)
                if quad is not None:
                    cells.setdefault(frozenset(quad), ("quad", quad))
                continue
            if all((keys[v] & sites) ^ odd in (0, sites) for sites, odd in tests):
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
