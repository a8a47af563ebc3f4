"""Zonotopal tilings: construction, validation, flips, enumeration, cells."""

import functools
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from flipcells import combinat as C
from flipcells import exact as E
from flipcells import plabic as P
from flipcells import topology as T
from flipcells import zonotope as Z
from flipcells import _kernels
from flipcells.errors import ArgumentError, PreconditionError, ValidationError
from flipcells.flipgraph import PayloadView, bfs_closure
from test_flipgraph import PINNED_HASHES, reference_enumerate_plabic

S = Z.SignedSubset.from_sign_string


class TestSpec:
    def test_vectors_32(self):
        assert Z.zonotope_spec(3, 2).v == ((1, 1), (1, 2), (1, 3))

    def test_vector_53(self):
        assert Z.zonotope_spec(5, 3).v[3] == (1, 4, 16)

    def test_degenerate_d1(self):
        assert Z.zonotope_spec(4, 1).v == ((1,), (1,), (1,), (1,))

    def test_bad_dimensions(self):
        with pytest.raises(ArgumentError):
            Z.zonotope_spec(3, 3)
        with pytest.raises(ArgumentError):
            Z.zonotope_spec(3, 0)

    def test_at_most_64_elements(self):
        assert Z.zonotope_spec(64, 63).n == 64
        for n in (65, 66, 70):
            with pytest.raises(ArgumentError, match="n <= 64"):
                Z.zonotope_spec(n, 1)


class TestTiles:
    def test_quadrilateral_tile(self):
        spec = Z.zonotope_spec(3, 2)
        verts = E.to_tile(spec, S("00-"))
        assert set(verts) == {(0, 0), (1, 1), (1, 2), (2, 3)}

    def test_point_tile(self):
        spec = Z.zonotope_spec(3, 2)
        assert E.to_tile(spec, S("+-+")) == ((2, 4),)

    def test_shifted_tile(self):
        spec = Z.zonotope_spec(3, 2)
        verts = E.to_tile(spec, S("0+0"))
        assert set(verts) == {(1, 2), (2, 3), (2, 5), (3, 6)}

    def test_disjointness_enforced(self):
        with pytest.raises(ValidationError):
            Z.SignedSubset(3, 0b011, 0b001)

    @pytest.mark.parametrize("text", ["+x-", "+ -", "+0-\n", "+O-"])
    def test_sign_string_of_other_characters_rejected(self, text):
        with pytest.raises(ValidationError):
            S(text)


class TestMinimalTiling:
    def test_z32_signs(self):
        mt = Z.minimal_tiling(Z.zonotope_spec(3, 2))
        assert set(mt.sign_strings()) == {"00-", "-00", "0+0"}

    def test_z43_two_tilings_one_flip_apart(self):
        spec = Z.zonotope_spec(4, 3)
        mt = Z.minimal_tiling(spec)
        flips = Z.available_flips(mt)
        assert len(flips) == 1
        other = Z.apply_flip(mt, flips[0])
        assert other.key() != mt.key()
        assert E.validate_tiling(spec, other).ok

    def test_zn1_chain(self):
        spec = Z.zonotope_spec(4, 1)
        mt = Z.minimal_tiling(spec)
        # tile with zero set {i} has everything below i built already
        for zero, plus in zip(spec.dsubsets, mt.plus):
            i = zero.bit_length()
            assert plus == (1 << (i - 1)) - 1

    def test_minimal_tilings_validate(self):
        for n, d in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]:
            spec = Z.zonotope_spec(n, d)
            assert E.validate_tiling(spec, Z.minimal_tiling(spec)).ok


def sample_point_tile_count(spec, tiles, rng, trials=200):
    """Sampling oracle: max number of tile interiors containing one point."""
    worst = 0
    for _ in range(trials):
        coeffs = [Fraction(rng.randrange(1, 999), 1000) for _ in range(spec.n)]
        pt = [
            sum(c * spec.v[i][p] for i, c in enumerate(coeffs))
            for p in range(spec.d)
        ]
        hits = 0
        for x in tiles:
            base = [0] * spec.d
            gens = []
            for i in range(1, spec.n + 1):
                bit = 1 << (i - 1)
                if x.plus & bit:
                    for p in range(spec.d):
                        base[p] += spec.v[i - 1][p]
                elif x.zero & bit:
                    gens.append(spec.v[i - 1])
            if len(gens) != spec.d:
                continue
            rhs = [Fraction(pt[p] - base[p]) for p in range(spec.d)]
            mat = [[Fraction(gens[j][p]) for j in range(spec.d)] for p in range(spec.d)]
            sol = _solve(mat, rhs)
            if sol and all(0 < c < 1 for c in sol):
                hits += 1
        worst = max(worst, hits)
    return worst


def _solve(mat, rhs):
    d = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [v / f for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                g = aug[r][col]
                aug[r] = [v - g * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][d] for r in range(d)]


class TestValidation:
    def test_minimal_z32_report(self):
        spec = Z.zonotope_spec(3, 2)
        rep = E.validate_tiling(spec, Z.minimal_tiling(spec))
        assert rep.ok
        assert rep.volume2 == 4  # |det v1 v2| + |det v1 v3| + |det v2 v3| = 1+2+1

    def test_overlapping_tiles_fail(self):
        spec = Z.zonotope_spec(3, 2)
        bad = [S("00-"), S("-00"), S("0-0")]
        rep = E.validate_tiling(spec, bad)
        assert not rep.ok
        assert any("overlap" in f for f in rep.failures)
        # sampling oracle agrees that some point is doubly covered
        assert sample_point_tile_count(spec, bad, random.Random(7)) >= 2
        good = Z.minimal_tiling(spec)
        assert sample_point_tile_count(spec, list(good.tiles()), random.Random(7)) <= 1

    def test_duplicate_zero_set_fails(self):
        spec = Z.zonotope_spec(3, 2)
        rep = E.validate_tiling(spec, [S("00-"), S("00+"), S("0+0")])
        assert not rep.ok
        assert not rep.one_tile_per_zero_set


class TestFlips:
    def test_z32_flip_site(self):
        spec = Z.zonotope_spec(3, 2)
        mt = Z.minimal_tiling(spec)
        flips = Z.available_flips(mt)
        assert len(flips) == 1
        site = flips[0]
        assert site.elements() == (1, 2, 3)
        assert site.bits == (0, 1, 0)
        assert site.prefix == 0

    def test_apply_and_involution(self):
        spec = Z.zonotope_spec(3, 2)
        mt = Z.minimal_tiling(spec)
        site = Z.available_flips(mt)[0]
        other = Z.apply_flip(mt, site)
        assert set(other.sign_strings()) == {"00+", "+00", "0-0"}
        back_site = Z.available_flips(other)[0]
        assert back_site.bits == (1, 0, 1)
        assert Z.apply_flip(other, back_site).key() == mt.key()

    def test_unavailable_flip_rejected(self):
        spec = Z.zonotope_spec(4, 2)
        mt = Z.minimal_tiling(spec)
        avail = {s.smask for s in Z.available_flips(mt)}
        missing = next(
            rec[0] for rec in spec.flip_sites_table() if rec[0] not in avail
        )
        with pytest.raises(PreconditionError):
            Z.apply_flip(mt, Z.FlipSite(missing, 0, (0, 1, 0)))

    def test_every_z53_tiling_has_two_flips(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 3))
        for t in g.payloads:
            assert len(Z.available_flips(t)) == 2

    def test_z42_monotone_path_to_top(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(4, 2))
        assert max(g.ranks) == math.comb(4, 3)
        cur = g.min_vertex
        for _ in range(4):
            cur = next(w for w in g.moves[cur].values() if g.ranks[w] == g.ranks[cur] + 1)
        assert cur == g.max_vertex


class TestEnumeration:
    def test_z32(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(3, 2))
        assert (g.n_vertices, g.n_edges) == (2, 1)

    def test_z42_eight_cycle(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(4, 2))
        assert (g.n_vertices, g.n_edges) == (8, 8)
        assert g.is_single_cycle()

    def test_z53_ten_cycle(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 3))
        assert (g.n_vertices, g.n_edges) == (10, 10)
        assert g.is_single_cycle()

    def test_z52_is_not_a_cycle(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 2))
        assert g.n_vertices > 10 and not g.is_single_cycle()

    def test_z31_weak_order(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(3, 1))
        assert g.n_vertices == 6  # fine tilings of Z(n,1) are orderings of [n]
        assert max(g.ranks) == math.comb(3, 2)

    def test_cap(self):
        from flipcells.errors import ResourceCapExceeded

        with pytest.raises(ResourceCapExceeded):
            Z.enumerate_tilings(Z.zonotope_spec(5, 2), vertex_cap=10)

    def test_cap_below_a_maximal_chain_skips_the_tables(self, monkeypatch):
        from flipcells.errors import ResourceCapExceeded

        # Z(4,2) has 8 tilings on a graded poset of top rank C(4,3) = 4
        spec = Z.zonotope_spec(4, 2)
        calls = []
        # the expander reads the flip tables, memoized per spec
        table = Z.ZonotopeSpec.flip_tables
        monkeypatch.setattr(Z.ZonotopeSpec, "flip_tables", lambda self: calls.append(self) or table(self))
        message = r"vertex cap 4 exceeded enumerating Z\(4,2\)"
        with pytest.raises(ResourceCapExceeded, match=message) as exc:
            Z.enumerate_tilings(spec, vertex_cap=4)
        assert (exc.value.partial_count, calls) == (0, [])
        # a cap that a maximal chain fits is left to the enumeration
        with pytest.raises(ResourceCapExceeded) as exc:
            Z.enumerate_tilings(spec, vertex_cap=5)
        assert exc.value.partial_count == 5 and calls
        assert Z.enumerate_tilings(spec, vertex_cap=8).n_vertices == 8

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (5, 3)])
    def test_volume_and_bijection_invariants(self, n, d):
        spec = Z.zonotope_spec(n, d)
        g = Z.enumerate_tilings(spec)
        expected = spec.total_volume2()
        for t in g.payloads:
            zeros = [x.zero for x in t.tiles()]
            assert sorted(zeros) == sorted(spec.dsubsets)
            assert sum(abs(spec.det_of(z)) for z in zeros) == expected
            assert all(bin(x.zero).count("1") == d for x in t.tiles())


class TestZComplex:
    def test_z53_single_decagon(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 3))
        _, cells = Z.build_z_complex(g)
        assert [kind for kind, _ in cells] == ["gon10"]

    def test_z42_single_octagon(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(4, 2))
        _, cells = Z.build_z_complex(g)
        assert [kind for kind, _ in cells] == ["gon8"]

    def test_z52_simply_connected(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 2))
        k, cells = Z.build_z_complex(g)
        assert T.h1(k) == (0, [])
        assert any(kind == "quad" for kind, _ in cells)

    def test_quadrilateral_symmetric_from_each_corner(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 2))
        _, cells = Z.build_z_complex(g)
        quads = [frozenset(cyc) for kind, cyc in cells if kind == "quad"]
        assert len(quads) == len(set(quads))
        # rebuilding the complex yields the same cell set (detection is
        # corner-independent because it scans every vertex)
        _, cells2 = Z.build_z_complex(g)
        assert [c for c in cells] == [c for c in cells2]

    def test_graph_without_moves_is_a_precondition_error(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(4, 2))
        g.moves = None
        with pytest.raises(PreconditionError):
            Z.build_z_complex(g)

    @pytest.mark.parametrize("n, d", [(5, 2), (6, 2), (6, 3), (7, 4)])
    def test_gons_are_the_coarse_tiles_of_the_per_vertex_rule(self, n, d):
        spec = Z.zonotope_spec(n, d)
        g = Z.enumerate_tilings(spec)
        # the reference rule: T is a coarse tile when the plus masks of the
        # tiles whose zero set lies in T agree outside T
        hits = set()
        for tmask in map(C.mask_of, itertools.combinations(range(1, n + 1), d + 2)):
            tls = [spec.tile_index(m) for m in spec.dsubsets if m & ~tmask == 0]
            for v, t in enumerate(g.payloads):
                if len({t.plus[ti] & ~tmask for ti in tls}) == 1:
                    hits.add((v, tmask))
        assert hits
        on_gons = []
        for kind, cyc in Z.build_z_complex(g)[1]:
            if kind == "quad":
                continue
            assert kind == "gon%d" % (2 * d + 4) and len(cyc) == 2 * d + 4
            steps = zip(cyc, cyc[1:] + cyc[:1])
            labels = {next(a for a, w in g.moves[u].items() if w == x) for u, x in steps}
            # two distinct (d+1)-subsets span the gon's tile T, and every
            # flip of the gon lies in it
            tmask = functools.reduce(operator.or_, labels)
            assert len(labels) > 1 and bin(tmask).count("1") == d + 2
            on_gons += [(v, tmask) for v in cyc]
        assert set(on_gons) == hits and len(on_gons) == len(hits)


def scan_tables(spec):
    """`flip_sites_table` as the arrays `_kernels.scan_available` reads:
    tile indices, element bits and site masks."""
    sites = spec.flip_sites_table()
    tiles_idx = np.array([rec[1] for rec in sites], dtype=np.int64)
    elem_bits = np.array([rec[2] for rec in sites], dtype=np.uint64)
    smask = np.array([rec[0] for rec in sites], dtype=np.uint64)
    return tiles_idx, elem_bits, smask


class TestKernels:
    def test_backends_agree(self):
        spec = Z.zonotope_spec(5, 2)
        g = Z.enumerate_tilings(spec)
        plus = np.array([t.plus for t in g.payloads], dtype=np.uint64)
        tiles_idx, elem_bits, smask = scan_tables(spec)
        out = _kernels.scan_available(plus, tiles_idx, elem_bits, smask)
        # row-by-row agreement with the reference implementation
        for row, t in enumerate(g.payloads):
            ref = {s.smask for s in Z.available_flips(t)}
            got = {int(smask[i]) for i in np.flatnonzero(out[row])}
            assert ref == got

    def test_no_coarse_tiles_when_d_is_n_minus_1(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(4, 3))
        assert Z.build_z_complex(g)[1] == []


class TestJson:
    def test_tiling_roundtrip(self):
        mt = Z.minimal_tiling(Z.zonotope_spec(5, 3))
        data = json.loads(json.dumps(E.tiling_to_json(mt)))
        assert E.tiling_from_json(data).key() == mt.key()

    @pytest.mark.parametrize("n, d, count", [(5, 3, 9), (5, 3, 11), (10**6, 5 * 10**5, 0)])
    def test_tile_count_checked_first(self, n, d, count):
        # the count is compared before a zero-set table is built, and without
        # computing all of a C(n, d) as large as C(10**6, 5 * 10**5)
        data = {"n": n, "d": d, "tiles": ["0" * n] * count}
        with pytest.raises(ValidationError, match=r"has C\(%d,%d\) tiles, not %d" % (n, d, count)):
            E.tiling_from_json(data)

    @pytest.mark.parametrize("n, d", [(3, 0), (3, 4), (3, -1)])
    def test_dimension_out_of_range(self, n, d):
        with pytest.raises(ValidationError, match="1 <= d <= n"):
            E.tiling_from_json({"n": n, "d": d, "tiles": []})

    def test_flipgraph_json_and_dot(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(4, 2))
        data = Z.flipgraph_to_json(g)
        assert data["n_vertices"] == 8
        assert len(data["edges"]) == 8
        dot = g.to_dot()
        assert "rank=same" in dot


class TestQuadSymmetry:
    def test_quads_seen_from_every_corner(self):
        # a commuting pair forms the same quadrilateral from each of its corners
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 2))
        _, cells = Z.build_z_complex(g)
        index = {key: i for i, key in enumerate(g.vertices)}
        for kind, cyc in cells:
            if kind != "quad":
                continue
            m = len(cyc)
            for i in range(m):
                u = cyc[i]
                want = {cyc[(i - 1) % m], cyc[(i + 1) % m]}
                nbrs = {
                    index[Z.apply_flip(g.payloads[u], s).key()]
                    for s in Z.available_flips(g.payloads[u])
                }
                assert want <= nbrs

    def test_z42_min_to_max_uses_four_distinct_sites(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(4, 2))
        labels = []
        cur = g.min_vertex
        adj = {}
        for u, v, smask in g.edges:
            adj.setdefault(u, []).append((v, smask))
            adj.setdefault(v, []).append((u, smask))
        for _ in range(4):
            cur, smask = next(
                (w, s) for w, s in adj[cur] if g.ranks[w] == g.ranks[cur] + 1
            )
            labels.append(smask)
        assert cur == g.max_vertex
        assert len(set(labels)) == 4


# ---------------------------------------------------------------------------
# keys: one int per tiling, its inversion set, decoded on demand


def reference_tilings(spec):
    """The tuple-key BFS over the numpy scan that `enumerate_tilings`
    replaced: vertices are plus tuples, and each successor is copied from
    its vertex and flipped by a Python XOR loop, one available site of the
    scan at a time."""
    tiles_idx, elem_bits, smask_np = scan_tables(spec)
    sites = spec.flip_sites_table()

    def expand(frontier):
        mat = np.array(frontier, dtype=np.uint64)
        avail = _kernels.scan_available(mat, tiles_idx, elem_bits, smask_np)
        for key, row in zip(frontier, avail):
            out = []
            for s in np.flatnonzero(row):
                smask, tls, bits = sites[s]
                new = list(key)
                for ti, bit in zip(tls, bits):
                    new[ti] ^= bit
                out.append((smask, tuple(new)))
            yield out

    return bfs_closure(Z.minimal_tiling(spec).plus, expand, lambda plus: Z.Tiling(spec, plus), 10**6, "cap")


# Z(n,d) with n on both sides of 8, 16 and 32 bits, the field widths of the
# packed plus masks that keyed tilings before; the hashes were computed with
# tuple keys
KEY_WIDTH_CASES = [
    (6, 2, PINNED_HASHES["Z(6,2)"]),
    (9, 6, PINNED_HASHES["Z(9,6)"]),
    (17, 15, "ac457623e3cfef5b819417bd78d6c3f74bb8a88642c89fda6a408aab5a6bbb19"),
    (33, 31, "8e4c2f7d80a3d10434291bd95db320145f185ddc62416e377b66a8868c60685a"),
]

# every Z(n, d) with n <= 6, Z(7, 3) and the cases above
KEY_CASES = [(n, d) for n in range(2, 7) for d in range(1, n)] + [(7, 3), (9, 6), (17, 15), (33, 31)]


class TestPackedKeys:
    def test_round_trip_and_order(self):
        # a payload's key is its vertex's, decoding that key gives back its
        # plus masks, and vertex ids, which follow key order, follow the
        # order of the plus tuples
        for n, d in KEY_CASES:
            g = Z.enumerate_tilings(Z.zonotope_spec(n, d))
            tilings = list(g.payloads)
            assert [t.key() for t in tilings] == g.vertices
            assert [g.payloads.decode(t.key()).plus for t in tilings] == [t.plus for t in tilings]
            assert all(a.plus < b.plus for a, b in zip(tilings, tilings[1:]))

    @pytest.mark.parametrize("n, d", KEY_CASES, ids=["Z(%d,%d)" % case for case in KEY_CASES])
    def test_keys_are_inversion_sets(self, n, d):
        # the minimal tiling's key is 0 and the maximal one's has all
        # C(n, d+1) bits; a vertex's rank is its key's popcount; the keys of
        # an edge differ in the one bit of its label's site: bit max(S) of
        # the tile S \ {max S}, the sites ordered as those bits are in the
        # plus tuple, first tile and largest element highest
        spec = Z.zonotope_spec(n, d)
        g = Z.enumerate_tilings(spec)
        top = math.comb(n, d + 1)
        assert Z.minimal_tiling(spec).key() == g.vertices[g.min_vertex] == 0
        assert g.payloads[g.max_vertex].key() == g.vertices[g.max_vertex] == (1 << top) - 1
        assert g.ranks == [key.bit_count() for key in g.vertices]
        labels = [C.mask_of(c) for c in itertools.combinations(range(1, n + 1), d + 1)]
        first = sorted(labels, key=lambda s: (spec.tile_index(s & ~(1 << s.bit_length() - 1)), -s.bit_length()))
        bit_of = {s: 1 << (top - 1 - i) for i, s in enumerate(first)}
        for u, w, label in g.edges:
            assert g.vertices[u] ^ g.vertices[w] == bit_of[label]

    @pytest.mark.parametrize(
        "n, d, digest", KEY_WIDTH_CASES, ids=["Z(%d,%d)" % case[:2] for case in KEY_WIDTH_CASES]
    )
    def test_every_key_width_matches_the_tuple_reference(self, n, d, digest):
        spec = Z.zonotope_spec(n, d)
        g = Z.enumerate_tilings(spec)
        ref = reference_tilings(spec)
        assert [t.plus for t in g.payloads] == ref.vertices
        assert (g.edges, g.ranks, g.min_vertex) == (ref.edges, ref.ranks, ref.min_vertex)
        assert [list(out.items()) for out in g.moves] == [list(out.items()) for out in ref.moves]
        assert Z.build_z_complex(g)[0].canonical_hash() == digest

    def test_payload_view_matches_the_tiling_list(self):
        # the view of a tiling graph and of X of pi(6,3) against eager lists
        spec, p = Z.zonotope_spec(5, 2), C.cyclic_decorated(6, 3)
        cases = [
            (Z.enumerate_tilings(spec).payloads, [Z.Tiling(spec, plus) for plus in reference_tilings(spec).vertices]),
            (P.enumerate_plabic(p).payloads, list(reference_enumerate_plabic(p).payloads)),
        ]
        assert [len(eager) for _, eager in cases] == [62, 148]
        for view, eager in cases:
            n = len(eager)
            assert isinstance(view, PayloadView) and len(view) == n
            for i in (0, 1, n // 2, n - 1, -1, -n):
                assert view[i] == eager[i]
            for cut in (slice(3, 9), slice(None, None, -5), slice(n - 2, n + 38), slice(5, 2)):
                assert view[cut] == eager[cut]
            assert list(view) == eager
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    view[i]

    def test_payloads_are_decoded_and_checked_on_access(self, monkeypatch):
        spec = Z.zonotope_spec(5, 2)
        g = Z.enumerate_tilings(spec)
        want = reference_tilings(spec).vertices[7]
        checked = []
        post_init = Z.Tiling.__post_init__
        monkeypatch.setattr(Z.Tiling, "__post_init__", lambda self: checked.append(self.plus) or post_init(self))
        assert g.payloads[7].key() == g.vertices[7]
        assert checked == [want]

    @pytest.mark.parametrize("mask", [16, 256, -4])
    def test_plus_masks_stay_inside_the_ground_set(self, mask):
        # n = 4: each mask has at most 4 bits, also past a byte or negative
        with pytest.raises(ValidationError, match="exceeds the ground set"):
            Z.Tiling(Z.zonotope_spec(4, 2), (mask, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# the flip rule as the higher Bruhat order: inversion sets and packets

# every Z(n, d) with n <= 6, and Z(7, 3)
BRUHAT_CASES = [(n, d) for n in range(2, 7) for d in range(1, n)] + [(7, 3)]


class TestBruhatTables:
    @pytest.mark.parametrize("n, d", BRUHAT_CASES, ids=["Z(%d,%d)" % case for case in BRUHAT_CASES])
    def test_masks_and_successors_match_the_decoded_tilings(self, n, d):
        spec = Z.zonotope_spec(n, d)
        tables = spec.flip_tables()
        low_of = {label: low for low, (label, _) in tables.moves.items()}
        g = Z.enumerate_tilings(spec)
        # each vertex's inversion set and mask, carried up from the minimal
        # tiling by `flip_up` along one move into it, as the expander does
        state = {g.min_vertex: (0, tables.available(0))}
        for v in sorted(range(g.n_vertices), key=g.ranks.__getitem__):
            u, avail = state[v]
            t = g.payloads[v]
            sites = Z.available_flips(t)
            # the moves of v are its available flips, in ascending mask order
            assert list(g.moves[v]) == [site.smask for site in sites]
            assert avail == sum(map(low_of.get, g.moves[v])) == tables.available(u)
            assert g.ranks[v] == bin(u).count("1")
            for site in sites:
                low = low_of[site.smask]
                succ = Z.apply_flip(t, site).key()
                assert g.vertices[g.moves[v][site.smask]] == succ == g.vertices[v] ^ tables.moves[low][1]
                if not u & low:
                    state.setdefault(g.moves[v][site.smask], (u | low, tables.flip_up(u, avail, low)))
        assert len(state) == g.n_vertices

    @pytest.mark.parametrize("n, d", BRUHAT_CASES, ids=["Z(%d,%d)" % case for case in BRUHAT_CASES])
    def test_graph_matches_the_numpy_reference(self, n, d):
        spec = Z.zonotope_spec(n, d)
        g, ref = Z.enumerate_tilings(spec), reference_tilings(spec)
        assert [t.plus for t in g.payloads] == ref.vertices
        assert (g.edges, g.ranks, g.min_vertex) == (ref.edges, ref.ranks, ref.min_vertex)
        assert [list(out.items()) for out in g.moves] == [list(out.items()) for out in ref.moves]

    def test_two_ends_per_packet(self):
        # Z(5,2): the packet of {1,2,3,4} is 123, 124, 134, 234 in lex order;
        # from the minimal tiling its ends are the first and the last
        spec = Z.zonotope_spec(5, 2)
        tables = spec.flip_tables()
        low_of = {label: low for low, (label, _) in tables.moves.items()}
        packet = [low_of[C.mask_of(c)] for c in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))]
        assert tables.available(0) & sum(packet) == packet[0] | packet[3]
        # after 123 the prefix may grow by 124 or shrink back; 234 is then
        # blocked by this packet
        after = tables.flip_up(0, tables.available(0), packet[0])
        assert after & sum(packet) == packet[0] | packet[1]
        assert after == tables.available(packet[0])
