"""Plabic triangulations: cross-sections, duals, strands, moves, layers."""

import hashlib
import itertools
import json
import random

import pytest

from flipcells import combinat as C
from flipcells import exact as E
from flipcells import plabic as P
from flipcells import sections as S
from flipcells import topology as T
from flipcells import zonotope as Z
from flipcells.errors import ArgumentError, MalformedGraphError, PreconditionError, ValidationError
from flipcells.geometry import orient, winding_number
from flipcells.zonotope import elems_of, mask_of

WHITE, BLACK = C.WHITE, C.BLACK


def square_moves_by_level(tiling):
    """Reference route: the square moves of every cross-section, counted
    independently of the flips."""
    return {
        k: [m for m in P.available_moves(S.cross_section(tiling, k)) if m.kind == "M2"]
        for k in range(1, tiling.spec.n)
    }


def labels_of(sigma):
    return {frozenset(elems_of(l)) for l in sigma.labels()}


def revcolex_seed(p):
    """The seed built like `seed_triangulation`, but from the maximal weakly
    separated extension of the necklace that scans candidates in reverse
    colex order."""
    necklace = C.necklace_of(p)
    n, k = p.n, necklace.k
    walk = tuple(mask_of(s) for s in necklace.sets)
    have = set(walk)
    for cand in sorted((mask_of(c) for c in itertools.combinations(range(1, n + 1), k)),
                       reverse=True):
        if all(C.is_weakly_separated_mask(cand, m) for m in have):
            have.add(cand)
    forced = {(min(a, b), max(a, b)) for a, b in zip(walk, walk[1:] + walk[:1]) if a != b}
    return S.restrict_to_walk(P._tile_labels(n, k, sorted(have), P.cyclic_walk(n, k), forced), walk)


def reference_seed(p):
    """Reference route for `seed_triangulation`: the colex scan tests each
    candidate pair by pair against every kept label, every label pair is
    tested again before tiling, and the strands are walked on the dual
    graph."""
    necklace = C.necklace_of(p)
    n, k = p.n, necklace.k
    walk = tuple(mask_of(s) for s in necklace.sets)
    if k == 0 or k == n:
        return P.PlabicTriangulation.make(n, k, [], walk)
    walk_pts = [P.pos(m) for m in walk]
    kept = sorted(set(walk))
    for cand in C.colex_masks(n, k):
        if cand in walk or not all(C.is_weakly_separated_mask(cand, m) for m in kept):
            continue
        if winding_number(walk_pts, P.pos(cand)):
            kept.append(cand)
    for a, b in itertools.combinations(kept, 2):
        assert C.is_weakly_separated_mask(a, b)
    sigma = P._tile_labels(n, k, sorted(kept), walk)
    assert S.strand_permutation(S.dual_graph(sigma)) == p
    return sigma


def count_triangulations(m):
    """Independent oracle: enumerate triangulations of a convex m-gon."""

    def rec(vs):
        if len(vs) < 3:
            return 1
        if len(vs) == 3:
            return 1
        total = 0
        a, b = vs[0], vs[1]
        for apex in vs[2:]:
            i = vs.index(apex)
            total += rec(vs[1 : i + 1]) * rec([vs[0]] + vs[i:])
        return total

    return rec(list(range(m)))


class TestCrossSection:
    def test_z43_level2(self):
        spec = Z.zonotope_spec(4, 3)
        for t in (Z.minimal_tiling(spec),
                  Z.apply_flip(Z.minimal_tiling(spec), Z.available_flips(Z.minimal_tiling(spec))[0])):
            s = S.cross_section(t, 2)
            assert [sorted(elems_of(m)) for m in s.boundary] == [[1, 2], [2, 3], [3, 4], [1, 4]]
            inner = s.interior_labels()
            assert len(inner) == 1
            assert elems_of(next(iter(inner))) in ((1, 3), (2, 4))
            colors = sorted(P.triangle_color(tr) for tr in s.triangles)
            assert colors == [BLACK, BLACK, WHITE, WHITE]
            s.check()

    def test_level1_all_white_fan(self):
        spec = Z.zonotope_spec(5, 3)
        s = S.cross_section(Z.minimal_tiling(spec), 1)
        assert all(P.triangle_color(t) == WHITE for t in s.triangles)
        assert all(bin(l).count("1") == 1 for l in s.labels())
        assert len(s.triangles) == 3

    def test_z53_level2_connectivity(self):
        spec = Z.zonotope_spec(5, 3)
        for t in Z.enumerate_tilings(spec).payloads:
            g = S.dual_graph(S.cross_section(t, 2))
            assert S.strand_permutation(g) == C.cyclic_decorated(5, 2)

    def test_bad_level(self):
        spec = Z.zonotope_spec(5, 3)
        with pytest.raises(ArgumentError):
            S.cross_section(Z.minimal_tiling(spec), 5)


class TestPositions:
    def test_weakly_separated_labels_have_distinct_points(self):
        # plabic geometry places every label at pos(), so the labels of one
        # triangulation must have distinct points
        for n in range(1, 10):
            for k in range(n + 1):
                by_point = {}
                for c in itertools.combinations(range(1, n + 1), k):
                    by_point.setdefault(P.pos(mask_of(c)), []).append(mask_of(c))
                for same in by_point.values():
                    for a, b in itertools.combinations(same, 2):
                        assert not C.is_weakly_separated_mask(a, b), (elems_of(a), elems_of(b))

    def test_labels_that_are_not_weakly_separated_can_collide(self):
        a, b = mask_of([1, 2, 6, 7]), mask_of([1, 3, 4, 8])
        assert P.pos(a) == P.pos(b) == (16, 90)
        assert not C.is_weakly_separated_mask(a, b)


class TestDualAndStrands:
    def test_square_graph(self):
        s = P.seed_triangulation(C.cyclic_decorated(4, 2))
        g = S.dual_graph(s)
        assert S.strand_permutation(g).image == (3, 4, 1, 2)
        assert S.is_reduced(g).ok
        internal_deg = [g.degree(v) for v in range(len(g.colors))]
        assert internal_deg == [3, 3, 3, 3]

    def test_pentagon_fan_dual_is_tree(self):
        s = P.seed_triangulation(C.cyclic_decorated(5, 1))
        g = S.dual_graph(s)
        assert all(c == WHITE for c in g.colors)
        assert len(g.colors) == 3
        assert all(g.degree(v) == 3 for v in range(3))
        n_internal_edges = sum(1 for a, b in g.edges if a[0] == b[0] == "v")
        assert n_internal_edges == 2  # a path on three vertices

    def test_single_black_lollipop(self):
        g = S.PlabicGraph(
            1, (BLACK,), (((("v", 0)), ("b", 1)),), (((0, 0),),)
        )
        p = S.strand_permutation(g)
        assert p.image == (1,)
        assert p.color_of(1) == BLACK
        assert S.is_reduced(g).ok

    def test_hanging_edge_necklace(self):
        nk = C.GrassmannNecklace.make(5, [[1, 3, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 3, 5]])
        p = C.decorated_of(nk)
        s = P.seed_triangulation(p)
        assert len(s.triangles) == 1
        assert P.triangle_color(s.triangles[0]) == BLACK
        g = S.dual_graph(s)
        assert (("b", 1), ("b", 2)) in g.edges
        assert S.strand_permutation(g) == p
        assert S.is_reduced(g).ok

    def test_doubled_edge_not_reduced(self):
        u, v = ("v", 0), ("v", 1)
        edges = ((u, v), (u, v), (u, ("b", 1)), (v, ("b", 2)))
        rotations = (((1, 0), (0, 0), (2, 0)), ((3, 0), (0, 1), (1, 1)))
        g = S.PlabicGraph(2, (WHITE, BLACK), edges, rotations)
        rep = S.is_reduced(g)
        assert not rep.ok

    def test_all_isolated_identity_reduced(self):
        p = C.cyclic_decorated(4, 0)
        g = S.dual_graph(P.seed_triangulation(p))
        assert S.is_reduced(g).ok
        assert S.strand_permutation(g) == p

    def test_boundary_edge_needs_exactly_one_edge(self):
        u = ("v", 0)
        # b_2 has no edge, b_1 has two
        g = S.PlabicGraph(2, (WHITE,), ((u, ("b", 1)), (u, ("b", 1))), (((0, 0), (1, 0)),))
        for i in (1, 2):
            with pytest.raises(MalformedGraphError):
                g.boundary_edge(i)
        with pytest.raises(MalformedGraphError):
            S.strand_permutation(g)
        g = S.PlabicGraph(2, (WHITE,), ((u, ("b", 1)), (("b", 2), u)), (((0, 0), (1, 1)),))
        assert (g.boundary_edge(1), g.boundary_edge(2)) == (0, 1)

    def test_ccw_sides_turn_counterclockwise(self):
        # the dual graph's rotations are `_ccw_sides` slot order, so the
        # sides' midpoints must turn counterclockwise about the centroid;
        # coordinates are scaled by 6 to keep both integral
        def scaled(*labels):
            pts = [P.pos(l) for l in labels]
            return tuple(6 // len(pts) * sum(p[i] for p in pts) for i in (0, 1))

        def triangulations():
            for n in range(1, 7):
                for p in C.all_decorated_permutations(n):
                    yield from P.enumerate_plabic(p).payloads
            for tiling in Z.enumerate_tilings(Z.zonotope_spec(6, 3)).payloads:
                for k in range(1, 6):
                    yield S.cross_section(tiling, k)

        tris = {t for sigma in triangulations() for t in sigma.triangles}
        for t in tris:
            sides = P._ccw_sides(t)
            centroid = scaled(*t)
            mids = [scaled(*seg) for seg, _, _ in sides]
            assert [orient(centroid, mids[i - 1], mids[i]) for i in range(3)] == [1, 1, 1], t
            for (a, b), c, side in sides:
                assert (a < b and c not in (a, b)) and orient(P.pos(a), P.pos(b), P.pos(c)) == side, t
        assert len(tris) == 320


class TestMoves:
    def test_square_move_relabels_center(self):
        s = P.seed_triangulation(C.cyclic_decorated(4, 2))
        moves = P.available_moves(s)
        assert len(moves) == 1
        (m,) = moves
        assert m.kind == "M2"
        assert {elems_of(m.center), elems_of(m.replacement)} == {(1, 3), (2, 4)}
        s2 = P.apply_move(s, m)
        assert s2.interior_labels() != s.interior_labels()

    def test_fan_has_two_white_moves(self):
        s = P.seed_triangulation(C.cyclic_decorated(5, 1))
        moves = P.available_moves(s)
        assert len(moves) == 2
        assert all(m.kind == "M1" for m in moves)

    def test_single_triangle_no_moves(self):
        s = P.seed_triangulation(C.cyclic_decorated(3, 1))
        assert len(s.triangles) == 1
        assert P.available_moves(s) == ()

    def test_involution(self):
        s = P.seed_triangulation(C.cyclic_decorated(5, 1))
        m = P.available_moves(s)[0]
        s2 = P.apply_move(s, m)
        back = [mm for mm in P.available_moves(s2) if mm.removed == m.added and mm.added == m.removed]
        assert len(back) == 1
        assert P.apply_move(s2, back[0]) == s

    @staticmethod
    def _seed52_with(first):
        # the seed of pi(5,2) with its first triangle, (12, 13, 23), replaced
        s = P.seed_triangulation(C.cyclic_decorated(5, 2))
        return P.PlabicTriangulation(5, 2, tuple(sorted(first + s.triangles[1:])), s.boundary)

    def test_doubled_triangle_rejected(self):
        s = P.seed_triangulation(C.cyclic_decorated(5, 2))
        with pytest.raises(ValidationError, match="listed twice"):
            P.available_moves(self._seed52_with(s.triangles[:1] * 2))

    def test_uncolored_triple_rejected(self):
        with pytest.raises(ValidationError, match="neither white nor black"):
            P.available_moves(self._seed52_with(((mask_of((1, 2)), mask_of((3, 4)), mask_of((1, 5))),)))

    def test_triangle_with_wrong_label_size_rejected(self):
        # white on its own labels, whose common element is 1, but 123 is no 2-subset
        with pytest.raises(ValidationError, match="k-subsets"):
            P.available_moves(self._seed52_with(((mask_of((1, 2)), mask_of((1, 3)), mask_of((1, 2, 3))),)))

    def test_hash_is_the_fields_hash_computed_once(self, monkeypatch):
        # a stored move is looked up by its hash many times; equal moves
        # built apart hash alike, and the fields are hashed once per object
        s = P.seed_triangulation(C.cyclic_decorated(5, 2))
        m = P.available_moves(s)[0]
        twin = P.Move(m.kind, tuple(m.removed), tuple(m.added), m.center, m.replacement)
        assert twin == m and twin is not m
        assert hash(twin) == hash(m) == hash((m.kind, m.removed, m.added, m.center, m.replacement))
        monkeypatch.setattr(P.Move, "kind", property(lambda self: pytest.fail("fields hashed again")), raising=False)
        assert {m: 1}[m] == 1 and hash(m) == hash(twin)

    def test_unavailable_move_rejected(self):
        s = P.seed_triangulation(C.cyclic_decorated(4, 2))
        s2 = P.apply_move(s, P.available_moves(s)[0])
        with pytest.raises(PreconditionError):
            P.apply_move(s2, P.available_moves(s)[0])

    def test_moves_preserve_strands_and_reducedness(self):
        # every graph reached by moves is reduced with the seed's strands
        for p in (C.cyclic_decorated(5, 2), C.cyclic_decorated(5, 1)):
            for sigma in P.enumerate_plabic(p).payloads:
                g = S.dual_graph(sigma)
                assert S.is_reduced(g).ok
                assert S.strand_permutation(g) == p


class TestEnumeration:
    def test_pentagon_cycle_against_catalan_oracle(self):
        g = P.enumerate_plabic(C.cyclic_decorated(5, 1))
        assert g.n_vertices == count_triangulations(5) == 5
        assert g.is_single_cycle()

    def test_pi42_two_graphs(self):
        g = P.enumerate_plabic(C.cyclic_decorated(4, 2))
        assert (g.n_vertices, g.n_edges) == (2, 1)

    def test_pi63_is_not_a_cycle(self):
        g = P.enumerate_plabic(C.cyclic_decorated(6, 3))
        assert g.n_vertices > 10 and not g.is_single_cycle()

    def test_pi52_ten_cycle(self):
        g = P.enumerate_plabic(C.cyclic_decorated(5, 2))
        assert g.is_single_cycle()
        assert g.n_vertices == 10
        kinds = sorted(m.kind for _, _, m in g.edges)
        assert kinds == ["M1"] * 5 + ["M2"] * 5

    def test_seed_independence(self):
        # a seed from another maximal extension is a vertex of the same graph
        differ = [
            p
            for n in range(1, 6)
            for p in C.all_decorated_permutations(n)
            if 0 < C.necklace_of(p).k < n and revcolex_seed(p) != P.seed_triangulation(p)
        ]
        assert differ
        for p in [C.cyclic_decorated(5, 2), C.cyclic_decorated(4, 2),
                  C.DecoratedPermutation.make((2, 1, 5, 3, 4))] + differ:
            assert revcolex_seed(p).key() in P.enumerate_plabic(p).vertices

    def test_seed_is_maximal_inside_the_necklace(self):
        # maximal weakly separated collections inside one necklace all have
        # the same size, so the colex-greedy seed matches the old route's
        for n in range(1, 7):
            for p in C.all_decorated_permutations(n):
                if not 0 < C.necklace_of(p).k < n:
                    continue
                seed = P.seed_triangulation(p)
                seed.check()
                assert len(seed.labels()) == len(revcolex_seed(p).labels())

    def test_seed_rejects_a_label_on_the_walk(self, monkeypatch):
        # a label the seed would keep, placed on the walk: its side is undefined
        p = C.cyclic_decorated(4, 2)
        inner = mask_of([1, 3])
        assert inner in P.seed_triangulation(p).labels()
        a, b = (P.pos(mask_of(s)) for s in C.necklace_of(p).sets[:2])
        mid = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
        assert 2 * mid[0] == a[0] + b[0] and 2 * mid[1] == a[1] + b[1]
        pos = P.pos
        monkeypatch.setattr(P, "pos", lambda m: mid if m == inner else pos(m))
        with pytest.raises(ValidationError, match="lies on the necklace walk"):
            P.seed_triangulation(p)

    def test_face_labels_weakly_separated_and_contain_necklace(self):
        for p in (C.cyclic_decorated(5, 2), C.DecoratedPermutation.make((2, 1, 5, 3, 4))):
            nk = {mask_of(s) for s in C.necklace_of(p).sets}
            for sigma in P.enumerate_plabic(p).payloads:
                sigma.check()
                assert nk <= set(sigma.labels())


class TestSeedReference:
    def test_every_seed_up_to_6(self):
        for n in range(1, 7):
            for p in C.all_decorated_permutations(n):
                assert P.seed_triangulation(p) == reference_seed(p), p

    def test_sample_of_7(self):
        for p in random.Random(7).sample(list(C.all_decorated_permutations(7)), 500):
            assert P.seed_triangulation(p) == reference_seed(p), p


class TestTripWalk:
    def test_equals_dual_walk_on_x_vertices(self):
        for n in range(1, 6):
            for p in C.all_decorated_permutations(n):
                for sigma in P.enumerate_plabic(p).payloads:
                    assert P.trip_permutation(sigma) == S.strand_permutation(S.dual_graph(sigma))

    def test_equals_dual_walk_on_z53_sections(self):
        for tiling in Z.enumerate_tilings(Z.zonotope_spec(5, 3)).payloads:
            for k in range(1, 5):
                sigma = S.cross_section(tiling, k)
                assert P.trip_permutation(sigma) == S.strand_permutation(S.dual_graph(sigma))

    @pytest.mark.parametrize(
        "case, message",
        [
            ("removed", "borders a single triangle"),
            ("overlap", "overlap across segment"),
            ("hanging", "hanging boundary step 1 has no reverse partner"),
            ("repeated", "boundary steps 1 and 4 cross one side"),
        ],
    )
    def test_bad_triangulations_raise(self, case, message):
        if case == "removed":
            seed = P.seed_triangulation(C.cyclic_decorated(4, 2))
            sigma = P.PlabicTriangulation.make(4, 2, seed.triangles[1:], seed.boundary)
        elif case == "overlap":
            # {1} and {5} lie on one side of the chord {2} -- {4} of the
            # pentagon, so both triangles over that chord do too
            tris = [(1, 2, 8), (2, 8, 16)]
            sigma = P.PlabicTriangulation.make(5, 1, tris, P.cyclic_walk(5, 1))
        elif case == "hanging":
            sigma = P.PlabicTriangulation.make(3, 1, [], P.cyclic_walk(3, 1))
        else:
            # a walk that is no necklace: it steps {1} -> {2} twice
            sigma = P.PlabicTriangulation.make(6, 1, [(1, 2, 4)], (1, 2, 4, 1, 2, 4))
        with pytest.raises(ValidationError, match=message) as walk_exc:
            P.trip_permutation(sigma)
        with pytest.raises(ValidationError, match=message) as dual_exc:
            S.dual_graph(sigma)
        assert str(walk_exc.value) == str(dual_exc.value)

    def test_direct_edge_onto_a_leg_raises(self):
        # the walk runs back along two sides of its one triangle: steps 3
        # and 4 hang, and their reverse partners 2 and 1 already have legs
        sigma = P.PlabicTriangulation.make(6, 1, [(1, 2, 4)], (1, 2, 4, 2, 1, 4))
        with pytest.raises(MalformedGraphError, match="b_1 must have exactly one edge"):
            P.trip_permutation(sigma)
        with pytest.raises(MalformedGraphError, match="b_1 must have exactly one edge"):
            S.strand_permutation(S.dual_graph(sigma))

    def test_memoized_color_raises_again(self):
        # {1,2}, {3,4}, {5,6} share no element and span six: neither color
        bad = (3, 12, 48)
        for _ in range(2):
            with pytest.raises(ValidationError, match="neither white nor black"):
                P.triangle_color(bad)
        assert P.triangle_color((3, 5, 9)) == WHITE


class TestCheck:
    def test_separation_is_tested_pairwise(self, monkeypatch):
        # check reads no C(n, k)-bit separation rows, so its cost is bounded
        # by the labels held: a walk of n = 40 would need 2^37-bit rows
        seed = P.seed_triangulation(C.cyclic_decorated(5, 2))

        def colex_index(n, k):
            raise AssertionError("colex_index(%d, %d) called" % (n, k))

        monkeypatch.setattr(C, "colex_index", colex_index)
        seed.check()
        big = P.PlabicTriangulation.make(40, 20, [], [mask_of(range(1, 21))] * 40)
        big.check()
        # 13 and 24 cross; the walk back and forth between them encloses nothing
        crossing = P.PlabicTriangulation.make(4, 2, [], [mask_of([1, 3]), mask_of([2, 4])] * 2)
        with pytest.raises(ValidationError, match=r"\(1, 3\) and \(2, 4\) are not weakly separated"):
            crossing.check()


    def test_doubled_triangle_rejected(self):
        # one triangle listed twice in place of another of the same area: the
        # areas add up and the labels are weakly separated, but the
        # triangles do not tile the region
        seed = P.seed_triangulation(C.DecoratedPermutation.make((2, 4, 1, 3)))
        tris = list(seed.triangles)
        a, b = next((a, b) for a, b in itertools.permutations(tris, 2) if P._area2(a) == P._area2(b))
        tris[tris.index(b)] = a
        doubled = P.PlabicTriangulation.make(seed.n, seed.k, tris, seed.boundary)
        with pytest.raises(ValidationError, match="a triangle is listed twice"):
            doubled.check()


class TestFromLabels:
    def test_rejects_one_pair_not_weakly_separated(self):
        # 13 and 24 cross; every other pair is weakly separated
        coll = C.LabelCollection.make(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3], [2, 4]])
        with pytest.raises(ValidationError, match=r"\(1, 3\) and \(2, 4\) are not weakly separated"):
            S.triangulation_from_labels(coll, C.necklace_of(C.cyclic_decorated(4, 2)))

    def test_center13(self):
        coll = C.LabelCollection.make(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3]])
        s = S.triangulation_from_labels(coll, C.necklace_of(C.cyclic_decorated(4, 2)))
        assert s.interior_labels() == {mask_of([1, 3])}
        assert len(s.triangles) == 4

    def test_pentagon_fan(self):
        coll = C.LabelCollection.make(5, 1, [[1], [2], [3], [4], [5]])
        s = S.triangulation_from_labels(coll, C.necklace_of(C.cyclic_decorated(5, 1)))
        assert len(s.triangles) == 3
        assert all(mask_of([1]) in t for t in s.triangles)  # fan from colex-min

    def test_single_triangle(self):
        coll = C.LabelCollection.make(3, 1, [[1], [2], [3]])
        s = S.triangulation_from_labels(coll, C.necklace_of(C.cyclic_decorated(3, 1)))
        assert len(s.triangles) == 1


class TestLayers:
    def test_fan_up_has_connectivity_52(self):
        s1 = P.seed_triangulation(C.cyclic_decorated(5, 1))
        s2 = S.layer_step(s1, "up")
        blacks = [t for t in s2.triangles if P.triangle_color(t) == BLACK]
        assert len(blacks) == len(s1.triangles)
        assert S.strand_permutation(S.dual_graph(s2)) == C.cyclic_decorated(5, 2)

    def test_down_from_square(self):
        s2 = P.seed_triangulation(C.cyclic_decorated(4, 2))
        s1 = S.layer_step(s2, "down")
        assert all(bin(l).count("1") == 1 for l in s1.labels())
        assert S.strand_permutation(S.dual_graph(s1)) == C.cyclic_decorated(4, 1)

    def test_up_down_fixes_black_determined_part(self):
        s1 = P.seed_triangulation(C.cyclic_decorated(5, 1))
        s2 = S.layer_step(s1, "up")
        s1back = S.layer_step(s2, "down")
        white_from = {t for t in s1back.triangles if P.triangle_color(t) == WHITE}
        white_orig = {t for t in s1.triangles if P.triangle_color(t) == WHITE}
        # level 1 is all white, so here the backward step is exact
        assert white_from == white_orig

    def test_level_bounds(self):
        s1 = P.seed_triangulation(C.cyclic_decorated(5, 1))
        with pytest.raises(ArgumentError):
            S.layer_step(s1, "down")


class TestExtendToTiling:
    def test_square_section_roundtrip(self):
        s = P.seed_triangulation(C.cyclic_decorated(4, 2))
        t = S.extend_to_tiling(s)
        assert S.cross_section(t, 2) == s
        assert E.validate_tiling(t.spec, t).ok

    def test_all_z53_sections_roundtrip(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 3))
        for tiling in g.payloads[:4]:
            for k in range(1, 5):
                s = S.cross_section(tiling, k)
                assert S.cross_section(S.extend_to_tiling(s), k) == s

    def test_triangle_gives_single_tile(self):
        s = P.seed_triangulation(C.cyclic_decorated(3, 1))
        t = S.extend_to_tiling(s)
        assert t.sign_strings() == ["000"]


class TestUpDownGraph:
    def test_up_of_square(self):
        s = P.seed_triangulation(C.cyclic_decorated(4, 2))
        up = S.up_down_graph(s, "up")
        assert up.necklace() == C.necklace_of(C.cyclic_decorated(4, 3))
        assert S.strand_permutation(S.dual_graph(up)) == C.cyclic_decorated(4, 3)

    def test_down_of_pentagon_fan_rejected(self):
        s = P.seed_triangulation(C.cyclic_decorated(5, 1))
        with pytest.raises(PreconditionError):
            S.up_down_graph(s, "down")

    def test_up_down_nested_boundary(self):
        p = C.DecoratedPermutation.make((2, 1, 5, 3, 4))
        s = P.seed_triangulation(p)
        nk = s.necklace()
        down = S.up_down_graph(s, "down")
        back = S.up_down_graph(down, "up")
        # UP(DOWN(I)) entries are entries of I: the shifted curve is nested
        assert set(back.necklace().sets) <= set(nk.sets)


def outcome_line(f, *args) -> bytes:
    """One JSON line: f(*args) (a triangulation as its `to_json`), or the
    class and message of the error it raises."""
    try:
        out = f(*args)
    except Exception as exc:
        out = "%s: %s" % (type(exc).__name__, exc)
    if isinstance(out, P.PlabicTriangulation):
        out = out.to_json()
    return json.dumps(out, sort_keys=True, separators=(",", ":")).encode() + b"\n"


class TestLayerPins:
    def test_layer_outcomes_hash(self):
        # one sha256 over the outcomes of: UP and DOWN of every X vertex of
        # every decorated permutation with 3 <= n <= 5 and 0 < k < n, and the
        # cyclic embedding of each vertex; then both layer steps and the plus
        # masks of the tiling extension of every section of every tiling of
        # Z(n, 3), 4 <= n <= 6
        digest = hashlib.sha256()
        calls = sections = 0
        for n in range(3, 6):
            for p in C.all_decorated_permutations(n):
                if C.necklace_of(p).k in (0, n):
                    continue
                for s in P.enumerate_plabic(p).payloads:
                    for direction in ("up", "down"):
                        digest.update(outcome_line(S.up_down_graph, s, direction))
                        calls += 1
                    digest.update(outcome_line(S.embed_in_cyclic, s))
        for n in range(4, 7):
            for tiling in Z.enumerate_tilings(Z.zonotope_spec(n, 3)).payloads:
                for k in range(1, n):
                    s = S.cross_section(tiling, k)
                    for direction in ("up", "down"):
                        digest.update(outcome_line(S.layer_step, s, direction))
                    digest.update(outcome_line(lambda s: S.extend_to_tiling(s).plus, s))
                    sections += 1
        assert (calls, sections) == (980, 786)
        assert digest.hexdigest() == "065e0c4f9ac529c260abb009048e936321ef50f5057d36fe6a354a23cf9bc3be"


class TestEmbed:
    def test_cyclic_is_identity(self):
        s = P.seed_triangulation(C.cyclic_decorated(4, 2))
        assert S.embed_in_cyclic(s) == s

    def test_hanging_edge_embeds(self):
        nk = C.GrassmannNecklace.make(5, [[1, 3, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 3, 5]])
        s = P.seed_triangulation(C.decorated_of(nk))
        full = S.embed_in_cyclic(s)
        assert set(s.triangles) <= set(full.triangles)
        assert {mask_of(x) for x in nk.sets} <= set(full.labels())
        assert full.boundary == P.cyclic_walk(5, 3)


class TestFlipMoveCorrespondence:
    def test_z43(self):
        t = Z.minimal_tiling(Z.zonotope_spec(4, 3))
        pairs = S.flip_move_correspondence(t)
        assert len(pairs) == 1
        assert pairs[0][1] == 2

    def test_z53_counts_and_roundtrip(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 3))
        for t in g.payloads:
            pairs = S.flip_move_correspondence(t)
            assert len(pairs) == 2
            by_level = square_moves_by_level(t)
            assert len(pairs) == sum(len(v) for v in by_level.values())
            for site, level, move in pairs:
                assert any(
                    m.center == move.center and m.replacement == move.replacement
                    for m in by_level[level]
                )

    def test_layer_coherence(self):
        # a flip with prefix size p acts as M2/M1/M3 at levels p+2/p+1/p+3
        g = Z.enumerate_tilings(Z.zonotope_spec(6, 3))
        for t in g.payloads[:8]:
            for site in Z.available_flips(t):
                p_sz = bin(site.prefix).count("1")
                t2 = Z.apply_flip(t, site)
                for level in range(1, 6):
                    before = S.cross_section(t, level)
                    after = S.cross_section(t2, level)
                    if level in (p_sz + 1, p_sz + 2, p_sz + 3):
                        kind = {p_sz + 1: "M1", p_sz + 2: "M2", p_sz + 3: "M3"}[level]
                        hits = [
                            m
                            for m in P.available_moves(before)
                            if m.kind == kind and P.apply_move(before, m) == after
                        ]
                        assert len(hits) == 1
                    else:
                        assert before == after


class TestRealizeAndAlign:
    def test_z43_black_move_single_flip(self):
        spec = Z.zonotope_spec(4, 3)
        t = Z.minimal_tiling(spec)
        s3 = S.cross_section(t, 3)
        mv = [m for m in P.available_moves(s3) if m.kind == "M3"]
        assert len(mv) == 1
        seq = S.realize_trivalent_move(t, 3, mv[0])
        assert len(seq) == 1

    def test_align_equal_tilings_empty(self):
        t = Z.minimal_tiling(Z.zonotope_spec(5, 3))
        assert S.align_tilings(t, t, 2) == []

    def test_align_neighbors_sharing_section(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 3))
        found = 0
        for a, b in itertools.combinations(g.payloads, 2):
            if S.cross_section(a, 1) != S.cross_section(b, 1):
                continue
            seq = S.align_tilings(a, b, 1)
            cur = a
            for site in seq:
                cur = Z.apply_flip(cur, site)
                assert S.cross_section(cur, 1) == S.cross_section(a, 1)
            assert cur.key() == b.key()
            found += 1
        assert found > 0

    def test_mismatched_sections_rejected(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 3))
        a, b = g.payloads[0], g.payloads[1]
        levels = [k for k in range(1, 5) if S.cross_section(a, k) != S.cross_section(b, k)]
        with pytest.raises(PreconditionError):
            S.align_tilings(a, b, levels[0])


class TestComplexes:
    def test_x_pentagon(self):
        cx, cells = P.build_plabic_complex(C.cyclic_decorated(5, 1), "X")
        assert [name for name, _ in cells] == ["pentagon_white"]
        assert T.h1(cx) == (0, [])

    def test_x_decagon(self):
        cx, cells = P.build_plabic_complex(C.cyclic_decorated(5, 2), "X")
        assert [name for name, _ in cells] == ["decagon_white"]
        assert T.h1(cx) == (0, [])

    def test_x_black_cells_mirror(self):
        cx, cells = P.build_plabic_complex(C.cyclic_decorated(5, 3), "X")
        assert [name for name, _ in cells] == ["decagon_black"]
        cx, cells = P.build_plabic_complex(C.cyclic_decorated(5, 4), "X")
        assert [name for name, _ in cells] == ["pentagon_black"]

    def test_associahedron_cells(self):
        cx, cells = P.build_plabic_complex(C.cyclic_decorated(6, 1), "X")
        names = sorted(name for name, _ in cells)
        assert names == ["pentagon_white"] * 6 + ["quad"] * 3
        assert T.h1(cx) == (0, [])

    def test_y_pentagon_of_square_moves(self):
        cy, cells = P.build_plabic_complex(C.cyclic_decorated(5, 2), "Y")
        assert cy.nv == 5
        assert [name for name, _ in cells] == ["pentagon"]
        assert T.h1(cy) == (0, [])

    def test_bad_kind(self):
        with pytest.raises(ArgumentError):
            P.build_plabic_complex(C.cyclic_decorated(4, 2), "Q")


class TestExports:
    def test_json_roundtrip(self):
        s = P.seed_triangulation(C.cyclic_decorated(5, 2))
        data = s.to_json()
        assert P.PlabicTriangulation.from_json(data) == s

    def test_svg_smoke(self):
        s = P.seed_triangulation(C.cyclic_decorated(5, 2))
        svg = S.triangulation_to_svg(s, dual_overlay=True)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "polygon" in svg

    def test_dual_and_svg_hash(self):
        # one sha256 over dual_graph's edges, colors and rotations (each
        # started at its least dart) and the SVG with the dual and its
        # strands, of every X vertex with n <= 5 and every section of Z(5,3)
        def triangulations():
            for n in range(1, 6):
                for p in C.all_decorated_permutations(n):
                    yield from P.enumerate_plabic(p).payloads
            for tiling in Z.enumerate_tilings(Z.zonotope_spec(5, 3)).payloads:
                for k in range(1, 5):
                    yield S.cross_section(tiling, k)

        digest = hashlib.sha256()
        count = 0
        for sigma in triangulations():
            g = S.dual_graph(sigma)
            starts = [rot.index(min(rot)) for rot in g.rotations]
            rotations = [rot[i:] + rot[:i] for rot, i in zip(g.rotations, starts)]
            digest.update(json.dumps([g.edges, g.colors, rotations], separators=(",", ":")).encode() + b"\n")
            digest.update(S.triangulation_to_svg(sigma, dual_overlay=True, strands=True).encode() + b"\n")
            count += 1
        assert count == 543
        assert digest.hexdigest() == "8cd535d6449997eafe548bcb5fc5fd53f55c130b39e8fac42d31c800aa771f6a"


class TestCrossValidation:
    @pytest.mark.parametrize("n", [5, 6])
    def test_enumeration_matches_tiling_sections(self, n):
        # two independent routes to the same canonical objects: BFS over
        # moves from the label-collection seed, and cross-sections of every
        # fine tiling of Z(n,3)
        g = Z.enumerate_tilings(Z.zonotope_spec(n, 3))
        for k in range(1, n):
            sections = {S.cross_section(t, k).key() for t in g.payloads}
            fg = P.enumerate_plabic(C.cyclic_decorated(n, k))
            assert sections == set(fg.vertices)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (6, 3)])
    def test_y_classes_are_maximal_ws_collections(self, n, k):
        # square-move classes <-> maximal weakly separated collections,
        # enumerated independently as maximal cliques of the compatibility graph
        import networkx as nx

        labels = [mask_of(c) for c in itertools.combinations(range(1, n + 1), k)]
        compat = nx.Graph()
        compat.add_nodes_from(labels)
        for a, b in itertools.combinations(labels, 2):
            if C.is_weakly_separated_mask(a, b):
                compat.add_edge(a, b)
        maximal = {frozenset(clique) for clique in nx.find_cliques(compat)}

        graph = P.enumerate_plabic(C.cyclic_decorated(n, k))
        _, _, class_of_vertex = P.quotient_complex(graph, "Y")
        class_labels = {}
        for vid, cls in enumerate(class_of_vertex):
            labs = frozenset(graph.payloads[vid].labels())
            class_labels.setdefault(cls, set()).add(labs)
        # each class carries one label collection, and together they are
        # exactly the maximal weakly separated collections
        assert all(len(v) == 1 for v in class_labels.values())
        assert {next(iter(v)) for v in class_labels.values()} == maximal
        # X collapses no move: each vertex is its own class
        assert P.quotient_complex(graph, "X")[2] == list(range(graph.n_vertices))

    def test_u7_is_the_associahedron_two_skeleton(self):
        # 42 triangulations of the heptagon, f-vector (42, 84, 56); the
        # 2-face split comes from the diagonal-pair oracle below
        from collections import Counter

        quads, pents = _heptagon_face_split()
        assert (quads, pents) == (28, 28)
        cx, cells = P.build_plabic_complex(C.cyclic_decorated(7, 1), "X")
        counts = Counter(name for name, _ in cells)
        assert (cx.nv, len(cx.edges), len(cx.cells)) == (42, 84, 56)
        assert counts == {"quad": quads, "pentagon_white": pents}
        assert T.h1(cx) == (0, [])


def _heptagon_face_split():
    """Oracle: classify non-crossing diagonal pairs of the 7-gon by region
    sizes; (3,4,4) gives a square 2-face, (3,3,5) a pentagon."""
    n = 7
    verts = list(range(1, n + 1))
    diagonals = [
        (a, b)
        for a, b in itertools.combinations(verts, 2)
        if (b - a) % n not in (1, n - 1)
    ]

    def crossing(d1, d2):
        (a, b), (c, d) = sorted(d1), sorted(d2)
        if len({a, b, c, d}) != 4:
            return False
        return (a < c < b) != (a < d < b)

    def region_sizes(diags):
        polys = [tuple(verts)]
        for a, b in diags:
            for i, poly in enumerate(polys):
                if a in poly and b in poly:
                    ia, ib = sorted((poly.index(a), poly.index(b)))
                    polys[i : i + 1] = [poly[ia : ib + 1], poly[ib:] + poly[: ia + 1]]
                    break
        return tuple(sorted(len(p) for p in polys))

    quads = pents = 0
    for d1, d2 in itertools.combinations(diagonals, 2):
        if crossing(d1, d2):
            continue
        sizes = region_sizes([d1, d2])
        if sizes == (3, 4, 4):
            quads += 1
        elif sizes == (3, 3, 5):
            pents += 1
    return quads, pents
