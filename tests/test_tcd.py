"""Triple crossing diagrams: normalization, 2<->2 moves, the complex T."""

import itertools

import pytest

from flipcells import combinat as C
from flipcells import plabic as P
from flipcells import tcd
from flipcells import topology as T
from flipcells.errors import ValidationError

WHITE, BLACK = C.WHITE, C.BLACK


def representative(state):
    """Reference route: the trivalent representative of a diagram, its
    black cliques fanned canonically."""
    tris = list(state.whites)
    for poly in state.black_cliques().values():
        tris.extend(P._fan_triangles(poly))
    return P.PlabicTriangulation.make(state.n, state.k, tris, state.boundary)


class TestAsTcd:
    def test_square_graph_valid(self):
        g = P.dual_graph(P.seed_triangulation(C.cyclic_decorated(4, 2)))
        d = tcd.as_tcd(g)
        assert d.connectivity.image == (3, 4, 1, 2)

    def test_black_black_edge_rejected(self):
        u, v = ("v", 0), ("v", 1)
        edges = ((u, v), (u, ("b", 1)), (u, ("b", 2)), (v, ("b", 3)), (v, ("b", 4)))
        rotations = (((1, 0), (0, 0), (2, 0)), ((3, 0), (0, 1), (4, 0)))
        g = P.PlabicGraph(4, (BLACK, BLACK), edges, rotations)
        with pytest.raises(ValidationError, match="black-black"):
            tcd.as_tcd(g)

    def test_white_degree_rejected(self):
        # a 4-valent white vertex with four boundary legs
        edges = tuple((("v", 0), ("b", i)) for i in range(1, 5))
        rotations = (((0, 0), (1, 0), (2, 0), (3, 0)),)
        g = P.PlabicGraph(4, (WHITE,), edges, rotations)
        with pytest.raises(ValidationError, match="white vertex degree"):
            tcd.as_tcd(g)


class TestNeighbors:
    def test_square_rep_single_neighbor(self):
        s = tcd.seed_state(C.cyclic_decorated(4, 2))
        nbrs = tcd.tcd_neighbors(s)
        assert len(nbrs) == 1
        assert nbrs[0][0].kind == "M2"

    def test_fan_rep_two_neighbors(self):
        s = tcd.seed_state(C.cyclic_decorated(5, 1))
        nbrs = tcd.tcd_neighbors(s)
        assert len(nbrs) == 2
        assert all(m.kind == "M1" for m, _ in nbrs)

    def test_involution(self):
        s = tcd.seed_state(C.cyclic_decorated(4, 2))
        move, s2 = tcd.tcd_neighbors(s)[0]
        back = [ss for _, ss in tcd.tcd_neighbors(s2) if ss.key() == s.key()]
        assert len(back) == 1

    def test_degree_agreement(self):
        for p in (C.cyclic_decorated(5, 2), C.cyclic_decorated(6, 3)):
            for state in tcd.enumerate_tcd(p).payloads:
                n_m1 = len(P.trivalent_flips(state.whites, state.boundary))
                n_m2 = len(tcd._square_moves(state))
                assert len(tcd.tcd_neighbors(state)) == n_m1 + n_m2

    def test_white_flips_are_the_m1_moves_of_the_representative(self):
        # reference route: the white flips of the trivalent representative,
        # which fans every black clique
        for n in range(1, 7):
            for image in itertools.permutations(range(1, n + 1)):
                for state in tcd.enumerate_tcd(tcd.permutation_for_tcd(image)).payloads:
                    want = [m for m in P.available_moves(representative(state)) if m.kind == "M1"]
                    got = [m for m, _ in tcd.tcd_neighbors(state) if m.kind == "M1"]
                    assert got == want


class TestNormalization:
    def test_idempotent(self):
        for p in (C.cyclic_decorated(5, 2), C.cyclic_decorated(6, 3)):
            for state in tcd.enumerate_tcd(p).payloads:
                assert tcd.normalize(representative(state)) == state

    def test_representative_is_reduced_with_right_strands(self):
        p = C.cyclic_decorated(6, 3)
        for state in tcd.enumerate_tcd(p).payloads[:6]:
            g = P.dual_graph(representative(state))
            assert P.is_reduced(g).ok
            assert P.strand_permutation(g) == p


class TestComplex:
    def test_pentagon(self):
        cx, info = tcd.build_t_complex((2, 3, 4, 5, 1))
        assert info["n_vertices"] == 5
        assert [n for n, _ in info["cells"]] == ["pentagon_white"]
        assert T.h1(cx) == (0, [])

    def test_decagon(self):
        cx, info = tcd.build_t_complex((3, 4, 5, 1, 2))
        assert [n for n, _ in info["cells"]] == ["decagon"]
        assert T.h1(cx) == (0, [])
        assert T.certify_trivial(T.pi1_presentation(cx)) == "trivial"

    def test_pi53_square_pentagon(self):
        cx, info = tcd.build_t_complex((4, 5, 1, 2, 3))
        assert info["n_vertices"] == 5
        assert [n for n, _ in info["cells"]] == ["pentagon_square"]
        assert T.h1(cx) == (0, [])

    def test_h1_nonzero_certificate_is_nontrivial(self):
        # a known defect of the T complex at n = 6: no quads are glued
        cx, _ = tcd.build_t_complex((2, 3, 4, 5, 6, 1))
        cert = T.certificate(cx)
        assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (2, [], "nontrivial")
        assert T.certify_trivial(T.pi1_presentation(cx), budget=20000) != "trivial"

    def test_identity_single_vertex(self):
        cx, info = tcd.build_t_complex((1, 2, 3))
        assert (cx.nv, len(cx.edges), len(cx.cells)) == (1, 0, 0)

    def test_black_fixed_points_rejected(self):
        from flipcells.errors import ArgumentError

        p = C.DecoratedPermutation.make((1, 3, 2), {1: BLACK})
        with pytest.raises(ArgumentError):
            tcd.build_t_complex(p)


def lift_t_edge(s1, move, s2):
    """Lift a T edge to a path of trivalent plabic graphs (an X path)."""
    rep1, rep2 = representative(s1), representative(s2)
    if move.kind == "M1":
        return [rep1, rep2]
    v = move.center
    path = [rep1]
    cur = rep1
    # re-triangulate the two black cliques so their ears sit at the center
    for u, members in sorted(s1.black_cliques().items()):
        if v not in members:
            continue
        idx = members.index(v)
        prev_m = members[idx - 1]
        next_m = members[(idx + 1) % len(members)]
        ear = P._norm_tri((prev_m, v, next_m))
        rest = [m for m in members if m != v]
        target = {ear}
        target.update(P._fan_triangles(rest) if len(rest) >= 3 else [])
        current = {t for t in cur.triangles if P.triangle_color(t) == BLACK and P._tri_or(t) == u}
        verts = members
        for mv in P._poly_flip_path(verts, current, target, "M3"):
            cur = P.apply_move(cur, mv)
            path.append(cur)
    # the square move itself
    hits = [m for m in P.available_moves(cur) if m.kind == "M2" and m.center == v]
    assert len(hits) == 1
    cur = P.apply_move(cur, hits[0])
    path.append(cur)
    # contract back to the canonical representative of s2
    sub = _path_to_representative(cur, rep2)
    path.extend(sub)
    return path


def _path_to_representative(cur, rep):
    assert tcd.normalize(cur) == tcd.normalize(rep)
    out = []
    state = tcd.normalize(rep)
    for u, members in sorted(state.black_cliques().items()):
        current = {t for t in cur.triangles if P.triangle_color(t) == BLACK and P._tri_or(t) == u}
        target = {t for t in rep.triangles if P.triangle_color(t) == BLACK and P._tri_or(t) == u}
        for mv in P._poly_flip_path(members, current, target, "M3"):
            cur = P.apply_move(cur, mv)
            out.append(cur)
    assert cur == rep
    return out


class TestPhiFunctoriality:
    @pytest.mark.parametrize("image", [(3, 4, 5, 1, 2), (4, 5, 1, 2, 3), (2, 3, 4, 5, 1)])
    def test_cells_lift_to_contractible_loops(self, image):
        p = tcd.permutation_for_tcd(image)
        tg = tcd.enumerate_tcd(p)
        t_complex, info = tcd.build_t_complex(p)
        xg = P.enumerate_plabic(p)
        x_index = {key: i for i, key in enumerate(xg.vertices)}
        x_edges = {(min(u, v), max(u, v)) for u, v, _ in xg.edges}
        x_complex, _ = P.build_plabic_complex(p, "X")
        assert T.h1(x_complex) == (0, [])  # every X loop is null-homologous
        for name, cyc in info["cells"]:
            for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
                sa, sb = tg.payloads[a], tg.payloads[b]
                move = next(
                    m for m, nxt in tcd.tcd_neighbors(sa) if nxt.key() == sb.key()
                )
                path = lift_t_edge(sa, move, sb)
                ids = [x_index[s.key()] for s in path]
                for u, v in zip(ids, ids[1:]):
                    assert (min(u, v), max(u, v)) in x_edges
