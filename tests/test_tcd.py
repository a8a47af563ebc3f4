"""Triple crossing diagrams: validation, the complex T = X / M3, and the
direct move engine on contracted diagrams that it replaced, kept here as the
reference route."""

import itertools
from dataclasses import dataclass
from functools import cached_property

import pytest

from flipcells import combinat as C
from flipcells import plabic as P
from flipcells import sections as S
from flipcells import topology as T
from flipcells.errors import ValidationError
from flipcells.flipgraph import DEFAULT_VERTEX_CAP, bfs_closure, commuting_square, sorted_cells

WHITE, BLACK = C.WHITE, C.BLACK


# ---------------------------------------------------------------------------
# reference route: BFS over contracted diagrams with their own 2<->2 moves


@dataclass(frozen=True)
class TCDState:
    """Normal form of a diagram: labels plus the white triangulation."""

    n: int
    k: int
    whites: tuple
    labels: tuple
    boundary: tuple

    def key(self):
        return (self.whites, self.labels)

    def black_cliques(self):
        """Union mask -> members (labels) in convex (removed-element) order."""
        return self._cliques

    @cached_property
    def _cliques(self):
        return {u: m for u, m in P._cliques(self.labels, self.n).items() if u > m[0]}

    def polygons(self):
        """The polygons that tile the region: white triangles and black cliques."""
        return self.whites + tuple(tuple(m) for m in self.black_cliques().values())


def normalize(sigma):
    """Contract the black side of a trivalent plabic triangulation."""
    whites = tuple(sorted(t for t in sigma.triangles if P.triangle_color(t) == WHITE))
    return TCDState(sigma.n, sigma.k, whites, tuple(sorted(sigma.labels())), sigma.boundary)


def chain_pairs(pairs):
    """Cyclic order of the faces around a vertex, chained by shared neighbors.

    Each face is given by the pair of its neighbors of that vertex; returns
    the face indices in cyclic order, or None if they do not close up.  The
    link walk of the square-move references, here and in `reference_moves`.
    """
    incid = {}
    for idx, pair in enumerate(pairs):
        if len(pair) != 2:
            return None
        for x in pair:
            incid.setdefault(x, []).append(idx)
    if any(len(lst) != 2 for lst in incid.values()):
        return None
    order = [0]
    used = {0}
    joint = pairs[0][1]
    while len(order) < len(pairs):
        nxt = [i for i in incid[joint] if i not in used]
        if not nxt:
            return None
        order.append(nxt[0])
        used.add(nxt[0])
        a, b = pairs[nxt[0]]
        joint = b if a == joint else a
    if joint != pairs[0][0]:
        return None
    return order


def square_moves(state):
    """Square sites of the contracted diagram: interior labels whose star is
    two white triangles alternating with two black regions."""
    labs = set(state.labels)
    boundary_set = set(state.boundary)
    cliques = state.black_cliques()
    star_w = {}
    for t in state.whites:
        for lab in t:
            star_w.setdefault(lab, []).append(t)
    out = []
    for v in state.labels:
        if v in boundary_set:
            continue
        whites = star_w.get(v, [])
        if len(whites) != 2:
            continue
        black_faces = []
        for u, members in cliques.items():
            if v in members:
                idx = members.index(v)
                black_faces.append((u, (members[idx - 1], members[(idx + 1) % len(members)])))
        if len(black_faces) != 2:
            continue
        faces = [("w", t, tuple(x for x in t if x != v)) for t in whites]
        faces += [("b", u, nb) for u, nb in black_faces]
        order = chain_pairs([f[2] for f in faces])
        if order is None:
            continue
        kinds = [faces[i][0] for i in order]
        if kinds not in (["w", "b", "w", "b"], ["b", "w", "b", "w"]):
            continue
        v2 = P.square_relabel(v, {x for f in faces for x in f[2]})
        if v2 is None or v2 in labs:
            continue
        added = tuple(sorted(P._norm_tri((nb[0], v2, nb[1])) for u, nb in black_faces))
        out.append(P.Move("M2", tuple(sorted(whites)), added, center=v, replacement=v2))
    return out


def apply_tcd_move(state, move):
    whites = set(state.whites).difference(move.removed).union(move.added)
    labels = state.labels
    if move.kind == "M2":
        labels = tuple(sorted(set(labels) - {move.center} | {move.replacement}))
    return TCDState(state.n, state.k, tuple(sorted(whites)), labels, state.boundary)


def white_flips(state):
    """The flips of two white triangles across an interior diagonal: the M1
    moves of `available_moves` on the white triangles alone, so that they
    are the objects the plabic flip graphs share."""
    whites = P.PlabicTriangulation(state.n, state.k, state.whites, state.boundary)
    return [m for m in P.available_moves(whites) if m.kind == "M1"]


def tcd_neighbors(state):
    """All 2<->2 neighbors of a normalized diagram, sorted canonically."""
    moves = white_flips(state) + square_moves(state)
    moves.sort(key=lambda m: (m.kind, m.removed, m.added, m.center))
    return [(m, apply_tcd_move(state, m)) for m in moves]


def seed_state(p):
    return normalize(P.seed_triangulation(p))


def enumerate_tcd(p, vertex_cap=DEFAULT_VERTEX_CAP):
    """BFS closure of the 2<->2 moves over `TCDState.key` encodings, each
    decoded back into its state.  Stored moves are labelled by their
    plabic Move, edges by the move kind."""
    seed = seed_state(p)

    def decode(key):
        return TCDState(seed.n, seed.k, *key, seed.boundary)

    def moves_of(key):
        return [(m, nxt.key()) for m, nxt in tcd_neighbors(decode(key))]

    graph = bfs_closure(
        seed.key(),
        lambda frontier: map(moves_of, frontier),
        decode,
        vertex_cap,
        "vertex cap exceeded enumerating diagrams",
    )
    graph.edges = [(u, v, move.kind) for u, v, move in graph.edges]
    return graph


T_CELLS = {1: ("pentagon_white", 5), 2: ("decagon", 10), 3: ("pentagon_square", 5)}


def disjoint_support(a, b):
    return not a.support_labels() & b.support_labels()


def reference_candidates(n, k, hs):
    """(h, family, sub-walk, area, S, A) of every embedded pi(5,h)
    sub-necklace with h in `hs` whose sub-walk encloses a region, grouped
    by ascending h, then A (a 5-subset of [n]) and S (a (k-h)-subset of
    the rest) in lex order.  The family is the set of labels S u psi(K)
    over the h-subsets K of [5], psi the order-preserving map onto A, and
    the area is twice the unsigned area the sub-walk encloses."""
    cands = []
    for h in sorted(hs):
        if not 0 <= k - h <= n - 5:
            continue
        sub_neck = C.necklace_of(C.cyclic_decorated(5, h))
        hsubsets = list(itertools.combinations(range(1, 6), h))
        for a_elems in itertools.combinations(range(1, n + 1), 5):
            rest = [x for x in range(1, n + 1) if x not in a_elems]
            psi = {i + 1: a_elems[i] for i in range(5)}
            for s_elems in itertools.combinations(rest, k - h):
                smask = C.mask_of(s_elems)
                family = frozenset(smask | C.mask_of(psi[i] for i in kk) for kk in hsubsets)
                walk5 = tuple(smask | C.mask_of(psi[i] for i in sub_neck[j]) for j in range(1, 6))
                area = abs(P.shoelace2([P.pos(b) for b in walk5]))
                if area:
                    cands.append((h, family, walk5, area, smask, C.mask_of(a_elems)))
    return cands


def reference_embedded_cells(graph, table, polygons):
    """The embedded-cell scan that tests every vertex against every
    family of `reference_candidates` and walks a cell's cycle from every
    vertex that carries it, for each h -> (name, length) of `table`:
    frozenset(cycle) -> (name, cycle).  `polygons(payload)` are the
    polygons that tile a vertex's region."""
    first = graph.payloads[0]
    cands = reference_candidates(first.n, first.k, table)
    cells = {}
    for vid, payload in enumerate(graph.payloads):
        polys = polygons(payload)
        labs = set(payload.boundary).union(*polys)
        tiles = [(frozenset(poly), abs(P.shoelace2([P.pos(x) for x in poly]))) for poly in polys]
        for h, family, walk5, area, _, _ in cands:
            if not labs.issuperset(walk5):
                continue
            if sum(a for verts, a in tiles if verts <= family) != area:
                continue
            name, length = table[h]
            cycle = P.move_cycle(graph, vid, lambda m: m.support_labels() <= family, length, by_id=True)
            cells.setdefault(frozenset(cycle), (name, tuple(cycle)))
    return cells


def lowest_corner_squares(graph, independent=None):
    """The squares of `commuting_square` over each vertex's pairs of moves
    to higher ids, each found once, from its lowest corner:
    frozenset(quad) -> (quad, a, b).  Pairs failing `independent(a, b)`
    are skipped first."""
    quads = {}
    for v, out in enumerate(graph.moves):
        up = [(label, w) for label, w in out.items() if w > v]
        for (a, va), (b, vb) in itertools.combinations(up, 2):
            if independent is not None and not independent(a, b):
                continue
            quad = commuting_square(graph.moves, v, a, va, b, vb)
            if quad is not None:
                assert frozenset(quad) not in quads and quad[0] == min(quad)
                quads[frozenset(quad)] = (quad, a, b)
    return quads


def reference_t_cells(graph):
    """The direct route's cells of T on `enumerate_tcd`'s graph.  Its quad
    and area rules miss cells from n = 6 on, where H1 != 0 for 34 of 720."""
    cells = {key: ("quad", quad) for key, (quad, _, _) in lowest_corner_squares(graph, disjoint_support).items()}
    cells.update(reference_embedded_cells(graph, T_CELLS, TCDState.polygons))
    return sorted_cells(cells)


def representative(state):
    """The trivalent representative of a diagram, its black cliques fanned
    canonically."""
    tris = list(state.whites)
    for poly in state.black_cliques().values():
        tris.extend(P._fan_triangles(poly))
    return P.PlabicTriangulation.make(state.n, state.k, tris, state.boundary)


class TestAsTcd:
    def test_square_graph_valid(self):
        g = S.dual_graph(P.seed_triangulation(C.cyclic_decorated(4, 2)))
        d = S.as_tcd(g)
        assert d.connectivity.image == (3, 4, 1, 2)

    def test_black_black_edge_rejected(self):
        u, v = ("v", 0), ("v", 1)
        edges = ((u, v), (u, ("b", 1)), (u, ("b", 2)), (v, ("b", 3)), (v, ("b", 4)))
        rotations = (((1, 0), (0, 0), (2, 0)), ((3, 0), (0, 1), (4, 0)))
        g = S.PlabicGraph(4, (BLACK, BLACK), edges, rotations)
        with pytest.raises(ValidationError, match="black-black"):
            S.as_tcd(g)

    def test_white_degree_rejected(self):
        # a 4-valent white vertex with four boundary legs
        edges = tuple((("v", 0), ("b", i)) for i in range(1, 5))
        rotations = (((0, 0), (1, 0), (2, 0), (3, 0)),)
        g = S.PlabicGraph(4, (WHITE,), edges, rotations)
        with pytest.raises(ValidationError, match="white vertex degree"):
            S.as_tcd(g)


class TestNeighbors:
    def test_square_rep_single_neighbor(self):
        s = seed_state(C.cyclic_decorated(4, 2))
        nbrs = tcd_neighbors(s)
        assert len(nbrs) == 1
        assert nbrs[0][0].kind == "M2"

    def test_fan_rep_two_neighbors(self):
        s = seed_state(C.cyclic_decorated(5, 1))
        nbrs = tcd_neighbors(s)
        assert len(nbrs) == 2
        assert all(m.kind == "M1" for m, _ in nbrs)

    def test_involution(self):
        s = seed_state(C.cyclic_decorated(4, 2))
        move, s2 = tcd_neighbors(s)[0]
        back = [ss for _, ss in tcd_neighbors(s2) if ss.key() == s.key()]
        assert len(back) == 1

    def test_degree_agreement(self):
        for p in (C.cyclic_decorated(5, 2), C.cyclic_decorated(6, 3)):
            for state in enumerate_tcd(p).payloads:
                n_m1 = len(white_flips(state))
                n_m2 = len(square_moves(state))
                assert len(tcd_neighbors(state)) == n_m1 + n_m2

    def test_white_flips_are_the_m1_moves_of_the_representative(self):
        # reference route: the white flips of the trivalent representative,
        # which fans every black clique
        for n in range(1, 7):
            for image in itertools.permutations(range(1, n + 1)):
                for state in enumerate_tcd(C.permutation_for_tcd(image)).payloads:
                    want = [m for m in P.available_moves(representative(state)) if m.kind == "M1"]
                    got = [m for m, _ in tcd_neighbors(state) if m.kind == "M1"]
                    assert got == want


class TestNormalization:
    def test_idempotent(self):
        for p in (C.cyclic_decorated(5, 2), C.cyclic_decorated(6, 3)):
            for state in enumerate_tcd(p).payloads:
                assert normalize(representative(state)) == state

    def test_representative_is_reduced_with_right_strands(self):
        p = C.cyclic_decorated(6, 3)
        for state in enumerate_tcd(p).payloads[:6]:
            g = S.dual_graph(representative(state))
            assert S.is_reduced(g).ok
            assert S.strand_permutation(g) == p


class TestComplex:
    def test_pentagon(self):
        cx, cells = P.build_plabic_complex(C.permutation_for_tcd((2, 3, 4, 5, 1)), "T")
        assert cx.nv == 5
        assert [n for n, _ in cells] == ["pentagon_white"]
        assert T.h1(cx) == (0, [])

    def test_decagon(self):
        cx, cells = P.build_plabic_complex(C.permutation_for_tcd((3, 4, 5, 1, 2)), "T")
        assert [n for n, _ in cells] == ["decagon"]
        assert T.h1(cx) == (0, [])
        assert T.certify_trivial(T.pi1_presentation(cx)) == "trivial"

    def test_pi53_square_pentagon(self):
        cx, cells = P.build_plabic_complex(C.permutation_for_tcd((4, 5, 1, 2, 3)), "T")
        assert cx.nv == 5
        assert [n for n, _ in cells] == ["pentagon_square"]
        assert T.h1(cx) == (0, [])

    def test_cyclic_shift_n6_certifies_trivial(self):
        # the direct route glued no quads here and left betti1 2
        cx, _ = P.build_plabic_complex(C.permutation_for_tcd((2, 3, 4, 5, 6, 1)), "T")
        cert = T.certificate(cx)
        assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (0, [], "trivial")

    def test_identity_single_vertex(self):
        cx, _ = P.build_plabic_complex(C.permutation_for_tcd((1, 2, 3)), "T")
        assert (cx.nv, len(cx.edges), len(cx.cells)) == (1, 0, 0)

    def test_black_fixed_points_rejected(self):
        from flipcells.errors import ArgumentError

        p = C.DecoratedPermutation.make((1, 3, 2), {1: BLACK})
        with pytest.raises(ArgumentError, match="undecorated fixed points"):
            P.build_plabic_complex(p, "T")

    def test_decorated_permutation_used_as_given(self, monkeypatch):
        # a DecoratedPermutation was validated when it was made, so the
        # build makes none; a one-line image is read by permutation_for_tcd
        p = C.DecoratedPermutation.make((1, 3, 4, 5, 6, 2), {1: WHITE})
        want = P.build_plabic_complex(C.permutation_for_tcd((1, 3, 4, 5, 6, 2)), "T")
        made = []
        make = C.DecoratedPermutation.make
        monkeypatch.setattr(C.DecoratedPermutation, "make", lambda *a: made.append(a) or make(*a))
        cx, cells = P.build_plabic_complex(p, "T")
        assert made == []
        assert [name for name, _ in cells] == ["pentagon_white"]
        assert (cx.canonical_hash(), cells) == (want[0].canonical_hash(), want[1])


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
        rest = tuple(m for m in members if m != v)
        target = {ear}
        target.update(P._fan_triangles(rest) if len(rest) >= 3 else [])
        current = {t for t in cur.triangles if P.triangle_color(t) == BLACK and S._tri_or(t) == u}
        verts = members
        for mv in S._poly_flip_path(verts, current, target):
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
    assert normalize(cur) == normalize(rep)
    out = []
    state = normalize(rep)
    for u, members in sorted(state.black_cliques().items()):
        current = {t for t in cur.triangles if P.triangle_color(t) == BLACK and S._tri_or(t) == u}
        target = {t for t in rep.triangles if P.triangle_color(t) == BLACK and S._tri_or(t) == u}
        for mv in S._poly_flip_path(members, current, target):
            cur = P.apply_move(cur, mv)
            out.append(cur)
    assert cur == rep
    return out


def t_quotient(p):
    """X's flip graph and the T complex read off it: (X graph, T complex,
    T cells, T class of each X vertex)."""
    xg = P.enumerate_plabic(p)
    return (xg, *P.quotient_complex(xg, "T"))


def states_of_classes(xg, class_of_vertex):
    """Class of T -> the contracted diagram of its X vertices, checked to be
    one diagram per class."""
    out = {}
    for x, c in enumerate(class_of_vertex):
        assert out.setdefault(c, normalize(xg.payloads[x])) == normalize(xg.payloads[x])
    return out


class TestPhiFunctoriality:
    @pytest.mark.parametrize("image", [(3, 4, 5, 1, 2), (4, 5, 1, 2, 3), (2, 3, 4, 5, 1)])
    def test_cells_lift_to_contractible_loops(self, image):
        # T's cells run over classes of X vertices; each class is reached on
        # the reference route as the diagram its X vertices contract to
        p = C.permutation_for_tcd(image)
        tg = enumerate_tcd(p)
        xg, _, cells, cls = t_quotient(p)
        state_of = states_of_classes(xg, cls)
        assert sorted(s.key() for s in state_of.values()) == tg.vertices
        x_index = {key: i for i, key in enumerate(xg.vertices)}
        x_edges = {(min(u, v), max(u, v)) for u, v, _ in xg.edges}
        x_complex, _ = P.build_plabic_complex(p, "X")
        assert T.h1(x_complex) == (0, [])  # every X loop is null-homologous
        for name, cyc in cells:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                sa, sb = state_of[a], state_of[b]
                move = next(
                    m for m, nxt in tcd_neighbors(sa) if nxt.key() == sb.key()
                )
                path = lift_t_edge(sa, move, sb)
                ids = [x_index[s.key()] for s in path]
                for u, v in zip(ids, ids[1:]):
                    assert (min(u, v), max(u, v)) in x_edges


class TestQuotientAgainstReference:
    """T = X / M3 against the direct engine on contracted diagrams."""

    def test_n5_edges_and_cells_match_under_the_diagram_bijection(self):
        for n in range(1, 6):
            for image in itertools.permutations(range(1, n + 1)):
                p = C.permutation_for_tcd(image)
                xg, cx, cells, cls = t_quotient(p)
                tg = enumerate_tcd(p)
                key = {c: s.key() for c, s in states_of_classes(xg, cls).items()}
                assert cx.nv == tg.n_vertices
                assert {frozenset((key[u], key[v])) for u, v in cx.edges} == {
                    frozenset((tg.vertices[u], tg.vertices[v])) for u, v, _ in tg.edges
                }
                assert {(name, frozenset(key[c] for c in cyc)) for name, cyc in cells} == {
                    (name, frozenset(tg.vertices[v] for v in cyc)) for name, cyc in reference_t_cells(tg)
                }

    def test_n6_diagrams_and_edge_counts_match_and_every_complex_certifies(self):
        for image in itertools.permutations(range(1, 7)):
            p = C.permutation_for_tcd(image)
            xg, cx, _, cls = t_quotient(p)
            tg = enumerate_tcd(p)
            assert sorted(s.key() for s in states_of_classes(xg, cls).values()) == tg.vertices
            assert len(cx.edges) == tg.n_edges
            cert = T.certificate(cx)
            assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (0, [], "trivial")
