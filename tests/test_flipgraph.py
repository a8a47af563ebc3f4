"""The flip-graph engine: pinned complexes, stored moves, and call counts."""

import functools
import gc
import hashlib
import inspect
import itertools
import json
import operator
import random
import weakref

import pytest

from flipcells import combinat as C
from flipcells import plabic as P
from flipcells import sections as S
from flipcells import topology as T
from flipcells import zonotope as Z
from flipcells.errors import PreconditionError, ResourceCapExceeded, ValidationError
from flipcells.flipgraph import (
    DEFAULT_VERTEX_CAP,
    FlipGraph,
    PayloadView,
    bfs_closure,
    collector_paused,
)
from test_tcd import (
    chain_pairs,
    disjoint_support,
    enumerate_tcd,
    lowest_corner_squares,
    reference_candidates,
    reference_embedded_cells,
    square_moves,
    tcd_neighbors,
)

# canonical_hash() of complexes whose cells must never change.
PINNED_HASHES = {
    "Z(6,2)": "0ca41e92e08e1f29dd0a0ed4d17d19beb1d0e8bcf888626623a12c8f6908f40e",
    "Z(7,3)": "248107008509410045b37dd532e2c9fc58aba35bcc22f6eca3aaa35d6dec9ee4",
    "Z(7,4)": "3f746a97c95d98c4673eaf6e6434689d4ae52b4d95a8ed02720a747a7be0e660",
    "Z(9,6)": "96512733ea251ecacc75c74da38120053e04465d69d1ae59979d8be3269c13c1",
    "X pi(6,3)": "a22fa2383bdea9630f458e987986b328be0a6b4ad5c90c355dd2c6807c832903",
    "Y pi(6,3)": "ee9df5c76ae63e87aa6ae78573172804d2643b0ebcc17b0dceb56b7978e5754a",
    "T 3,4,5,1,2": "08c5d5d384fa8b14197bccb5f412ac0e4f99eff40e1691c42af96193bea674c1",
    "T 2,3,4,5,6,1": "65d501c49b25086c801d6a17ab4848311f992b5b2df11b52518fba3ed0378f5a",
}


def _build(name):
    kind, _, arg = name.partition(" ")
    if kind.startswith("Z("):
        n, d = (int(x) for x in kind[2:-1].split(","))
        return Z.build_z_complex(Z.enumerate_tilings(Z.zonotope_spec(n, d)))[0]
    if kind in ("X", "Y"):
        return P.build_plabic_complex(C.cyclic_decorated(6, 3), kind)[0]
    return P.build_plabic_complex(C.permutation_for_tcd(int(x) for x in arg.split(",")), "T")[0]


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_pinned_canonical_hash(name):
    assert _build(name).canonical_hash() == PINNED_HASHES[name]


# sha256 over (kind, connectivity, cell names, canonical_hash()) of X and Y
# for every decorated permutation and of T for every permutation, n <= 5.
SMALL_COMPLEXES_HASH = "208f9ab335f9d0bf81e572809e64d6f764c9a5177a147db274b8ae3cd65c2187"


def _small_complexes():
    for n in range(1, 6):
        for p in C.all_decorated_permutations(n):
            for kind in ("X", "Y"):
                yield kind, p, P.build_plabic_complex(p, kind)
        for image in itertools.permutations(range(1, n + 1)):
            p = C.permutation_for_tcd(image)
            yield "T", p, P.build_plabic_complex(p, "T")


def test_pinned_small_complexes():
    digest = hashlib.sha256()
    for kind, p, (cx, cells) in _small_complexes():
        row = [kind, p.to_json(), [name for name, _ in cells], cx.canonical_hash()]
        digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == SMALL_COMPLEXES_HASH


# sha256 over (cell names, canonical_hash()) of T for every permutation of 6,
# in lexicographic order: tcd_sweep6 pins only V and E of these.
T6_COMPLEXES_HASH = "298a754b92e552f53ba6d8662f1b32723967f54bf86049c0f119c5c8c5251501"


def test_pinned_t_complexes_n6():
    digest = hashlib.sha256()
    for image in itertools.permutations(range(1, 7)):
        cx, cells = P.build_plabic_complex(C.permutation_for_tcd(image), "T")
        row = [[name for name, _ in cells], cx.canonical_hash()]
        digest.update(json.dumps(row).encode() + b"\n")
    assert digest.hexdigest() == T6_COMPLEXES_HASH


def _z52():
    return Z.enumerate_tilings(Z.zonotope_spec(5, 2))


def _x52():
    return P.enumerate_plabic(C.cyclic_decorated(5, 2))


def _t34512():
    # T builds no flip graph of its own: this is the reference route's
    return enumerate_tcd(C.permutation_for_tcd((3, 4, 5, 1, 2)))


def _rescanned_moves(graph):
    """Every vertex's moves recomputed from its payload, in scan order."""
    index = {key: i for i, key in enumerate(graph.vertices)}
    for payload in graph.payloads:
        if isinstance(payload, Z.Tiling):
            flips = Z.available_flips(payload)
            yield [(s.smask, index[Z.apply_flip(payload, s).key()]) for s in flips]
        elif isinstance(payload, P.PlabicTriangulation):
            yield [(m, index[P.apply_move(payload, m).key()]) for m in P.available_moves(payload)]
        else:
            yield [(m, index[nxt.key()]) for m, nxt in tcd_neighbors(payload)]


@pytest.mark.parametrize("make", [_z52, _x52, _t34512], ids=["Z(5,2)", "X pi(5,2)", "T 3,4,5,1,2"])
class TestStoredMoves:
    def test_stored_moves_match_a_rescan(self, make):
        g = make()
        assert len(g.moves) == g.n_vertices
        for v, want in enumerate(_rescanned_moves(g)):
            assert list(g.moves[v].items()) == want

    def test_every_edge_is_a_stored_move(self, make):
        g = make()
        for u, v, label in g.edges:
            assert u < v
            if isinstance(label, str):  # T edges carry the move kind
                assert any(m.kind == label and w == v for m, w in g.moves[u].items())
            else:
                assert g.moves[u][label] == v

    def test_edges_are_the_adjacent_pairs_and_moves_reverse(self, make):
        # edges are read from the lower endpoint only, which needs every
        # move to have a stored reverse move
        g = make()
        pairs = {(min(u, w), max(u, w)) for u, out in enumerate(g.moves) for w in out.values()}
        assert [(u, v) for u, v, _ in g.edges] == sorted(pairs)
        for u, out in enumerate(g.moves):
            assert all(u in g.moves[w].values() for w in out.values())

    def test_distinct_labels_reach_distinct_targets(self, make):
        # is_single_cycle counts a vertex's neighbours as its move targets
        g = make()
        for out in g.moves:
            assert len(set(out.values())) == len(out)


class _Spy:
    """Counts calls of library functions, patched into every module that
    binds them (or onto their class, for methods)."""

    def __init__(self, monkeypatch):
        self.calls = {}
        for mods, name in (
            ((Z,), "available_flips"),
            ((Z,), "apply_flip"),
            ((P,), "available_moves"),
            ((P,), "apply_move"),
        ):
            fn = getattr(mods[0], name)
            self.calls[name] = 0
            for mod in mods:
                monkeypatch.setattr(mod, name, self._counting(name, fn))

    def _counting(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


class TestCallCounts:
    """Building a complex scans each vertex's moves at most once and never
    re-applies a move."""

    def test_z_complex(self, monkeypatch):
        spy = _Spy(monkeypatch)
        for n, d in ((5, 2), (5, 3)):
            spy.calls["available_flips"] = 0
            g = Z.enumerate_tilings(Z.zonotope_spec(n, d))
            Z.build_z_complex(g)
            assert spy.calls["available_flips"] <= g.n_vertices
        assert spy.calls["apply_flip"] == 0

    @pytest.mark.parametrize("kind", ["X", "Y"])
    def test_plabic_complex(self, monkeypatch, kind):
        spy = _Spy(monkeypatch)
        for n, k in ((5, 2), (6, 3)):
            p = C.cyclic_decorated(n, k)
            g = P.enumerate_plabic(p)
            spy.calls["available_moves"] = 0
            P.build_plabic_complex(p, kind)
            assert spy.calls["available_moves"] <= g.n_vertices
        assert spy.calls["apply_move"] == 0

    def test_t_complex(self, monkeypatch):
        # T is read off X's flip graph, which scans each X vertex once
        spy = _Spy(monkeypatch)
        for image in ((3, 4, 5, 1, 2), (2, 3, 4, 5, 6, 1), (4, 5, 6, 1, 2, 3)):
            p = C.permutation_for_tcd(image)
            g = P.enumerate_plabic(p)
            spy.calls["available_moves"] = 0
            P.build_plabic_complex(p, "T")
            assert spy.calls["available_moves"] <= g.n_vertices
        assert spy.calls["apply_move"] == 0


# ---------------------------------------------------------------------------
# site memos and the walk-once embedded scan, against the per-vertex rules
# they replace


def reference_flips(triangles, boundary):
    """The per-vertex flip scan: every site's rule re-derived at every vertex."""
    seg_map = {}
    for t in triangles:
        a, b, c = t
        for seg, third in (((a, b), c), ((a, c), b), ((b, c), a)):
            seg_map.setdefault(seg, []).append((t, third))
    walked = P.walked_segments(boundary)
    moves = []
    for seg, lst in seg_map.items():
        if len(lst) != 2 or seg in walked:
            continue
        (t1, a), (t2, d) = lst
        c1, c2 = P.triangle_color(t1), P.triangle_color(t2)
        if c1 != c2:
            continue
        b_, c_ = seg
        pa, pb, pc, pd = P.pos(a), P.pos(b_), P.pos(c_), P.pos(d)
        if P.orient(pa, pd, pb) * P.orient(pa, pd, pc) >= 0:
            continue
        if P.orient(pb, pc, pa) * P.orient(pb, pc, pd) >= 0:
            continue
        added = tuple(sorted((P._norm_tri((a, b_, d)), P._norm_tri((a, c_, d)))))
        moves.append(P.Move("M1" if c1 == C.WHITE else "M3", tuple(sorted((t1, t2))), added))
    return moves


def reference_moves(sigma):
    """The per-vertex scan of `available_moves`, with the square rule
    derived the long way: the star's link closes up, the colors alternate
    around it, and the five labels form a square."""
    moves = reference_flips(sigma.triangles, sigma.boundary)
    star = {}
    for t in sigma.triangles:
        for lab in t:
            star.setdefault(lab, []).append(t)
    boundary_set = set(sigma.boundary)
    for v, tris in star.items():
        if v in boundary_set or len(tris) != 4:
            continue
        order = chain_pairs([tuple(x for x in t if x != v) for t in tris])
        if order is None:
            continue
        cols = [P.triangle_color(tris[i]) for i in order]
        if cols[0] == cols[1] or cols[1] == cols[2] or cols[2] == cols[3]:
            continue
        v2 = P.square_relabel(v, {x for t in tris for x in t if x != v})
        if v2 is None:
            continue
        added = tuple(sorted(P._norm_tri([v2 if x == v else x for x in t]) for t in tris))
        moves.append(P.Move("M2", tuple(sorted(tris)), added, center=v, replacement=v2))
    moves.sort(key=lambda m: (m.kind, m.removed, m.added))
    return tuple(moves)


def reference_tcd_moves(state):
    moves = reference_flips(state.whites, state.boundary) + square_moves(state)
    moves.sort(key=lambda m: (m.kind, m.removed, m.added, m.center))
    return moves


def _clear_site_caches():
    # the site lists and the triangle tables hold the moves of the memos,
    # so they go too
    P._flip_move.cache_clear()
    P._square_move.cache_clear()
    P._triangle_sites.cache_clear()
    P._triangle_table.cache_clear()


def _perturbed_sections():
    """The level sections of 60 tilings of Z(5,3) and 40 of Z(6,3), each
    drawn from the flip graph with 1 to 3 plus bits of its tiles toggled.
    Most of the tilings are not fine, so their sections hold degree-4 stars
    that are no square move and same-color pairs that do not flip."""
    rng = random.Random(1)
    for n, count in ((5, 60), (6, 40)):
        spec = Z.zonotope_spec(n, 3)
        tilings = Z.enumerate_tilings(spec).payloads
        for _ in range(count):
            plus = list(tilings[rng.randrange(len(tilings))].plus)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(plus))
                plus[i] ^= 1 << rng.choice([b for b in range(n) if not spec.dsubsets[i] >> b & 1])
            tiling = Z.Tiling(spec, tuple(plus))
            yield from (S.cross_section(tiling, k) for k in range(1, n))


def _site_memo_cases():
    """(vertex payloads, scan, reference scan) per connectivity: X of every
    decorated permutation with n <= 5 and of pi(6,2), pi(6,3) and pi(6,4),
    the sections of perturbed tilings of Z(5,3) and Z(6,3), and T's
    reference route with n <= 5."""
    x_scan = P.available_moves
    t_scan = lambda state: [m for m, _ in tcd_neighbors(state)]  # noqa: E731
    perms = [p for n in range(1, 6) for p in C.all_decorated_permutations(n)]
    for p in perms + [C.cyclic_decorated(6, k) for k in (2, 3, 4)]:
        yield P.enumerate_plabic(p).payloads, x_scan, reference_moves
    yield list(_perturbed_sections()), x_scan, reference_moves
    for n in range(1, 6):
        for image in itertools.permutations(range(1, n + 1)):
            graph = enumerate_tcd(C.permutation_for_tcd(image))
            yield graph.payloads, t_scan, reference_tcd_moves


class TestSiteMemos:
    def test_memoized_rules_match_the_reference_scan(self):
        cases = list(_site_memo_cases())
        # cold: every vertex scanned right after the caches are emptied
        for payloads, scan, reference in cases:
            for payload in payloads:
                _clear_site_caches()
                assert tuple(scan(payload)) == tuple(reference(payload))
        # warm: caches filled by every vertex of every connectivity
        _clear_site_caches()
        for _ in range(2):
            for payloads, scan, reference in cases:
                for payload in payloads:
                    assert tuple(scan(payload)) == tuple(reference(payload))
        assert P._flip_move.cache_info().hits and P._square_move.cache_info().hits

    def test_one_move_object_per_site(self):
        # equal moves are the same object at every vertex of every
        # connectivity, and so are the moves a flip graph stores; T builds
        # its own square moves, so only its flips are shared
        _clear_site_caches()
        canon = {}
        for payloads, scan, _ in _site_memo_cases():
            for payload in payloads:
                for m in scan(payload):
                    if isinstance(payload, P.PlabicTriangulation) or m.kind != "M2":
                        assert canon.setdefault(m, m) is m
        stored = P.enumerate_plabic(C.cyclic_decorated(6, 3)).moves
        assert all(canon[m] is m for out in stored for m in out)

    def test_perturbed_sections_reach_the_rejecting_rules(self):
        # stars of four triangles that are no square move, and flips that
        # the orientation test rejects, both occur among the memo cases
        no_square = no_flip = 0
        for sigma in _perturbed_sections():
            star, sides = {}, {}
            for t in sigma.triangles:
                for lab in t:
                    star.setdefault(lab, []).append(t)
                for seg, _, _ in P._ccw_sides(t):
                    sides.setdefault(seg, []).append(t)
            no_square += sum(
                P._square_move(v, tuple(tris)) is None
                for v, tris in star.items()
                if v not in sigma.boundary and len(tris) == 4
            )
            no_flip += sum(
                P.triangle_color(pair[0]) == P.triangle_color(pair[1]) and P._flip_move(*pair) is None
                for pair in sides.values()
                if len(pair) == 2
            )
        assert no_square and no_flip

    def test_support_labels_computed_once(self):
        m = P.available_moves(P.seed_triangulation(C.cyclic_decorated(5, 2)))[0]
        assert m.support_labels() is m.support_labels()
        assert m.support_labels() == frozenset(x for t in m.removed + m.added for x in t)


def _x_graphs():
    """X of every decorated permutation with n <= 6, and of pi(7,2),
    pi(7,3) and pi(7,4)."""
    perms = [p for n in range(1, 7) for p in C.all_decorated_permutations(n)]
    for p in perms + [C.cyclic_decorated(7, k) for k in (2, 3, 4)]:
        yield P.enumerate_plabic(p)


def _embedded_in_pass_order(graph, collapsed, hs):
    """frozenset(cycle) -> (h, cycle) of the embedded cells of the one-pass
    reader, in the order it yields them."""
    return {frozenset(cyc): (h, cyc) for h, cyc in P._x_cells(graph, collapsed, hs) if h != "quad"}


def test_embedded_cells_walk_once_parity():
    # the cells read from pairs of moves at their lowest vertices are the
    # all-family scan's, in its insertion order, for each kind's h-set: the
    # first-wins projection onto Y and T rests on that order
    walked = 0
    for graph in _x_graphs():
        for collapsed, table in P._QUOTIENTS.values():
            want = reference_embedded_cells(
                graph, {h: (h, P._X_CELLS[h][1]) for h in table}, lambda sigma: sigma.triangles
            )
            assert list(_embedded_in_pass_order(graph, collapsed, table).items()) == list(want.items())
            walked += len(want)
    assert walked


def _span(moves):
    """S and A of a set of moves: the AND of their support labels, and
    their OR with S removed."""
    labels = frozenset().union(*(m.support_labels() for m in moves))
    common = functools.reduce(operator.and_, labels)
    return common, functools.reduce(operator.or_, labels) & ~common


def _carries(graph, v, candidate):
    """Whether vertex v carries the family of a `reference_candidates`
    entry: its sub-walk is among v's labels, and v's triangles inside the
    family tile the sub-walk's region."""
    _, family, walk5, area, _, _ = candidate
    tris = graph.vertices[v]
    labs = set(graph.payloads[0].boundary).union(*tris)
    return labs.issuperset(walk5) and sum(P._area2(t) for t in tris if family.issuperset(t)) == area


def test_embedded_cell_moves_span_their_family():
    # at every vertex of every X embedded cell, the cell's two moves inside
    # its family span exactly that family's S and A, and the vertex carries
    # the family: the premises that name each cell from a pair of moves at
    # its lowest vertex
    perms = [p for n in range(1, 7) for p in C.all_decorated_permutations(n)]
    vertices = 0
    for p in perms + [C.cyclic_decorated(7, 3)]:
        graph = P.enumerate_plabic(p)
        first = graph.payloads[0]
        families = {c[1]: c for c in reference_candidates(first.n, first.k, P._X_CELLS)}
        for name, cyc in P.build_plabic_complex(p, "X")[1]:
            if name == "quad":
                continue
            steps = zip(cyc, cyc[1:] + cyc[:1])
            labels = frozenset().union(
                *(m.support_labels() for u, w in steps for m, x in graph.moves[u].items() if x == w)
            )
            (family,) = [f for f in families if f >= labels]
            for u in cyc:
                inside = [m for m in graph.moves[u] if m.support_labels() <= family]
                assert len(inside) == 2 and _span(inside) == families[family][4:]
                assert _carries(graph, u, families[family])
                vertices += 1
    assert vertices


def test_pairs_name_families_their_vertex_does_not_carry(monkeypatch):
    # on pi(7,3) a pair of moves to higher ids often names a family whose
    # sub-walk its vertex does not carry: the carry test decides, and no
    # cell is walked from such a pair
    graph = P.enumerate_plabic(C.cyclic_decorated(7, 3))
    cands = {c[4:]: c for c in reference_candidates(7, 3, P._X_CELLS)}
    named, carried = set(), set()
    for v, out in enumerate(graph.moves):
        up = [m for m, w in out.items() if w > v]
        for pair in itertools.combinations(up, 2):
            found = cands.get(_span(pair))
            if found is not None:
                named.add((v, *found[4:]))
                if _carries(graph, v, found):
                    carried.add((v, *found[4:]))
    walks = set()
    move_cycle = P.move_cycle

    def recording(graph, start, allowed, expected, by_id=False):
        walks.add((start, *_span([m for m in graph.moves[start] if allowed(m)])))
        return move_cycle(graph, start, allowed, expected, by_id)

    monkeypatch.setattr(P, "move_cycle", recording)
    cells = [cyc for h, cyc in P._x_cells(graph, frozenset(), P._X_CELLS) if h != "quad"]
    assert len(cells) == 490
    assert (len(named), len(carried)) == (895, 490)
    assert walks == carried and named - carried


@pytest.mark.parametrize("kind", ["X", "Y", "T"])
def test_builds_decode_each_vertex_once(monkeypatch, kind):
    # pi(7,3) has 3,332 vertices: the seed is built, each vertex is decoded
    # once when it is expanded, and the cell pass decodes vertex 0 alone
    p = C.cyclic_decorated(7, 3)
    built = []
    post_init = P.PlabicTriangulation.__post_init__
    monkeypatch.setattr(P.PlabicTriangulation, "__post_init__", lambda self: built.append(1) or post_init(self))
    P.build_plabic_complex(p, kind)
    assert len(built) == 3_334


# ---------------------------------------------------------------------------
# the lowest-corner square finder and the key-based plabic BFS, against the
# routes they replace


def reference_squares(graph, independent=None):
    """Every square found from each of its four corners, the first kept per
    vertex set: frozenset(quad) -> (quad, a, b)."""
    quads = {}
    for v, out in enumerate(graph.moves):
        for (a, va), (b, vb) in itertools.combinations(out.items(), 2):
            if independent is not None and not independent(a, b):
                continue
            vab = graph.moves[va].get(b)
            if vab is None or vab != graph.moves[vb].get(a):
                continue
            quad = (v, va, vab, vb)
            if len(set(quad)) == 4:
                quads.setdefault(frozenset(quad), (quad, a, b))
    return quads


def reference_enumerate_plabic(p):
    """The BFS over built payloads: a triangulation built per successor and
    kept under its key, from which the BFS decodes it."""
    seed = P.seed_triangulation(p)
    built = {seed.key(): seed}

    def moves_of(key):
        sigma = built[key]
        out = []
        for move in P.available_moves(sigma):
            tris = set(sigma.triangles).difference(move.removed).union(move.added)
            nxt = P.PlabicTriangulation(sigma.n, sigma.k, tuple(sorted(tris)), sigma.boundary)
            built.setdefault(nxt.key(), nxt)
            out.append((move, nxt.key()))
        return out

    return bfs_closure(
        seed.key(), lambda frontier: map(moves_of, frontier), built.__getitem__, DEFAULT_VERTEX_CAP, "cap"
    )


def test_bfs_closure_holds_encodings_only():
    # no key function: the producer's expand yields keys, and decode reads them
    assert list(inspect.signature(bfs_closure).parameters) == ["seed", "expand", "decode", "vertex_cap", "overflow"]


def test_plabic_payloads_are_decoded_and_checked_on_access(monkeypatch):
    g = P.enumerate_plabic(C.cyclic_decorated(6, 3))
    checked = []
    post_init = P.PlabicTriangulation.__post_init__
    monkeypatch.setattr(
        P.PlabicTriangulation, "__post_init__", lambda self: checked.append(self.triangles) or post_init(self)
    )
    first = g.payloads[7]
    assert first == g.payloads[7] and first is not g.payloads[7]
    assert checked == [g.vertices[7]] * 3
    assert [sigma.key() for sigma in g.payloads[-3:]] == g.vertices[-3:] == checked[3:]
    # none is kept: a payload read and dropped is freed at once
    dropped = weakref.ref(g.payloads[0])
    assert dropped() is None
    # a key whose triangles are not stored sorted fails on access
    bad = tuple(reversed(g.vertices[0]))
    view = PayloadView(g.payloads.decode, [g.vertices[0], bad])
    assert view[0] == g.payloads[0]
    with pytest.raises(ValidationError, match="stored sorted"):
        view[1]


def _disjoint_removed(a, b):
    # an independence test that skips pairs before their square is looked up
    return not set(a.removed) & set(b.removed)


def test_plabic_payloads_and_squares_match_the_reference():
    # X and Y of every decorated permutation with n <= 5 and of pi(6,3)
    perms = [p for n in range(1, 6) for p in C.all_decorated_permutations(n)]
    squares = 0
    for p in perms + [C.cyclic_decorated(6, 3)]:
        graph, want = P.enumerate_plabic(p), reference_enumerate_plabic(p)
        assert graph.vertices == want.vertices and list(graph.payloads) == list(want.payloads)
        assert graph.moves == want.moves and graph.edges == want.edges
        assert (graph.ranks, graph.min_vertex) == (want.ranks, want.min_vertex)
        ref = reference_squares(graph, _disjoint_removed)
        assert list(lowest_corner_squares(graph, _disjoint_removed).items()) == list(ref.items())
        squares += len(ref)
    assert squares


def test_stored_plabic_moves_are_the_rule_scan():
    # the BFS and `available_moves` both read the per-triangle site lists
    # (`_triangle_sites`): at every vertex of X of every decorated
    # permutation with n <= 6 and of pi(7,3), the moves the BFS stores are
    # the per-vertex reference scan's, in the same order, and the very
    # objects `available_moves` returns
    _clear_site_caches()
    perms = [p for n in range(1, 7) for p in C.all_decorated_permutations(n)]
    vertices = 0
    for p in perms + [C.cyclic_decorated(7, 3)]:
        graph = P.enumerate_plabic(p)
        for out, sigma in zip(graph.moves, graph.payloads):
            assert tuple(out) == reference_moves(sigma)
            want = P.available_moves(sigma)
            assert len(out) == len(want) and all(a is b for a, b in zip(out, want))
        vertices += graph.n_vertices
    assert vertices == 4_562 + 3_332


@pytest.mark.parametrize("k", [3, 4])
def test_available_moves_on_a_walk_at_n8(k):
    # along a seeded walk of 200 moves from the seed of pi(8, k), the moves
    # of `available_moves` are the reference scan's, and the very objects
    # that the BFS's scan of the 840- or 1,120-bit table finds
    rng = random.Random(k)
    sigma = P.seed_triangulation(C.cyclic_decorated(8, k))
    table = P._triangle_table(8, k)
    assert len(table.triangles) == {3: 840, 4: 1_120}[k]
    avoid = P.walked_segments(sigma.boundary).union(sigma.boundary)
    for _ in range(200):
        moves = P.available_moves(sigma)
        assert moves == reference_moves(sigma)
        scanned = [m for m, _ in table.scan(table.key(sigma.triangles), avoid)[1]]
        assert len(scanned) == len(moves) and all(a is b for a, b in zip(scanned, moves))
        sigma = P.apply_move(sigma, rng.choice(moves))
        sigma.check()


@pytest.mark.parametrize("n, k, size", [(6, 3, 10), (8, 4, 30)])
def test_triangle_keys_order_as_sorted_tuples(n, k, size):
    # vertex ids follow key order, and so every pinned hash rests on int
    # order being the order of the sorted triangle tuples; the triangulations
    # of one flip graph all have one size
    table = P._triangle_table(n, k)
    assert len(table.triangles) == {6: 120, 8: 1_120}[n]
    rng = random.Random(n)
    sets = []
    for _ in range(300):
        tris = rng.sample(table.triangles, size)
        # a twin with one triangle swapped shares a long prefix more often
        twin = list(tris)
        twin[rng.randrange(size)] = rng.choice([t for t in table.triangles if t not in tris])
        sets += [tris, twin]
    tuples = [tuple(sorted(tris)) for tris in sets]
    keys = [table.key(t) for t in tuples]
    assert [table.unpack(key) for key in keys] == tuples
    assert sorted(range(len(keys)), key=keys.__getitem__) == sorted(range(len(tuples)), key=tuples.__getitem__)


def test_t_and_z_squares_match_the_reference():
    graphs = [
        (enumerate_tcd(C.permutation_for_tcd(image)), disjoint_support)
        for n in range(1, 6)
        for image in itertools.permutations(range(1, n + 1))
    ]
    graphs += [(Z.enumerate_tilings(Z.zonotope_spec(n, d)), None) for n, d in ((5, 2), (6, 2), (6, 3))]
    squares = 0
    for graph, independent in graphs:
        ref = reference_squares(graph, independent)
        assert list(lowest_corner_squares(graph, independent).items()) == list(ref.items())
        squares += len(ref)
    assert squares


@pytest.mark.parametrize("n, d", [(5, 2), (6, 2), (6, 3), (7, 4)])
def test_z_quads_are_the_squares_and_span_no_coarse_tile(n, d):
    # build_z_complex tests a pair of flips for a gon, not a square, when
    # their union has d + 2 elements: no square is such a pair
    graph = Z.enumerate_tilings(Z.zonotope_spec(n, d))
    ref = reference_squares(graph)
    quads = {frozenset(cyc): cyc for kind, cyc in Z.build_z_complex(graph)[1] if kind == "quad"}
    assert quads == {key: quad for key, (quad, _, _) in ref.items()}
    assert all(bin(a | b).count("1") > d + 2 for _, a, b in ref.values())


# certificate input_hash of the X, Y and T complexes of pi(7,3)
PINNED_INPUT_HASHES = {
    "X": "71f7ce3745abe9035182cd96797ff77ec6e1f34395482b91916091e6cd574764",
    "Y": "2bc7231c53794ef9c187e367c7994bbf148a62ff5019d65b67ef30285f219e86",
    "T": "a65c814e612a1e15df7d871a9122b334d6cd73de1e2bf0c1ca52919f1d56765a",
}


@pytest.mark.parametrize("kind", sorted(PINNED_INPUT_HASHES))
def test_pinned_pi73_certificate(kind):
    p = C.cyclic_decorated(7, 3)
    complex_ = P.build_plabic_complex(p, kind)[0]
    cert = T.certificate(complex_)
    assert (cert["input_hash"], cert["pi1"]) == (PINNED_INPUT_HASHES[kind], "trivial")


# ---------------------------------------------------------------------------
# the collector pause


def _wrapped_builds():
    """(name, successful call, failing call) of each builder, and of the
    certificate, that pauses the collector."""
    pi52 = C.cyclic_decorated(5, 2)
    yield "X", lambda: P.build_plabic_complex(pi52, "X"), lambda: P.build_plabic_complex(pi52, "X", vertex_cap=2)
    yield "T", lambda: P.build_plabic_complex(pi52, "T"), lambda: P.build_plabic_complex(pi52, "T", vertex_cap=2)
    spec = Z.zonotope_spec(5, 2)
    yield "tilings", lambda: Z.enumerate_tilings(spec), lambda: Z.enumerate_tilings(spec, vertex_cap=2)
    # a graph without payloads fails build_z_complex's precondition
    yield "Z", lambda: Z.build_z_complex(Z.enumerate_tilings(spec)), lambda: Z.build_z_complex(FlipGraph([], [], [], 0))
    # a disconnected complex fails pi1_presentation's precondition
    square = T.TwoComplex.from_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [[0, 1, 2, 3]])
    yield "certificate", lambda: T.certificate(square), lambda: T.certificate(T.TwoComplex(3, ((0, 1),), ()))


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
def test_builders_restore_the_collector_state(caller_enabled):
    was = gc.isenabled()
    try:
        (gc.enable if caller_enabled else gc.disable)()
        for name, ok, fails in _wrapped_builds():
            ok()
            assert gc.isenabled() is caller_enabled, name
            with pytest.raises((ResourceCapExceeded, PreconditionError)):
                fails()
            assert gc.isenabled() is caller_enabled, name
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
def test_decorated_pause_restores_the_collector(caller_enabled):
    seen = []

    @collector_paused
    def inner():
        seen.append(("inner", gc.isenabled()))
        raise KeyError("inner")

    @collector_paused
    def outer():
        seen.append(("outer", gc.isenabled()))
        with pytest.raises(KeyError):
            inner()
        seen.append(("after inner", gc.isenabled()))
        raise ValueError("outer")

    was = gc.isenabled()
    try:
        (gc.enable if caller_enabled else gc.disable)()
        with pytest.raises(ValueError):
            outer()
        assert gc.isenabled() is caller_enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [("outer", False), ("inner", False), ("after inner", False)]
    assert outer.__name__ == "outer"
