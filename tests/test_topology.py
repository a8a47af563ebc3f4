"""Smith normal form, homology, Tietze elimination, and coset-enumeration
certificates."""

import functools
import hashlib
import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipcells import combinat as C
from flipcells import plabic as P
from flipcells import topology as T
from flipcells import zonotope as Z
from flipcells.errors import PreconditionError, ValidationError


def reference_pi1_presentation(k):
    """The spanning-tree presentation built with dicts and sets: the
    reference route for the table-driven `T.pi1_presentation`."""
    adj = {i: [] for i in range(k.nv)}
    for e, (u, v) in enumerate(k.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    for i in adj:
        adj[i].sort()
    tree_edges = set()
    seen = {0} if k.nv else set()
    queue = [0] if k.nv else []
    for x in queue:  # breadth first: the loop visits what it appends
        for y, e in adj[x]:
            if y not in seen:
                seen.add(y)
                tree_edges.add(e)
                queue.append(y)
    if not k.nv or len(queue) != k.nv:  # the tree misses a vertex
        raise PreconditionError("complex is disconnected; components: %s" % (k.components(),))
    gen_of = {}
    for e in range(len(k.edges)):
        if e not in tree_edges:
            gen_of[e] = len(gen_of) + 1
    relators = []
    for walk in k.cells:
        word = []
        for step in walk:
            e = abs(step) - 1
            if e in gen_of:
                word.append(gen_of[e] if step > 0 else -gen_of[e])
        relators.append(tuple(word))
    return T.GroupPresentation(len(gen_of), tuple(relators))


table_pi1_presentation = T.pi1_presentation


@pytest.fixture(scope="module", autouse=True)
def presentation_checked_against_reference():
    """Every presentation built in this module, directly or by `h1`, must
    equal the reference route's, or fail alike."""

    def checked(k):
        try:
            pres = table_pi1_presentation(k)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                reference_pi1_presentation(k)
            raise
        assert pres == reference_pi1_presentation(k)
        return pres

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "pi1_presentation", checked)
        yield


def smith_normal_form(matrix):
    """Diagonal d1 | d2 | ... of a dense integer matrix, plus its rank.

    Exact big-integer arithmetic throughout; entries of the returned diagonal
    are nonnegative and satisfy the divisibility chain.
    """
    rows = [{j: int(v) for j, v in enumerate(row) if v} for row in matrix]
    ncols = max((len(list(row)) for row in matrix), default=0)
    diag = T._sparse_snf(rows)
    rank = len(diag)
    width = min(len(matrix), ncols)
    return diag + [0] * (width - rank), rank


def boundary_matrices(k):
    """(d1, d2) as sparse row lists: d1 is edges x vertices, d2 cells x edges."""
    d1 = []
    for u, v in k.edges:
        row = {}
        if u != v:
            row[v] = 1
            row[u] = -1
        d1.append(row)
    d2 = []
    for walk in k.cells:
        row = {}
        for step in walk:
            e = abs(step) - 1
            row[e] = row.get(e, 0) + (1 if step > 0 else -1)
        d2.append({e: v for e, v in row.items() if v})
    return d1, d2


def cycle_complex(m, with_cell):
    edges = [(i, (i + 1) % m) for i in range(m)]
    cells = [list(range(m))] if with_cell else []
    return T.TwoComplex.from_graph(m, edges, cells)


class TestSNF:
    def test_zero_matrix(self):
        diag, rank = smith_normal_form([[0, 0], [0, 0]])
        assert rank == 0
        assert diag == [0, 0]

    def test_spec_example(self):
        diag, rank = smith_normal_form([[2, 4], [6, 8]])
        assert (diag, rank) == ([2, 4], 2)

    def test_identity(self):
        diag, rank = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert (diag, rank) == ([1, 1, 1], 3)

    def test_divisibility_and_determinantal_divisors(self):
        rng = random.Random(11)
        for _ in range(60):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            m = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
            diag, rank = smith_normal_form(m)
            nonzero = [d for d in diag if d]
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
            # oracle: product of the first k invariant factors equals the
            # gcd of all k x k minors
            for k in range(1, rank + 1):
                minors = []
                for ri in itertools.combinations(range(rows), k):
                    for ci in itertools.combinations(range(cols), k):
                        sub = [[m[r][c] for c in ci] for r in ri]
                        minors.append(_det(sub))
                g = 0
                for v in minors:
                    g = math.gcd(g, v)
                assert g == math.prod(nonzero[:k])

    def test_square_determinant_preserved(self):
        m = [[3, 1, 2], [0, 2, 5], [1, 1, 1]]
        diag, rank = smith_normal_form(m)
        assert rank == 3
        assert math.prod(diag) == abs(_det(m))


def _all_pairs_chain(diag):
    """Reference: the divisibility chain over every pair, units included."""
    diag = list(diag)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = math.gcd(diag[i], diag[j])
                    l = diag[i] // g * diag[j]
                    diag[i], diag[j] = g, l
                    changed = True
    return sorted(diag)


class TestDivisibilityChain:
    def test_planted_torsion_merges(self):
        assert T._sparse_snf([{0: 2}, {1: 3}]) == [1, 6]
        rows = [{0: 4}, {1: 6}] + [{c: 1} for c in range(2, 52)]
        assert T._sparse_snf(rows) == [1] * 50 + [2, 12]

    def test_random_diagonals_match_all_pairs_chain(self):
        rng = random.Random(5)
        for _ in range(200):
            size = rng.randrange(0, 12)
            diag = [rng.choice([1, 1, 1, 2, 3, 4, 6, 9, 10, 12]) for _ in range(size)]
            assert T._divisibility_chain(diag) == _all_pairs_chain(diag)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_sparse_matches_all_pairs_chain(self, seed, monkeypatch):
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(20, 41), rng.randrange(10, 41)
        rows = []
        for _ in range(nrows):
            scale = rng.choice([1, 1, 2, 3, 4, 6])
            cols = rng.sample(range(ncols), rng.randrange(0, 4))
            rows.append({c: scale * rng.choice([-2, -1, 1, 2, 3]) for c in cols})
        eliminated = []
        chain = T._divisibility_chain

        def spy(diag):
            eliminated.append(list(diag))
            return chain(diag)

        monkeypatch.setattr(T, "_divisibility_chain", spy)
        assert T._sparse_snf(rows) == _all_pairs_chain(eliminated[0])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Z.build_z_complex(Z.enumerate_tilings(Z.zonotope_spec(5, 3)))[0],
            lambda: P.build_plabic_complex(C.cyclic_decorated(5, 2), "X")[0],
        ],
        ids=["Z(5,3)", "X(pi(5,2))"],
    )
    def test_d1_rank_is_vertices_minus_one(self, build):
        # the reference H1 route takes rank(d1) = V - 1 without elimination
        k = build()
        d1, _ = boundary_matrices(k)
        assert len(k.components()) == 1
        assert k.nv - 1 == len(T._sparse_snf(d1))


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


class TestH1:
    def test_bare_ten_cycle(self):
        assert T.h1(cycle_complex(10, False)) == (1, [])

    def test_filled_ten_cycle(self):
        assert T.h1(cycle_complex(10, True)) == (0, [])

    def test_pentagon_complex(self):
        assert T.h1(cycle_complex(5, True)) == (0, [])

    def test_disconnected_rejected(self):
        k = T.TwoComplex(3, ((0, 1),), ())
        with pytest.raises(PreconditionError):
            T.h1(k)

    def test_projective_plane_torsion(self):
        # one vertex, one loop edge, one cell traversing it twice
        k = T.TwoComplex(1, ((0, 0),), ((1, 1),))
        assert T.h1(k) == (0, [2])

    def test_torus_betti(self):
        # one vertex, two loops, relator aba^-1b^-1
        k = T.TwoComplex(1, ((0, 0), (0, 0)), ((1, 2, -1, -2),))
        assert T.h1(k) == (2, [])


def h1_by_boundary(k):
    """Reference H1 route: betti1 = E - (V - 1) - rank d2 and the torsion,
    both from the Smith normal form of the full boundary matrix d2."""
    _, d2 = boundary_matrices(k)
    inv = T._sparse_snf(d2)
    return len(k.edges) - (k.nv - 1) - len(inv), [v for v in inv if v > 1]


def assert_h1_routes_agree(k):
    """h1 (abelianized presentation) equals the d2 route, on k and on k
    with every other cell dropped, which usually leaves H1 != 0."""
    for cx in (k, T.TwoComplex(k.nv, k.edges, k.cells[::2])):
        assert T.h1(cx) == h1_by_boundary(cx)


@st.composite
def one_vertex_complexes(draw):
    """One vertex, m loops: every word in the loops is a closed walk."""
    m = draw(st.integers(1, 5))
    letters = st.integers(1, m).flatmap(lambda g: st.sampled_from([g, -g]))
    cells = draw(st.lists(st.lists(letters, min_size=1, max_size=10).map(tuple), max_size=6))
    return T.TwoComplex(1, ((0, 0),) * m, tuple(cells))


@st.composite
def connected_complexes(draw):
    """A random spanning tree (edge i - 1 joins vertex i to a lower vertex)
    plus random extra edges, loops and parallel edges among them; each cell
    is a random walk closed by the tree path back to its start."""
    nv = draw(st.integers(1, 7))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, nv)]
    vertex = st.integers(0, nv - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    incident = {x: [] for x in range(nv)}
    for e, (u, v) in enumerate(edges):
        incident[u].append((e + 1, v))
        incident[v].append((-(e + 1), u))

    def up(x):  # tree path from x to vertex 0
        path = []
        while x:
            path.append(-x)
            x = edges[x - 1][0]
        return path

    cells = []
    for _ in range(draw(st.integers(0, 6))):
        start = at = draw(vertex)
        walk = []
        for _ in range(draw(st.integers(1, 10))):
            if not incident[at]:
                break
            step, at = draw(st.sampled_from(incident[at]))
            walk.append(step)
        walk += up(at) + [-s for s in reversed(up(start))]
        if walk:
            cells.append(tuple(walk))
    return T.TwoComplex(nv, tuple(edges), tuple(cells))


class TestH1Routes:
    """H1 from the abelianized presentation against H1 from d2's SNF."""

    @settings(max_examples=300, deadline=None)
    @given(one_vertex_complexes())
    def test_one_vertex_complexes(self, k):
        assert T.h1(k) == h1_by_boundary(k)

    @settings(max_examples=300, deadline=None)
    @given(connected_complexes())
    def test_connected_complexes(self, k):
        assert T.h1(k) == h1_by_boundary(k)

    @pytest.mark.parametrize(
        "loops, relator, expected",
        [(2, (1, 2, 1, -2), (1, [2])), (1, (1, 1, 1), (0, [3]))],
        ids=["klein_bottle", "cube_of_a_generator"],
    )
    def test_one_relator(self, loops, relator, expected):
        k = T.TwoComplex(1, ((0, 0),) * loops, (relator,))
        assert T.h1(k) == h1_by_boundary(k) == expected

    @pytest.mark.parametrize("n", range(3, 7))
    def test_zonotopal(self, n):
        for d in range(1, n):
            assert_h1_routes_agree(Z.build_z_complex(Z.enumerate_tilings(Z.zonotope_spec(n, d)))[0])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_plabic(self, n):
        for p in C.all_decorated_permutations(n):
            for kind in ("X", "Y"):
                assert_h1_routes_agree(P.build_plabic_complex(p, kind)[0])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_tcd(self, n):
        for image in itertools.permutations(range(1, n + 1)):
            assert_h1_routes_agree(P.build_plabic_complex(C.permutation_for_tcd(image), "T")[0])


def _reference_reduce(word):
    """Cancel adjacent inverse pairs until none is left, then strip inverse
    pairs from the two ends."""
    word = list(word)
    i = 0
    while i + 1 < len(word):
        if word[i] == -word[i + 1]:
            del word[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    while len(word) > 1 and word[0] == -word[-1]:
        word = word[1:-1]
    return word


def replay_elimination(pres, residual, log):
    """Replay a Tietze log from the original relators and check each step
    and the result.  Each (relator, generator) step needs the generator
    exactly once in the current reduced relator u g^e v; it substitutes
    g = (v u)^-e everywhere.  At the end the nonempty relators, renumbered
    over the surviving generators, must be the residual presentation."""
    rels = [_reference_reduce(r) for r in pres.relators]
    gone = set()
    for rid, g in log:
        word = rels[rid]
        assert g not in gone
        gens = [abs(x) for x in word]
        assert gens.count(g) == 1, "generator %d occurs %d times in relator %d" % (g, gens.count(g), rid)
        p = gens.index(g)
        value = word[p + 1 :] + word[:p]  # v u = g^-e
        if word[p] > 0:
            value = [-x for x in reversed(value)]
        inverse = [-x for x in reversed(value)]
        for i, w in enumerate(rels):
            if g in w or -g in w:
                out = []
                for x in w:
                    out += value if x == g else inverse if x == -g else [x]
                rels[i] = _reference_reduce(out)
        assert rels[rid] == []
        gone.add(g)
    survivors = [g for g in range(1, pres.n_generators + 1) if g not in gone]
    new_id = {g: i for i, g in enumerate(survivors, start=1)}
    renumbered = tuple(tuple(new_id[x] if x > 0 else -new_id[-x] for x in w) for w in rels if w)
    assert residual.n_generators == len(survivors)
    assert residual.relators == renumbered


def eliminate(pres):
    """The kill sweep on a presentation's own relators, read through the
    identity table."""
    n = pres.n_generators
    return T._tietze_eliminate(pres.relators, [*range(n + 1), *range(-n, 0)], range(n + 1))


def assert_elimination_replays(k):
    """The kill log of k's presentation replays, and kills every generator."""
    pres = T.pi1_presentation(k)
    residual, log = eliminate(pres)
    replay_elimination(pres, residual, log)
    assert residual.n_generators == 0


@st.composite
def presentations(draw):
    m = draw(st.integers(1, 6))
    letters = st.integers(1, m).flatmap(lambda g: st.sampled_from([g, -g]))
    relators = draw(st.lists(st.lists(letters, max_size=14).map(tuple), max_size=8))
    return T.GroupPresentation(m, tuple(relators))


def reference_queue_sweep(pres):
    """The kill log of the two-phase sweep: index every relator under its
    distinct generators, reducing the ones that repeat a generator, then
    queue each relator left with one live generator and kill it when its
    exponent sum there is +-1.  The reference for the streaming sweep's
    killed set, which must not depend on the order of the kills."""
    n = pres.n_generators
    rels = list(pres.relators)
    holders = [[] for _ in range(n + 1)]
    live = []  # distinct generators of each relator still live
    last = []  # sum of those: the live one, once only one is left
    for rid, w in enumerate(rels):
        total = 0
        repeat = False
        for x in w:
            g = abs(x)
            h = holders[g]
            if h and h[-1] == rid:  # met before in this relator
                repeat = True
            else:
                h.append(rid)
                total += g
        if repeat:  # the word may cancel: reduce it, unlist what cancelled
            gens = set(map(abs, w))
            w = rels[rid] = T._reduce(list(w))
            kept = set(map(abs, w))
            for g in gens - kept:
                holders[g].pop()  # ids are appended in order: rid is last
            live.append(len(kept))
            last.append(sum(kept))
        else:
            live.append(len(w))
            last.append(total)
    queue = [rid for rid, count in enumerate(live) if count == 1]
    log = []
    for rid in queue:  # the loop visits what it appends
        g = last[rid]
        w = rels[rid]
        if live[rid] != 1 or abs(w.count(g) - w.count(-g)) != 1:
            continue
        log.append((rid, g))
        for other in holders[g]:
            live[other] -= 1
            last[other] -= g
            if live[other] == 1:
                queue.append(other)
    return log


# (kind, n, k, betti1 of the complex without each cell family) of the
# cyclic decorated permutation pi(n, k)
CELL_FAMILIES = [
    ("X", 6, 3, {"quad": 105, "decagon_white": 5, "decagon_black": 5}),
    ("Y", 6, 3, {"quad": 15, "pentagon": 11}),
    ("T", 6, 3, {"quad": 36, "decagon": 5, "pentagon_square": 5}),
    ("X", 6, 2, {"quad": 36, "pentagon_white": 5, "decagon_white": 5}),
]


@functools.cache
def sweep_complexes():
    """Z(n, d) for n <= 6; X, Y and T for n <= 5; and the complexes of
    `CELL_FAMILIES` with one cell family dropped, whose sweeps stop short."""
    out = []
    for n in range(2, 7):
        for d in range(1, n):
            out.append(Z.build_z_complex(Z.enumerate_tilings(Z.zonotope_spec(n, d)))[0])
    for n in range(1, 6):
        for p in C.all_decorated_permutations(n):
            out += [P.build_plabic_complex(p, kind)[0] for kind in ("X", "Y")]
        for image in itertools.permutations(range(1, n + 1)):
            out.append(P.build_plabic_complex(C.permutation_for_tcd(image), "T")[0])
    for kind, n, k, families in CELL_FAMILIES:
        cx, cells = P.build_plabic_complex(C.cyclic_decorated(n, k), kind)
        for family in families:
            out.append(T.TwoComplex.from_graph(cx.nv, cx.edges, [cyc for name, cyc in cells if name != family]))
    return out


def assert_entry_points_agree(k):
    """The sweep over k's cell walks, through the generator table, gives the
    residual and log of the sweep over k's presentation."""
    assert T._tietze_eliminate(k.cells, *T._generator_table(k)) == eliminate(T.pi1_presentation(k))


def assert_kills_as_reference(pres):
    killed = [g for _, g in eliminate(pres)[1]]
    assert len(set(killed)) == len(killed)
    assert set(killed) == {g for _, g in reference_queue_sweep(pres)}


class TestTietze:
    """Every kill log replays from the original relators, and the sweep
    kills every generator of every flip complex built here."""

    @settings(max_examples=200, deadline=None)
    @given(presentations())
    def test_random_presentations(self, pres):
        residual, log = eliminate(pres)
        replay_elimination(pres, residual, log)
        assert T._abelianized_h1(residual) == T._abelianized_h1(pres)

    def test_cell_walks_match_presentation(self):
        stuck = 0
        for k in sweep_complexes():
            assert_entry_points_agree(k)
            stuck += eliminate(T.pi1_presentation(k))[0].n_generators > 0
        assert stuck == 11  # the ablated complexes, and only those

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(one_vertex_complexes(), connected_complexes()))
    def test_cell_walks_match_presentation_random(self, k):
        assert_entry_points_agree(k)

    def test_killed_set_is_the_reference_queue_sweeps(self):
        for k in sweep_complexes():
            assert_kills_as_reference(T.pi1_presentation(k))

    @settings(max_examples=300, deadline=None)
    @given(presentations(), st.randoms(use_true_random=False))
    def test_killed_set_does_not_depend_on_relator_order(self, pres, rng):
        assert_kills_as_reference(pres)
        shuffled = list(pres.relators)
        rng.shuffle(shuffled)
        killed = {g for _, g in eliminate(T.GroupPresentation(pres.n_generators, tuple(shuffled)))[1]}
        assert killed == {g for _, g in reference_queue_sweep(pres)}

    def test_sweep_is_linear(self):
        # one relator holds every generator, and single-letter relators kill
        # them last to first: each death lowers its count once, where a
        # sweep that read it again per death would take n^2 / 2 steps
        n = 40_000
        pres = T.GroupPresentation(n, (tuple(range(1, n + 1)), *((g,) for g in range(n, 0, -1))))
        t0 = time.perf_counter()
        residual, log = eliminate(pres)
        elapsed = time.perf_counter() - t0
        assert residual == T.GroupPresentation(0, ())
        assert log == [(n + 1 - g, g) for g in range(n, 1, -1)] + [(0, 1)]
        assert elapsed < 5.0, elapsed

    def test_kill_needs_exponent_sum_one(self):
        # <a, b | b, a b a^-1>: b dies, and a b a^-1 is then a a^-1, which
        # proves nothing about a
        pres = T.GroupPresentation(2, ((2,), (1, 2, -1)))
        residual, log = eliminate(pres)
        assert log == [(0, 2)] and residual == T.GroupPresentation(1, ())
        replay_elimination(pres, residual, log)
        k = T.TwoComplex(1, ((0, 0), (0, 0)), ((2,), (1, 2, -1)))
        cert = T.certificate(k)
        assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (1, [], "nontrivial")

    def test_kill_with_repeated_generator(self):
        # with b dead, a a b a^-1 b^-1 is a a a^-1 = a: exponent sum 1
        pres = T.GroupPresentation(2, ((1, 1, 2, -1, -2), (2,)))
        residual, log = eliminate(pres)
        assert log == [(1, 2), (0, 1)] and residual == T.GroupPresentation(0, ())
        replay_elimination(pres, residual, log)
        # a b b^-1 c reduces to a c, so it waits on a and c only: with c
        # dead it kills a.  Waiting on b as well, it would need b dead too,
        # and without the relator b, a would survive.  The log is in
        # streaming order: c's death kills a before relator 2 is read
        for more, expected in [((), ([(1, 3), (0, 1)], 1)), (((2,),), ([(1, 3), (0, 1), (2, 2)], 0))]:
            pres = T.GroupPresentation(3, ((1, 2, -2, 3), (3,), *more))
            residual, log = eliminate(pres)
            assert (log, residual.n_generators) == expected and not residual.relators
            replay_elimination(pres, residual, log)

    def test_residual_deletes_in_kill_order(self):
        # a, b, g, h = 1, 2, 3, 4.  Deleting g, reducing, then deleting h
        # leaves a^-1 b a^-1 b; deleting both at once and reducing leaves its
        # rotation b a^-1 b a^-1, which is not what the log replays to
        a, b, g, h = 1, 2, 3, 4
        word = (a, h, -a, h, b, -a, b, -h, -a, g)
        pres = T.GroupPresentation(4, ((g,), (h,), word))
        residual, log = eliminate(pres)
        assert log == [(0, g), (1, h)]
        assert residual == T.GroupPresentation(2, ((-a, b, -a, b),))
        replay_elimination(pres, residual, log)

    def test_torsion_kills_nothing(self):
        pres = T.GroupPresentation(1, ((1, 1),))
        assert eliminate(pres) == (pres, [])
        projective_plane = T.TwoComplex(1, ((0, 0),), ((1, 1),))
        assert eliminate(T.pi1_presentation(projective_plane)) == (pres, [])

    @pytest.mark.parametrize("n, d", [(5, 3), (6, 2)])
    def test_kill_phase_closes_zonotopal(self, n, d):
        k = Z.build_z_complex(Z.enumerate_tilings(Z.zonotope_spec(n, d)))[0]
        residual, _ = eliminate(T.pi1_presentation(k))
        assert residual == T.GroupPresentation(0, ())
        cert = T.certificate(k)
        assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (0, [], "trivial")

    @pytest.mark.parametrize("n", range(3, 7))
    def test_zonotopal(self, n):
        for d in range(1, n):
            assert_elimination_replays(Z.build_z_complex(Z.enumerate_tilings(Z.zonotope_spec(n, d)))[0])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_plabic(self, n):
        for p in C.all_decorated_permutations(n):
            for kind in ("X", "Y"):
                assert_elimination_replays(P.build_plabic_complex(p, kind)[0])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tcd(self, n):
        for image in itertools.permutations(range(1, n + 1)):
            assert_elimination_replays(P.build_plabic_complex(C.permutation_for_tcd(image), "T")[0])


class TestTwoComplex:
    @pytest.mark.parametrize(
        "nv, edges, cells",
        [(2, ((0, 1),), ((1, 0),)), (1, (), ((0,),)), (2, ((0, 1),), ((1, -2),))],
        ids=["step_0", "step_0_no_edges", "step_past_last_edge"],
    )
    def test_cell_with_unknown_edge_rejected(self, nv, edges, cells):
        with pytest.raises(ValidationError, match="unknown edge"):
            T.TwoComplex(nv, edges, cells)

    @pytest.mark.parametrize(
        "nv, edges, cells, message",
        [
            (2, ((0, 2),), (), "edge endpoint out of range"),
            (2, ((-1, 0),), (), "edge endpoint out of range"),
            (3, ((0, 1), (1, 2), (2, 0)), ((1, 3),), "cell boundary is not a path"),
            (3, ((0, 1), (1, 2), (2, 0)), ((1, 2),), "cell boundary is not closed"),
        ],
        ids=["endpoint_past_nv", "negative_endpoint", "not_a_path", "not_closed"],
    )
    def test_malformed_complex_rejected(self, nv, edges, cells, message):
        with pytest.raises(ValidationError, match=message):
            T.TwoComplex(nv, edges, cells)

    def test_from_graph_takes_the_first_edge_of_a_pair(self):
        # the lookup holds one orientation per vertex pair; either step
        # direction finds edge 0, and the sign follows its stored direction
        k = T.TwoComplex.from_graph(2, [(1, 0), (0, 1)], [[0, 1]])
        assert k.cells == ((-1, 1),)


class TestPi1:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(one_vertex_complexes(), connected_complexes()))
    def test_table_matches_reference_route(self, k):
        assert table_pi1_presentation(k) == reference_pi1_presentation(k)

    def test_tree_presentation_empty(self):
        k = T.TwoComplex(4, ((0, 1), (1, 2), (1, 3)), ())
        pres = T.pi1_presentation(k)
        assert pres.n_generators == 0
        assert T.certify_trivial(pres) == "trivial"

    def test_square_cell(self):
        k = cycle_complex(4, True)
        pres = T.pi1_presentation(k)
        assert pres.n_generators == 1
        assert [abs(x) for rel in pres.relators for x in rel] == [1]
        assert T.certify_trivial(pres) == "trivial"

    def test_z42_complex_presentation(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(4, 2))
        k, _ = Z.build_z_complex(g)
        pres = T.pi1_presentation(k)
        assert pres.n_generators == len(k.edges) - (k.nv - 1)
        assert pres.n_generators == 1
        assert len(pres.relators) == len(k.cells)
        (rel,) = pres.relators
        assert sum(1 for x in rel if abs(x) == 1) == 1
        assert T.certify_trivial(pres) == "trivial"

    def test_free_abelian_inconclusive(self):
        pres = T.GroupPresentation(2, ((1, 2, -1, -2),))
        assert T.certify_trivial(pres, budget=5000) == "inconclusive"

    def test_nontrivial_finite_group_not_certified(self):
        # Z/3: coset table closes on 3 cosets, so the certificate must refuse
        pres = T.GroupPresentation(1, ((1, 1, 1),))
        assert T.certify_trivial(pres) == "inconclusive"


class TestCertificates:
    def test_euler_consistency(self):
        for n, d in [(4, 2), (5, 2), (5, 3)]:
            g = Z.enumerate_tilings(Z.zonotope_spec(n, d))
            k, _ = Z.build_z_complex(g)
            betti1, torsion = T.h1(k)
            _, d2 = boundary_matrices(k)
            rank_d2 = len(T._sparse_snf(d2))
            betti2 = len(k.cells) - rank_d2
            assert 1 - betti1 + betti2 == k.nv - len(k.edges) + len(k.cells)

    def test_certificate_fields_and_hash(self):
        k = cycle_complex(5, True)
        cert = T.certificate(k)
        assert cert["V"] == 5 and cert["E"] == 5 and cert["F"] == 1
        assert cert["betti1"] == 0 and cert["pi1"] == "trivial"
        assert cert["input_hash"] == k.canonical_hash()
        assert T.certificate(k)["input_hash"] == cert["input_hash"]

    def test_trivial_pi1_implies_h1_zero(self):
        g = Z.enumerate_tilings(Z.zonotope_spec(5, 3))
        k, _ = Z.build_z_complex(g)
        cert = T.certificate(k)
        assert cert["pi1"] == "trivial" and cert["betti1"] == 0

    def test_bare_cycle_is_nontrivial(self):
        cert = T.certificate(cycle_complex(10, False))
        assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (1, [], "nontrivial")

    def test_projective_plane_is_nontrivial(self):
        k = T.TwoComplex(1, ((0, 0),), ((1, 1),))
        cert = T.certificate(k)
        assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (0, [2], "nontrivial")

    @pytest.mark.parametrize("kind, n, k, betti1_without", CELL_FAMILIES, ids=["X-pi63", "Y-pi63", "T-pi63", "X-pi62"])
    def test_every_cell_family_is_needed(self, kind, n, k, betti1_without):
        # the paper's 4-, 5- and 10-cycles: dropping any one family of a
        # real complex leaves H1 free of rank betti1, so pi1 is nontrivial
        p = C.cyclic_decorated(n, k)
        cx, cells = P.build_plabic_complex(p, kind)
        assert {name for name, _ in cells} == set(betti1_without)
        for family, betti1 in betti1_without.items():
            ablated = T.TwoComplex.from_graph(cx.nv, cx.edges, [cyc for name, cyc in cells if name != family])
            cert = T.certificate(ablated)
            assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (betti1, [], "nontrivial"), family
            assert T.h1(ablated) == (betti1, []), family

    def test_nontrivial_skips_coset_enumeration(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("coset enumeration ran although H1 != 0")

        monkeypatch.setattr(T, "certify_trivial", fail)
        cert = T.certificate(cycle_complex(10, False), budget=1)
        assert cert["pi1"] == "nontrivial" and cert["pi1_budget"] == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Z.build_z_complex(Z.enumerate_tilings(Z.zonotope_spec(5, 3)))[0],
            lambda: cycle_complex(10, False),
        ],
        ids=["trivial", "nontrivial"],
    )
    def test_no_presentation_and_no_boundary_matrix(self, build, monkeypatch):
        # the sweep reads the cell walks through the generator table itself
        k = build()
        calls = []
        presentation = T.pi1_presentation

        def spy(cx):
            calls.append(cx)
            return presentation(cx)

        monkeypatch.setattr(T, "pi1_presentation", spy)
        T.certificate(k)
        assert calls == []
        assert not hasattr(T, "boundary_matrices")

    def test_closed_elimination_needs_no_snf_nor_coset_enumeration(self, monkeypatch):
        k = Z.build_z_complex(Z.enumerate_tilings(Z.zonotope_spec(5, 3)))[0]

        def fail(*args, **kwargs):
            raise AssertionError("elimination closed, yet SNF or coset enumeration ran")

        monkeypatch.setattr(T, "certify_trivial", fail)
        monkeypatch.setattr(T, "_sparse_snf", fail)
        cert = T.certificate(k)
        assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (0, [], "trivial")

    def test_stuck_elimination_falls_back_to_coset_enumeration(self, monkeypatch):
        # <a, b | a b a^-1 b^-2, b a b^-1 a^-2>: no generator occurs once in
        # any relator, H1 = 0, and the group is trivial
        k = T.TwoComplex(1, ((0, 0), (0, 0)), ((1, 2, -1, -2, -2), (2, 1, -2, -1, -1)))
        calls = []
        enumerate_cosets = T.certify_trivial

        def spy(pres, budget):
            calls.append(pres)
            return enumerate_cosets(pres, budget=budget)

        monkeypatch.setattr(T, "certify_trivial", spy)
        cert = T.certificate(k)
        assert (cert["betti1"], cert["torsion"], cert["pi1"]) == (0, [], "trivial")
        assert [pres.n_generators for pres in calls] == [2]

    def test_census_hash(self):
        # one sha256 over the certificates, wall_time_s left out, of 996
        # complexes: for each n <= 5, X and Y of every decorated
        # permutation, then T of every permutation; then Z(n, d) for n <= 6
        def complexes():
            for n in range(1, 6):
                for p in C.all_decorated_permutations(n):
                    yield P.build_plabic_complex(p, "X")[0]
                    yield P.build_plabic_complex(p, "Y")[0]
                for image in itertools.permutations(range(1, n + 1)):
                    yield P.build_plabic_complex(C.permutation_for_tcd(image), "T")[0]
            for n in range(2, 7):
                for d in range(1, n):
                    yield Z.build_z_complex(Z.enumerate_tilings(Z.zonotope_spec(n, d)))[0]

        digest = hashlib.sha256()
        count = 0
        for k in complexes():
            cert = T.certificate(k)
            del cert["wall_time_s"]
            digest.update(json.dumps(cert, sort_keys=True, separators=(",", ":")).encode() + b"\n")
            count += 1
        assert count == 996
        assert digest.hexdigest() == "0aefe15fdcbb5e14f441e3284e507c25e50bf775971655dca57ea7cea474904b"

    def test_tcd_n6_certificates_match_h1(self):
        # where elimination gets stuck, the residual keeps betti1 and torsion;
        # every T complex has H1 = 0, and each certifies
        nontrivial = 0
        for image in itertools.permutations(range(1, 7)):
            k = P.build_plabic_complex(C.permutation_for_tcd(image), "T")[0]
            cert = T.certificate(k, budget=100_000)
            assert (cert["betti1"], cert["torsion"]) == T.h1(k)
            assert cert["pi1"] == ("nontrivial" if cert["betti1"] or cert["torsion"] else "trivial")
            nontrivial += cert["pi1"] == "nontrivial"
        assert nontrivial == 0
