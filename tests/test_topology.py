"""Smith normal form, homology, and coset-enumeration certificates."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipcells import combinat as C
from flipcells import plabic as P
from flipcells import tcd
from flipcells import topology as T
from flipcells import zonotope as Z
from flipcells.errors import PreconditionError


def cycle_complex(m, with_cell):
    edges = [(i, (i + 1) % m) for i in range(m)]
    cells = [list(range(m))] if with_cell else []
    return T.TwoComplex.from_graph(m, edges, cells)


class TestSNF:
    def test_zero_matrix(self):
        diag, rank = T.smith_normal_form([[0, 0], [0, 0]])
        assert rank == 0
        assert diag == [0, 0]

    def test_spec_example(self):
        diag, rank = T.smith_normal_form([[2, 4], [6, 8]])
        assert (diag, rank) == ([2, 4], 2)

    def test_identity(self):
        diag, rank = T.smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert (diag, rank) == ([1, 1, 1], 3)

    def test_divisibility_and_determinantal_divisors(self):
        rng = random.Random(11)
        for _ in range(60):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            m = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
            diag, rank = T.smith_normal_form(m)
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
        diag, rank = T.smith_normal_form(m)
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
        d1, _ = T.boundary_matrices(k)
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
    _, d2 = T.boundary_matrices(k)
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
            assert_h1_routes_agree(tcd.build_t_complex(image)[0])


class TestPi1:
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
            _, d2 = T.boundary_matrices(k)
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
        # certificate() runs coset enumeration only once H1 = 0
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
    def test_one_presentation_and_no_boundary_matrix(self, build, monkeypatch):
        k = build()
        calls = []
        presentation = T.pi1_presentation

        def spy(cx):
            calls.append(cx)
            return presentation(cx)

        def fail(*args, **kwargs):
            raise AssertionError("certificate built a boundary matrix")

        monkeypatch.setattr(T, "pi1_presentation", spy)
        monkeypatch.setattr(T, "boundary_matrices", fail)
        T.certificate(k)
        assert calls == [k]
