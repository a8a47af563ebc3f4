"""Acceptance suite: one exact criterion per test, one PASS line per run.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import itertools
import math
import random

import pytest

from flipcells import combinat as C
from flipcells import plabic as P
from flipcells import sections as S
from flipcells import topology as T
from flipcells import zonotope as Z


def report(num, desc):
    print("ACCEPTANCE %2d PASS: %s" % (num, desc))


def enumerate_graph(n, d):
    return Z.enumerate_tilings(Z.zonotope_spec(n, d))


def square_moves_by_level(tiling):
    """Reference route: the square moves of every cross-section, counted
    independently of the flips."""
    return {
        k: [m for m in P.available_moves(S.cross_section(tiling, k)) if m.kind == "M2"]
        for k in range(1, tiling.spec.n)
    }


def test_01_two_tilings_of_minimal_zonotopes():
    for d in (2, 3):
        g = enumerate_graph(d + 1, d)
        assert (g.n_vertices, g.n_edges) == (2, 1)
    report(1, "Z(d+1,d) has exactly 2 tilings, 1 flip apart, for d = 2, 3")


def test_02_single_cycles():
    g42 = enumerate_graph(4, 2)
    assert g42.n_vertices == 8 and g42.is_single_cycle()
    g53 = enumerate_graph(5, 3)
    assert g53.n_vertices == 10 and g53.is_single_cycle()
    report(2, "Z(4,2) flip graph is an 8-cycle and Z(5,3) a 10-cycle")


def test_03_gradedness_and_extremes():
    sizes = {}
    for n, d in [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3)]:
        g = enumerate_graph(n, d)
        top = math.comb(n, d + 1)
        for u, v, _ in g.edges:
            assert abs(g.ranks[u] - g.ranks[v]) == 1
        assert max(g.ranks) == top
        assert sum(1 for r in g.ranks if r == 0) == 1
        assert sum(1 for r in g.ranks if r == top) == 1
        sizes[(n, d)] = g.n_vertices
    assert sizes[(6, 2)] == 908
    report(3, "graded flip posets with unique extremes at ranks 0 and C(n,d+1); "
              "|Z(6,2)| = 908, |Z(6,3)| = %d" % sizes[(6, 3)])


def test_04_zonotopal_complexes_simply_connected():
    for n, d in [(5, 2), (6, 2), (5, 3), (6, 3)]:
        g = enumerate_graph(n, d)
        k, _ = Z.build_z_complex(g)
        cert = T.certificate(k)
        assert cert["betti1"] == 0
        assert cert["torsion"] == []
        assert cert["pi1"] == "trivial"
    report(4, "H1 = 0, no torsion, pi1 trivial for the zonotopal complexes of "
              "(5,2), (6,2), (5,3), (6,3)")


def test_05_flip_square_move_bijection():
    checked = 0
    for n in (5, 6):
        g = enumerate_graph(n, 3)
        for tiling in g.payloads:
            pairs = S.flip_move_correspondence(tiling)
            by_level = square_moves_by_level(tiling)
            independent = {
                (level, m.center, m.replacement)
                for level, moves in by_level.items()
                for m in moves
            }
            derived = {(level, m.center, m.replacement) for _, level, m in pairs}
            assert derived == independent
            assert len(pairs) == len(Z.available_flips(tiling))
            checked += 1
    report(5, "flip <-> square-move bijection round-trips on all %d tilings "
              "of Z(5,3) and Z(6,3)" % checked)


def test_06_cross_section_round_trips():
    g = enumerate_graph(5, 3)
    for tiling in g.payloads:
        for k in range(1, 5):
            sigma = S.cross_section(tiling, k)
            dual = S.dual_graph(sigma)
            assert all(dual.degree(v) == 3 for v in range(len(dual.colors)))
            assert S.is_reduced(dual).ok
            assert S.strand_permutation(dual) == C.cyclic_decorated(5, k)
            rebuilt = S.extend_to_tiling(sigma)
            assert S.cross_section(rebuilt, k) == sigma
    report(6, "every cross-section of every Z(5,3) tiling dualizes to a "
              "trivalent reduced graph with connectivity pi(5,k) and rebuilds exactly")


def test_07_x_complexes_certified():
    count = 0
    for n in range(1, 6):
        for p in C.all_decorated_permutations(n):
            cx, _ = P.build_plabic_complex(p, "X")
            cert = T.certificate(cx)
            assert cert["betti1"] == 0 and cert["torsion"] == []
            assert cert["pi1"] == "trivial"
            count += 1
    for k in range(1, 6):
        cx, _ = P.build_plabic_complex(C.cyclic_decorated(6, k), "X")
        cert = T.certificate(cx)
        assert cert["betti1"] == 0 and cert["torsion"] == []
        assert cert["pi1"] == "trivial"
        count += 1
    report(7, "X complexes simply connected for all %d instances "
              "(every decorated permutation with n <= 5, plus pi(6,k))" % count)


def test_08_y_complexes_certified():
    count = 0
    for n in range(1, 6):
        for p in C.all_decorated_permutations(n):
            cy, _ = P.build_plabic_complex(p, "Y")
            assert T.h1(cy) == (0, [])
            count += 1
    for k in range(1, 6):
        cy, _ = P.build_plabic_complex(C.cyclic_decorated(6, k), "Y")
        assert T.h1(cy) == (0, [])
        count += 1
    report(8, "H1 = 0 for the square-move complexes Y on the same %d instances" % count)


def test_09_t_complexes_certified():
    count = 0
    for n in range(1, 6):
        for image in itertools.permutations(range(1, n + 1)):
            cx, _ = P.build_plabic_complex(C.permutation_for_tcd(image), "T")
            cert = T.certificate(cx)
            assert cert["betti1"] == 0 and cert["torsion"] == []
            assert cert["pi1"] == "trivial"
            count += 1
    report(9, "T complexes simply connected for all %d permutations with n <= 5" % count)


def _verify_realization(tiling, level, move, seq):
    n = tiling.spec.n
    protected = range(level, n) if move.kind == "M3" else range(1, level + 1)
    cur = tiling
    for i, site in enumerate(seq):
        before = {l: S.cross_section(cur, l) for l in protected}
        cur = Z.apply_flip(cur, site)
        after = {l: S.cross_section(cur, l) for l in protected}
        if i < len(seq) - 1:
            assert before == after
        else:
            for l in protected:
                if l != level:
                    assert before[l] == after[l]
    assert S.cross_section(cur, level) == P.apply_move(S.cross_section(tiling, level), move)


def test_10_move_realization_and_alignment():
    g53 = enumerate_graph(5, 3)
    n_moves = 0
    for tiling in g53.payloads:
        for level in range(1, 5):
            for move in P.available_moves(S.cross_section(tiling, level)):
                if move.kind == "M2":
                    continue
                seq = S.realize_trivalent_move(tiling, level, move)
                _verify_realization(tiling, level, move, seq)
                n_moves += 1

    g63 = enumerate_graph(6, 3)
    rng = random.Random(20260811)
    samples = 0
    while samples < 100:
        tiling = g63.payloads[rng.randrange(g63.n_vertices)]
        level = rng.randrange(1, 6)
        moves = [
            m
            for m in P.available_moves(S.cross_section(tiling, level))
            if m.kind in ("M1", "M3")
        ]
        if not moves:
            continue
        move = moves[rng.randrange(len(moves))]
        seq = S.realize_trivalent_move(tiling, level, move)
        _verify_realization(tiling, level, move, seq)
        samples += 1

    n_pairs = 0
    for k in range(1, 5):
        for a, b in itertools.combinations(g53.payloads, 2):
            if S.cross_section(a, k) != S.cross_section(b, k):
                continue
            seq = S.align_tilings(a, b, k)
            cur = a
            for site in seq:
                cur = Z.apply_flip(cur, site)
                assert S.cross_section(cur, k) == S.cross_section(a, k)
            assert cur.key() == b.key()
            n_pairs += 1
    report(10, "move realization verified flip-by-flip on %d Z(5,3) moves and "
               "100 sampled Z(6,3) moves; alignment verified on %d same-section "
               "pairs" % (n_moves, n_pairs))


def test_11_up_down_vertex_identity():
    checked = 0
    for n in range(2, 7):
        for p in C.all_decorated_permutations(n):
            if p.is_identity:
                continue
            nk = C.necklace_of(p)
            down = C.necklace_shift(nk, "down")
            if len(set(down.sets)) == 1:
                continue
            up = C.necklace_shift(down, "up")
            for j in range(1, n + 1):
                lam = next(
                    (j - 1 + s) % n + 1
                    for s in range(1, n)
                    if down[(j - 1 + s) % n + 1] != down[j]
                )
                iota = next(
                    (lam - 1 - s) % n + 1
                    for s in range(1, n)
                    if nk[(lam - 1 - s) % n + 1] != nk[lam]
                )
                assert up[j] == nk[iota]
            checked += 1
    report(11, "UP(DOWN(I))_j = I_{iota(lambda(j))} on all %d eligible necklaces "
               "with n <= 6" % checked)


def test_12_catalan_counts():
    for n, catalan in [(4, 2), (5, 5), (6, 14)]:
        g = P.enumerate_plabic(C.cyclic_decorated(n, 1))
        assert g.n_vertices == catalan
    report(12, "triangulation counts |X(pi(n,1))| = 2, 5, 14 for n = 4, 5, 6")
