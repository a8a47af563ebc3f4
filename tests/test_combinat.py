"""Decorated permutations, necklaces, weak separation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipcells import combinat as C
from flipcells.errors import ArgumentError, PreconditionError, ValidationError

WHITE, BLACK = C.WHITE, C.BLACK


def all_valid_necklaces(n, k):
    """Brute-force enumeration of Grassmann necklaces by the exchange rule."""
    out = []
    firsts = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]

    def grow(seq):
        i = len(seq)
        if i == n:
            cur, nxt = seq[-1], seq[0]
            if (cur - nxt) <= {i} and len(nxt - cur) <= 1:
                out.append(C.GrassmannNecklace(n, tuple(seq)))
            return
        cur = seq[-1]
        base = cur - {i}
        cands = {cur}
        for j in range(1, n + 1):
            if j not in base and len(base | {j}) == k:
                cands.add(frozenset(base | {j}))
        for nxt in cands:
            if (cur - nxt) <= {i} and len(nxt - cur) <= 1:
                grow(seq + [nxt])

    for f in firsts:
        grow([f])
    return out


class TestCyclicDecorated:
    def test_pi52_images(self):
        assert C.cyclic_decorated(5, 2).image == (3, 4, 5, 1, 2)

    def test_k_zero_all_white(self):
        p = C.cyclic_decorated(4, 0)
        assert p.image == (1, 2, 3, 4)
        assert all(c == WHITE for _, c in p.fixed_color)

    def test_k_n_all_black_roundtrip(self):
        p = C.cyclic_decorated(3, 3)
        assert p.image == (1, 2, 3)
        assert all(c == BLACK for _, c in p.fixed_color)
        nk = C.necklace_of(p)
        assert all(s == frozenset({1, 2, 3}) for s in nk.sets)
        assert C.decorated_of(nk) == p

    def test_out_of_range(self):
        with pytest.raises(ArgumentError):
            C.cyclic_decorated(4, 5)
        with pytest.raises(ArgumentError):
            C.cyclic_decorated(4, -1)


class TestNecklaceBijection:
    def test_necklace_of_pi52_against_bruteforce(self):
        # the unique valid necklace whose exchange permutation is pi(5,2)
        p = C.cyclic_decorated(5, 2)
        matches = [nk for nk in all_valid_necklaces(5, 2) if C.decorated_of(nk) == p]
        assert len(matches) == 1
        assert C.necklace_of(p) == matches[0]
        assert [sorted(s) for s in matches[0].sets] == [
            [1, 2], [2, 3], [3, 4], [4, 5], [1, 5],
        ]

    def test_identity_necklaces(self):
        nk = C.necklace_of(C.cyclic_decorated(3, 0))
        assert all(s == frozenset() for s in nk.sets)

    def test_decorated_of_singletons(self):
        nk = C.GrassmannNecklace.make(3, [[1], [2], [3]])
        assert C.decorated_of(nk) == C.cyclic_decorated(3, 1)

    def test_helicity(self):
        assert C.helicity(C.cyclic_decorated(5, 2)) == 2
        assert C.helicity(C.cyclic_decorated(4, 0)) == 0
        assert C.helicity(C.cyclic_decorated(6, 4)) == 4

    @pytest.mark.parametrize("n", range(1, 7))
    def test_roundtrip_all_decorated(self, n):
        for p in C.all_decorated_permutations(n):
            assert C.decorated_of(C.necklace_of(p)) == p

    def test_malformed_necklace_rejected(self):
        with pytest.raises(ValidationError):
            C.GrassmannNecklace.make(3, [[1], [3], [2]])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_necklace_masks_match_necklace_of(self, n):
        for p in C.all_decorated_permutations(n):
            assert C.necklace_masks(p) == tuple(C.mask_of(s) for s in C.necklace_of(p).sets), p

    def test_necklace_masks_of_the_empty_permutation(self):
        (p,) = C.all_decorated_permutations(0)
        for f in (C.necklace_of, C.necklace_masks):
            with pytest.raises(ValidationError, match="n nonzero entries"):
                f(p)


class TestShifts:
    def test_down_pi52(self):
        nk = C.necklace_of(C.cyclic_decorated(5, 2))
        down = C.necklace_shift(nk, "down")
        assert [sorted(s) for s in down.sets] == [[1], [2], [3], [4], [5]]
        assert C.decorated_of(down) == C.cyclic_decorated(5, 1)

    def test_up_pi52(self):
        nk = C.necklace_of(C.cyclic_decorated(5, 2))
        up = C.necklace_shift(nk, "up")
        assert [sorted(s) for s in up.sets] == [
            [1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5], [1, 2, 5],
        ]
        assert C.decorated_of(up) == C.cyclic_decorated(5, 3)

    def test_up_down_identity_on_cyclic(self):
        nk = C.necklace_of(C.cyclic_decorated(5, 2))
        assert C.necklace_shift(C.necklace_shift(nk, "down"), "up") == nk

    def test_identity_precondition(self):
        nk = C.necklace_of(C.cyclic_decorated(4, 0))
        with pytest.raises(PreconditionError):
            C.necklace_shift(nk, "down")

    @pytest.mark.parametrize("n", range(2, 9))
    def test_down_up_on_cyclic_all_k(self, n):
        for k in range(1, n):
            nk = C.necklace_of(C.cyclic_decorated(n, k))
            down = C.necklace_shift(nk, "down")
            assert C.decorated_of(down) == C.cyclic_decorated(n, k - 1)
            up = C.necklace_shift(nk, "up")
            assert C.decorated_of(up) == C.cyclic_decorated(n, k + 1)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_shift_outputs_are_valid_necklaces(self, n):
        for p in C.all_decorated_permutations(n):
            if p.is_identity:
                continue
            nk = C.necklace_of(p)
            # construction raises ValidationError if the exchange rule fails
            C.necklace_shift(nk, "down")
            C.necklace_shift(nk, "up")


def ws_bruteforce(a, b, n):
    """Direct scan for a cyclically ordered alternating quadruple."""
    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    for quad in itertools.combinations(range(1, n + 1), 4):
        for rot in range(4):
            w, x, y, z = quad[rot:] + quad[:rot]
            if w in only_a and y in only_a and x in only_b and z in only_b:
                return False
    return True


class TestWeakSeparation:
    def test_equal_sets(self):
        assert C.is_weakly_separated({1, 2}, {1, 2}, 4)

    def test_crossing_pair(self):
        assert not C.is_weakly_separated({1, 3}, {2, 4}, 4)

    def test_adjacent_pair(self):
        assert C.is_weakly_separated({1, 2}, {2, 3}, 4)

    def test_size_mismatch(self):
        with pytest.raises(ArgumentError):
            C.is_weakly_separated({1}, {1, 2}, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_bruteforce(self, data):
        n = data.draw(st.integers(4, 9))
        k = data.draw(st.integers(1, n - 1))
        universe = list(range(1, n + 1))
        a = frozenset(data.draw(st.permutations(universe))[:k])
        b = frozenset(data.draw(st.permutations(universe))[:k])
        assert C.is_weakly_separated(a, b, n) == ws_bruteforce(a, b, n)


def all_maximal_ws(n, k):
    """All maximal weakly separated collections in C([n], k), brute force."""
    labels = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    compat = {
        (a, b): C.is_weakly_separated(a, b, n)
        for a in labels
        for b in labels
    }
    out = []

    def grow(chosen, rest):
        if not rest:
            if all(
                any(not compat[(x, c)] for c in chosen)
                for x in labels
                if x not in chosen
            ):
                out.append(frozenset(chosen))
            return
        x = rest[0]
        if all(compat[(x, c)] for c in chosen):
            grow(chosen | {x}, rest[1:])
        grow(chosen, rest[1:])

    grow(frozenset(), labels)
    return set(out)


class TestSeparationRows:
    def test_rows_equal_the_pairwise_test(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                masks = C.colex_masks(n, k)
                for a in masks:
                    row = sum(1 << j for j, b in enumerate(masks) if C.is_weakly_separated_mask(a, b))
                    assert C.separated_row(n, k, a) == row
                    start = C.colex_index(n, k)[a] + 1
                    assert C.separated_row(n, k, a, start) == row >> start << start

    def test_collection_names_a_pair(self):
        square = [C.mask_of(s) for s in ([1, 2], [2, 3], [3, 4], [1, 4], [1, 3])]
        assert C.separated_from_all(4, 2, square) >> C.colex_index(4, 2)[C.mask_of([2, 4])] & 1 == 0
        with pytest.raises(ValidationError, match=r"\(1, 3\) and \(2, 4\)"):
            C.separated_from_all(4, 2, square + [C.mask_of([2, 4])])

    def test_labels_must_be_k_subsets(self):
        with pytest.raises(ValidationError, match="not a 2-subset"):
            C.separated_from_all(4, 2, [C.mask_of([1, 2]), C.mask_of([1, 2, 3])])
        with pytest.raises(ValidationError, match="not a 2-subset"):
            C.separated_from_all(4, 2, [C.mask_of([1, 5])])

    def test_greedy_equals_the_pairwise_scan(self):
        for n, k in [(5, 2), (6, 3), (7, 3)]:
            have = []
            for cand in C.colex_masks(n, k):
                if all(C.is_weakly_separated_mask(cand, m) for m in have):
                    have.append(cand)
            assert C.colex_greedy(n, k, []) == have


class TestExtension:
    def test_already_maximal_unchanged(self):
        coll = C.LabelCollection.make(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3]])
        assert C.extend_to_maximal_ws(coll).labels == coll.labels

    def test_necklace_pi42(self):
        coll = C.LabelCollection.make(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4]])
        ext = C.extend_to_maximal_ws(coll)
        assert len(ext.labels) == 5
        added = ext.labels - coll.labels
        assert added in ({frozenset({1, 3})}, {frozenset({2, 4})})

    def test_empty_collection_42(self):
        # exhaustive oracle: every maximal collection in C([4],2) has 5 labels
        assert {len(m) for m in all_maximal_ws(4, 2)} == {5}
        ext = C.extend_to_maximal_ws(C.LabelCollection.make(4, 2, []))
        assert len(ext.labels) == 5

    def test_not_ws_rejected(self):
        with pytest.raises(ValidationError):
            C.extend_to_maximal_ws(C.LabelCollection.make(4, 2, [[1, 3], [2, 4]]))

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (6, 3), (8, 2), (8, 4)])
    def test_output_maximal_and_ws(self, n, k):
        nk = C.necklace_of(C.cyclic_decorated(n, k))
        ext = C.extend_to_maximal_ws(C.LabelCollection(n, k, frozenset(nk.sets)))
        labs = sorted(ext.labels, key=sorted)
        for a, b in itertools.combinations(labs, 2):
            assert C.is_weakly_separated(a, b, n)
        for cand in itertools.combinations(range(1, n + 1), k):
            cand = frozenset(cand)
            if cand in ext.labels:
                continue
            assert any(not C.is_weakly_separated(cand, m, n) for m in ext.labels)


class TestUpDownVertexIdentity:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_up_down_vertex_identity(self, n):
        # UP(DOWN(I))_j = I_{iota(lambda(j))} whenever both shifts are defined
        for p in C.all_decorated_permutations(n):
            if p.is_identity:
                continue
            nk = C.necklace_of(p)
            down = C.necklace_shift(nk, "down")
            if len(set(down.sets)) == 1:
                continue
            up = C.necklace_shift(down, "up")
            for j in range(1, n + 1):
                lam = j
                for step in range(1, n):
                    cand = (j - 1 + step) % n + 1
                    if down[cand] != down[j]:
                        lam = cand
                        break
                iota = lam
                for step in range(1, n):
                    cand = (lam - 1 - step) % n + 1
                    if nk[cand] != nk[lam]:
                        iota = cand
                        break
                assert up[j] == nk[iota]
