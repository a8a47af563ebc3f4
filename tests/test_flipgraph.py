"""The flip-graph engine: pinned complexes, stored moves, and call counts."""

import hashlib
import itertools
import json

import pytest

from flipcells import combinat as C
from flipcells import plabic as P
from flipcells import tcd
from flipcells import zonotope as Z

# canonical_hash() of complexes whose cells must never change.
PINNED_HASHES = {
    "Z(6,2)": "0ca41e92e08e1f29dd0a0ed4d17d19beb1d0e8bcf888626623a12c8f6908f40e",
    "Z(7,4)": "3f746a97c95d98c4673eaf6e6434689d4ae52b4d95a8ed02720a747a7be0e660",
    "X pi(6,3)": "a22fa2383bdea9630f458e987986b328be0a6b4ad5c90c355dd2c6807c832903",
    "Y pi(6,3)": "ee9df5c76ae63e87aa6ae78573172804d2643b0ebcc17b0dceb56b7978e5754a",
    "T 3,4,5,1,2": "08c5d5d384fa8b14197bccb5f412ac0e4f99eff40e1691c42af96193bea674c1",
    "T 2,3,4,5,6,1": "fd584124374c545a5a7d3d602834aab65df81a9dd713b72fa3b6ae94d9ab4e60",
}


def _build(name):
    kind, _, arg = name.partition(" ")
    if kind.startswith("Z("):
        n, d = (int(x) for x in kind[2:-1].split(","))
        return Z.build_z_complex(Z.enumerate_tilings(Z.zonotope_spec(n, d)))[0]
    if kind in ("X", "Y"):
        return P.build_plabic_complex(C.cyclic_decorated(6, 3), kind)[0]
    return tcd.build_t_complex(tuple(int(x) for x in arg.split(",")))[0]


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
            p = tcd.permutation_for_tcd(image)
            yield "T", p, tcd.build_t_complex(p)


def test_pinned_small_complexes():
    digest = hashlib.sha256()
    for kind, p, (cx, info) in _small_complexes():
        row = [kind, p.to_json(), [name for name, _ in info["cells"]], cx.canonical_hash()]
        digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == SMALL_COMPLEXES_HASH


def _z52():
    return Z.enumerate_tilings(Z.zonotope_spec(5, 2))


def _x52():
    return P.enumerate_plabic(C.cyclic_decorated(5, 2))


def _t34512():
    return tcd.enumerate_tcd(tcd.permutation_for_tcd((3, 4, 5, 1, 2)))


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
            yield [(m, index[nxt.key()]) for m, nxt in tcd.tcd_neighbors(payload)]


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
            ((tcd,), "tcd_neighbors"),
            ((tcd,), "_black_cliques"),
            ((tcd.TCDState,), "representative"),
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
            spy.calls["available_moves"] = 0
            _, info = P.build_plabic_complex(C.cyclic_decorated(n, k), kind)
            assert spy.calls["available_moves"] <= info["graph"].n_vertices
        assert spy.calls["apply_move"] == 0

    def test_t_complex(self, monkeypatch):
        # T reads its moves from the contracted states: it never builds a
        # trivalent representative nor scans one for plabic moves, and it
        # finds each state's black cliques once
        spy = _Spy(monkeypatch)
        for image in ((3, 4, 5, 1, 2), (2, 3, 4, 5, 6, 1), (4, 5, 6, 1, 2, 3)):
            spy.calls["tcd_neighbors"] = spy.calls["_black_cliques"] = 0
            _, info = tcd.build_t_complex(image)
            assert spy.calls["tcd_neighbors"] <= info["n_vertices"]
            assert spy.calls["_black_cliques"] <= info["n_vertices"]
        assert spy.calls["available_moves"] == 0
        assert spy.calls["representative"] == 0
        assert spy.calls["apply_move"] == 0
