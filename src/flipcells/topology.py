"""Integer homology and fundamental-group certificates for 2-complexes.

A certificate builds one spanning-tree presentation of pi1 (generators:
the non-tree edges; relators: the cell boundaries) and reads H1 from its
abelianization by an exact Smith normal form; `h1` says why that matrix and
the 2-cell boundary d2 have the same nonzero invariant factors, and the
tests check the two against each other through `boundary_matrices`.  The
pi1 field of a certificate takes one of three values, each with its own
proof:

* "trivial": a Todd-Coxeter style coset enumeration against the trivial
  subgroup closed on a single coset;
* "nontrivial": H1 != 0, and H1 is the abelianization of pi1, so no coset
  enumeration runs;
* "inconclusive": H1 = 0 but coset enumeration exhausted its budget, which
  bounds only this case.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError, ValidationError

DEFAULT_PI1_BUDGET = 10_000_000


@dataclass(frozen=True)
class TwoComplex:
    """Vertices 0..nv-1, undirected edges, 2-cells as closed edge walks.

    A walk is a tuple of signed edge ids: +(e+1) traverses edge e from its
    u endpoint to its v endpoint, -(e+1) the reverse.
    """

    nv: int
    edges: tuple[tuple[int, int], ...]
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.nv and 0 <= v < self.nv):
                raise ValidationError("edge endpoint out of range")
        for walk in self.cells:
            at = None
            start = None
            for step in walk:
                e = abs(step) - 1
                if e >= len(self.edges):
                    raise ValidationError("cell references unknown edge")
                u, v = self.edges[e]
                src, dst = (u, v) if step > 0 else (v, u)
                if at is None:
                    start = src
                elif at != src:
                    raise ValidationError("cell boundary is not a path")
                at = dst
            if at != start:
                raise ValidationError("cell boundary is not closed")

    @staticmethod
    def from_graph(nv: int, edges: Sequence[tuple[int, int]], vertex_cycles: Iterable[Sequence[int]]) -> "TwoComplex":
        """Build from vertex cycles; consecutive vertices must span an edge."""
        lookup: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(edges):
            lookup.setdefault((u, v), i)
            lookup.setdefault((v, u), i)
        cells = []
        for cyc in vertex_cycles:
            walk = []
            m = len(cyc)
            for i in range(m):
                a, b = cyc[i], cyc[(i + 1) % m]
                e = lookup.get((a, b))
                if e is None:
                    raise ValidationError("cycle step (%d,%d) is not an edge" % (a, b))
                walk.append(e + 1 if edges[e][0] == a else -(e + 1))
            cells.append(tuple(walk))
        return TwoComplex(nv, tuple(tuple(e) for e in edges), tuple(cells))

    def components(self) -> list[list[int]]:
        parent = list(range(self.nv))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        groups: dict[int, list[int]] = {}
        for x in range(self.nv):
            groups.setdefault(find(x), []).append(x)
        return sorted(groups.values())

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "nv": self.nv,
            "edges": [list(e) for e in self.edges],
            "cells": [list(c) for c in self.cells],
        }

    def canonical_hash(self) -> str:
        data = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(data.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Diagonal d1 | d2 | ... of an integer matrix, plus its rank.

    Exact big-integer arithmetic throughout; entries of the returned diagonal
    are nonnegative and satisfy the divisibility chain.
    """
    rows = [
        {j: int(v) for j, v in enumerate(row) if v}
        for row in matrix
    ]
    ncols = max((len(list(row)) for row in matrix), default=0)
    diag = _sparse_snf(rows)
    rank = len(diag)
    width = min(len(matrix), ncols)
    return diag + [0] * (width - rank), rank


def _sparse_snf(rows: list[dict[int, int]]) -> list[int]:
    """Invariant factors (nonzero) of a sparse integer matrix."""
    rows = [dict(r) for r in rows]
    col_index: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for c in r:
            col_index.setdefault(c, set()).add(i)
    live_rows = {i for i, r in enumerate(rows) if r}

    def addmul(dst: int, src: int, q: int):
        if q == 0:
            return
        rd, rs = rows[dst], rows[src]
        for c, v in rs.items():
            nv = rd.get(c, 0) + q * v
            if nv:
                if c not in rd:
                    col_index.setdefault(c, set()).add(dst)
                rd[c] = nv
            elif c in rd:
                del rd[c]
                col_index[c].discard(dst)
        if rd:
            live_rows.add(dst)
        else:
            live_rows.discard(dst)

    def col_addmul(dst: int, src: int, q: int):
        if q == 0:
            return
        for i in list(col_index.get(src, ())):
            v = rows[i].get(src)
            if v is None:
                continue
            nv = rows[i].get(dst, 0) + q * v
            if nv:
                if dst not in rows[i]:
                    col_index.setdefault(dst, set()).add(i)
                rows[i][dst] = nv
            elif dst in rows[i]:
                del rows[i][dst]
                col_index[dst].discard(i)

    diag: list[int] = []
    while live_rows:
        # pivot: prefer unit entries, else minimal magnitude
        best = None
        for i in live_rows:
            for c, v in rows[i].items():
                a = abs(v)
                key = (a != 1, a, i, c)
                if best is None or key < best[0]:
                    best = (key, i, c)
                    if a == 1:
                        break
            if best and abs(rows[best[1]][best[2]]) == 1:
                break
        _, pi, pc = best
        while True:
            pv = rows[pi][pc]
            # clear the pivot column with row operations
            dirty = False
            for i in list(col_index.get(pc, ())):
                if i == pi:
                    continue
                v = rows[i].get(pc)
                if v is None:
                    continue
                q = -(v // pv)
                addmul(i, pi, q)
                if rows[i].get(pc):
                    # remainder is smaller than |pv|: swap pivot rows
                    pi = i
                    dirty = True
                    break
            if dirty:
                continue
            pv = rows[pi][pc]
            # clear the pivot row with column operations
            dirty = False
            for c in list(rows[pi]):
                if c == pc:
                    continue
                v = rows[pi][c]
                q = -(v // pv)
                col_addmul(c, pc, q)
                if rows[pi].get(c):
                    pc = c
                    dirty = True
                    break
            if not dirty:
                break
        pv = rows[pi][pc]
        diag.append(abs(pv))
        del rows[pi][pc]
        col_index[pc].discard(pi)
        live_rows.discard(pi)
    return _divisibility_chain(diag)


def _divisibility_chain(diag: list[int]) -> list[int]:
    """Invariant factors of diag(diag), a list of positive integers, sorted.

    Pairs are merged by diag(a, b) ~ diag(gcd, lcm).  A unit divides
    everything, so only the entries > 1 take part in the quadratic pass.
    """
    units = [1] * diag.count(1)
    big = [v for v in diag if v > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(big)):
            for j in range(i + 1, len(big)):
                if big[j] % big[i]:
                    g = math.gcd(big[i], big[j])
                    l = big[i] // g * big[j]
                    big[i], big[j] = g, l
                    changed = True
    return units + sorted(big)


# ---------------------------------------------------------------------------
# homology


def boundary_matrices(k: TwoComplex):
    """(d1, d2) as sparse row lists: d1 is edges x vertices, d2 cells x edges."""
    d1 = []
    for u, v in k.edges:
        row: dict[int, int] = {}
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


@dataclass(frozen=True)
class GroupPresentation:
    n_generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for rel in self.relators:
            for g in rel:
                if g == 0 or abs(g) > self.n_generators:
                    raise ValidationError("relator letter out of range")


def pi1_presentation(k: TwoComplex) -> GroupPresentation:
    """Spanning-tree presentation of pi1: generators are non-tree edges,
    relators are the 2-cell boundary walks rewritten over them."""
    comps = k.components()
    if len(comps) != 1:
        raise PreconditionError("complex is disconnected; components: %s" % (comps,))
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(k.nv)}
    for e, (u, v) in enumerate(k.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    for i in adj:
        adj[i].sort()
    tree_edges: set[int] = set()
    seen = {0} if k.nv else set()
    queue = [0] if k.nv else []
    while queue:
        x = queue.pop(0)
        for y, e in adj[x]:
            if y not in seen:
                seen.add(y)
                tree_edges.add(e)
                queue.append(y)
    gen_of: dict[int, int] = {}
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
    return GroupPresentation(len(gen_of), tuple(relators))


def h1(k: TwoComplex) -> tuple[int, list[int]]:
    """First integer homology: (betti number, nontrivial torsion coefficients).

    Read from the abelianized spanning-tree presentation of pi1.  The
    fundamental cycles of the non-tree edges are a basis of ker d1, which is
    a direct summand of Z^E (Z^E / ker d1 = im d1 is free), and a cell
    boundary written in that basis is its abelianized relator; so that
    matrix and d2 have the same nonzero invariant factors.
    """
    return _abelianized_h1(pi1_presentation(k))


def _abelianized_h1(pres: GroupPresentation) -> tuple[int, list[int]]:
    """H1 = abelianization of the presented group: one row of exponent sums
    per relator, reduced by Smith normal form, shortest rows first."""
    rows = []
    for rel in pres.relators:
        row: dict[int, int] = {}
        for g in rel:
            row[abs(g)] = row.get(abs(g), 0) + (1 if g > 0 else -1)
        row = {g: v for g, v in row.items() if v}
        if row:
            rows.append(row)
    rows.sort(key=len)
    inv = _sparse_snf(rows)
    return pres.n_generators - len(inv), [v for v in inv if v > 1]


# ---------------------------------------------------------------------------
# Todd-Coxeter certificate


def certify_trivial(pres: GroupPresentation, budget: int = DEFAULT_PI1_BUDGET) -> str:
    """Coset enumeration of the trivial subgroup; returns "trivial" only when
    the table closes with a single coset within budget, else "inconclusive"."""
    ngens = pres.n_generators
    if ngens == 0:
        return "trivial"
    width = 2 * ngens  # column 2g = generator g+1, column 2g+1 = its inverse

    def col(letter: int) -> int:
        g = abs(letter) - 1
        return 2 * g if letter > 0 else 2 * g + 1

    def inv_col(c: int) -> int:
        return c ^ 1

    rels = [tuple(rel) for rel in pres.relators if rel]
    table: list[list[int | None]] = [[None] * width]
    parent = [0]
    steps = 0

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def define(a: int, c: int) -> int:
        nonlocal steps
        new = len(table)
        table.append([None] * width)
        parent.append(new)
        table[a][c] = new
        table[new][inv_col(c)] = a
        steps += 1
        return new

    def coincide(a: int, b: int):
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            parent[y] = x
            for c in range(width):
                t = table[y][c]
                if t is None:
                    continue
                t = find(t)
                u = table[x][c]
                if u is None:
                    table[x][c] = t
                    if table[t][inv_col(c)] is None:
                        table[t][inv_col(c)] = x
                    else:
                        queue.append((table[t][inv_col(c)], x))
                else:
                    queue.append((find(u), t))

    def scan(a: int, word: tuple[int, ...]) -> bool:
        """Scan-and-fill a relator at coset a; False when budget is exhausted."""
        nonlocal steps
        f = a
        i = 0
        while i < len(word):
            c = col(word[i])
            nxt = table[find(f)][c]
            if nxt is None:
                break
            f = find(nxt)
            i += 1
        b = a
        j = len(word) - 1
        while j >= i:
            c = inv_col(col(word[j]))
            nxt = table[find(b)][c]
            if nxt is None:
                break
            b = find(nxt)
            j -= 1
        if i > j:
            coincide(f, b)
            return True
        while i < j:
            if len(table) > budget or steps > budget:
                return False
            f = define(find(f), col(word[i]))
            i += 1
        # close the gap
        fa, fb = find(f), find(b)
        c = col(word[i])
        if table[fa][c] is None and table[fb][inv_col(c)] is None:
            table[fa][c] = fb
            table[fb][inv_col(c)] = fa
        elif table[fa][c] is not None:
            coincide(table[fa][c], fb)
        else:
            coincide(table[fb][inv_col(c)], fa)
        steps += 1
        return True

    a = 0
    while a < len(table):
        if find(a) != a:
            a += 1
            continue
        for rel in rels:
            if not scan(a, rel):
                return "inconclusive"
            if find(a) != a:
                break
        if find(a) != a:
            a += 1
            continue
        for c in range(width):
            if table[a][c] is None:
                if len(table) > budget or steps > budget:
                    return "inconclusive"
                define(a, c)
        a += 1

    live = {find(x) for x in range(len(table))}
    return "trivial" if len(live) == 1 else "inconclusive"


# ---------------------------------------------------------------------------
# certificates


def certificate(k: TwoComplex, budget: int = DEFAULT_PI1_BUDGET) -> dict:
    """Simple-connectivity certificate: H1, then pi1 when H1 leaves it open.

    The "pi1" field is one of
      "trivial"       coset enumeration closed on one coset: a proof;
      "nontrivial"    H1 != 0, and H1 is the abelianization of pi1: a proof;
      "inconclusive"  H1 = 0 but coset enumeration exhausted ``budget``.
    ``budget`` bounds only the last case; it is recorded either way.
    """
    t0 = time.monotonic()
    pres = pi1_presentation(k)
    betti, torsion = _abelianized_h1(pres)
    if betti or torsion:
        pi1 = "nontrivial"
    else:
        pi1 = certify_trivial(pres, budget=budget)
    return {
        "schema_version": 1,
        "V": k.nv,
        "E": len(k.edges),
        "F": len(k.cells),
        "betti1": betti,
        "torsion": torsion,
        "pi1": pi1,
        "pi1_budget": budget,
        "wall_time_s": round(time.monotonic() - t0, 6),
        "input_hash": k.canonical_hash(),
    }
