"""Integer homology and fundamental-group certificates for 2-complexes.

A certificate reads pi1 off one spanning tree (generators: the non-tree
edges; relators: the cell boundaries) and first simplifies it by one
Tietze sweep that rewrites no relator: a relator whose generators
are all dead (proved trivial) but one, g, proves g trivial when the
exponent sum of g in it is +-1, since deleting the dead letters leaves a
word in g alone, which then freely reduces to g^(+-1).  A relator such as
g g, or g a g^-1 with a dead, does not.  The sweep streams over the cell
walks once, in stored order, reading each step through one table indexed
by signed step in which the steps of a dead generator read as nothing; a
relator that kills nothing yet waits on its live generators.  So a
certificate whose sweep kills every generator builds no presentation.  The
sweep closes every Z, X, Y and T complex tested.  The paper proves these
complexes simply connected; that the sweep alone always suffices is only
observed.  The residual presentation, on the generators that survive,
presents the same group.  The `GroupPresentation` range check still runs
on every presentation that is built; the letters the sweep reads come only
from steps that the `TwoComplex` constructor has range-checked.  When no
generator survives, pi1 = 1 and so H1 = 0.  Otherwise H1 is
read from the residual's abelianization by an exact Smith normal form; `h1`
says why the abelianized presentation and the 2-cell boundary d2 have the
same nonzero invariant factors, and the tests check the two against each
other.  The pi1 field of a certificate takes one of three values, each with
its own proof:

* "trivial": the sweep killed every generator, or a Todd-Coxeter style
  coset enumeration of the residual against the trivial subgroup closed on
  a single coset;
* "nontrivial": H1 != 0, and H1 is the abelianization of pi1, so no coset
  enumeration runs;
* "inconclusive": H1 = 0 but coset enumeration exhausted its budget, which
  bounds only this case.

A certificate runs with the cyclic garbage collector paused
(`flipgraph.collector_paused`): what it allocates is freed by reference
counting when it returns, so a collection inside it finds nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError, ValidationError
from .flipgraph import collector_paused, union_classes

DEFAULT_PI1_BUDGET = 10_000_000
# the one encoder of canonical JSON text: json.dumps with non-default
# arguments builds a new encoder on every call.  It encodes only trees the
# library has just built (TwoComplex.to_json and the CLI outputs), which hold
# no cycle, so the circular-reference check is skipped; the bytes are the same
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


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
                if not 0 <= e < len(self.edges):
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
        lookup: dict[tuple[int, int], int] = {}  # keyed (min, max): one orientation
        for i, (u, v) in enumerate(edges):
            lookup.setdefault((u, v) if u < v else (v, u), i)
        cells = []
        for cyc in vertex_cycles:
            walk = []
            m = len(cyc)
            for i in range(m):
                a, b = cyc[i], cyc[(i + 1) % m]
                e = lookup.get((a, b) if a < b else (b, a))
                if e is None:
                    raise ValidationError("cycle step (%d,%d) is not an edge" % (a, b))
                walk.append(e + 1 if edges[e][0] == a else -(e + 1))
            cells.append(tuple(walk))
        return TwoComplex(nv, tuple(tuple(e) for e in edges), tuple(cells))

    def components(self) -> list[list[int]]:
        """The vertex sets of the connected components, by lowest vertex."""
        groups: dict[int, list[int]] = {}
        for x, c in enumerate(union_classes(self.nv, self.edges)):
            groups.setdefault(c, []).append(x)
        return list(groups.values())

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "nv": self.nv,
            "edges": self.edges,
            "cells": self.cells,
        }

    def canonical_hash(self) -> str:
        data = CANONICAL_JSON.encode(self.to_json())
        return hashlib.sha256(data.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Smith normal form


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


@dataclass(frozen=True)
class GroupPresentation:
    n_generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for rel in self.relators:
            for g in rel:
                if g == 0 or abs(g) > self.n_generators:
                    raise ValidationError("relator letter out of range")


def _generator_table(k: TwoComplex) -> tuple[list[int], list[int]]:
    """The step -> generator table of the spanning-tree presentation.

    The tree is the breadth-first tree from vertex 0 that scans each
    vertex's (neighbour, edge) pairs in sorted order; the non-tree edges
    are generators 1..m in edge order.  ``table`` is indexed by signed
    step: table[e+1] = g and table[-(e+1)] = -g for the generator g of edge
    e, and 0 for a tree edge.  ``steps[g]`` = e+1 is the forward step of
    generator g, and steps[0] = 0.
    """
    nv, ne = k.nv, len(k.edges)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for e, (u, v) in enumerate(k.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    for nbrs in adj:
        nbrs.sort()
    in_tree = bytearray(ne)
    seen = bytearray(nv)
    queue = [0] if nv else []
    if nv:
        seen[0] = 1
    for x in queue:  # breadth first: the loop visits what it appends
        for y, e in adj[x]:
            if not seen[y]:
                seen[y] = 1
                in_tree[e] = 1
                queue.append(y)
    if not nv or len(queue) != nv:  # the tree misses a vertex
        raise PreconditionError("complex is disconnected; components: %s" % (k.components(),))
    table = [0] * (2 * ne + 1)  # a negative index counts from the end
    steps = [0]
    for e in range(ne):
        if not in_tree[e]:
            g = len(steps)
            steps.append(e + 1)
            table[e + 1] = g
            table[-(e + 1)] = -g
    return table, steps


def pi1_presentation(k: TwoComplex) -> GroupPresentation:
    """Spanning-tree presentation of pi1: generators are non-tree edges,
    relators are the 2-cell boundary walks rewritten over them, each walk
    through the table of `_generator_table`, which drops a tree edge."""
    table, steps = _generator_table(k)
    step = table.__getitem__
    return GroupPresentation(len(steps) - 1, tuple([tuple(filter(None, map(step, walk))) for walk in k.cells]))


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
# Tietze elimination


def _reduce(word: list[int]) -> list[int]:
    """The freely and cyclically reduced form of a relator."""
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    i, j = 0, len(out) - 1
    while i < j and out[i] == -out[j]:
        i += 1
        j -= 1
    return out[i : j + 1]


def _tietze_eliminate(
    words: Sequence[Sequence[int]], table: Sequence[int], steps: Sequence[int]
) -> tuple[GroupPresentation, list[tuple[int, int]]]:
    """Kill trivial generators by Tietze transformations, in one streaming
    pass over the relators.

    Relator r is ``words[r]`` read through ``table``, which maps a signed
    step to a signed generator 1..m, or to 0 for a letter that is dropped;
    ``steps[g]`` is the step that reads as generator g (steps[0] unused).
    `certificate` passes the cell walks with the table of
    `_generator_table`; a presentation's own relators go through the
    identity table.

    The sweep rewrites no relator.  It marks dead every generator g that is
    the only live generator of the freely and cyclically reduced relator
    and has exponent sum +-1 there.  That proves g trivial: the dead
    letters are trivial, and deleting them leaves a word in g alone, which
    freely reduces to g^(+-1).  Any other exponent sum proves less: g g
    only says that g has order 2, and g a g^-1 with a dead says nothing.

    A death zeroes both steps of g in a copy of the table, so each relator
    is read once, as its live letters.  One live letter kills its
    generator at once; a generator met once cannot cancel, so its exponent
    sum is +-1.  Only a relator whose live letters repeat a generator is
    reduced, and whole, dead letters included, so the rule is the same
    whenever the relator is read.  A relator that kills nothing yet waits,
    indexed under its live generators with their count and sum; each death
    lowers the count and sum of the relators waiting on it, and one left
    with a single live generator of exponent sum +-1 kills it.  Each
    relator is read once and each index entry visited once, so the sweep
    takes time linear in the total relator length.  The rule only grows
    with the dead set, so the generators it kills do not depend on the
    order of the relators.

    Returns the residual presentation and the kill log of (relator index,
    generator) steps in original numbering.  The residual relators are the
    nonempty ones, freely and cyclically reduced, with the dead generators
    deleted one at a time in kill order, reducing after each deletion; they
    are written over the surviving generators, renumbered 1..m in order.
    Replayed in order, a step (r, g) finds relator r reduced to g^(+-1)
    by the kills before it, and solving for g gives the empty word.
    """
    n = len(steps) - 1
    live = list(table)  # the table with the steps of the dead zeroed
    read = live.__getitem__
    holders: dict[int, list[int]] = {}  # live generator -> relators waiting on it
    count: dict[int, int] = {}  # waiting relator -> its live generators, counted
    total: dict[int, int] = {}  # ... and summed: the live one, once one is left
    repeats: dict[int, list[int]] = {}  # reduced word of a waiting relator that repeats
    log: list[tuple[int, int]] = []
    for rid, walk in enumerate(words):
        w = tuple(filter(None, map(read, walk)))
        if len(w) == 1:
            queue = [(rid, w[0] if w[0] > 0 else -w[0])]
        elif not w:
            continue
        else:
            gens = set(map(abs, w))
            full = None
            if len(gens) < len(w):  # a repeat may cancel: reduce the whole word
                full = _reduce(list(filter(None, map(table.__getitem__, walk))))
                gens = {g for g in map(abs, full) if read(steps[g])}
            g = sum(gens)
            if len(gens) != 1 or abs(full.count(g) - full.count(-g)) != 1:
                if gens:  # wait on the live generators
                    if full is not None:
                        repeats[rid] = full
                    count[rid] = len(gens)
                    total[rid] = g
                    for h in gens:
                        holders.setdefault(h, []).append(rid)
                continue
            queue = [(rid, g)]
        for r, g in queue:  # the loop visits what it appends
            if not read(steps[g]):  # a relator queued on g after another killed it
                continue
            log.append((r, g))
            s = steps[g]
            live[s] = live[-s] = 0
            for other in holders.pop(g, ()):
                count[other] -= 1
                total[other] -= g
                if count[other] == 1:
                    h = total[other]
                    word = repeats.get(other)
                    if word is None or abs(word.count(h) - word.count(-h)) == 1:
                        queue.append((other, h))
    if len(log) == n:  # each generator dies at most once: every one is dead
        return GroupPresentation(0, ()), log
    order = {g: i for i, (_, g) in enumerate(log)}
    renumber = [0] * (n + 1)
    m = 0
    for g in range(1, n + 1):
        if g not in order:
            m += 1
            renumber[g] = m
    residual = []
    for rid, c in count.items():  # waiting relators, in relator order
        if not c:
            continue
        w = repeats.get(rid) or _reduce(list(filter(None, map(table.__getitem__, words[rid]))))
        for g in sorted({a for a in map(abs, w) if a in order}, key=order.__getitem__):
            if g in w or -g in w:  # an earlier deletion may cancel it
                w = _reduce([x for x in w if x != g and x != -g])
        if w:
            residual.append(tuple(renumber[x] if x > 0 else -renumber[-x] for x in w))
    return GroupPresentation(m, tuple(residual)), log


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


@collector_paused
def certificate(k: TwoComplex, budget: int = DEFAULT_PI1_BUDGET) -> dict:
    """Simple-connectivity certificate of the spanning-tree presentation.

    The Tietze sweep runs first, over the cell walks through the table of
    `_generator_table`, so no presentation of the whole complex is built;
    H1 and coset enumeration see only the residual presentation, which
    presents the same group.  The "pi1" field is one of
      "trivial"       the sweep killed every generator (so H1 = 0), or
                      coset enumeration of the residual closed on one
                      coset: a proof;
      "nontrivial"    H1 != 0, and H1 is the abelianization of pi1: a proof;
      "inconclusive"  H1 = 0 but coset enumeration exhausted ``budget``.
    ``budget`` bounds only the Todd-Coxeter fallback; it is recorded either
    way.
    """
    t0 = time.monotonic()
    residual, _ = _tietze_eliminate(k.cells, *_generator_table(k))
    if not residual.n_generators:
        betti, torsion, pi1 = 0, [], "trivial"
    else:
        betti, torsion = _abelianized_h1(residual)
        pi1 = "nontrivial" if betti or torsion else certify_trivial(residual, budget=budget)
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
