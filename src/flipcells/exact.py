"""Exact checks of zonotopal tilings, and their JSON form.

`validate_tiling` checks the fine-tiling conditions in exact arithmetic:
integer determinants and slab tests, `fractions.Fraction` where a tile
intersection needs division.  The JSON readers and writers serve the CLI's
tiling files.  No certificate runs any of it, so the package loads this
module on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .combinat import elems_of
from .errors import ValidationError
from .zonotope import SignedSubset, Tiling, ZonotopeSpec


# ---------------------------------------------------------------------------
# exact validation


def to_tile(spec: ZonotopeSpec, x: SignedSubset) -> tuple[tuple[int, ...], ...]:
    """Vertex set of the tile tau_X: base point plus all subset sums of X0."""
    base = [0] * spec.d
    for i in elems_of(x.plus):
        for p in range(spec.d):
            base[p] += spec.v[i - 1][p]
    verts = set()
    zero_elems = elems_of(x.zero)
    for r in range(len(zero_elems) + 1):
        for comb in itertools.combinations(zero_elems, r):
            pt = list(base)
            for i in comb:
                for p in range(spec.d):
                    pt[p] += spec.v[i - 1][p]
            verts.add(tuple(pt))
    return tuple(sorted(verts))


def _normal_to(vectors: list[tuple[int, ...]], d: int) -> tuple[int, ...]:
    """Generalized cross product: integer normal to d-1 vectors in R^d."""
    if d == 1:
        return (1,)
    out = []
    idx = list(range(d))
    for i in range(d):
        cols = idx[:i] + idx[i + 1 :]
        minor = [[vec[c] for c in cols] for vec in vectors]
        out.append((-1) ** i * _int_det(minor))
    return tuple(out)


def _int_det(m: list[list[int]]) -> int:
    size = len(m)
    if size == 0:
        return 1
    if size == 1:
        return m[0][0]
    if size == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(size):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _tile_base(spec: ZonotopeSpec, plus_mask: int) -> tuple[int, ...]:
    base = [0] * spec.d
    for i in elems_of(plus_mask):
        for p in range(spec.d):
            base[p] += spec.v[i - 1][p]
    return tuple(base)


def _zonotope_slabs(spec: ZonotopeSpec, base, gen_elems):
    """Slab constraints (nu, lo, hi) for base + sum [0, v_j], j in gen_elems."""
    gens = [spec.v[j - 1] for j in gen_elems]
    slabs = []
    seen = set()
    for comb in itertools.combinations(range(len(gens)), spec.d - 1):
        nu = _normal_to([gens[c] for c in comb], spec.d)
        if all(x == 0 for x in nu):
            continue
        if nu in seen or tuple(-x for x in nu) in seen:
            continue
        seen.add(nu)
        lo = hi = _dot(nu, base)
        for g in gens:
            s = _dot(nu, g)
            lo += min(0, s)
            hi += max(0, s)
        slabs.append((nu, lo, hi))
    return slabs


def _interiors_intersect(spec: ZonotopeSpec, x: SignedSubset, y: SignedSubset) -> bool:
    """Exact test: 0 lies strictly inside the Minkowski difference tau_X - tau_Y."""
    gen_elems = list(elems_of(x.zero)) + list(elems_of(y.zero))
    bx = _tile_base(spec, x.plus)
    by = _tile_base(spec, y.plus)
    base = tuple(
        bx[p] - by[p] - sum(spec.v[j - 1][p] for j in elems_of(y.zero)) for p in range(spec.d)
    )
    for nu, lo, hi in _zonotope_slabs(spec, base, gen_elems):
        if not (lo < 0 < hi):
            return False
    return True


def _tile_hrep(spec: ZonotopeSpec, x: SignedSubset):
    base = _tile_base(spec, x.plus)
    return _zonotope_slabs(spec, base, list(elems_of(x.zero)))


def _intersection_vertices(spec: ZonotopeSpec, x: SignedSubset, y: SignedSubset):
    """Vertices of tau_X n tau_Y by exact hyperplane enumeration."""
    slabs = _tile_hrep(spec, x) + _tile_hrep(spec, y)
    planes = []
    for nu, lo, hi in slabs:
        planes.append((nu, lo))
        planes.append((nu, hi))
    verts = set()
    for comb in itertools.combinations(planes, spec.d):
        mat = [[Fraction(c) for c in nu] for nu, _ in comb]
        rhs = [Fraction(c) for _, c in comb]
        sol = _solve_square(mat, rhs)
        if sol is None:
            continue
        if all(lo <= _dot_frac(nu, sol) <= hi for nu, lo, hi in slabs):
            verts.add(tuple(sol))
    return verts


def _solve_square(mat, rhs):
    d = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(d):
        piv = None
        for r in range(col, d):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [v / f for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                g = aug[r][col]
                aug[r] = [v - g * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][d] for r in range(d)]


def _dot_frac(nu, point) -> Fraction:
    return sum(Fraction(a) * b for a, b in zip(nu, point))


def _common_face(x: SignedSubset, y: SignedSubset) -> SignedSubset | None:
    """The maximal signed subset that is a face of both tiles, or None if the
    sign patterns conflict."""
    plus = x.plus | y.plus
    minus = x.minus | y.minus
    if plus & minus:
        return None
    return SignedSubset(x.n, plus, minus)


@dataclass
class ValidationReport:
    ok: bool
    fine: bool
    one_tile_per_zero_set: bool
    volume2: int
    expected_volume2: int
    inside_zonotope: bool
    failures: list[str]


def validate_tiling(spec: ZonotopeSpec, tiles) -> ValidationReport:
    """Exact check of the fine-tiling conditions for a collection of tiles.

    Accepts a `Tiling` or any iterable of `SignedSubset`.  Failures are
    reported, never raised.
    """
    if isinstance(tiles, Tiling):
        tile_list = list(tiles.tiles())
    else:
        tile_list = list(tiles)
    failures: list[str] = []

    fine = all(bin(x.zero).count("1") == spec.d for x in tile_list)
    if not fine:
        failures.append("a top tile has |X0| != d")

    zeros = [x.zero for x in tile_list]
    one_per = len(set(zeros)) == len(zeros) and set(zeros) == set(spec.dsubsets)
    if not one_per:
        failures.append("tiles are not in bijection with the d-subsets of [n]")

    volume2 = sum(abs(spec.det_of(x.zero)) for x in tile_list if bin(x.zero).count("1") == spec.d)
    expected = spec.total_volume2()
    if volume2 != expected:
        failures.append("volume mismatch: %d != %d" % (volume2, expected))

    # containment of every tile vertex in Z(n, d)
    outer = _zonotope_slabs(spec, tuple([0] * spec.d), list(range(1, spec.n + 1)))
    inside = True
    for x in tile_list:
        for pt in to_tile(spec, x):
            if not all(lo <= _dot(nu, pt) <= hi for nu, lo, hi in outer):
                inside = False
                failures.append("tile %s leaves the zonotope" % x.sign_string())
                break
        if not inside:
            break

    for x, y in itertools.combinations(tile_list, 2):
        if _interiors_intersect(spec, x, y):
            failures.append(
                "tiles %s and %s have overlapping interiors" % (x.sign_string(), y.sign_string())
            )
            continue
        inter = _intersection_vertices(spec, x, y)
        z = _common_face(x, y)
        if z is None:
            if inter:
                failures.append(
                    "tiles %s and %s intersect but have no common face"
                    % (x.sign_string(), y.sign_string())
                )
            continue
        expected_verts = {
            tuple(Fraction(c) for c in pt) for pt in to_tile(spec, z)
        }
        if inter != expected_verts:
            failures.append(
                "intersection of %s and %s is not their common face"
                % (x.sign_string(), y.sign_string())
            )

    ok = not failures
    return ValidationReport(ok, fine, one_per, volume2, expected, inside, failures)


# ---------------------------------------------------------------------------
# JSON export


def tiling_to_json(tiling: Tiling) -> dict:
    return {
        "schema_version": 1,
        "n": tiling.spec.n,
        "d": tiling.spec.d,
        "tiles": tiling.sign_strings(),
    }


def tiling_from_json(data: dict) -> Tiling:
    """Read `{"n": int, "d": int, "tiles": [sign string, ...]}`, each sign
    string n characters from "+-0"; JSON of another shape raises
    ValidationError."""
    n = data.get("n") if isinstance(data, dict) else None
    if not (
        type(n) is int
        and type(data.get("d")) is int
        and isinstance(data.get("tiles"), list)
        and all(isinstance(s, str) and len(s) == n for s in data["tiles"])
    ):
        raise ValidationError(
            'a tiling is {"n": int, "d": int, "tiles": [sign string, ...]} '
            'with n characters from "+-0" in each sign string'
        )
    n, d, tiles = data["n"], data["d"], data["tiles"]
    # before the zero-set table of ZonotopeSpec, which has C(n, d) entries
    if not 1 <= d <= n:
        raise ValidationError("a tiling of Z(n,d) needs 1 <= d <= n, not n = %d, d = %d" % (n, d))
    if not _is_binomial(n, d, len(tiles)):
        raise ValidationError("a fine tiling of Z(%d,%d) has C(%d,%d) tiles, not %d" % (n, d, n, d, len(tiles)))
    spec = ZonotopeSpec(n, d)
    return Tiling.from_tiles(spec, [SignedSubset.from_sign_string(s) for s in tiles])


def _is_binomial(n: int, d: int, count: int) -> bool:
    """C(n, d) == count, for 0 <= d <= n.  The partial products C(n, i)
    grow with i up to min(d, n - d), so a short count stops the product
    early instead of computing a C(n, d) of n bits."""
    c = 1
    for i in range(min(d, n - d)):
        c = c * (n - i) // (i + 1)
        if c > count:
            return False
    return c == count
