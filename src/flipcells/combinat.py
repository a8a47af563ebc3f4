"""Decorated permutations, Grassmann necklaces, and weakly separated collections.

Conventions used throughout the package:

* ground set is [n] = {1, ..., n}, indices are cyclic modulo n;
* a decorated permutation is a permutation whose fixed points carry a
  color in {white, black};
* the necklace <-> permutation bijection is driven by the exchange rule
  I_{i+1} = (I_i \\ {i}) u {pi(i)}, with a fixed point i colored black
  exactly when i lies in I_i;
* a k-subset is a bitmask, and `colex_masks(n, k)` numbers the k-subsets
  of [n] in colex order.  Weak separation of collections is read off
  separation rows: `separated_row(n, k, mask)` is the bitset over those
  numbers of the k-subsets weakly separated from `mask`, built lazily for
  each label that needs one.  A collection is weakly separated iff every
  member's bit survives the AND of all members' rows, and the colex-greedy
  extension keeps a candidate iff its bit survives the AND of the rows
  kept so far.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import ArgumentError, PreconditionError, ValidationError

WHITE = "white"
BLACK = "black"

# Bound of each site memo.  A site (a label, a triangle, a polygon, two
# triangles across a diagonal, or a center and its four triangles) fixes
# what is read from it, so every vertex and every connectivity that holds
# it shares one answer.
SITE_CACHE_SIZE = 1 << 16


@dataclass(frozen=True)
class DecoratedPermutation:
    """A permutation of [n] with colored fixed points.

    `image[i-1]` is the image of i.  `fixed_color` holds one (i, color)
    pair per fixed point, sorted by i.
    """

    n: int
    image: tuple[int, ...]
    fixed_color: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if self.n < 0 or len(self.image) != self.n:
            raise ValidationError("image length does not match n")
        if sorted(self.image) != list(range(1, self.n + 1)):
            raise ValidationError("image is not a bijection on [n]")
        fixed = tuple(i for i in range(1, self.n + 1) if self.image[i - 1] == i)
        colored = tuple(i for i, _ in self.fixed_color)
        if colored != fixed:
            raise ValidationError(
                "fixed_color must be defined exactly on the fixed points %s" % (fixed,)
            )
        if any(c not in (WHITE, BLACK) for _, c in self.fixed_color):
            raise ValidationError("fixed point colors must be 'white' or 'black'")

    @staticmethod
    def make(image: Sequence[int], colors: dict[int, str] | None = None) -> "DecoratedPermutation":
        """Build from a one-line image array; `colors` maps fixed points to colors."""
        image = tuple(image)
        n = len(image)
        colors = dict(colors or {})
        fixed = [i for i in range(1, n + 1) if image[i - 1] == i]
        missing = [i for i in fixed if i not in colors]
        if missing:
            raise ArgumentError("missing colors for fixed points %s" % (missing,))
        extra = [i for i in colors if i not in fixed]
        if extra:
            raise ArgumentError("colors given for non-fixed points %s" % (extra,))
        return DecoratedPermutation(n, image, tuple(sorted(colors.items())))

    def inverse_image(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, j in enumerate(self.image, start=1):
            inv[j - 1] = i
        return tuple(inv)

    def color_of(self, i: int) -> str:
        for j, c in self.fixed_color:
            if j == i:
                return c
        raise ArgumentError("%d is not a fixed point" % i)

    @property
    def is_identity(self) -> bool:
        """True when the underlying permutation is the identity (any coloring)."""
        return all(self.image[i] == i + 1 for i in range(self.n))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "image": list(self.image),
            "fixed_color": {str(i): c for i, c in self.fixed_color},
        }

    @staticmethod
    def from_json(data: dict) -> "DecoratedPermutation":
        """Read the `to_json` form (`n` is implied by the image and
        `fixed_color` may be left out); JSON of another shape raises
        ValidationError."""
        colors = data.get("fixed_color", {}) if isinstance(data, dict) else None
        if not (
            isinstance(colors, dict)
            and isinstance(data.get("image"), list)
            and all(type(j) is int for j in data["image"])
            and all(i.isascii() and i.isdigit() and isinstance(c, str) for i, c in colors.items())
        ):
            raise ValidationError(
                'a decorated permutation is {"image": [int, ...], '
                '"fixed_color": {"<fixed point>": "white" | "black", ...}}'
            )
        return DecoratedPermutation.make(data["image"], {int(i): c for i, c in colors.items()})


@dataclass(frozen=True)
class GrassmannNecklace:
    """A cyclic sequence I_1, ..., I_n of k-subsets of [n] obeying the exchange rule."""

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.sets) != self.n or self.n == 0:
            raise ValidationError("necklace must have exactly n nonzero entries")
        k = len(self.sets[0])
        ground = frozenset(range(1, self.n + 1))
        for s in self.sets:
            if len(s) != k:
                raise ValidationError("all necklace entries must have equal size")
            if not s <= ground:
                raise ValidationError("necklace entries must be subsets of [n]")
        # entries have equal size, so I_{i+1} \ I_i is at most one element
        # when I_i \ I_{i+1} is
        for i in range(1, self.n + 1):
            if not self.sets[i - 1] - self.sets[i % self.n] <= {i}:
                raise ValidationError("necklace exchange rule fails at index %d" % i)

    @property
    def k(self) -> int:
        return len(self.sets[0])

    def __getitem__(self, i: int) -> frozenset[int]:
        """1-based cyclic access."""
        return self.sets[(i - 1) % self.n]

    @staticmethod
    def make(n: int, sets: Iterable[Iterable[int]]) -> "GrassmannNecklace":
        return GrassmannNecklace(n, tuple(frozenset(s) for s in sets))

    def to_json(self) -> list[list[int]]:
        return [sorted(s) for s in self.sets]


@dataclass(frozen=True)
class LabelCollection:
    """A collection of distinct k-subsets of [n]."""

    n: int
    k: int
    labels: frozenset[frozenset[int]]

    def __post_init__(self):
        for s in self.labels:
            if len(s) != self.k or not s <= set(range(1, self.n + 1)):
                raise ValidationError("labels must be k-subsets of [n]")

    @staticmethod
    def make(n: int, k: int, labels: Iterable[Iterable[int]]) -> "LabelCollection":
        return LabelCollection(n, k, frozenset(frozenset(s) for s in labels))


def cyclic_decorated(n: int, k: int) -> DecoratedPermutation:
    """The cyclic permutation i -> i + k (mod n); k = 0 gives all-white fixed
    points and k = n all-black ones."""
    if n < 1:
        raise ArgumentError("n must be positive")
    if not 0 <= k <= n:
        raise ArgumentError("k must lie in [0, n]")
    if k % n == 0:
        color = BLACK if k == n else WHITE
        image = tuple(range(1, n + 1))
        return DecoratedPermutation(n, image, tuple((i, color) for i in image))
    image = tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))
    return DecoratedPermutation(n, image, ())


def permutation_for_tcd(image, colors: dict[int, str] | None = None) -> DecoratedPermutation:
    """The connectivity of triple crossing diagrams from a one-line image:
    a fixed point that `colors` leaves bare is white (undecorated).  A
    color on a point that is not fixed raises ArgumentError; a black fixed
    point is kept, and `plabic.build_plabic_complex` rejects it for T."""
    image = tuple(image)
    fixed = [i for i in range(1, len(image) + 1) if image[i - 1] == i]
    return DecoratedPermutation.make(image, dict.fromkeys(fixed, WHITE) | (colors or {}))


def necklace_of(p: DecoratedPermutation) -> GrassmannNecklace:
    """The Grassmann necklace corresponding to a decorated permutation.

    j sits in I_i iff j is a black fixed point, or j is non-fixed and i lies
    in the cyclic window (pi^{-1}(j), j].
    """
    n = p.n
    inv = p.inverse_image()
    blacks = {i for i, c in p.fixed_color if c == BLACK}
    sets = [set(blacks) for _ in range(n)]
    for j in range(1, n + 1):
        i = inv[j - 1]
        # walk the window (pi^{-1}(j), j] cyclically; empty for a fixed point
        while i != j:
            i = i % n + 1
            sets[i - 1].add(j)
    return GrassmannNecklace(n, tuple(frozenset(s) for s in sets))


def necklace_masks(p: DecoratedPermutation) -> tuple[int, ...]:
    """The entries of `necklace_of(p)` as masks, walked by the exchange rule.

    I_1 holds the black fixed points and every j = pi(i) with i > j; then
    I_{i+1} = (I_i \\ {i}) u {pi(i)} for each non-fixed i.
    """
    if p.n == 0:
        raise ValidationError("necklace must have exactly n nonzero entries")
    first = 0
    for i, j in enumerate(p.image, start=1):
        if j < i:
            first |= 1 << (j - 1)
    for i, c in p.fixed_color:
        if c == BLACK:
            first |= 1 << (i - 1)
    out = [first]
    m = first
    for i, j in enumerate(p.image[:-1], start=1):
        if j != i:
            m = m & ~(1 << (i - 1)) | 1 << (j - 1)
        out.append(m)
    return tuple(out)


def decorated_of(necklace: GrassmannNecklace) -> DecoratedPermutation:
    """Inverse of `necklace_of`: read pi(i) off the exchange I_{i+1} = (I_i \\ {i}) u {pi(i)},
    which a validated necklace obeys."""
    n = necklace.n
    image = []
    colors = {}
    for i in range(1, n + 1):
        cur = necklace[i]
        nxt = necklace[i + 1]
        if cur == nxt:
            image.append(i)
            colors[i] = BLACK if i in cur else WHITE
        else:
            (j,) = nxt - cur
            image.append(j)
    return DecoratedPermutation.make(tuple(image), colors)


def helicity(p: DecoratedPermutation) -> int:
    """Common size of the necklace entries of p."""
    return len(necklace_of(p)[1])


def necklace_shift(necklace: GrassmannNecklace, direction: str) -> GrassmannNecklace:
    """DOWN(I)_j = I_j n I_{iota(j)} and UP(I)_j = I_j u I_{lambda(j)}, where
    iota(j) / lambda(j) is the previous / next cyclic index whose entry differs
    from I_j.  Defined only for non-identity necklaces, where some entry
    differs from every I_j, so each walk to iota(j) or lambda(j) ends."""
    if direction not in ("up", "down"):
        raise ArgumentError("direction must be 'up' or 'down'")
    sets, n = necklace.sets, necklace.n
    if len(set(sets)) == 1:
        raise PreconditionError("UP/DOWN undefined for identity necklaces")
    step = -1 if direction == "down" else 1
    out = []
    for j, cur in enumerate(sets):
        i = (j + step) % n
        while sets[i] == cur:
            i = (i + step) % n
        out.append(cur & sets[i] if step < 0 else cur | sets[i])
    return GrassmannNecklace(n, tuple(out))


def is_weakly_separated(a: Iterable[int], b: Iterable[int], n: int) -> bool:
    """No cyclically alternating quadruple between A \\ B and B \\ A.

    Equivalently, going around 1..n, the elements of the two difference sets
    form at most two blocks: `is_weakly_separated_mask` on their masks.
    """
    sa, sb = frozenset(a), frozenset(b)
    if len(sa) != len(sb):
        raise ArgumentError("weak separation is defined for equal-size subsets")
    return is_weakly_separated_mask(mask_of(sa), mask_of(sb))


def is_subset_json(data, n) -> bool:
    """True when JSON `data` is a list of elements of [n] (ints)."""
    return isinstance(data, list) and all(type(i) is int and 1 <= i <= n for i in data)


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for i in elems:
        m |= 1 << (i - 1)
    return m


def elems_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=1 << 16)
def is_weakly_separated_mask(a: int, b: int) -> bool:
    """The rule of `is_weakly_separated` on masks (equal popcounts assumed)."""
    only_a = a & ~b
    only_b = b & ~a
    if not only_a or not only_b:
        return True
    changes = 0
    prev = None
    m = only_a | only_b
    while m:
        low = m & -m
        tag = bool(low & only_a)
        if prev is not None and tag != prev:
            changes += 1
        prev = tag
        m ^= low
    # close the cycle
    first = bool((only_a | only_b) & -(only_a | only_b) & only_a)
    if first != prev:
        changes += 1
    return changes <= 2


@lru_cache(maxsize=None)
def colex_masks(n: int, k: int) -> tuple[int, ...]:
    """Every k-subset of [n] as a mask, in colex (ascending mask) order."""
    return tuple(sorted(mask_of(c) for c in itertools.combinations(range(1, n + 1), k)))


@lru_cache(maxsize=None)
def colex_index(n: int, k: int) -> dict[int, int]:
    """Position of each k-subset mask of [n] in `colex_masks(n, k)`."""
    return {m: j for j, m in enumerate(colex_masks(n, k))}


@lru_cache(maxsize=None)
def _element_rows(n: int, k: int) -> tuple[int, ...]:
    """For each i in [n], the bitset over `colex_masks(n, k)` positions of
    the k-subsets that hold i.

    Colex order lists the k-subsets of [n-1] first and then those holding
    n, so each row is the row for [n-1] with the (k-1)-row shifted above it.
    """
    if n == 0 or k > n:
        return (0,) * n
    shift = math.comb(n - 1, k)
    lower = _element_rows(n - 1, k)
    upper = _element_rows(n - 1, k - 1) if k else (0,) * (n - 1)
    top = ((1 << math.comb(n - 1, k - 1)) - 1) << shift if k else 0
    return tuple(lo | up << shift for lo, up in zip(lower, upper)) + (top,)


@lru_cache(maxsize=SITE_CACHE_SIZE)
def separated_row(n: int, k: int, mask: int, start: int = 0) -> int:
    """The bitset over `colex_masks(n, k)` positions >= `start` of the
    k-subsets weakly separated from the k-subset `mask`.

    Two k-subsets fail to be weakly separated iff, read along 1..n, their
    differences alternate A, B, A, B or B, A, B, A (A = mask minus the
    other, B = the other minus mask).  One pass over the elements tracks,
    for all positions at once, which prefixes of those two patterns have
    shown up, so a row costs about 4n bitset operations.
    """
    live = ((1 << len(colex_masks(n, k))) - 1) >> start << start
    a = ab = aba = b = ba = bab = dead = 0
    for i, holds in enumerate(_element_rows(n, k)):
        if mask >> i & 1:
            x = live & ~holds
            dead |= bab & x
            aba |= ab & x
            ba |= b & x
            a |= x
        else:
            dead |= aba & holds
            bab |= ba & holds
            ab |= a & holds
            b |= holds
    return live & ~dead


def separated_from_all(n: int, k: int, labels) -> int:
    """The bitset of the k-subsets weakly separated from every label mask
    in `labels`: the AND of their separation rows.

    Raises ValidationError when a label is not a k-subset of [n], or names
    two labels that are not weakly separated: a member whose bit does not
    survive the AND, and a member whose row clears it.
    """
    index = colex_index(n, k)
    ok = -1
    members = 0
    for m in labels:
        j = index.get(m)
        if j is None:
            raise ValidationError("label %s is not a %d-subset of [%d]" % (elems_of(m), k, n))
        ok &= separated_row(n, k, m)
        members |= 1 << j
    bad = members & ~ok
    if bad:
        a = colex_masks(n, k)[(bad & -bad).bit_length() - 1]
        b = next(m for m in labels if not separated_row(n, k, m) >> index[a] & 1)
        raise ValidationError(
            "labels %s and %s are not weakly separated" % (elems_of(min(a, b)), elems_of(max(a, b)))
        )
    return ok


def colex_greedy(n: int, k: int, base, accept=None) -> list[int]:
    """Extend the weakly separated label masks `base` by one colex scan.

    Every other k-subset is read once, in colex order, and kept when it is
    weakly separated from every label kept so far and `accept(mask)` holds
    (default: always).  The scan reads one bit per candidate: the AND of
    the kept labels' rows.  A kept candidate's row covers only the
    positions after it, the only ones the scan still reads.  Returns `base`
    followed by the kept candidates in colex order.
    """
    masks = colex_masks(n, k)
    index = colex_index(n, k)
    kept = list(base)
    free = separated_from_all(n, k, kept)
    for m in kept:
        free &= ~(1 << index[m])
    while free:
        low = free & -free
        j = low.bit_length() - 1
        cand = masks[j]
        if accept is None or accept(cand):
            kept.append(cand)
            free &= separated_row(n, k, cand, j + 1)
        else:
            free ^= low
    return kept


def extend_to_maximal_ws(collection: LabelCollection) -> LabelCollection:
    """Extend a weakly separated collection to a maximal one inside C([n], k).

    Candidates are scanned once in colexicographic order (ascending bitmask),
    which makes the output deterministic.
    """
    n, k = collection.n, collection.k
    have = colex_greedy(n, k, [mask_of(s) for s in collection.labels])
    return LabelCollection(n, k, frozenset(frozenset(elems_of(m)) for m in have))


def all_decorated_permutations(n: int) -> Iterator[DecoratedPermutation]:
    """All decorated permutations of [n], fixed points colored both ways."""
    for image in itertools.permutations(range(1, n + 1)):
        fixed = [i for i in range(1, n + 1) if image[i - 1] == i]
        for colors in itertools.product((WHITE, BLACK), repeat=len(fixed)):
            yield DecoratedPermutation.make(image, dict(zip(fixed, colors)))
