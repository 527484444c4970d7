"""Classical root systems and Weyl groups over exact rationals.

A Weyl element is a reduced word in the simple reflections together with
its image w(delta).  W acts simply transitively on the orbit of the regular
weight delta (Humphreys, Introduction to Lie Algebras, 10.3), so the image
identifies the element, and the group is the breadth-first orbit of delta
under the simple reflections, each element carrying its breadth-first word.
Reflections act on weight vectors directly, so a user-supplied list of
positive roots works just as well as a built-in family.  A, B, C, D are
realized in the standard e-basis, which for the A family means an ambient
space of dimension rank + 1.

``orbit`` and ``dominant_walk`` also run on int tuples D w on the grid
(1/D) Z^rank of a root system (``Grid``), where W is the orbit of D delta.
``weyl_order`` counts W without listing it, as the product of m_i + 1 over
the exponents m_i, which the heights of the positive roots give (Kostant).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul
from typing import Iterable, Optional, Sequence

from .errors import (ConsistencyError, DimensionError, GroupOrderLimitError,
                     UnsupportedRootSystemError)
from .lattice import HALF, LatticeSpec, Weight


class WeylElement:
    """w = s_word[0] ... s_word[-1] in the Weyl group of ``rs``, with its
    image w(delta); the word is reduced, and equality and hashing use the
    image alone."""

    def __init__(self, rs: "RootSystem", word: tuple, image: Weight) -> None:
        self.rs = rs
        self.word = word
        self.image = image

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    @classmethod
    def from_word(cls, rs: "RootSystem", word: Iterable) -> "WeylElement":
        word = tuple(word)
        image = rs.delta
        for i in reversed(word):  # the rightmost reflection first
            image = rs.reflect(image, i)
        return cls(rs, word, image)

    @property
    def sign(self) -> int:
        return (-1) ** len(self.word)


def _derive_simple_roots(positive_roots: Sequence[Weight],
                         twice: Sequence[tuple]) -> tuple:
    """Positive roots that are not a sum of two positive roots, summed as
    their int tuples 2a (``twice``)."""
    pos = set(twice)
    sums = set()
    for i, a in enumerate(twice):
        for b in twice[i:]:
            s = tuple(map(add, a, b))
            if s in pos:
                sums.add(s)
    return tuple(a for a, t in zip(positive_roots, twice) if t not in sums)


class RootSystem:
    """Positive roots plus derived simple roots in a fixed ambient basis.

    ``rank`` is the dimension of the ambient coordinate space (for the A
    family this is one more than the Lie rank).  An empty set of positive
    roots is allowed and models a torus factor only.  Equality and hashing
    ignore ``name``.
    """

    def __init__(self, rank: int, positive_roots: Iterable,
                 name: Optional[str] = None) -> None:
        roots = tuple(Weight(r) for r in positive_roots)
        if rank < 1:
            raise ValueError("rank must be positive")
        for r in roots:
            if len(r) != rank:
                raise DimensionError(f"root {r} has length {len(r)}, rank {rank}")
            if all(c == 0 for c in r):
                raise ValueError("positive roots must be nonzero")
            if any((2 * c).denominator != 1 for c in r):
                raise ValueError(f"root {r} has a coordinate outside 1/2 Z")
        if len(set(roots)) != len(roots):
            raise ValueError("positive roots must be pairwise distinct")
        self.rank = rank
        self.positive_roots = roots
        self.name = name
        twice = [tuple(int(2 * c) for c in a) for a in roots]  # exact in 1/2 Z
        self.simple_roots = _derive_simple_roots(roots, twice)
        coefficients = {}
        for alpha, coeffs in zip(roots, self._solve(roots)):
            if coeffs is None:
                raise self._outside_span(alpha)
            if any(c.denominator != 1 or c < 0 for c in coeffs):
                raise ValueError(
                    f"{alpha} is not a nonnegative integer combination "
                    f"of the simple roots {self.simple_roots}")
            coefficients[alpha] = tuple(int(c) for c in coeffs)
        # {positive root: its coefficients over simple_roots}
        self.coefficients = coefficients
        # per simple root a: the int tuple 2a with <2a, 2a>, and the nonzero
        # coordinates (k, a_k, 2 a_k / <a, a>), which pairings and
        # reflections touch
        doubled = [(u, sum(c * c for c in u)) for u in
                   (tuple(int(2 * c) for c in a) for a in self.simple_roots)]
        self._simple_supports = tuple(
            tuple((k, c, Fraction(4 * x, norm))
                  for k, (c, x) in enumerate(zip(a, u)) if x)
            for a, (u, norm) in zip(self.simple_roots, doubled))
        # closure on the int tuples: s_a(2b) = 2b - (2<2b, 2a> / <2a, 2a>) 2a
        closed = set(twice) | {tuple(-c for c in t) for t in twice}
        for i, (u, norm) in enumerate(doubled):
            for alpha, t in zip(roots, twice):
                pairing, rest = divmod(2 * sum(map(mul, t, u)), norm)
                image = tuple(x - pairing * c for x, c in zip(t, u))
                if rest:  # a fractional pairing: the image may still be a root
                    image = tuple(2 * c for c in self.reflect(alpha, i))
                if image not in closed:
                    raise ValueError(
                        f"reflecting {alpha} in the simple root "
                        f"{self.simple_roots[i]} gives "
                        f"{self.reflect(alpha, i)}, which is not a root")
        simples = self.simple_roots
        for i, simple in enumerate(simples):
            unit = tuple(int(j == i) for j in range(len(simples)))
            if coefficients[simple] != unit:
                raise ValueError(
                    f"the simple roots {'; '.join(map(str, simples))} are "
                    f"linearly dependent: {simple} has coefficients "
                    f"{coefficients[simple]}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rank, self.positive_roots)
                == (other.rank, other.positive_roots))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # lru_cache keys: hashing every Fraction on each lookup is slow
        return hash((self.rank, self.positive_roots))

    def coroot_pairing(self, v: Weight, i: int) -> Fraction:
        """<v, a^> for the i-th simple root a, where a^ = 2a / <a, a>."""
        return sum(v[k] * c for k, _, c in self._simple_supports[i])

    def reflect(self, v: Weight, i: int) -> Weight:
        """s_a(v) = v - <v, a^> a for the i-th simple root a."""
        pairing = self.coroot_pairing(v, i)
        coords = list(v)
        for k, c, _ in self._simple_supports[i]:
            coords[k] -= pairing * c
        return Weight(coords)

    @cached_property
    def delta(self) -> Weight:
        """Half the sum of the positive roots, read off ``grid(self)``."""
        return grid(self).weight(grid(self).delta)

    def _outside_span(self, vector: Weight) -> ValueError:
        empty = "" if self.simple_roots else "(empty) "
        return ValueError(f"{vector} outside the {empty}root span")

    def _solve(self, vectors: Sequence[Weight]) -> list:
        """The coordinates of each vector in the simple-root basis, or None
        for one outside the span: one Gauss-Jordan elimination of the
        simple roots 2a, with the vectors 2v as right-hand sides."""
        simples = self.simple_roots
        if not simples:  # builds no rows: the rank may be huge
            return [None if any(v) else () for v in vectors]
        ncols = len(simples)
        rows = [[int(2 * a[i]) for a in simples] + [2 * v[i] for v in vectors]
                for i in range(self.rank)]
        pivots = []
        r = 0
        for c in range(ncols):
            pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = Fraction(1, rows[r][c])
            rows[r] = [x * inv for x in rows[r]]
            for i, row in enumerate(rows):
                if i != r and row[c]:
                    rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
            pivots.append(c)
            r += 1
        result = []
        for j in range(ncols, ncols + len(vectors)):
            coeffs = [Fraction(0)] * ncols
            for i, c in enumerate(pivots):
                coeffs[c] = rows[i][j]
            outside = any(row[j] for row in rows[r:])
            result.append(None if outside else tuple(coeffs))
        return result

    def is_dominant(self, w: Weight, strict: bool = False) -> bool:
        """<w, a^> >= 0 (> 0 when strict) for every simple root a."""
        if len(w) != self.rank:
            raise DimensionError(f"weight length {len(w)} vs rank {self.rank}")
        pairings = (self.coroot_pairing(w, i)
                    for i in range(len(self.simple_roots)))
        if strict:
            return all(p > 0 for p in pairings)
        return all(p >= 0 for p in pairings)

    def is_integral(self, v: Weight) -> bool:
        """<v, a^> is an integer for every simple root a."""
        return all(self.coroot_pairing(v, i).denominator == 1
                   for i in range(len(self.simple_roots)))

    def __repr__(self) -> str:
        label = self.name or f"rank{self.rank}"
        return f"RootSystem({label}, {len(self.positive_roots)} positive roots)"


def classical_dimension(family: str, rank: int) -> int:
    """The number of coordinates of ``build_classical(family, rank)``,
    after the same checks of family and rank, without building anything.

    B and C need rank >= 1, D needs rank >= 2, and A_rank lives in
    rank + 1 coordinates.
    """
    family = family.upper()
    if rank < 1:
        raise UnsupportedRootSystemError(f"rank must be >= 1, got {rank}")
    if rank >= sys.maxsize:  # no list holds the rank + 1 coordinates of A
        raise UnsupportedRootSystemError(f"rank {rank} is too large")
    if family not in ("A", "B", "C", "D"):
        raise UnsupportedRootSystemError(f"unknown family {family!r}")
    if family == "D" and rank < 2:
        raise UnsupportedRootSystemError("family D needs rank >= 2")
    return rank + 1 if family == "A" else rank


def build_classical(family: str, rank: int) -> RootSystem:
    """Standard positive roots of A/B/C/D in the e-basis: e_i - e_j, then
    e_i + e_j (B, C, D), then e_k (B) or 2 e_k (C), for i < j."""
    n = classical_dimension(family, rank)
    family = family.upper()
    e = [Weight.basis(n, k) for k in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    roots = [e[i] - e[j] for i, j in pairs]
    if family != "A":
        roots += [e[i] + e[j] for i, j in pairs]
    if family == "B":
        roots += e
    elif family == "C":
        roots += [v * 2 for v in e]
    return RootSystem(n, roots, name=f"{family}{rank}")


class Grid:
    """``rs`` on the grid (1/D) Z^rank: a weight w is the int tuple D w.

    Keeps D alpha for the positive roots, the positions of the reduced
    ones (not twice another root), D delta, and per simple root a the
    nonzero coordinates (k, c) of D a with <D a, D a> (``supports``):
    pairings, dominance and reflections are integer arithmetic.  A
    conversion, half-sum or coroot pairing that is not exact raises
    ConsistencyError.
    """

    def __init__(self, rs: RootSystem, scale: int) -> None:
        self.rs = rs
        self.scale = scale
        self.simple_roots = rs.simple_roots
        self.positive = tuple(self.point(a) for a in rs.positive_roots)
        points = set(self.positive)
        self.reduced = tuple(
            k for k, b in enumerate(self.positive)
            if any(c % 2 for c in b) or tuple(c // 2 for c in b) not in points)
        self.delta = self.half_sum(range(len(self.positive)))
        simples = (self.point(a) for a in rs.simple_roots)
        self.supports = tuple(
            (tuple((k, c) for k, c in enumerate(a) if c), sum(c * c for c in a))
            for a in simples)

    def point(self, w: Weight) -> tuple:
        """D w, which must be integral."""
        x = tuple(c * self.scale for c in w)
        if any(c.denominator != 1 for c in x):
            raise ConsistencyError(f"{w} is not on the grid 1/{self.scale} Z")
        return tuple(c.numerator for c in x)

    def weight(self, x: tuple) -> Weight:
        return Weight(Fraction(c, self.scale) for c in x)

    def half_sum(self, indices: Iterable) -> tuple:
        """D (1/2) sum alpha over the positive roots alpha at ``indices``
        (positions in ``rs.positive_roots``), which must be integral."""
        total = (0,) * self.rs.rank
        for k in indices:
            total = tuple(map(add, total, self.positive[k]))
        if any(c % 2 for c in total):
            raise ConsistencyError(f"{self.weight(total) * HALF} is not on "
                                   f"the grid 1/{self.scale} Z")
        return tuple(c // 2 for c in total)

    @lru_cache(maxsize=None)
    def residues(self, lattice: LatticeSpec) -> frozenset:
        """D s over the coset shifts s of ``lattice``: they lie in
        [0, D)^rank, so D F is the set of int tuples x with x mod D in it.
        Cached per grid and lattice; ``grid`` keeps its grids anyway."""
        return frozenset(map(self.point, lattice.coset_shifts))

    def is_dominant(self, x: tuple, strict: bool = False) -> bool:
        """<w, a^> >= 0 (> 0 when strict) for every simple root a."""
        least = 1 if strict else 0  # <x, D a> is an integer
        return all(sum(x[k] * c for k, c in support) >= least
                   for support, _ in self.supports)

    def is_integral(self, x: tuple) -> bool:
        """<w, a^> is an integer for every simple root a."""
        return all(2 * sum(x[k] * c for k, c in support) % norm == 0
                   for support, norm in self.supports)

    def coroot_pairing(self, x: tuple, i: int) -> int:
        """<w, a^> for the i-th simple root a, which must be an integer."""
        support, norm = self.supports[i]
        twice = 0
        for k, c in support:
            twice += x[k] * c
        twice *= 2
        if twice % norm:
            raise ConsistencyError(
                f"{self.weight(x)} pairs to {Fraction(twice, norm)} with "
                f"the coroot of {self.rs.simple_roots[i]}")
        return twice // norm

    def reflect(self, x: tuple, i: int) -> tuple:
        """s_a(x) = x - <w, a^> D a for the i-th simple root a."""
        pairing = self.coroot_pairing(x, i)
        if not pairing:
            return x
        y = list(x)
        for k, c in self.supports[i][0]:
            y[k] -= pairing * c
        return tuple(y)


@lru_cache(maxsize=None)
def grid(rs: RootSystem, scale: Optional[int] = None) -> Grid:
    """The grid of ``rs`` at ``scale``, by default D = lcm(2, the
    denominators of alpha/2 over Delta^+).  With that D, D alpha, D delta
    and D times any half-sum of roots (a spinor weight) are integral, and
    so are D times the coset shifts of a lattice, which lie in {0, 1/2}."""
    if scale is None:
        scale = math.lcm(2, *(c.denominator for a in rs.positive_roots
                              for c in a * HALF))
    return Grid(rs, scale)


# the most images ``orbit`` lists, and the most elements of W_1 a pair lists
ORBIT_LIMIT = 10 ** 6


def orbit(space, v, limit: int = ORBIT_LIMIT) -> dict:
    """The W-orbit of v as {image: word}, with s_word[0] ... s_word[-1] v
    = image.

    ``space`` is a ``RootSystem`` with v a ``Weight``, or a ``Grid`` with v
    an int tuple.  Breadth-first from v, generators in index order, a new
    image's word being the generator prepended to its parent's, so every
    word is of minimal length.  Raises GroupOrderLimitError past ``limit``
    images.
    """
    reflect = space.reflect
    seen = {v: ()}
    frontier = [v]
    while frontier:
        new_frontier = []
        for u in frontier:
            word = seen[u]
            for i in range(len(space.simple_roots)):
                image = reflect(u, i)
                if image not in seen:
                    seen[image] = (i,) + word
                    new_frontier.append(image)
                    if len(seen) > limit:
                        raise GroupOrderLimitError(
                            f"group closure exceeded limit {limit}")
        frontier = new_frontier
    return seen


def weyl_order(rs: RootSystem) -> int:
    """|W| = prod (m_i + 1) over the exponents m_i of ``rs``, without an
    orbit.  The exponents are the dual partition of the counts of positive
    roots by height (Kostant 1959; Humphreys, Reflection Groups and Coxeter
    Groups, 3.20): as many exponents are >= h as there are roots of height
    h.  That holds for reducible systems and torus factors too.  Only the
    reduced roots count (``Grid.reduced``): a root twice another has the
    reflection of its half.  A system with no roots has |W| = 1.
    """
    coefficients = list(rs.coefficients.values())  # positive_roots order
    heights = Counter(sum(coefficients[k]) for k in grid(rs).reduced)
    order = 1
    for height, count in heights.items():
        order *= (height + 1) ** (count - heights[height + 1])
    return order


@lru_cache(maxsize=None)
def weyl_group(rs: RootSystem, limit: int = ORBIT_LIMIT) -> tuple:
    """The Weyl group as the orbit of the regular weight delta, each
    element carrying its orbit word (reduced, since the stabilizer of delta
    is trivial).  Elements are returned sorted by their image of delta.
    The orbit runs on the grid, and each image becomes a ``Weight`` once.
    """
    g = grid(rs)
    seen = orbit(g, g.delta, limit)
    return tuple(WeylElement(rs, seen[x], g.weight(x)) for x in sorted(seen))


def dominant_walk(w, space) -> tuple:
    """(steps, dominant): reflect w in the first simple root that pairs
    negatively with it, rescanning from the first root after each step,
    until none does.  The walk terminates because <. , delta> strictly
    increases, and s_steps[-1] ... s_steps[0] w = dominant.  ``space`` is a
    ``RootSystem`` with w a ``Weight``, or a ``Grid`` with w an int tuple.
    """
    steps = []
    i = 0
    while i < len(space.simple_roots):
        if space.coroot_pairing(w, i) < 0:
            w = space.reflect(w, i)
            steps.append(i)
            i = 0
        else:
            i += 1
    return tuple(steps), w
