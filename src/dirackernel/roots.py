"""Classical root systems and Weyl groups, set up on the int tuples 2a of
the positive roots (simple roots, their coefficients by a fraction-free
elimination, the reflection closure): ``Fraction``s are made only where a
``Weight`` is handed out.

A Weyl element is a reduced word in the simple reflections together with
its image w(delta).  W acts simply transitively on the orbit of the regular
weight delta (Humphreys, Introduction to Lie Algebras, 10.3), so the image
identifies the element, and ``weyl_group`` is the breadth-first orbit of
delta under the simple reflections, each element given its word from the
orbit's search.  Reflections act on weight vectors directly, so a
user-supplied list of positive roots works just as well as a built-in
family.  A, B, C, D are realized in the standard e-basis, which for the A
family means an ambient space of dimension rank + 1, and built once per
family and rank.

``orbit`` walks down from a dominant int tuple D w on the grid (1/D)
Z^rank of a root system (``Grid``), where W is the orbit of D delta: one
breadth-first search that gives each image with its parent and generator,
no word, and keeps nothing on the grid.  The search is held to
``ORBIT_LIMIT`` images.  ``Grid.walk`` goes the other way, from any grid
point up into the dominant chamber: it is the one walk, and no ``Weight``
is walked or reflected.  ``weyl_order`` counts W without listing it, as
the product of m_i + 1 over the exponents m_i, which the heights of the
positive roots give (Kostant).
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import lcm
from operator import add, mul, sub

from .errors import (ConsistencyError, DimensionError, GroupOrderLimitError,
                     NonDominantError, UnsupportedRootSystemError)
from .lattice import LatticeSpec, Weight


class WeylElement:
    """w = s_word[0] ... s_word[-1] in the Weyl group of ``rs``, with its
    image w(delta); the word is reduced, and equality and hashing use the
    image alone.  Slotted: W_1 and ``weyl_group`` make one per element."""

    __slots__ = ("rs", "word", "image")

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
        """The element of the word, its image replayed from D delta on
        ``grid(rs)`` (``Grid.reflect``); ValueError for a letter that is not
        the index of a simple root."""
        word = tuple(word)
        g = grid(rs)
        simple = range(len(rs.simple_roots))
        x = g.delta
        for i in reversed(word):  # the rightmost reflection first
            if i not in simple:
                raise ValueError(f"letter {i!r} is not the index of one of "
                                 f"the {len(simple)} simple roots of {rs}")
            x = g.reflect(x, i)
        return cls(rs, word, g.weight(x))

    @property
    def sign(self) -> int:
        return (-1) ** len(self.word)


def root_sums(points: Sequence[tuple]):
    """Each (i, j, k) with i <= j and points[i] + points[j] = points[k], by
    i, then j: the pairs of positive roots whose sum is a root, for their
    int tuples (2 alpha, or D alpha on a grid)."""
    index = {x: k for k, x in enumerate(points)}
    for i, a in enumerate(points):
        for j in range(i, len(points)):
            k = index.get(tuple(map(add, a, points[j])))
            if k is not None:
                yield i, j, k


def _solve(basis: Sequence[tuple], vectors: Sequence[tuple]) -> tuple:
    """(d, numerators): the coordinates of each int vector over the int
    vectors ``basis``, as numerators over d, or None outside their span; a
    basis vector that depends on earlier ones gets 0.  One fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968): each step
    divides exactly by the previous pivot, so entries stay minors, and the
    pivot rows end as d times the reduced echelon form, d the last pivot.
    All-zero rows are dropped: with no roots, no row is built."""
    ncols = len(basis)
    rows = [list(row) for row in zip(*basis, *vectors) if any(row)]
    pivots = []  # the pivot column of each of the first len(pivots) rows
    d = 1
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top, prev, d = rows[r], d, rows[r][c]
        rows = [row if i == r else [(d * x - row[c] * y) // prev
                                    for x, y in zip(row, top)]
                for i, row in enumerate(rows)]
        pivots.append(c)
    row_of = dict(zip(pivots, rows))
    return d, [None if any(row[j] for row in rows[len(pivots):]) else
               tuple(row_of[c][j] if c in row_of else 0 for c in range(ncols))
               for j in range(ncols, ncols + len(vectors))]


class RootSystem:
    """Positive roots plus derived simple roots in a fixed ambient basis.

    ``rank`` is the dimension of the ambient coordinate space (for the A
    family this is one more than the Lie rank).  An empty set of positive
    roots is allowed and models a torus factor only.  No root may be twice
    another, as in the root system of any compact Lie algebra (Bourbaki,
    Lie Groups and Lie Algebras, VI 1).  Equality and hashing ignore
    ``name``.
    """

    def __init__(self, rank: int, positive_roots: Iterable,
                 name: str | None = None) -> None:
        roots = tuple(Weight(r) for r in positive_roots)
        if rank < 1:
            raise ValueError("rank must be positive")
        twice = []  # the int tuples 2a, exact in 1/2 Z
        for r in roots:
            if len(r) != rank:
                raise DimensionError(f"root {r} has length {len(r)}, rank {rank}")
            if not any(r):
                raise ValueError("positive roots must be nonzero")
            if any(c.denominator > 2 for c in r):
                raise ValueError(f"root {r} has a coordinate outside 1/2 Z")
            twice.append(tuple(c.numerator * (2 // c.denominator) for c in r))
        points = set(twice)
        if len(points) != len(twice):
            raise ValueError("positive roots must be pairwise distinct")
        for r, t in zip(roots, twice):
            if tuple(2 * c for c in t) in points:
                raise ValueError(f"root {r * 2} is twice the root {r}")
        self.rank = rank
        self.positive_roots = roots
        self._twice = tuple(twice)  # compared by __eq__
        self.name = name
        # each (i, j, k) with i <= j and alpha_i + alpha_j = alpha_k, by i,
        # then j (``root_sums``); the bracket-grading check reads them too
        self.sums = tuple(root_sums(twice))
        # the positions of the simple roots, the roots that are no sum of two
        composite = {k for _, _, k in self.sums}
        self.simple_index = tuple(k for k in range(len(twice))
                                  if k not in composite)
        self.simple_roots = tuple(roots[k] for k in self.simple_index)
        simple_twice = [twice[k] for k in self.simple_index]
        coefficients = []
        d, solved = _solve(simple_twice, twice)
        for alpha, numerators in zip(roots, solved):
            if numerators is None:
                raise self._outside_span(alpha)
            if any(n % d or n // d < 0 for n in numerators):
                raise ValueError(
                    f"{alpha} is not a nonnegative integer combination "
                    f"of the simple roots {self.simple_roots}")
            coefficients.append(tuple(n // d for n in numerators))
        # the coefficients of each positive root over simple_roots, in the
        # order of positive_roots
        self.coefficients = tuple(coefficients)
        # per simple root a: the int tuple 2a with <2a, 2a>, and the nonzero
        # coordinates (k, 2 a_k / <a, a>) of its coroot, which pairings touch
        doubled = [(u, sum(c * c for c in u)) for u in simple_twice]
        self._simple_supports = tuple(
            tuple((k, Fraction(4 * x, norm)) for k, x in enumerate(u) if x)
            for u, norm in doubled)
        # closure: s_a(2b) = scaled / norm, as pairing / norm = <b, a^>
        closed = points | {tuple(-c for c in t) for t in twice}
        for i, (u, norm) in enumerate(doubled):
            for alpha, t in zip(roots, twice):
                pairing = 2 * sum(map(mul, t, u))
                if not pairing:  # s_a fixes b
                    continue
                scaled = [x * norm - pairing * c for x, c in zip(t, u)]
                if any(c % norm for c in scaled) or tuple(
                        c // norm for c in scaled) not in closed:
                    image = Weight(Fraction(c, 2 * norm) for c in scaled)
                    raise ValueError(
                        f"reflecting {alpha} in the simple root "
                        f"{self.simple_roots[i]} gives {image}, which is "
                        f"not a root")
        simples = self.simple_roots
        for i, k in enumerate(self.simple_index):
            unit = tuple(int(j == i) for j in range(len(simples)))
            if coefficients[k] != unit:
                raise ValueError(
                    f"the simple roots {'; '.join(map(str, simples))} are "
                    f"linearly dependent: {simples[i]} has coefficients "
                    f"{coefficients[k]}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or ((self.rank, self._twice)
                                 == (other.rank, other._twice))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # lru_cache keys: hashing every Fraction on each lookup is slow
        return hash((self.rank, self.positive_roots))

    def coroot_pairing(self, v: Weight, i: int) -> Fraction:
        """<v, a^> for the i-th simple root a, where a^ = 2a / <a, a>."""
        return sum(v[k] * c for k, c in self._simple_supports[i])

    @cached_property
    def delta(self) -> Weight:
        """Half the sum of the positive roots, read off ``grid(self)``."""
        return grid(self).weight(grid(self).delta)

    def _outside_span(self, vector: Weight) -> ValueError:
        empty = "" if self.simple_roots else "(empty) "
        return ValueError(f"{vector} outside the {empty}root span")

    def is_dominant(self, w: Weight, strict: bool = False) -> bool:
        """<w, a^> >= 0 (> 0 when strict) for every simple root a."""
        if len(w) != self.rank:
            raise DimensionError(f"weight length {len(w)} vs rank {self.rank}")
        pairings = (self.coroot_pairing(w, i)
                    for i in range(len(self.simple_roots)))
        if strict:
            return all(p > 0 for p in pairings)
        return all(p >= 0 for p in pairings)

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
    e_i + e_j (B, C, D), then e_k (B) or 2 e_k (C), for i < j.  One
    ``RootSystem`` per (family, rank), the family in either case: pairs on
    one system, such as so5_so4 and so5_so2xso3, share it."""
    return _classical(family.upper(), rank)


@lru_cache(maxsize=None)
def _classical(family: str, rank: int) -> RootSystem:
    n = classical_dimension(family, rank)
    e = [(0,) * k + (1,) + (0,) * (n - k - 1) for k in range(n)]  # as ints
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    roots = [tuple(map(sub, e[i], e[j])) for i, j in pairs]
    if family != "A":
        roots += [tuple(map(add, e[i], e[j])) for i, j in pairs]
    if family == "B":
        roots += e
    elif family == "C":
        roots += [tuple(2 * c for c in v) for v in e]
    return RootSystem(n, roots, name=f"{family}{rank}")


class Grid:
    """``rs`` on the grid (1/D) Z^rank: a weight w is the int tuple D w.

    Keeps D alpha for the positive roots, D delta, and per positive root
    b, the simple roots first, the nonzero coordinates (k, c) of D b with
    <D b, D b> (``mirrors``; the simple roots' are the ``supports``):
    membership, pairings, dominance, reflections, the walk into the
    dominant chamber (``walk``) and the product of the pairings with the
    positive roots (``root_product``, Weyl's polynomial) are integer
    arithmetic over those sparse supports.  A conversion, half-sum or
    coroot pairing that is not exact raises ConsistencyError (``locate``
    gives None off the grid); only ``weight`` makes ``Fraction``s, one per
    coordinate value, cached per grid.  The denominator of Weyl's product
    (``weyl_denominator``) is read once, when first needed.
    """

    def __init__(self, rs: RootSystem, scale: int) -> None:
        self.rs = rs
        self.scale = scale
        self._quotient = lru_cache(None)(partial(Fraction, denominator=scale))
        self.simple_roots = rs.simple_roots
        self.positive = tuple(self.point(a) for a in rs.positive_roots)
        self.delta = self.half_sum(range(len(self.positive)))
        simple = rs.simple_index
        self.mirror_index = simple + tuple(k for k in range(len(self.positive))
                                           if k not in simple)
        self.mirrors = tuple(
            (tuple((j, c) for j, c in enumerate(b) if c), sum(c * c for c in b))
            for b in (self.positive[k] for k in self.mirror_index))
        self.supports = self.mirrors[:len(simple)]

    @cached_property
    def weyl_denominator(self) -> int:
        """``root_product`` at D delta, read on first use and then kept."""
        return self.root_product(self.delta)

    def root_product(self, x: tuple) -> int:
        """prod <x, D b> over the positive roots b, one per mirror, each
        pairing read over the nonzero coordinates of D b (``mirrors``)."""
        product = 1
        for support, _ in self.mirrors:
            dot = 0
            for k, c in support:
                dot += x[k] * c
            product *= dot
        return product

    def lift(self, w: Weight) -> tuple:
        """(L, L w) for L the least common multiple of D and the
        denominators of w: w on the finest grid that holds it and this
        one."""
        scale = lcm(self.scale, *(c.denominator for c in w))
        return scale, tuple(c.numerator * (scale // c.denominator) for c in w)

    def locate(self, w: Weight) -> tuple | None:
        """D w, or None when w is off the grid."""
        scale = self.scale
        if any(scale % c.denominator for c in w):
            return None
        return tuple(c.numerator * (scale // c.denominator) for c in w)

    def point(self, w: Weight) -> tuple:
        """D w, which must be integral."""
        x = self.locate(w)
        if x is None:
            raise ConsistencyError(f"{w} is not on the grid 1/{self.scale} Z")
        return x

    def weight(self, x: tuple) -> Weight:
        """The weight x / D, with one ``Fraction`` per coordinate value.
        The cached quotients are ``Fraction``s already, so the tuple is
        built without ``Weight.__new__``'s conversion."""
        return tuple.__new__(Weight, map(self._quotient, x))

    def half_sum(self, indices: Iterable) -> tuple:
        """D (1/2) sum alpha over the positive roots alpha at ``indices``
        (positions in ``rs.positive_roots``), which must be integral."""
        total = (0,) * self.rs.rank
        for k in indices:
            total = tuple(map(add, total, self.positive[k]))
        if any(c % 2 for c in total):
            half = Weight(Fraction(c, 2 * self.scale) for c in total)
            raise ConsistencyError(f"{half} is not on the grid 1/{self.scale} Z")
        return tuple(c // 2 for c in total)

    @lru_cache(maxsize=None)
    def residues(self, lattice: LatticeSpec) -> frozenset:
        """D s over the coset shifts s of ``lattice``: they lie in
        [0, D)^rank, so D F is the set of int tuples x with x mod D in it.
        Cached per grid and lattice; ``grid`` keeps its grids anyway."""
        return frozenset(map(self.point, lattice.coset_shifts))

    def contains(self, lattice: LatticeSpec, x: tuple | None) -> bool:
        """w in ``lattice``, for x = D w as ``locate`` gives it: x mod D is
        one of its ``residues``.  A lattice lies in (1/2) Z^rank and D is
        even, so a w off the grid (x None) is in none."""
        if x is None:
            return False
        if len(x) != lattice.rank:
            raise DimensionError(
                f"weight length {len(x)} vs lattice rank {lattice.rank}")
        scale = self.scale
        return tuple(c % scale for c in x) in self.residues(lattice)

    def is_dominant(self, x: tuple, strict: bool = False) -> bool:
        """<w, a^> >= 0 (> 0 when strict) for every simple root a."""
        least = 1 if strict else 0  # <x, D a> is an integer
        for support, _ in self.supports:
            dot = 0
            for k, c in support:
                dot += x[k] * c
            if dot < least:
                return False
        return True

    def is_integral(self, x: tuple) -> bool:
        """<w, a^> is an integer for every simple root a."""
        for support, norm in self.supports:
            dot = 0
            for k, c in support:
                dot += x[k] * c
            if 2 * dot % norm:
                return False
        return True

    def coroot_pairing(self, x: tuple, i: int) -> int:
        """<w, b^> for the i-th mirror b (for i below the number of simple
        roots, the i-th simple root), which must be an integer."""
        support, norm = self.mirrors[i]
        twice = 0
        for k, c in support:
            twice += x[k] * c
        twice *= 2
        if twice % norm:
            root = self.rs.positive_roots[self.mirror_index[i]]
            raise ConsistencyError(
                f"{self.weight(x)} pairs to {Fraction(twice, norm)} with "
                f"the coroot of {root}")
        return twice // norm

    def reflect(self, x: tuple, i: int) -> tuple:
        """s_b(x) = x - <w, b^> D b for the i-th mirror b."""
        pairing = self.coroot_pairing(x, i)
        if not pairing:
            return x
        y = list(x)
        for k, c in self.mirrors[i][0]:
            y[k] -= pairing * c
        return tuple(y)

    def walk(self, x: tuple) -> tuple:
        """(steps, dominant): reflect x in the first simple root that pairs
        negatively with it, rescanning from the first root after each step,
        until none does; s_steps[-1] ... s_steps[0] x = dominant.  It ends
        because <. , D delta> strictly increases.  Each pairing is read
        inline, and only a negative one reflects; one that is not an
        integer raises ConsistencyError (``coroot_pairing``'s message)
        where the walk scans it."""
        supports = self.supports
        steps = []
        i = 0
        while i < len(supports):
            support, norm = supports[i]
            dot = 0
            for k, c in support:
                dot += x[k] * c
            twice = 2 * dot
            if twice % norm:
                self.coroot_pairing(x, i)  # raises ConsistencyError
            if dot >= 0:
                i += 1
                continue
            pairing = twice // norm
            y = list(x)
            for k, c in support:
                y[k] -= pairing * c
            x = tuple(y)
            steps.append(i)
            i = 0
        return tuple(steps), x


@lru_cache(maxsize=None)
def grid(rs: RootSystem, scale: int | None = None, /) -> Grid:
    """The grid of ``rs`` at ``scale``, by default D = lcm(2, the
    denominators of alpha/2 over Delta^+): 4 if a root has a coordinate in
    Z + 1/2, else 2.  With that D, D alpha, D delta and D times any
    half-sum of roots (a spinor weight) are integral, and so are D times
    the coset shifts of a lattice, which lie in {0, 1/2}.  Cached: one
    ``Grid`` per system (up to equality) and scale, the default one
    included, as the call without a scale reads the call with it."""
    if scale is None:
        return grid(rs, 4 if any(c.denominator == 2 for a in rs.positive_roots
                                 for c in a) else 2)
    return Grid(rs, scale)


# the most images ``orbit`` lists, and the most elements of W_1 a pair lists
ORBIT_LIMIT = 10 ** 6


def orbit(g: Grid, v: tuple) -> tuple:
    """(images, parents, generators): the W-orbit of a dominant v = D w on
    the grid g in breadth-first order from v, image n + 1 being image
    parents[n] reflected in the simple root generators[n];
    NonDominantError otherwise.

    Generators are taken in index order.  s_a u is one level down if
    <u, a> > 0, u if it is 0, and one level up, already seen, if it is
    negative (Humphreys, Reflection Groups and Coxeter Groups, 1.10): only
    the first kind is reflected, so an image's level is the length of the
    shortest u in W with u v = image.  Past ``ORBIT_LIMIT`` images the
    search raises GroupOrderLimitError, and on a non-integral pairing
    ConsistencyError.
    """
    if not g.is_dominant(v):
        raise NonDominantError(f"orbit start {g.weight(v)} is not dominant")
    seen, images, parents, generators = {v}, [v], [], []
    for p, u in enumerate(images):  # images grows while it is read
        for i, (support, norm) in enumerate(g.supports):
            dot = 0
            for k, c in support:
                dot += u[k] * c
            if dot <= 0:
                continue
            pairing, rest = divmod(2 * dot, norm)
            if rest:
                g.coroot_pairing(u, i)  # raises ConsistencyError
            y = list(u)
            for k, c in support:
                y[k] -= pairing * c
            image = tuple(y)
            if image not in seen:
                seen.add(image)
                images.append(image)
                parents.append(p)
                generators.append(i)
                if len(images) > ORBIT_LIMIT:
                    raise GroupOrderLimitError(
                        f"group closure exceeded limit {ORBIT_LIMIT}")
    return images, parents, generators


def weyl_order(rs: RootSystem) -> int:
    """|W| = prod (m_i + 1) over the exponents m_i of ``rs``, without an
    orbit.  The exponents are the dual partition of the counts of positive
    roots by height (Kostant 1959; Humphreys, Reflection Groups and Coxeter
    Groups, 3.20): as many exponents are >= h as there are roots of height
    h.  That holds for reducible systems and torus factors too.  A system
    with no roots has |W| = 1.
    """
    heights = Counter(map(sum, rs.coefficients))
    order = 1
    for height, count in heights.items():
        order *= (height + 1) ** (count - heights[height + 1])
    return order


def weyl_group(rs: RootSystem) -> tuple:
    """The Weyl group as the orbit of the regular weight delta, each
    element carrying its reduced word, rebuilt from the orbit's parents and
    generators (an image's generator prepended to its parent's word).
    Elements are returned sorted by their image of delta.  The orbit runs
    on the grid, and each image becomes a ``Weight`` once.
    """
    g = grid(rs)
    images, parents, generators = orbit(g, g.delta)
    words = [()]
    for p, i in zip(parents, generators):
        words.append((i,) + words[p])
    return tuple(WeylElement(rs, word, g.weight(x))
                 for x, word in sorted(zip(images, words)))

