"""Formal characters on the weight lattice and exact character arithmetic.

A formal character is a finitely supported integer-valued function on the
weight lattice, stored sparsely.  Irreducible characters come from the
Freudenthal multiplicity recursion evaluated on the dominant weights only,
each value copied over the Weyl orbit of its weight, all of it on int
tuples D w scaled by a factor D fixed per root system (``Grid``): one
cached ``weight_table`` per (root system, nu), of which
``irreducible_character`` is the ``Weight``-keyed view.  Dimensions come
from the closed product formula and are cross-checked against the
multiplicity mass in the tests.
Decomposition of an invariant character is straightening: each support
weight w is walked from w + delta into the dominant chamber, as the theorem
path walks lambda + delta.  Half-integral highest weights are first-class;
lattice membership is only ever enforced against an explicit LatticeSpec.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from typing import Dict, Mapping, NamedTuple, Optional

from .errors import (ConsistencyError, DecompositionError, DimensionError,
                     NonDominantError, SymmetryError)
from .lattice import HALF, Weight, inner_product
from .roots import RootSystem, WeylElement, dominant_walk, orbit
from .sympair import SymmetricPair


class FormalCharacter:
    """Sparse integer combination of lattice points e^w.

    The canonical form never stores zero multiplicities.  Addition,
    subtraction, integer scaling, product (Minkowski convolution of
    supports) and the Weyl action are all exact.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Weight, int] | None = None):
        self.rank = rank
        clean: Dict[Weight, int] = {}
        if terms:
            for w, c in terms.items():
                if c == 0:
                    continue
                w = Weight(w)
                if len(w) != rank:
                    raise DimensionError(
                        f"weight {w} has length {len(w)}, character rank {rank}")
                clean[w] = clean.get(w, 0) + c
        self.terms = {w: c for w, c in clean.items() if c != 0}

    @classmethod
    def zero(cls, rank: int) -> "FormalCharacter":
        return cls(rank)

    @classmethod
    def monomial(cls, w: Weight, coeff: int = 1) -> "FormalCharacter":
        return cls(len(w), {Weight(w): coeff})

    def _check(self, other: "FormalCharacter") -> None:
        if self.rank != other.rank:
            raise DimensionError(
                f"character ranks differ: {self.rank} vs {other.rank}")

    def __add__(self, other: "FormalCharacter") -> "FormalCharacter":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return FormalCharacter(self.rank, terms)

    def __sub__(self, other: "FormalCharacter") -> "FormalCharacter":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) - c
        return FormalCharacter(self.rank, terms)

    def __neg__(self) -> "FormalCharacter":
        return FormalCharacter(self.rank, {w: -c for w, c in self.terms.items()})

    def scale(self, k: int) -> "FormalCharacter":
        return FormalCharacter(self.rank, {w: k * c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        prod: Dict[Weight, int] = {}
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        for w1, c1 in small.items():
            for w2, c2 in big.items():
                key = w1 + w2
                prod[key] = prod.get(key, 0) + c1 * c2
        return FormalCharacter(self.rank, prod)

    __rmul__ = __mul__

    def apply(self, element: WeylElement) -> "FormalCharacter":
        """Weyl action: permutes the support, preserves multiplicities."""
        return FormalCharacter(
            self.rank, {element.apply(w): c for w, c in self.terms.items()})

    def mass(self) -> int:
        """Sum of multiplicities (the dimension, for a true character)."""
        return sum(self.terms.values())

    def support(self) -> list:
        return sorted(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items_sorted(self) -> list:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "FormalCharacter(0)"
        parts = [f"{c}*e[{w}]" for w, c in self.items_sorted()]
        return "FormalCharacter(" + " + ".join(parts) + ")"


# -- scaled-integer weights -------------------------------------------------

class Grid:
    """``rs`` on the grid (1/D) Z^rank: a weight w is the int tuple D w.

    Keeps D alpha for the positive roots, D delta, and per simple root a
    the nonzero coordinates of D a with <D a, D a>, so that pairings,
    dominance and reflections are integer arithmetic.  A conversion or a
    coroot pairing that is not exact raises ConsistencyError.
    """

    def __init__(self, rs: RootSystem, scale: int) -> None:
        self.rs = rs
        self.scale = scale
        self.positive = tuple(self.point(a) for a in rs.positive_roots)
        self.delta = self.point(rs.delta)
        simples = (self.point(a) for a in rs.simple_roots)
        self._supports = tuple(
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

    def is_dominant(self, x: tuple) -> bool:
        return all(sum(x[k] * c for k, c in support) >= 0
                   for support, _ in self._supports)

    def reflect(self, x: tuple, i: int) -> tuple:
        """s_a(x) = x - <x, a^> D a for the i-th simple root a."""
        support, norm = self._supports[i]
        twice = 0
        for k, c in support:
            twice += x[k] * c
        if not twice:
            return x
        twice *= 2
        if twice % norm:
            raise ConsistencyError(
                f"{self.weight(x)} pairs to {Fraction(twice, norm)} with "
                f"the coroot of {self.rs.simple_roots[i]}")
        pairing = twice // norm
        y = list(x)
        for k, c in support:
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


# -- irreducible characters (Freudenthal) ----------------------------------

def _check_highest_weight(rs: RootSystem, nu: Weight) -> None:
    """Raise NonDominantError unless nu is dominant and integral."""
    if not rs.is_dominant(nu):
        raise NonDominantError(f"{nu} is not dominant for {rs}")
    if not rs.is_integral(nu):
        raise NonDominantError(f"{nu} is not algebraically integral for {rs}")


def _dominant_weights(g: Grid, top: tuple) -> list:
    """The dominant weights of pi_nu on the grid g (top = D nu), by
    descending <., delta>.

    They are the dominant weights below nu (Humphreys, 21.3), and each is
    reached from nu through dominant weights one positive root at a time
    (Stembridge, "The partial order of dominant weights", Adv. Math. 136
    (1998), Cor. 2.7).  Ties keep the order of discovery.
    """
    found = [top]
    seen = {top}
    for x in found:
        for alpha in g.positive:
            lower = tuple(map(sub, x, alpha))
            if lower not in seen and g.is_dominant(lower):
                seen.add(lower)
                found.append(lower)
    delta = g.delta
    return sorted(found, key=lambda x: sum(map(mul, x, delta)), reverse=True)


class WeightTable(NamedTuple):
    grid: Grid  # a key x is the weight x / grid.scale
    terms: Dict[tuple, int]  # {D w: multiplicity of w}, zeros absent


@lru_cache(maxsize=None)
def weight_table(rs: RootSystem, nu: Weight) -> WeightTable:
    """The weight multiplicities of pi_nu on the grid of rs, refined by the
    denominators of nu (an A-family nu such as 2/3,-1/3,-1/3 needs 3).

    nu must be dominant; integrality against any particular lattice is
    deliberately not required (spin representations are half-integral).
    Freudenthal runs on the dominant weights by descending <., delta>, and
    each value is copied over the W-orbit of its weight before the next.
    Every w + k alpha the recursion reads has a dominant representative
    strictly higher in <., delta>, so it is already in the table, and
    alpha-strings of weights are unbroken, so each string ends at the first
    point outside the table.  All of it is integer arithmetic: scaling by D
    multiplies both sides of the Freudenthal quotient by D^2, and a
    quotient that is not a positive integer raises ConsistencyError.
    Works verbatim for reducible systems, systems with free torus
    directions, and empty systems (character = e^nu).
    """
    nu = Weight(nu)
    _check_highest_weight(rs, nu)
    g = grid(rs, math.lcm(grid(rs).scale, *(c.denominator for c in nu)))
    top = g.point(nu)
    delta = g.delta

    def norm_shifted(x: tuple) -> int:
        return sum((a + d) ** 2 for a, d in zip(x, delta))

    target = norm_shifted(top)
    table: Dict[tuple, int] = {}
    for x in _dominant_weights(g, top):
        value = 1
        if x != top:
            acc = 0
            for alpha in g.positive:
                cur = tuple(map(add, x, alpha))
                while cur in table:
                    acc += table[cur] * sum(map(mul, cur, alpha))
                    cur = tuple(map(add, cur, alpha))
            gap = target - norm_shifted(x)
            if gap <= 0 or acc <= 0 or 2 * acc % gap:
                raise ConsistencyError(
                    f"Freudenthal produced {2 * acc}/{gap} at {g.weight(x)}")
            value = 2 * acc // gap
        for image in orbit(rs, x, reflect=g.reflect):
            table[image] = value
    return WeightTable(g, table)


@lru_cache(maxsize=None)
def irreducible_character(rs: RootSystem, nu: Weight) -> FormalCharacter:
    """Character of the irreducible highest-weight representation pi_nu:
    the ``Weight``-keyed view of ``weight_table(rs, nu)``."""
    g, table = weight_table(rs, Weight(nu))
    character = FormalCharacter(rs.rank)
    # already canonical: no zeros, exact weights
    character.terms = {g.weight(x): m for x, m in table.items()}
    return character


def weight_multiplicity(rs: RootSystem, nu: Weight, w: Weight) -> int:
    """Multiplicity of the weight w in pi_nu (0 when w is not a weight)."""
    g, table = weight_table(rs, Weight(nu))
    try:
        return table.get(g.point(Weight(w)), 0)
    except ConsistencyError:  # off the grid of pi_nu, so not a weight
        return 0


def weyl_dim(rs: RootSystem, nu: Weight) -> int:
    """Dimension of pi_nu by the product formula over positive roots."""
    nu = Weight(nu)
    _check_highest_weight(rs, nu)
    delta = rs.delta
    result = Fraction(1)
    shifted = nu + delta
    for alpha in rs.positive_roots:
        result *= inner_product(shifted, alpha) / inner_product(delta, alpha)
    if result.denominator != 1 or result <= 0:
        raise ConsistencyError(
            f"Weyl dimension formula gave {result} for {nu} in {rs}")
    return int(result)


# -- decomposition by straightening ----------------------------------------

def _check_invariance(ch: FormalCharacter, rs: RootSystem) -> None:
    for i, a in enumerate(rs.simple_roots):
        for w, c in ch.terms.items():
            if ch.terms.get(rs.reflect(w, i)) != c:
                raise SymmetryError(
                    f"character is not invariant under reflection in {a}")


def decompose(ch: FormalCharacter, rs: RootSystem) -> Dict[Weight, int]:
    """Multiplicities m_nu with ch = sum m_nu * irreducible_character(nu).

    The input must be W(rs)-invariant.  Straightening (Racah-Speiser): by
    invariance, ch times the Weyl denominator alternates sum_w ch[w]
    e^(w + delta), so each w + delta is walked into the dominant chamber; a
    strictly dominant end point p adds (-1)^steps * ch[w] to m at
    p - delta, a singular one nothing.  A negative m raises
    DecompositionError, a non-integral nu NonDominantError.
    """
    if ch.rank != rs.rank:
        raise DimensionError(f"rank mismatch: {ch.rank} vs {rs.rank}")
    _check_invariance(ch, rs)
    delta = rs.delta
    sums: Dict[Weight, int] = {}
    for w, c in ch.terms.items():
        steps, p = dominant_walk(w + delta, rs)
        if rs.is_dominant(p, strict=True):
            nu = p - delta
            sums[nu] = sums.get(nu, 0) + (-1) ** len(steps) * c
    result = {nu: m for nu, m in sums.items() if m}
    for nu, m in result.items():
        if m < 0:
            raise DecompositionError(
                f"negative multiplicity {m} at {nu}: character is not "
                f"a nonnegative combination of irreducibles")
        _check_highest_weight(rs, nu)
    return result


# -- branching ---------------------------------------------------------------

def branch_equal_rank(pair: SymmetricPair, nu: Weight) -> Dict[Weight, int]:
    """Restrict pi_nu to the subgroup side of an equal-rank pair.

    The maximal torus is shared, so restriction is reinterpretation of the
    same formal character, followed by decomposition against Delta_h.
    """
    nu = Weight(nu)
    rs = pair.root_system
    if not rs.is_dominant(nu):
        raise NonDominantError(f"{nu} is not dominant for {rs}")
    if nu not in pair.lattice_F1:
        raise ValueError(f"{nu} is not in F1 for pair {pair.name}")
    ch = irreducible_character(rs, nu)
    result = decompose(ch, pair.h_system)
    total = sum(mult * weyl_dim(pair.h_system, w) for w, mult in result.items())
    if total != weyl_dim(rs, nu):
        raise ConsistencyError(
            f"branching of {nu} lost dimensions: {total} != {weyl_dim(rs, nu)}")
    return result


def branch_interleave_BD(m: int, nu: Weight) -> Dict[Weight, int]:
    """Branching multiplicities for the odd/even orthogonal chain by the
    interleaving condition nu_1 >= a_1 >= nu_2 >= ... >= nu_m >= |a_m|.

    Components a run over the same integrality class as nu (all integers
    or all half-odd-integers), each with multiplicity one.  Independent of
    the character machinery; used as its cross-check.
    """
    nu = Weight(nu)
    if len(nu) != m:
        raise DimensionError(f"nu has length {len(nu)}, expected {m}")
    if not all(nu[i] >= nu[i + 1] for i in range(m - 1)) or nu[-1] < 0:
        raise NonDominantError(f"{nu} is not dominant for B{m}")
    frac = nu[0] - int(nu[0])
    if any(c - int(c) != frac for c in nu):
        raise ValueError(f"{nu} is not in a single integrality class")

    result: Dict[Weight, int] = {}

    def extend(k: int, prefix: tuple) -> None:
        if k == m - 1:
            upper = nu[m - 1]
            a = -upper
            while a <= upper:
                result[Weight(prefix + (a,))] = 1
                a += 1
            return
        lower, upper = nu[k + 1], nu[k]
        a = lower
        while a <= upper:
            extend(k + 1, prefix + (a,))
            a += 1

    extend(0, ())
    return result
