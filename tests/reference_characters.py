"""The references of the character layer, independent of the library's
integer grid: ``Weight``-keyed formal characters, Freudenthal on
``Fraction`` weights, highest-weight peeling, the interleaving branching
rule, the binomial product over Delta_p^+ and Kostant's subset sums; and
``Weight`` views of the library's grid routines (``irreducible_character``,
``weight_multiplicity``, ``decompose``, ``side_character``).  The pure ones
are computed once per session.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Mapping

from dirackernel.characters import _refined_grid, _straighten, weight_table
from dirackernel.errors import (ConsistencyError, DecompositionError,
                                DimensionError, NonDominantError,
                                SymmetryError)
from dirackernel.lattice import Weight
from dirackernel.spin import spinor_weights
from reference_roots import (act, inner_product, reference_orbit,
                             reference_reflect)


class FormalCharacter:
    """Sparse integer combination of lattice points e^w.

    The canonical form never stores zero multiplicities.  Addition,
    subtraction, integer scaling and product (Minkowski convolution of
    supports) are all exact.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Weight, int] | None = None):
        self.rank = rank
        clean: Dict[Weight, int] = {}
        if terms:
            for w, c in terms.items():
                if c == 0:
                    continue
                if type(w) is not Weight:
                    w = Weight(w)
                if len(w) != rank:
                    raise DimensionError(f"weight {w} has length {len(w)}, "
                                         f"character rank {rank}")
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "FormalCharacter(0)"
        parts = [f"{c}*e[{w}]" for w, c in sorted(self.terms.items())]
        return "FormalCharacter(" + " + ".join(parts) + ")"


def mass(ch: FormalCharacter) -> int:
    """Sum of multiplicities (the dimension, for a true character)."""
    return sum(ch.terms.values())


def support(ch: FormalCharacter) -> list:
    """The weights of ch with a nonzero coefficient, sorted."""
    return sorted(ch.terms)


def apply(ch: FormalCharacter, element) -> FormalCharacter:
    """The Weyl action on a character: permutes the support, preserves the
    multiplicities."""
    return FormalCharacter(
        ch.rank, {act(element, w): c for w, c in ch.terms.items()})


@lru_cache(maxsize=None)
def irreducible_character(rs, nu) -> FormalCharacter:
    """The character of pi_nu: ``weight_table(rs, nu)`` keyed by
    ``Weight``."""
    g, table = weight_table(rs, Weight(nu))
    return FormalCharacter(rs.rank, {g.weight(x): m for x, m in table.items()})


def weight_multiplicity(rs, nu, w) -> int:
    """Multiplicity of the weight w in pi_nu (0 when w is not a weight)."""
    g, table = weight_table(rs, Weight(nu))
    try:
        return table.get(g.point(Weight(w)), 0)
    except ConsistencyError:  # off the grid of pi_nu, so not a weight
        return 0


def decompose(ch: FormalCharacter, rs) -> Dict[Weight, int]:
    """Multiplicities m_nu with ch = sum m_nu * irreducible_character(nu):
    ch put on the grid of rs, refined by the denominators of its weights,
    and straightened there."""
    if ch.rank != rs.rank:
        raise DimensionError(f"rank mismatch: {ch.rank} vs {rs.rank}")
    g = _refined_grid(rs, ch.terms)
    return _straighten(rs, g, {g.point(w): c for w, c in ch.terms.items()})


@lru_cache(maxsize=None)
def side_character(pair, side: int) -> FormalCharacter:
    """chi^side: each weight of E^side, with its number of rows."""
    return FormalCharacter(pair.rank, Counter(
        e.weight for e in spinor_weights(pair).entries if e.parity == side))


@lru_cache(maxsize=None)
def reference_character(rs, nu) -> Mapping[Weight, int]:
    """{weight: multiplicity} of pi_nu by Freudenthal on the dominant
    weights, in exact rationals, each value copied over its W-orbit."""
    nu = Weight(nu)
    found = [nu]
    seen = {nu}
    for w in found:
        for alpha in rs.positive_roots:
            lower = w - alpha
            if lower not in seen and rs.is_dominant(lower):
                seen.add(lower)
                found.append(lower)
    delta = rs.delta
    found.sort(key=lambda w: inner_product(w, delta), reverse=True)
    target = inner_product(nu + delta, nu + delta)
    table = {}
    for w in found:
        value = Fraction(1)
        if w != nu:
            acc = Fraction(0)
            for alpha in rs.positive_roots:
                cur = w + alpha
                while cur in table:
                    acc += table[cur] * inner_product(cur, alpha)
                    cur = cur + alpha
            value = 2 * acc / (target - inner_product(w + delta, w + delta))
            if value.denominator != 1 or value <= 0:
                raise ConsistencyError(f"Freudenthal produced {value} at {w}")
        for image in reference_orbit(rs, w):
            table[image] = int(value)
    return MappingProxyType(table)


def peel(ch: FormalCharacter, rs) -> Dict[Weight, int]:
    """Multiplicities m_nu with ch = sum m_nu * irreducible_character(nu),
    by highest-weight peeling: an independent reference for straightening.

    Peeling repeatedly takes the highest dominant support weight (by
    pairing with delta, then lexicographically) and subtracts the dominant
    part of the irreducible character with that highest weight; the
    dominant part of an invariant character determines it.
    """
    if ch.rank != rs.rank:
        raise DimensionError(f"rank mismatch: {ch.rank} vs {rs.rank}")
    terms = ch.terms
    for i, a in enumerate(rs.simple_roots):
        # a reflection permutes the support, so invariance is one lookup
        # per term
        if any(terms.get(reference_reflect(rs, w, i)) != c
               for w, c in terms.items()):
            raise SymmetryError(
                f"character is not invariant under reflection in {a}")
    delta = rs.delta
    height = lru_cache(maxsize=None)(lambda w: (inner_product(w, delta), w))
    remaining = {w: c for w, c in terms.items() if rs.is_dominant(w)}
    result = {}
    while remaining:
        top = max(remaining, key=height)
        coeff = remaining[top]
        if coeff < 0:
            raise DecompositionError(
                f"negative multiplicity {coeff} at {top}: character is not "
                f"a nonnegative combination of irreducibles")
        result[top] = coeff
        for w, c in irreducible_character(rs, top).terms.items():
            if not rs.is_dominant(w):
                continue
            newc = remaining.get(w, 0) - coeff * c
            if newc:
                remaining[w] = newc
            else:
                remaining.pop(w, None)
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


def binomial_reference(pair) -> FormalCharacter:
    """prod over Delta_p^+ of (e^(a/2) - e^(-a/2)) on ``Weight``s."""
    product = FormalCharacter.monomial(Weight.zero(pair.rank))
    for alpha in pair.p_positive:
        half = alpha * Fraction(1, 2)
        product = product * (FormalCharacter.monomial(half)
                             - FormalCharacter.monomial(-half))
    return product


@lru_cache(maxsize=None)
def subset_sum_weights(rs) -> Mapping[Weight, int]:
    """Kostant's weight lemma by brute force: {delta - (sum of S): the
    number of subsets S of Delta^+ with that sum}, which the lemma says is
    the character of pi_delta."""
    roots = rs.positive_roots
    counts = {}
    for mask in range(2 ** len(roots)):
        total = Weight.zero(rs.rank)
        for i, alpha in enumerate(roots):
            if mask >> i & 1:
                total = total + alpha
        key = rs.delta - total
        counts[key] = counts.get(key, 0) + 1
    return MappingProxyType(counts)
