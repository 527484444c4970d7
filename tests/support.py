"""Helpers that only the tests call, kept as test support: small
conveniences over the library types, the interleaving branching rule that
cross-checks ``branch_equal_rank``, the ``Fraction`` filter of W_1 out of
the whole Weyl group and the ``Fraction`` product of Weyl's dimension
formula, both of which the library now runs on the integer grid, and the
quarter-delta pair, whose grid needs D = 4.
"""

from fractions import Fraction
from typing import Dict

from dirackernel.characters import FormalCharacter
from dirackernel.errors import (ConsistencyError, DimensionError,
                                NonDominantError)
from dirackernel.lattice import HALF, LatticeSpec, Weight, inner_product
from dirackernel.roots import (RootSystem, WeylElement, dominant_walk,
                               weyl_group)
from dirackernel.sympair import SymmetricPair, W1Element


def mass(ch) -> int:
    """Sum of multiplicities (the dimension, for a true character)."""
    return sum(ch.terms.values())


def support(ch) -> list:
    """The weights of ch with a nonzero coefficient, sorted."""
    return sorted(ch.terms)


def act(element: WeylElement, v: Weight) -> Weight:
    """s_word[0] ... s_word[-1] v for the word of the element (the
    rightmost reflection first)."""
    if len(v) != element.rs.rank:
        raise DimensionError(
            f"weight length {len(v)} vs rank {element.rs.rank}")
    for i in reversed(element.word):
        v = element.rs.reflect(v, i)
    return v


def apply(ch, element: WeylElement) -> FormalCharacter:
    """The Weyl action on a character: permutes the support, preserves the
    multiplicities."""
    return FormalCharacter(
        ch.rank, {act(element, w): c for w, c in ch.terms.items()})


def identity(rs: RootSystem) -> WeylElement:
    """The identity of the Weyl group of rs: the empty word, image delta."""
    return WeylElement(rs, (), rs.delta)


def simple_coefficients(rs: RootSystem, vector: Weight) -> tuple:
    """Coordinates of ``vector`` in the simple-root basis, by the solver
    that ``RootSystem`` runs on its positive roots; ValueError when the
    vector is outside the span."""
    (coeffs,) = rs._solve([vector])
    if coeffs is None:
        raise rs._outside_span(vector)
    return coeffs


def reference_weyl_dim(rs: RootSystem, nu: Weight) -> int:
    """Weyl's product formula on ``Fraction`` weights: the product over
    Delta^+ of <nu + delta, alpha> / <delta, alpha>."""
    delta = rs.delta
    result = Fraction(1)
    shifted = Weight(nu) + delta
    for alpha in rs.positive_roots:
        result *= inner_product(shifted, alpha) / inner_product(delta, alpha)
    if result.denominator != 1 or result <= 0:
        raise ConsistencyError(
            f"Weyl dimension formula gave {result} for {nu} in {rs}")
    return int(result)


def all_roots(rs: RootSystem) -> tuple:
    """The positive roots, then their negatives."""
    return rs.positive_roots + tuple(-a for a in rs.positive_roots)


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """w1 after w2, with a reduced word read off its image."""
    image = act(w1, w2.image)
    return WeylElement(w1.rs, dominant_walk(image, w1.rs)[0], image)


def integers_and_half_integers(rank: int) -> LatticeSpec:
    """Z^m union (Z + 1/2)^m."""
    return LatticeSpec(rank, [Weight.zero(rank), Weight([HALF] * rank)])


def deltas(pair: SymmetricPair):
    """(delta, delta_h, delta_p); checks delta = delta_h + delta_p."""
    d, dh, dp = pair.delta, pair.delta_h, pair.delta_p
    if d != dh + dp:
        raise ConsistencyError(
            f"delta = {d} differs from delta_h + delta_p = {dh + dp}")
    return d, dh, dp


def quarter_delta_pair() -> SymmetricPair:
    # B2 scaled by 1/2 with h = {(0, 1/2)} has delta = (3/4, 1/4), so
    # D (nu + delta) is integral for D = 4 and not for D = 2
    half = Fraction(1, 2)
    rs = RootSystem(2, [(half, -half), (half, half), (half, 0), (0, half)])
    both = integers_and_half_integers(2)
    return SymmetricPair(rs, [(0, half)], both, both, name="b2_half")


def reference_w1(pair: SymmetricPair) -> tuple:
    """W_1 filtered out of ``weyl_group`` on ``Fraction`` weights: each sigma
    whose image sigma(delta) is strictly Delta_h-dominant, in image order,
    with its sign and delta_p^sigma = sigma(delta) - delta_h."""
    h_system = pair.h_system
    return tuple(
        W1Element(sigma, sigma.sign, sigma.image - pair.delta_h)
        for sigma in weyl_group(pair.root_system)
        if h_system.is_dominant(sigma.image, strict=True))


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
