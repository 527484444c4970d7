"""Spinor representation data, by a combinatorial route from the pair
structure: sign vectors over an enumeration of Delta_p^+, split E+/E- by
the parity of minus signs, and the decomposition of the half-spinor
characters over W_1.  The explicit Clifford matrices that cross-check these
weights live with the tests (``tests/clifford_model.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Sequence

from .characters import FormalCharacter, irreducible_character
from .errors import ConsistencyError
from .lattice import HALF, Weight
from .sympair import SymmetricPair


# -- combinatorial spinor weights -------------------------------------------

@dataclass(frozen=True)
class SpinorWeightEntry:
    epsilon: tuple  # in {+1, -1}^m
    weight: Weight
    parity: int  # +1 for E+, -1 for E-


@dataclass(frozen=True)
class SpinorWeights:
    entries: tuple

    def plus_weights(self) -> list:
        return [e.weight for e in self.entries if e.parity == 1]

    def minus_weights(self) -> list:
        return [e.weight for e in self.entries if e.parity == -1]

    def side_character(self, side: int) -> FormalCharacter:
        """Character of the half-spinor representation chi^side."""
        rank = len(self.entries[0].weight)
        ch = FormalCharacter.zero(rank)
        for e in self.entries:
            if e.parity == side:
                ch = ch + FormalCharacter.monomial(e.weight)
        return ch


def _entries_from_roots(roots: Sequence[Weight], rank: int) -> tuple:
    entries = []
    for eps in itertools.product((1, -1), repeat=len(roots)):
        weight = Weight.zero(rank)
        for e, alpha in zip(eps, roots):
            weight = weight + alpha * Fraction(e, 2)
        parity = 1 if sum(1 for e in eps if e == -1) % 2 == 0 else -1
        entries.append(SpinorWeightEntry(eps, weight, parity))
    return tuple(entries)


@lru_cache(maxsize=None)
def spinor_weights(pair: SymmetricPair) -> SpinorWeights:
    """One entry per sign vector over Delta_p^+ (in pair order): the weight
    (1/2) sum eps_k alpha_k, tagged with its E+/E- parity."""
    return SpinorWeights(_entries_from_roots(pair.p_positive, pair.rank))


def chi_trace_difference(pair: SymmetricPair) -> FormalCharacter:
    """The product over Delta_p^+ of (e^{a/2} - e^{-a/2}), expanded.

    Equals the parity-signed sum of the spinor weights; the identity is
    asserted here since both sides are cheap.
    """
    rank = pair.rank
    product = FormalCharacter.monomial(Weight.zero(rank))
    for alpha in pair.p_positive:
        half = alpha * HALF
        factor = (FormalCharacter.monomial(half)
                  - FormalCharacter.monomial(-half))
        product = product * factor
    sw = spinor_weights(pair)
    signed = FormalCharacter.zero(rank)
    for e in sw.entries:
        signed = signed + FormalCharacter.monomial(e.weight, e.parity)
    if product != signed:
        raise ConsistencyError(
            "trace difference does not match the signed spinor-weight sum")
    return product


def chi_decompose(pair: SymmetricPair):
    """Split chi^+ and chi^- into irreducibles over W_1.

    Returns (plus, minus): maps delta_p^sigma -> 1 over the sign classes of
    W_1.  Verification: on each side, the sum of the corresponding
    irreducible characters of the subgroup equals the E+/E- spinor weight
    multiset exactly; failure raises, since it indicates a bad pair or bug.
    """
    plus: Dict[Weight, int] = {}
    minus: Dict[Weight, int] = {}
    for w1 in pair.w1:
        target = plus if w1.sign == 1 else minus
        if w1.delta_p_sigma in target:
            raise ConsistencyError(
                f"duplicate highest weight {w1.delta_p_sigma} in chi split")
        target[w1.delta_p_sigma] = 1
    sw = spinor_weights(pair)
    h_sys = pair.h_system
    for side, mapping in ((1, plus), (-1, minus)):
        total = FormalCharacter.zero(pair.rank)
        for hw in mapping:
            total = total + irreducible_character(h_sys, hw)
        if total != sw.side_character(side):
            raise ConsistencyError(
                f"chi^{'+' if side == 1 else '-'} does not decompose over "
                f"W1 with highest weights {sorted(mapping)}")
    return plus, minus
