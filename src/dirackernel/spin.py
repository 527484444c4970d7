"""Spinor representation data, by a combinatorial route from the pair
structure: sign vectors over an enumeration of Delta_p^+, split E+/E- by
the parity of minus signs and counted into the half-spin characters chi^+
and chi^- ({weight: count}), which the oracle, the chi checks and the CLI
read, and the decomposition of chi^+ and chi^- over W_1.  The explicit
Clifford matrices that cross-check these weights live with the tests
(``tests/clifford_model.py``).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Dict, NamedTuple, Sequence

from .characters import FormalCharacter, irreducible_character
from .errors import ConsistencyError
from .lattice import HALF, Weight
from .sympair import SymmetricPair


# -- combinatorial spinor weights -------------------------------------------

class SpinorWeightEntry(NamedTuple):
    epsilon: tuple  # in {+1, -1}^m
    weight: Weight
    parity: int  # +1 for E+, -1 for E-


class SpinorWeights(NamedTuple):
    entries: tuple

    def side_character(self, side: int) -> FormalCharacter:
        """chi^side: each weight of E^side, with its number of rows."""
        rank = len(self.entries[0].weight)
        return FormalCharacter(rank, Counter(
            e.weight for e in self.entries if e.parity == side))


def _entries_from_roots(roots: Sequence[Weight], rank: int) -> tuple:
    """The rows in ``itertools.product((1, -1), repeat=m)`` order: each row
    over the first k roots is extended by +alpha/2, then by -alpha/2."""
    rows = [((), Weight.zero(rank), 1)]
    for alpha in roots:
        half = alpha * HALF
        rows = [row for eps, weight, parity in rows
                for row in ((eps + (1,), weight + half, parity),
                            (eps + (-1,), weight - half, -parity))]
    return tuple(SpinorWeightEntry(*row) for row in rows)


@lru_cache(maxsize=None)
def spinor_weights(pair: SymmetricPair) -> SpinorWeights:
    """One entry per sign vector over Delta_p^+ (in pair order): the weight
    (1/2) sum eps_k alpha_k, tagged with its E+/E- parity."""
    return SpinorWeights(_entries_from_roots(pair.p_positive, pair.rank))


def chi_trace_difference(pair: SymmetricPair) -> FormalCharacter:
    """The product over Delta_p^+ of (e^{a/2} - e^{-a/2}), expanded.

    Equals chi^+ - chi^-, which is asserted here since both are cheap.
    """
    product = FormalCharacter.monomial(Weight.zero(pair.rank))
    for alpha in pair.p_positive:
        half = alpha * HALF
        factor = (FormalCharacter.monomial(half)
                  - FormalCharacter.monomial(-half))
        product = product * factor
    sw = spinor_weights(pair)
    if product != sw.side_character(1) - sw.side_character(-1):
        raise ConsistencyError(
            "trace difference does not match the signed spinor-weight sum")
    return product


def chi_decompose(pair: SymmetricPair):
    """Split chi^+ and chi^- into irreducibles over W_1.

    Returns (plus, minus): maps delta_p^sigma -> 1 over the sign classes of
    W_1.  Verification: on each side, the sum of the corresponding
    irreducible characters of the subgroup equals the half-spin character
    exactly; failure raises, since it indicates a bad pair or bug.
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
