"""Highest-weight peeling, kept as test support: an independent reference
for straightening (``character_reference.decompose``, a view over
``characters._straighten``).

Peeling repeatedly takes the highest dominant support weight (by pairing
with delta, then lexicographically) and subtracts the dominant part of the
irreducible character with that highest weight; the dominant part of an
invariant character determines it.
"""

from character_reference import irreducible_character
from dirackernel.errors import (DecompositionError, DimensionError,
                                SymmetryError)
from dirackernel.lattice import inner_product
from dirackernel.roots import WeylElement
from support import apply


def peel(ch, rs):
    """Multiplicities m_nu with ch = sum m_nu * irreducible_character(nu)."""
    if ch.rank != rs.rank:
        raise DimensionError(f"rank mismatch: {ch.rank} vs {rs.rank}")
    for i, a in enumerate(rs.simple_roots):
        if apply(ch, WeylElement.from_word(rs, (i,))) != ch:
            raise SymmetryError(
                f"character is not invariant under reflection in {a}")
    delta = rs.delta
    remaining = {w: c for w, c in ch.terms.items() if rs.is_dominant(w)}
    result = {}
    while remaining:
        top = max(remaining, key=lambda w: (inner_product(w, delta), w))
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
