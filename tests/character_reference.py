"""The ``Weight``-keyed character layer, kept as test support: sparse
formal characters with exact arithmetic, and thin ``Weight`` views over the
library's integer-grid routines, which the tests read as references and
through which they state their expectations.

``irreducible_character`` and ``weight_multiplicity`` read
``characters.weight_table``, ``decompose`` straightens on the grid with
``characters._straighten``, ``casimir_shell`` lists
``dirac._shell_points``, ``frobenius_multiplicity`` sums ``dirac._extract``,
and ``side_character`` counts the rows of ``spin.spinor_weights``.
"""

from collections import Counter
from functools import lru_cache
from typing import Dict, Mapping

from dirackernel.characters import _refined_grid, _straighten, weight_table
from dirackernel.dirac import _extract, _shell_points
from dirackernel.errors import ConsistencyError, DimensionError
from dirackernel.lattice import Weight
from dirackernel.roots import grid
from dirackernel.spin import spinor_weights


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


def casimir_shell(pair, lam) -> list:
    """The dominant points nu of F with the Casimir scalar of lambda, for
    lambda in F, sorted."""
    g = grid(pair.root_system)
    return [g.weight(nu)
            for nu in _shell_points(pair, g, g.point(Weight(lam)))]


def frobenius_multiplicity(pair, nu, mu, side: int) -> int:
    """The multiplicity of the mu-irreducible of the subgroup cover in
    chi^s tensor pi_nu restricted, s = side for m even and -side for m
    odd, for nu a dominant point of F and mu admissible."""
    g = grid(pair.root_system)
    table = weight_table(pair.root_system, Weight(nu)).terms
    return _extract(pair, table, g.point(Weight(mu)), side)


def side_character(pair, side: int) -> FormalCharacter:
    """chi^side: each weight of E^side, with its number of rows."""
    return FormalCharacter(pair.rank, Counter(
        e.weight for e in spinor_weights(pair).entries if e.parity == side))
