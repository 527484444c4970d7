"""Equal-rank symmetric pair structure.

A pair is the ambient root system together with the subset of positive
roots living on the subgroup side, plus two lattice specifications: F for
the common maximal torus of G/H and F1 for the covers on which the spinor
representation exists.  A pair is validated when it is constructed, so an
invalid one never exists; everything downstream (spinor weights, the
kernel classification, the trace oracle) consumes it without re-checking.
The built-in pairs come from one rule, Borel-de Siebenthal's: mark a node
of the Dynkin diagram (``marked_node_pair``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import sub
from typing import NamedTuple

from .errors import DimensionError, InvalidPairError
from .lattice import HALF, LatticeSpec, Weight
from .roots import RootSystem, WeylElement, build_classical, grid, orbit


# the checks of ``validate_pair``, in the order it runs them
PAIR_CHECKS = ("p_nonempty", "bracket_grading", "p_level_parity",
               "lattice_containment")


class W1Element(NamedTuple):
    """A coset representative sigma with its sign and delta_p^sigma."""

    element: WeylElement
    sign: int
    delta_p_sigma: Weight


class SymmetricPair:
    def __init__(self, root_system: RootSystem, h_positive, lattice_F,
                 lattice_F1, name: str = "pair") -> None:
        h_roots = tuple(Weight(r) for r in h_positive)
        pos = set(root_system.positive_roots)
        for r in h_roots:
            if r not in pos:
                raise ValueError(f"h-root {r} is not a positive root")
        if len(set(h_roots)) != len(h_roots):
            raise ValueError("h_positive roots must be distinct")
        if lattice_F.rank != root_system.rank or lattice_F1.rank != root_system.rank:
            raise DimensionError("lattice rank differs from root-system rank")
        _check_torus_lattice(root_system, lattice_F)
        self.root_system = root_system
        self.h_positive = h_roots
        self.lattice_F = lattice_F
        self.lattice_F1 = lattice_F1
        self.name = name
        validate_pair(self)

    def _key(self) -> tuple:  # equality and hashing ignore the name
        return (self.root_system, self.h_positive, self.lattice_F,
                self.lattice_F1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # lru_cache keys: hashing every Fraction on each lookup is slow
        return hash(self._key())

    # -- derived structure ------------------------------------------------

    @property
    def rank(self) -> int:
        return self.root_system.rank

    @cached_property
    def p_positive(self) -> tuple:
        """Delta_p^+ in the order inherited from the ambient system."""
        h = set(self.h_positive)
        return tuple(a for a in self.root_system.positive_roots if a not in h)

    @property
    def m(self) -> int:
        """Half the dimension of the tangent part: m = |Delta_p^+|."""
        return len(self.p_positive)

    @cached_property
    def delta(self) -> Weight:
        return self.root_system.delta

    @cached_property
    def delta_h(self) -> Weight:
        return sum((a for a in self.h_positive), Weight.zero(self.rank)) * HALF

    @cached_property
    def delta_p(self) -> Weight:
        return sum((a for a in self.p_positive), Weight.zero(self.rank)) * HALF

    @cached_property
    def h_system(self) -> RootSystem:
        """Delta_h^+ as a root system in the full ambient space (possibly
        empty, possibly with free torus directions)."""
        return RootSystem(self.rank, self.h_positive,
                          name=f"{self.name}:h")

    @cached_property
    def weyl_h_order(self) -> int:
        """|W_H|, the size of the orbit of the Delta_h-regular weight
        D delta_h on the grid that ``w1`` filters with."""
        h = grid(self.h_system, grid(self.root_system).scale)
        return len(orbit(h, h.delta))

    @cached_property
    def w1(self) -> tuple:
        """W_1: each sigma with its sign and delta_p^sigma = sigma(delta) -
        delta_h, in the order of the images sigma(delta).  The bijection
        count |W| = |W_H| * |W_1| and the dominance plus distinctness of
        the delta_p^sigma are verified on the way.  Delta_h^+ lies in
        sigma(Delta^+) iff sigma(delta) is strictly Delta_h-dominant, so the
        orbit of D delta on the grid is filtered by that; only members
        become ``Weight``s.
        """
        g = grid(self.root_system)
        h = grid(self.h_system, g.scale)
        full = orbit(g, g.delta)
        members = sorted(x for x in full if h.is_dominant(x, strict=True))
        if len(full) != self.weyl_h_order * len(members):
            raise InvalidPairError(
                f"|W| = {len(full)} != |W_H| * |W_1| = "
                f"{self.weyl_h_order} * {len(members)}")
        seen = set()
        result = []
        for x in members:
            shifted = tuple(map(sub, x, h.delta))
            delta_p_sigma = g.weight(shifted)
            if not h.is_dominant(shifted):
                raise InvalidPairError(
                    f"delta_p^sigma = {delta_p_sigma} is not dominant for h")
            if shifted in seen:
                raise InvalidPairError(
                    f"duplicate delta_p^sigma = {delta_p_sigma}")
            seen.add(shifted)
            element = WeylElement(self.root_system, full[x], g.weight(x))
            result.append(W1Element(element, element.sign, delta_p_sigma))
        return tuple(result)

    def __repr__(self) -> str:
        return (f"SymmetricPair({self.name}, rank={self.rank}, "
                f"|h+|={len(self.h_positive)}, m={self.m})")


def _check_torus_lattice(rs: RootSystem, lattice: LatticeSpec) -> None:
    """F must be a W-stable group of G-integral weights, the characters of
    the torus of G: raise ValueError unless its generators (each e_k and
    each coset shift) are integral with every simple reflection of a
    generator in F, and the shifts are closed under addition mod Z^rank."""
    shifts = lattice.sorted_shifts()
    for s in shifts:
        if not rs.is_integral(s):
            raise ValueError(f"F shift {s} is not integral for {rs}")
    basis = [Weight.basis(rs.rank, k) for k in range(rs.rank)]
    for e in basis:
        if not rs.is_integral(e):
            raise ValueError(f"F contains {e}, which is not integral for {rs}")
    for g in shifts + basis:
        for i, simple in enumerate(rs.simple_roots):
            image = rs.reflect(g, i)
            if image not in lattice:
                raise ValueError(
                    f"F is not W-stable: reflecting {g} in the simple root "
                    f"{simple} gives {image}, which is not in F")
    for i, s in enumerate(shifts):
        for t in shifts[i:]:
            if s + t not in lattice:
                raise ValueError(
                    f"F is not a group: {s} + {t} is not in F")


def validate_pair(pair: SymmetricPair) -> None:
    """Run the checks of ``PAIR_CHECKS`` on ``pair`` and raise
    ``InvalidPairError`` naming every one that fails.  ``SymmetricPair``
    runs them on construction, so a pair that exists has passed them."""
    rs = pair.root_system
    failures = []  # "check: detail", in the order of PAIR_CHECKS

    p_set = set(pair.p_positive)
    h_set = set(pair.h_positive)
    if not p_set:
        failures.append(
            "p_nonempty: Delta_p^+ is empty (h equals the full algebra)")

    # Bracket grading, restated on root sums: h+h->h, p+p->h, h+p->p.
    roots = rs.positive_roots
    pos = set(roots)
    grading_detail = ""  # the first violation found
    for i, a in enumerate(roots):
        for b in roots[i:]:
            s = a + b
            expected_h = (a in h_set) == (b in h_set)
            if s in pos and (s in h_set) != expected_h and not grading_detail:
                side = "h" if expected_h else "p"
                grading_detail = f"{a} + {b} = {s} should lie in Delta_{side}^+"
    if grading_detail:
        failures.append(f"bracket_grading: {grading_detail}")

    # Parity of the p-part of the level of each root.
    p_idx = [i for i, b in enumerate(rs.simple_roots) if b in p_set]
    levels = {alpha: sum(coeffs[i] for i in p_idx)
              for alpha, coeffs in rs.coefficients.items()}
    wrong = [a for a, n_p in levels.items() if n_p % 2 != (a in p_set)]
    if wrong:
        failures.append(
            f"p_level_parity: root {wrong[0]} has p-level "
            f"{levels[wrong[0]]}, expected "
            f"{'odd' if wrong[0] in p_set else 'even'}")

    if not pair.lattice_F.is_sublattice_of(pair.lattice_F1):
        failures.append("lattice_containment: F is not contained in F1")

    if failures:
        raise InvalidPairError(f"pair {pair.name!r} fails validation: "
                               + "; ".join(failures))


def w1_enumerate(pair: SymmetricPair) -> list:
    """All sigma in W with Delta_h^+ contained in sigma(Delta^+), as a list
    copy of ``pair.w1``."""
    return list(pair.w1)


def admissibility_failures(pair: SymmetricPair, mu: Weight) -> list:
    """The admissibility clauses mu violates, by name (empty = admissible)."""
    if len(mu) != pair.rank:
        raise DimensionError(f"mu length {len(mu)} vs rank {pair.rank}")
    failures = []
    if mu not in pair.lattice_F1:
        failures.append("mu not in F1")
    if not pair.h_system.is_dominant(mu):
        failures.append("mu not dominant for Delta_h+")
    if (mu - pair.delta_p) not in pair.lattice_F:
        failures.append("mu - delta_p not in F")
    return failures


def admissible_mu(pair: SymmetricPair, mu: Weight) -> bool:
    """mu in F1, dominant for Delta_h^+, with mu - delta_p in F."""
    return not admissibility_failures(pair, mu)


# -- built-in pairs --------------------------------------------------------

def marked_node_pair(rs: RootSystem, node: int, name: str) -> SymmetricPair:
    """The pair of Borel-de Siebenthal's rule for the simple root ``node``
    (indexed in ``rs.simple_roots`` order).

    h is spanned by the roots with an even coefficient at that node: a
    Z/2-grading, so it defines an involution.  Delta_h^+ keeps the order of
    ``rs.positive_roots``, F is Z^rank, and F1 = F u (F + (delta_p mod 1)).
    """
    if not 0 <= node < len(rs.simple_roots):
        raise ValueError(f"node {node} is not a simple root index of {rs}")
    h_roots = tuple(a for a in rs.positive_roots
                    if rs.coefficients[a][node] % 2 == 0)
    delta_p = rs.delta - sum(h_roots, Weight.zero(rs.rank)) * HALF
    shift = Weight(c % 1 for c in delta_p)
    return SymmetricPair(
        rs, h_roots, lattice_F=LatticeSpec.integers(rs.rank),
        lattice_F1=LatticeSpec(rs.rank, [Weight.zero(rs.rank), shift]),
        name=name)


# name -> (family, rank, marked node)
_REGISTRY = {
    "so3_so2": ("B", 1, 0),
    "so5_so4": ("B", 2, 1),
    "so7_so6": ("B", 3, 2),
    "so9_so8": ("B", 4, 3),
    "so5_so2xso3": ("B", 2, 0),
}


def builtin_pair_names() -> list:
    return list(_REGISTRY)


@lru_cache(maxsize=None)
def builtin_pair(name: str) -> SymmetricPair:
    try:
        family, rank, node = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown pair {name!r}; known: "
                       f"{', '.join(_REGISTRY)}") from None
    return marked_node_pair(build_classical(family, rank), node, name)
