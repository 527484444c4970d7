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

from collections import namedtuple
from functools import cached_property, lru_cache
from operator import add, sub

from .errors import DimensionError, GroupOrderLimitError, InvalidPairError
from .lattice import LatticeSpec, Weight
from .roots import (ORBIT_LIMIT, Grid, RootSystem, WeylElement,
                    build_classical, grid, weyl_order)


# the checks of ``validate_pair``, in the order it runs them
PAIR_CHECKS = ("p_nonempty", "bracket_grading", "p_level_parity",
               "lattice_containment")


W1Element = namedtuple("W1Element", "element sign delta_p_sigma")
W1Element.__doc__ = """A coset representative sigma (a ``WeylElement``) with
its sign and delta_p^sigma (a ``Weight``)."""


class SymmetricPair:
    def __init__(self, root_system: RootSystem, h_positive, lattice_F,
                 lattice_F1, name: str = "pair") -> None:
        h_roots = tuple(Weight(r) for r in h_positive)
        g = grid(root_system)  # Delta_h^+ by position, found by grid point
        index = {x: k for k, x in enumerate(g.positive)}
        located = [index.get(g.locate(r)) for r in h_roots]
        if None in located:
            raise ValueError(f"h-root {h_roots[located.index(None)]} is not "
                             f"a positive root")
        h_index = frozenset(located)
        if len(h_index) != len(h_roots):
            raise ValueError("h_positive roots must be distinct")
        if lattice_F.rank != root_system.rank or lattice_F1.rank != root_system.rank:
            raise DimensionError("lattice rank differs from root-system rank")
        _check_torus_lattice(root_system, lattice_F)
        self.root_system = root_system
        self.h_positive = h_roots
        # the positions of Delta_h^+ in root_system.positive_roots
        self.h_index = h_index
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
    def p_index(self) -> tuple:
        """The positions of Delta_p^+ in root_system.positive_roots."""
        return tuple(k for k in range(len(self.root_system.positive_roots))
                     if k not in self.h_index)

    @cached_property
    def p_positive(self) -> tuple:
        """Delta_p^+ in the order inherited from the ambient system."""
        return tuple(self.root_system.positive_roots[k] for k in self.p_index)

    @property
    def m(self) -> int:
        """Half the dimension of the tangent part: m = |Delta_p^+|."""
        return len(self.p_positive)

    @cached_property
    def delta(self) -> Weight:
        return self.root_system.delta

    @cached_property
    def delta_h(self) -> Weight:
        g = grid(self.root_system)
        return g.weight(g.half_sum(self.h_index))

    @cached_property
    def delta_p_point(self) -> tuple:
        """D delta_p on grid(root_system), read once per pair."""
        return grid(self.root_system).half_sum(self.p_index)

    @cached_property
    def delta_p(self) -> Weight:
        return grid(self.root_system).weight(self.delta_p_point)

    @cached_property
    def h_system(self) -> RootSystem:
        """Delta_h^+ as a root system in the full ambient space (possibly
        empty, possibly with free torus directions)."""
        return RootSystem(self.rank, self.h_positive,
                          name=f"{self.name}:h")

    @cached_property
    def weyl_h_order(self) -> int:
        """|W_H|, from the exponents of Delta_h^+ (``roots.weyl_order``)."""
        return weyl_order(self.h_system)

    @cached_property
    def w1(self) -> tuple:
        """W_1: each sigma with its sign and delta_p^sigma = sigma(delta) -
        delta_h, in the order of the images sigma(delta).

        Delta_h^+ lies in sigma(Delta^+) iff sigma(delta) is strictly
        Delta_h-dominant, so the images are the chambers of the
        Delta_h-dominant cone, found on the grid without listing W
        (``_cone_images``); only they become ``Weight``s.  Each word is the
        one ``weyl_group`` gives (``_orbit_word``).  Before the search, |W_1| =
        |W| / |W_H| from the exponents is held to ``ORBIT_LIMIT``; after
        it, the count |W| = |W_H| * |W_1| and the dominance of the
        delta_p^sigma are verified; they are distinct, as the images are.
        """
        order = weyl_order(self.root_system)
        if order > ORBIT_LIMIT * self.weyl_h_order:
            raise GroupOrderLimitError(
                f"|W_1| = {order // self.weyl_h_order} exceeds limit "
                f"{ORBIT_LIMIT}")
        g = grid(self.root_system)
        h = grid(self.h_system, g.scale)
        members = sorted(_cone_images(g, h))
        if order != self.weyl_h_order * len(members):
            raise InvalidPairError(
                f"|W| = {order} != |W_H| * |W_1| = "
                f"{self.weyl_h_order} * {len(members)}")
        result = []
        for x in members:
            shifted = tuple(map(sub, x, h.delta))
            delta_p_sigma = g.weight(shifted)
            if not h.is_dominant(shifted):
                raise InvalidPairError(
                    f"delta_p^sigma = {delta_p_sigma} is not dominant for h")
            element = WeylElement(self.root_system, _orbit_word(g, x),
                                  g.weight(x))
            result.append(W1Element(element, element.sign, delta_p_sigma))
        return tuple(result)

    def __repr__(self) -> str:
        return (f"SymmetricPair({self.name}, rank={self.rank}, "
                f"|h+|={len(self.h_positive)}, m={self.m})")


def _cone_images(g: Grid, h: Grid) -> set:
    """The images x = sigma(D delta) that are strictly Delta_h-dominant.

    Their chambers fill the convex Delta_h-dominant cone, and neighbouring
    chambers differ by a reflection s_beta (beta in Delta^+), so a
    breadth-first search from D delta over those reflections, keeping only
    strictly Delta_h-dominant images, reaches every one.  Only the reduced
    roots are taken (``Grid.mirrors``): a root twice another has the
    reflection of its half.
    """
    seen = {g.delta}
    frontier = [g.delta]
    while frontier:
        new_frontier = []
        for x in frontier:
            for i in range(len(g.mirrors)):
                y = g.reflect(x, i)
                if y not in seen and h.is_dominant(y, strict=True):
                    seen.add(y)
                    new_frontier.append(y)
        frontier = new_frontier
    return seen


def _orbit_word(g: Grid, x: tuple) -> tuple:
    """The word ``weyl_group`` gives the image x of D delta, without the
    orbit: it gives each image the least reduced word read from the right,
    which is reversed(g.walk(sigma^-1 D delta).steps).
    sigma^-1 D delta is D delta reflected along the steps of g.walk(x), in
    order."""
    y = g.delta
    for i in g.walk(x)[0]:
        y = g.reflect(y, i)
    return g.walk(y)[0][::-1]


def _check_torus_lattice(rs: RootSystem, lattice: LatticeSpec) -> None:
    """F must be the character lattice of a torus of G: a group of
    G-integral weights that holds every root.  Raise ValueError unless its
    generators (each e_k and each coset shift) are integral, each simple
    root is in F, and the shifts are closed under addition mod Z^rank.
    Such an F is W-stable: s_a f = f - <f, a^> a.

    Runs on the grid of ``rs``: the shifts are the points D s of the
    residues of F (``Grid.residues``), and membership is ``Grid.contains``.
    """
    g = grid(rs)
    points = sorted(g.residues(lattice))
    for x in points:
        if not g.is_integral(x):
            raise ValueError(f"F shift {g.weight(x)} is not integral for {rs}")
    for k in range(rs.rank):
        if not g.is_integral(tuple(g.scale * (j == k)
                                   for j in range(rs.rank))):
            raise ValueError(f"F contains {Weight.basis(rs.rank, k)}, "
                             f"which is not integral for {rs}")
    for k, simple in zip(rs.simple_index, rs.simple_roots):
        if not g.contains(lattice, g.positive[k]):
            raise ValueError(f"F misses the simple root {simple} of {rs}")
    for i, x in enumerate(points):
        for y in points[i:]:
            if not g.contains(lattice, tuple(map(add, x, y))):
                raise ValueError(f"F is not a group: {g.weight(x)} + "
                                 f"{g.weight(y)} is not in F")


def _grading_clash(sums: tuple, h_index: frozenset):
    """The first (i, j, k) of ``sums`` (``RootSystem.sums``) where k lies
    on the wrong side: in h iff exactly one of i, j does (h+h->h, p+p->h,
    h+p->p); None if there is none."""
    return next(((i, j, k) for i, j, k in sums
                 if (k in h_index) != ((i in h_index) == (j in h_index))),
                None)


def validate_pair(pair: SymmetricPair) -> None:
    """Run the checks of ``PAIR_CHECKS`` on ``pair`` and raise
    ``InvalidPairError`` naming every one that fails.  ``SymmetricPair``
    runs them on construction, so a pair that exists has passed them.
    Roots are taken by their positions in ``positive_roots``: the grading
    reads the root sums the root system found (``RootSystem.sums``), the
    parity their simple coefficients; the containment compares the
    residues of F and F1."""
    rs = pair.root_system
    g = grid(rs)
    roots = rs.positive_roots
    h_index = pair.h_index
    failures = []  # "check: detail", in the order of PAIR_CHECKS

    if not pair.p_positive:
        failures.append(
            "p_nonempty: Delta_p^+ is empty (h equals the full algebra)")

    # Bracket grading, restated on root sums: h+h->h, p+p->h, h+p->p.
    clash = _grading_clash(rs.sums, h_index)
    if clash:
        i, j, k = clash
        side = "h" if (i in h_index) == (j in h_index) else "p"
        failures.append(f"bracket_grading: {roots[i]} + {roots[j]} = "
                        f"{roots[k]} should lie in Delta_{side}^+")

    # Parity of the p-part of the level of each root.
    p_simple = [i for i, k in enumerate(rs.simple_index) if k not in h_index]
    for k, c in enumerate(rs.coefficients):
        level = sum(c[i] for i in p_simple)
        if level % 2 != (k not in h_index):
            failures.append(
                f"p_level_parity: root {roots[k]} has p-level {level}, "
                f"expected {'even' if k in h_index else 'odd'}")
            break

    if not g.residues(pair.lattice_F) <= g.residues(pair.lattice_F1):
        failures.append("lattice_containment: F is not contained in F1")

    if failures:
        raise InvalidPairError(f"pair {pair.name!r} fails validation: "
                               + "; ".join(failures))


def w1_enumerate(pair: SymmetricPair) -> list:
    """All sigma in W with Delta_h^+ contained in sigma(Delta^+), as a list
    copy of ``pair.w1``."""
    return list(pair.w1)


def admissibility_failures(pair: SymmetricPair, mu: Weight) -> list:
    """The admissibility clauses mu violates, by name (empty = admissible):
    "mu not in F1", "mu not dominant for Delta_h+", "mu - delta_p not in
    F", in that order (``_admissibility``)."""
    return _admissibility(pair, mu)[0]


def _admissibility(pair: SymmetricPair, mu: Weight) -> tuple:
    """(failures, x): the clauses of ``admissibility_failures`` and x = D
    mu on G's grid, or None when mu is off it.

    mu is read on the grid once, as y = L mu for L the least common
    multiple of D = grid(pair.root_system).scale and mu's denominators
    (``Grid.lift``).  If L = D, y is x, and F1 and F are tested on x and x
    - D delta_p (``Grid.contains``; ``delta_p_point``); otherwise mu is
    off G's grid and in neither.  Delta_h-dominance is a sign test of y on
    the subgroup's grid at scale D, which holds for any positive multiple
    of mu.
    """
    if len(mu) != pair.rank:
        raise DimensionError(f"mu length {len(mu)} vs rank {pair.rank}")
    g = grid(pair.root_system)
    scale, y = g.lift(mu)
    x = y if scale == g.scale else None  # D mu, or None off the grid
    failures = []
    if not g.contains(pair.lattice_F1, x):
        failures.append("mu not in F1")
    if not grid(pair.h_system, g.scale).is_dominant(y):
        failures.append("mu not dominant for Delta_h+")
    if x is None or not g.contains(
            pair.lattice_F, tuple(map(sub, x, pair.delta_p_point))):
        failures.append("mu - delta_p not in F")
    return failures, x


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
    p_index = {k for k, c in enumerate(rs.coefficients) if c[node] % 2}
    h_roots = tuple(a for k, a in enumerate(rs.positive_roots)
                    if k not in p_index)
    g = grid(rs)
    shift = g.weight(tuple(c % g.scale for c in g.half_sum(p_index)))
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
