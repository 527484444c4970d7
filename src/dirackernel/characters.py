"""Characters on the integer grid of ``roots.grid``: int tuples D w, with
a factor D fixed per root system.

The character of an irreducible pi_nu is one cached integer weight table
per grid point D nu (``grid_table``; ``weight_table`` converts and checks
a (root system, nu) at the edge): the Freudenthal multiplicity
recursion evaluated on the dominant weights only, each value copied over
the Weyl orbit of its weight.  Dimensions come from Weyl's product formula
as a quotient of two integer products on the same grid (``grid_dim``),
cross-checked against the multiplicity mass in the tests.  Decomposition
of an invariant character on the grid is straightening (``_straighten``):
each support weight w is walked from w + delta into the dominant chamber,
as the theorem path walks lambda + delta; branching and tensor products
straighten the integer tables directly.  ``Weight``s appear only as
highest weights.  Half-integral highest weights are first-class; lattice
membership is only ever enforced against an explicit LatticeSpec.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from operator import add, mul, sub

from .errors import (ConsistencyError, DecompositionError, DimensionError,
                     NonDominantError, SymmetryError,
                     UnsupportedRootSystemError)
from .lattice import Weight
from .roots import Grid, RootSystem, dominant_walk, grid, orbit
from .sympair import SymmetricPair


# -- irreducible characters (Freudenthal) ----------------------------------

def _check_highest_weight(rs: RootSystem, g: Grid, x: tuple) -> None:
    """Raise NonDominantError unless x = D nu on g, a grid of rs, is
    dominant and integral.  rs names the system in the message: ``grid``
    returns the grid of an equal system of another name."""
    if not g.is_dominant(x):
        raise NonDominantError(f"{g.weight(x)} is not dominant for {rs}")
    if not g.is_integral(x):
        raise NonDominantError(
            f"{g.weight(x)} is not algebraically integral for {rs}")


def _dominant_weights(g: Grid, top: tuple) -> list:
    """The dominant weights of pi_nu on the grid g (top = D nu), by
    descending <., delta>.

    They are the dominant weights below nu (Humphreys, 21.3), and each is
    reached from nu through dominant weights one positive root at a time
    (Stembridge, "The partial order of dominant weights", Adv. Math. 136
    (1998), Cor. 2.7).  Ties keep the order of discovery.  x - alpha is
    dominant iff no pairing of x with a simple root, less alpha's, is < 0.
    """
    def pairings(x: tuple) -> tuple:
        return tuple(sum(x[k] * c for k, c in support)
                     for support, _ in g.supports)

    steps = [(alpha, pairings(alpha)) for alpha in g.positive]
    found, seen = [top], {top: pairings(top)}  # seen: weight -> pairings
    for x in found:
        for alpha, drop in steps:
            lower = tuple(map(sub, seen[x], drop))
            if min(lower, default=0) >= 0:
                y = tuple(map(sub, x, alpha))
                if y not in seen:
                    seen[y] = lower
                    found.append(y)
    delta = g.delta
    return sorted(found, key=lambda x: sum(map(mul, x, delta)), reverse=True)


def _refined_grid(rs: RootSystem, weights) -> Grid:
    """The grid of rs refined by the denominators of the weights; grid(rs)
    itself when they divide its scale, so that tables share one key."""
    g = grid(rs)
    scale = math.lcm(g.scale, *(c.denominator for w in weights for c in w))
    return g if scale == g.scale else grid(rs, scale)


def _highest_weight_point(rs: RootSystem, nu: Weight) -> tuple:
    """(g, D nu) on the grid g of rs refined by the denominators of nu,
    checked by ``_check_highest_weight``; first a nu of the wrong length
    raises DimensionError, and a root twice another (Freudenthal and Weyl's
    product need a reduced system) UnsupportedRootSystemError."""
    if len(nu) != rs.rank:
        raise DimensionError(f"weight length {len(nu)} vs rank {rs.rank}")
    g = _refined_grid(rs, [nu])
    if len(g.reduced) < len(g.positive):
        twice = next(a for k, a in enumerate(rs.positive_roots)
                     if k not in g.reduced)
        raise UnsupportedRootSystemError(
            f"{rs} is not reduced: its root {twice} is twice the root "
            f"{Weight(c / 2 for c in twice)}")
    x = g.point(nu)
    _check_highest_weight(rs, g, x)
    return g, x


# grid: a Grid, on which a key x of terms is the weight x / grid.scale;
# terms: {D w: multiplicity of w}, zeros absent
WeightTable = namedtuple("WeightTable", "grid terms")


def weight_table(rs: RootSystem, nu: Weight) -> WeightTable:
    """The weight multiplicities of pi_nu on the grid of rs, refined by the
    denominators of nu (an A-family nu such as 2/3,-1/3,-1/3 needs 3).

    nu must be dominant; integrality against any particular lattice is
    deliberately not required (spin representations are half-integral)."""
    return grid_table(*_highest_weight_point(rs, Weight(nu)))


@lru_cache(maxsize=None)
def grid_table(g: Grid, top: tuple) -> WeightTable:
    """The WeightTable of pi_nu for a checked highest weight top = D nu on
    g; cached per grid point.

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
    delta = g.delta

    def norm_shifted(x: tuple) -> int:
        return sum((a + d) ** 2 for a, d in zip(x, delta))

    target = norm_shifted(top)
    table: dict[tuple, int] = {}
    norms = [(alpha, sum(c * c for c in alpha)) for alpha in g.positive]
    for x in _dominant_weights(g, top):
        value = 1
        if x != top:
            acc = 0
            for alpha, norm in norms:
                cur = tuple(map(add, x, alpha))
                pairing = sum(map(mul, cur, alpha))  # grows by norm a step
                while cur in table:
                    acc += table[cur] * pairing
                    pairing += norm
                    cur = tuple(map(add, cur, alpha))
            gap = target - norm_shifted(x)
            if gap <= 0 or acc <= 0 or 2 * acc % gap:
                raise ConsistencyError(
                    f"Freudenthal produced {2 * acc}/{gap} at {g.weight(x)}")
            value = 2 * acc // gap
        for image in orbit(g, x)[0]:
            table[image] = value
    return WeightTable(g, table)


def grid_dim(rs: RootSystem, g: Grid, x: tuple) -> int:
    """Dimension of pi_nu by Weyl's product formula (Humphreys, 24.3) for
    x = D nu on g, a grid of rs: prod <D (nu + delta), D alpha> over
    Delta^+ divided exactly by prod <D delta, D alpha>.  A remainder or a
    quotient that is not positive raises ConsistencyError naming rs."""
    shifted = tuple(map(add, x, g.delta))
    top = bottom = 1
    for alpha in g.positive:
        top *= sum(map(mul, shifted, alpha))
        bottom *= sum(map(mul, g.delta, alpha))
    if top % bottom or top // bottom <= 0:
        raise ConsistencyError(f"Weyl dimension formula gave {top}/{bottom} "
                               f"for {g.weight(x)} in {rs}")
    return top // bottom


def weyl_dim(rs: RootSystem, nu: Weight) -> int:
    """Dimension of pi_nu by ``grid_dim`` on the grid of ``weight_table``."""
    return grid_dim(rs, *_highest_weight_point(rs, Weight(nu)))


# -- decomposition by straightening ----------------------------------------

def alternant_sums(g: Grid, terms: dict[tuple, int]) -> dict[tuple, int]:
    """{p: m} with sum_x terms[x] A_(x + delta) = sum_p m A_p on g, over
    strictly dominant p = D (nu + delta), A_p = sum_w sgn(w) e^(w p): each
    x + delta is walked into the dominant chamber, and the end point p
    gets (-1)^steps * terms[x], a singular one nothing.  For a
    W-invariant character the alternants sum to it times the Weyl
    denominator, so m is the multiplicity of pi_nu (Racah-Speiser); m may
    be 0 or negative, which the caller judges."""
    delta = g.delta
    sums: dict[tuple, int] = {}
    for x, c in terms.items():
        steps, p = dominant_walk(tuple(map(add, x, delta)), g)
        if g.is_dominant(p, strict=True):
            sums[p] = sums.get(p, 0) + (-1) ** len(steps) * c
    return sums


def _reflection_invariant(g: Grid, i: int, counts: dict) -> bool:
    """Whether counts ({x: n} on g) is invariant under the reflection s in
    the i-th simple root of g.  Each x with a positive pairing goes through
    ``Grid.reflect`` (which tests its integrality) and must have its count
    at s x; then s maps those points one-to-one into the points with a
    negative pairing, onto them when there are as many of each, and fixes
    the points on the wall.  So each pair {x, s x} is looked up once."""
    support = g.supports[i][0]
    above = below = 0
    for x, n in counts.items():
        dot = 0
        for k, c in support:
            dot += x[k] * c
        if dot > 0:
            if counts.get(g.reflect(x, i)) != n:
                return False
            above += 1
        elif dot < 0:
            below += 1
    return above == below


def _straighten(rs: RootSystem, g: Grid,
                terms: dict[tuple, int]) -> dict[Weight, int]:
    """Multiplicities m_nu with sum_x terms[x] e^(x / D) = sum m_nu times
    the character of pi_nu (``weight_table(rs, nu)``), for a character
    on g, a grid of rs; messages name rs, not an equal ``g.rs``.

    Straightening (``alternant_sums``): m at nu is the sum at
    p = D (nu + delta).  A non-integral support weight raises
    NonDominantError before any reflection, a non-invariant ch
    (``_reflection_invariant`` per simple root) SymmetryError, a negative
    m DecompositionError.  Only the nu of the result become ``Weight``s.
    """
    for x in terms:
        if not g.is_integral(x):
            raise NonDominantError(
                f"{g.weight(x)} is not algebraically integral for {rs}")
    for i, a in enumerate(rs.simple_roots):
        if not _reflection_invariant(g, i, terms):
            raise SymmetryError(
                f"character is not invariant under reflection in {a}")
    result = {}
    for p, m in alternant_sums(g, terms).items():
        if not m:
            continue
        x = tuple(map(sub, p, g.delta))
        nu = g.weight(x)
        if m < 0:
            raise DecompositionError(
                f"negative multiplicity {m} at {nu}: character is not "
                f"a nonnegative combination of irreducibles")
        _check_highest_weight(rs, g, x)
        result[nu] = m
    return result


def tensor(rs: RootSystem, nu1: Weight, nu2: Weight) -> dict[Weight, int]:
    """pi_nu1 (x) pi_nu2 decomposed into irreducibles: the product of the
    two integer weight tables, rescaled to a common grid, straightened."""
    t1, t2 = weight_table(rs, Weight(nu1)), weight_table(rs, Weight(nu2))
    scale = math.lcm(t1.grid.scale, t2.grid.scale)
    f1, f2 = scale // t1.grid.scale, scale // t2.grid.scale
    second = [(tuple(f2 * c for c in y), n) for y, n in t2.terms.items()]
    product: dict[tuple, int] = {}
    for x, m in t1.terms.items():
        x = tuple(f1 * c for c in x)
        for y, n in second:
            key = tuple(map(add, x, y))
            product[key] = product.get(key, 0) + m * n
    return _straighten(rs, grid(rs, scale), product)


# -- branching ---------------------------------------------------------------

def branch_equal_rank(pair: SymmetricPair, nu: Weight) -> dict[Weight, int]:
    """Restrict pi_nu to the subgroup side of an equal-rank pair.

    The maximal torus is shared, so restriction is reinterpretation of the
    same weight table, straightened against Delta_h on the same grid.
    """
    nu = Weight(nu)
    rs = pair.root_system
    if not rs.is_dominant(nu):
        raise NonDominantError(f"{nu} is not dominant for {rs}")
    g = grid(rs)
    if not g.contains(pair.lattice_F1, g.locate(nu)):
        raise ValueError(f"{nu} is not in F1 for pair {pair.name}")
    table = weight_table(rs, nu)
    result = _straighten(pair.h_system, grid(pair.h_system, table.grid.scale),
                         table.terms)
    total = sum(mult * weyl_dim(pair.h_system, w) for w, mult in result.items())
    if total != weyl_dim(rs, nu):
        raise ConsistencyError(
            f"branching of {nu} lost dimensions: {total} != {weyl_dim(rs, nu)}")
    return result
