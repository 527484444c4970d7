"""Characters on the integer grid of ``roots.grid``: int tuples D w, with
a factor D fixed per root system.

The character of an irreducible pi_nu is one cached integer weight table
per (root system, nu) (``weight_table``): the Freudenthal multiplicity
recursion evaluated on the dominant weights only, each value copied over
the Weyl orbit of its weight.  Dimensions come from Weyl's product formula
as a quotient of two integer products on the same grid, cross-checked
against the multiplicity mass in the tests.  Decomposition of an invariant
character on the grid is straightening (``_straighten``): each support
weight w is walked from w + delta into the dominant chamber, as the
theorem path walks lambda + delta; branching and tensor products
straighten the integer tables directly.  ``Weight``s appear only as
highest weights.  Half-integral highest weights are first-class; lattice
membership is only ever enforced against an explicit LatticeSpec.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, mul, sub
from typing import Dict, NamedTuple

from .errors import (ConsistencyError, DecompositionError, DimensionError,
                     NonDominantError, SymmetryError)
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


def _refined_grid(rs: RootSystem, weights) -> Grid:
    """The grid of rs, refined by the denominators of the weights."""
    return grid(rs, math.lcm(grid(rs).scale,
                             *(c.denominator for w in weights for c in w)))


def _highest_weight_point(rs: RootSystem, nu: Weight) -> tuple:
    """(g, D nu) on the grid g of rs refined by the denominators of nu,
    checked by ``_check_highest_weight``; a nu whose length is not the
    rank raises DimensionError first."""
    if len(nu) != rs.rank:
        raise DimensionError(f"weight length {len(nu)} vs rank {rs.rank}")
    g = _refined_grid(rs, [nu])
    x = g.point(nu)
    _check_highest_weight(rs, g, x)
    return g, x


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
    g, top = _highest_weight_point(rs, Weight(nu))
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
        for image in orbit(g, x):
            table[image] = value
    return WeightTable(g, table)


def weyl_dim(rs: RootSystem, nu: Weight) -> int:
    """Dimension of pi_nu by Weyl's product formula (Humphreys, 24.3) on
    the grid of ``weight_table``: prod <D (nu + delta), D alpha> over
    Delta^+ divided exactly by prod <D delta, D alpha>.  A remainder or a
    quotient that is not positive raises ConsistencyError."""
    nu = Weight(nu)
    g, x = _highest_weight_point(rs, nu)
    shifted = tuple(map(add, x, g.delta))
    top = bottom = 1
    for alpha in g.positive:
        top *= sum(map(mul, shifted, alpha))
        bottom *= sum(map(mul, g.delta, alpha))
    if top % bottom or top // bottom <= 0:
        raise ConsistencyError(
            f"Weyl dimension formula gave {top}/{bottom} for {nu} in {rs}")
    return top // bottom


# -- decomposition by straightening ----------------------------------------

def _straighten(terms: Dict[tuple, int], g: Grid) -> Dict[Weight, int]:
    """Multiplicities m_nu with sum_x terms[x] e^(x / D) = sum m_nu times
    the character of pi_nu (``weight_table(g.rs, nu)``), for a character
    on the grid g.

    Straightening (Racah-Speiser): by W-invariance, ch times the Weyl
    denominator alternates sum_w ch[w] e^(w + delta), so each w + delta is
    walked into the dominant chamber; a strictly dominant end point p adds
    (-1)^steps * ch[w] to m at p - delta, a singular one nothing.  A
    non-integral support weight raises NonDominantError before any
    reflection, a non-invariant ch SymmetryError, a negative m
    DecompositionError.  Only the nu of the result become ``Weight``s.
    """
    rs = g.rs
    for x in terms:
        if not g.is_integral(x):
            raise NonDominantError(
                f"{g.weight(x)} is not algebraically integral for {rs}")
    for i, a in enumerate(rs.simple_roots):
        for x, c in terms.items():
            if terms.get(g.reflect(x, i)) != c:
                raise SymmetryError(
                    f"character is not invariant under reflection in {a}")
    delta = g.delta
    sums: Dict[tuple, int] = {}
    for x, c in terms.items():
        steps, p = dominant_walk(tuple(map(add, x, delta)), g)
        if g.is_dominant(p, strict=True):
            nu = tuple(map(sub, p, delta))
            sums[nu] = sums.get(nu, 0) + (-1) ** len(steps) * c
    result = {}
    for x, m in sums.items():
        if not m:
            continue
        nu = g.weight(x)
        if m < 0:
            raise DecompositionError(
                f"negative multiplicity {m} at {nu}: character is not "
                f"a nonnegative combination of irreducibles")
        _check_highest_weight(rs, g, x)
        result[nu] = m
    return result


def tensor(rs: RootSystem, nu1: Weight, nu2: Weight) -> Dict[Weight, int]:
    """pi_nu1 (x) pi_nu2 decomposed into irreducibles: the product of the
    two integer weight tables, rescaled to a common grid, straightened."""
    t1, t2 = weight_table(rs, Weight(nu1)), weight_table(rs, Weight(nu2))
    scale = math.lcm(t1.grid.scale, t2.grid.scale)
    f1, f2 = scale // t1.grid.scale, scale // t2.grid.scale
    second = [(tuple(f2 * c for c in y), n) for y, n in t2.terms.items()]
    product: Dict[tuple, int] = {}
    for x, m in t1.terms.items():
        x = tuple(f1 * c for c in x)
        for y, n in second:
            key = tuple(map(add, x, y))
            product[key] = product.get(key, 0) + m * n
    return _straighten(product, grid(rs, scale))


# -- branching ---------------------------------------------------------------

def branch_equal_rank(pair: SymmetricPair, nu: Weight) -> Dict[Weight, int]:
    """Restrict pi_nu to the subgroup side of an equal-rank pair.

    The maximal torus is shared, so restriction is reinterpretation of the
    same weight table, straightened against Delta_h on the same grid.
    """
    nu = Weight(nu)
    rs = pair.root_system
    if not rs.is_dominant(nu):
        raise NonDominantError(f"{nu} is not dominant for {rs}")
    if not grid(rs).contains(pair.lattice_F1, nu):
        raise ValueError(f"{nu} is not in F1 for pair {pair.name}")
    table = weight_table(rs, nu)
    result = _straighten(table.terms, grid(pair.h_system, table.grid.scale))
    total = sum(mult * weyl_dim(pair.h_system, w) for w, mult in result.items())
    if total != weyl_dim(rs, nu):
        raise ConsistencyError(
            f"branching of {nu} lost dimensions: {total} != {weyl_dim(rs, nu)}")
    return result
