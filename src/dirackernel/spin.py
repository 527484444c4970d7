"""Spinor representation data, by a combinatorial route from the pair
structure, on the integer grid of ``roots.grid``: the 2^m sign-vector rows
over an enumeration of Delta_p^+, each the grid point D (1/2) sum eps_k
alpha_k, split E+/E- by the parity of minus signs and counted into the
half-spin characters chi^+ and chi^- ({D w: count}); the binomial products
P_+- = prod_{alpha in Delta_p^+} (e^(alpha/2) +- e^(-alpha/2)), which the
oracle's extraction kernel reads; and the checks of chi^+- against them:
P_- = chi^+ - chi^-, the split of chi^+ and chi^- over W_1 into integer
weight tables of the subgroup (Parthasarathy), and the disjointness of the
weights of E+ and E-.  ``Weight``s appear only in the rows of the
``spinor`` table and in the highest weights of the split.  The explicit
Clifford matrices that cross-check these weights live with the tests
(``tests/clifford_model.py``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, sub
from typing import Dict, NamedTuple, Sequence

from .characters import weight_table
from .errors import ConsistencyError
from .lattice import Weight
from .roots import grid
from .sympair import SymmetricPair


# -- combinatorial spinor weights -------------------------------------------

class SpinorWeightEntry(NamedTuple):
    epsilon: tuple  # in {+1, -1}^m
    weight: Weight
    parity: int  # +1 for E+, -1 for E-


class SpinorWeights(NamedTuple):
    entries: tuple


def _halves(pair: SymmetricPair) -> tuple:
    """D alpha / 2 for alpha in Delta_p^+, in pair order."""
    g = grid(pair.root_system)
    return tuple(g.half_sum((k,)) for k in pair.p_index)


def _rows(halves: Sequence[tuple], rank: int) -> list:
    """(x, parity) per sign vector eps over the roots, x = sum eps_k h_k, in
    ``itertools.product((1, -1), repeat=m)`` order: each row over the first
    k roots is extended by +h, then by -h."""
    rows = [((0,) * rank, 1)]
    for half in halves:
        rows = [row for x, parity in rows
                for row in ((tuple(map(add, x, half)), parity),
                            (tuple(map(sub, x, half)), -parity))]
    return rows


def spinor_weights(pair: SymmetricPair) -> SpinorWeights:
    """One entry per sign vector over Delta_p^+ (in pair order): the weight
    (1/2) sum eps_k alpha_k, tagged with its E+/E- parity."""
    g = grid(pair.root_system)
    weights: Dict[tuple, Weight] = {}  # one Weight per distinct point
    entries = []
    signs = itertools.product((1, -1), repeat=pair.m)
    for eps, (x, parity) in zip(signs, _rows(_halves(pair), pair.rank)):
        weight = weights.get(x)
        if weight is None:
            weight = weights[x] = g.weight(x)
        entries.append(SpinorWeightEntry(eps, weight, parity))
    return SpinorWeights(tuple(entries))


@lru_cache(maxsize=None)
def spinor_counts(pair: SymmetricPair) -> dict:
    """{side: chi^side} for side = +1, -1: each grid point of E^side with
    its number of rows."""
    counts: Dict[int, Dict[tuple, int]] = {1: {}, -1: {}}
    for x, parity in _rows(_halves(pair), pair.rank):
        side = counts[parity]
        side[x] = side.get(x, 0) + 1
    return counts


def times_binomial(poly: dict, x: tuple, y: tuple, c: int) -> dict:
    """poly * (e^x + c e^y) on grid points, equal keys merged and zeros
    dropped."""
    out: Dict[tuple, int] = {}
    for k, v in poly.items():
        kx = tuple(map(add, k, x))
        out[kx] = out.get(kx, 0) + v
        ky = tuple(map(add, k, y))
        out[ky] = out.get(ky, 0) + c * v
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def binomial_products(pair: SymmetricPair) -> tuple:
    """(P_+, P_-) on ``grid(pair.root_system)``, with P_+- = prod over
    Delta_p^+ of (e^(alpha/2) +- e^(-alpha/2)), built one binomial at a
    time from Delta_p^+ alone."""
    zero = (0,) * pair.rank
    plus = minus = {zero: 1}
    for half in _halves(pair):
        down = tuple(-c for c in half)
        plus = times_binomial(plus, half, down, 1)
        minus = times_binomial(minus, half, down, -1)
    return plus, minus


def chi_trace_difference(pair: SymmetricPair) -> dict:
    """P_-, the product over Delta_p^+ of (e^(a/2) - e^(-a/2)), expanded on
    ``grid(pair.root_system)``.

    Equals chi^+ - chi^-, which is asserted here since both are cheap.
    """
    product = binomial_products(pair)[1]
    counts = spinor_counts(pair)
    difference = dict(counts[1])
    for x, n in counts[-1].items():
        difference[x] = difference.get(x, 0) - n
    if product != {x: n for x, n in difference.items() if n}:
        raise ConsistencyError(
            "trace difference does not match the signed spinor-weight sum")
    return product


def chi_decompose(pair: SymmetricPair):
    """Split chi^+ and chi^- into irreducibles over W_1.

    Returns (plus, minus): maps delta_p^sigma -> 1 over the sign classes of
    W_1.  Verification: on each side, the sum of the integer weight tables
    of the subgroup irreducibles equals the counted rows exactly; failure
    raises, since it indicates a bad pair or bug.
    """
    plus: Dict[Weight, int] = {}
    minus: Dict[Weight, int] = {}
    for w1 in pair.w1:
        target = plus if w1.sign == 1 else minus
        if w1.delta_p_sigma in target:
            raise ConsistencyError(
                f"duplicate highest weight {w1.delta_p_sigma} in chi split")
        target[w1.delta_p_sigma] = 1
    counts = spinor_counts(pair)
    scale = grid(pair.root_system).scale
    for side, mapping in ((1, plus), (-1, minus)):
        total: Dict[tuple, int] = {}
        for hw in mapping:
            # delta_p^sigma lies on the grid of G, and the grid of the
            # subgroup divides it, so the table's scale divides D
            table = weight_table(pair.h_system, hw)
            f = scale // table.grid.scale
            for x, n in table.terms.items():
                x = tuple(f * c for c in x)
                total[x] = total.get(x, 0) + n
        if total != counts[side]:
            raise ConsistencyError(
                f"chi^{'+' if side == 1 else '-'} does not decompose over "
                f"W1 with highest weights {sorted(mapping)}")
    return plus, minus


def chi_disjointness_check(pair: SymmetricPair) -> None:
    """Raise ConsistencyError unless E+ and E- share no weight."""
    counts = spinor_counts(pair)
    overlap = counts[1].keys() & counts[-1].keys()
    if overlap:
        g = grid(pair.root_system)
        raise ConsistencyError(
            f"E+ and E- share weights: {sorted(map(g.weight, overlap))}")
