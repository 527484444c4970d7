"""Spinor representation data, by a combinatorial route from the pair
structure, on the integer grid of ``roots.grid``: the half-spin characters
chi^+ and chi^- ({D w: count}), multiplied out over Delta_p^+ one root at a
time with one dict per parity and equal points merged after each root, and
their components over Delta_h, each side straightened once
(``chi_components``) for the chi split and the oracle's extraction; the
2^m sign-vector rows, each the grid point D (1/2) sum eps_k alpha_k split
E+/E- by the parity of minus signs, listed only for the ``spinor`` table;
and the checks of chi^+- against a second computation: P_- = prod_{alpha
in Delta_p^+} (e^(alpha/2) - e^(-alpha/2)) = chi^+ - chi^-, the split over
W_1 (Parthasarathy), and the disjointness of the weights of E+ and E-.
``Weight``s appear only in the rows of the ``spinor`` table and in the
highest weights of the split.  The Clifford matrices that cross-check
these weights live with the tests (``tests/clifford_model.py``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, sub
from typing import Dict, NamedTuple, Sequence

from .characters import _check_highest_weight, alternant_sums
from .errors import ConsistencyError
from .lattice import Weight
from .roots import Grid, grid
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
    its number of rows, the sign vectors multiplied out one root at a time:
    with h = D alpha / 2, a row of parity s extends by +h to parity s and
    by -h to parity -s, and equal points merge after each root, so no 2^m
    list is built."""
    counts = {1: {(0,) * pair.rank: 1}, -1: {}}
    for half in _halves(pair):
        step: Dict[int, Dict[tuple, int]] = {1: {}, -1: {}}
        for parity, side in counts.items():
            same, flipped = step[parity], step[-parity]
            for x, n in side.items():
                y = tuple(map(add, x, half))
                same[y] = same.get(y, 0) + n
                y = tuple(map(sub, x, half))
                flipped[y] = flipped.get(y, 0) + n
        counts = step
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


def chi_trace_difference(pair: SymmetricPair) -> dict:
    """P_-, the product over Delta_p^+ of (e^(a/2) - e^(-a/2)), expanded on
    ``grid(pair.root_system)`` one binomial at a time.

    Equals chi^+ - chi^-, which is asserted here: the product is built
    apart from ``spinor_counts``, so it cross-checks the chi^+- that the
    other checks and the oracle's extraction read.
    """
    product = {(0,) * pair.rank: 1}
    for half in _halves(pair):
        product = times_binomial(product, half, tuple(-c for c in half), -1)
    counts = spinor_counts(pair)
    difference = dict(counts[1])
    for x, n in counts[-1].items():
        difference[x] = difference.get(x, 0) - n
    if product != {x: n for x, n in difference.items() if n}:
        raise ConsistencyError(
            "trace difference does not match the signed spinor-weight sum")
    return product


@lru_cache(maxsize=None)
def chi_components(pair: SymmetricPair, side: int) -> tuple:
    """The components (p, n) of chi^side = sum n ch_h(tau), p = D (tau +
    delta_h) on the subgroup's grid at G's scale: chi^side straightened
    against Delta_h (``alternant_sums``), a negative n raising; cached per
    pair and side.  The oracle's extraction reads them, and
    ``chi_decompose`` checks them against W_1."""
    g = grid(pair.root_system)
    h = grid(pair.h_system, g.scale)
    components = alternant_sums(h, spinor_counts(pair)[side])
    for p, n in components.items():
        if n < 0:
            raise ConsistencyError(
                f"half-spin character has multiplicity {n} at the "
                f"subgroup irreducible {h.weight(tuple(map(sub, p, h.delta)))}")
    return tuple((p, n) for p, n in components.items() if n)


def _reflection_invariant(h: Grid, i: int, counts: dict) -> bool:
    """Whether counts ({x: n} on h) is invariant under the reflection s in
    the i-th simple root of h.  Each x with a positive pairing goes through
    ``Grid.reflect`` (which tests its integrality) and must have its count
    at s x; then s maps those points one-to-one into the points with a
    negative pairing, onto them when there are as many of each, and fixes
    the points on the wall."""
    support = h.supports[i][0]
    above = below = 0
    for x, n in counts.items():
        dot = 0
        for k, c in support:
            dot += x[k] * c
        if dot > 0:
            if counts.get(h.reflect(x, i)) != n:
                return False
            above += 1
        elif dot < 0:
            below += 1
    return above == below


def chi_decompose(pair: SymmetricPair):
    """Split chi^+ and chi^- into irreducibles over W_1.

    Returns (plus, minus): maps delta_p^sigma -> 1 over the sign classes of
    W_1.  Verification: each delta_p^sigma is a highest weight for Delta_h
    (NonDominantError), each chi^side is W_H-invariant (equal counts at the
    reflections in the simple roots of Delta_h, ``_reflection_invariant``),
    and its components (``chi_components``) are the D (delta_p^sigma +
    delta_h) of its side, once each, which for an invariant character is
    chi^side = sum ch_h(delta_p^sigma).  Failure raises: it indicates a bad
    pair or bug.
    """
    split: Dict[int, Dict[Weight, int]] = {1: {}, -1: {}}
    for w1 in pair.w1:
        if w1.delta_p_sigma in split[w1.sign]:
            raise ConsistencyError(
                f"duplicate highest weight {w1.delta_p_sigma} in chi split")
        split[w1.sign][w1.delta_p_sigma] = 1
    h = grid(pair.h_system, grid(pair.root_system).scale)
    for side, mapping in split.items():
        name = "+" if side == 1 else "-"
        expected = {}
        for hw in mapping:
            x = h.point(hw)
            _check_highest_weight(pair.h_system, h, x)
            expected[tuple(map(add, x, h.delta))] = 1
        chi = spinor_counts(pair)[side]
        for i, a in enumerate(h.simple_roots):
            if not _reflection_invariant(h, i, chi):
                raise ConsistencyError(
                    f"chi^{name} is not invariant under reflection in {a}")
        if dict(chi_components(pair, side)) != expected:
            raise ConsistencyError(
                f"chi^{name} does not decompose over W1 with highest "
                f"weights {sorted(mapping)}")
    return split[1], split[-1]


def chi_disjointness_check(pair: SymmetricPair) -> None:
    """Raise ConsistencyError unless E+ and E- share no weight."""
    counts = spinor_counts(pair)
    overlap = counts[1].keys() & counts[-1].keys()
    if overlap:
        g = grid(pair.root_system)
        raise ConsistencyError(
            f"E+ and E- share weights: {sorted(map(g.weight, overlap))}")
