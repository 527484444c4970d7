"""Helpers that only the tests call, kept as test support: small
conveniences over the library types, the interleaving branching rule that
cross-checks ``branch_equal_rank``, the ``Fraction`` filter of W_1 out of
the whole Weyl group, the ``Fraction`` checks of a pair's validation, the
``Fraction`` product of Weyl's dimension formula and the ``Fraction``
half-sums, reduced roots, coset residues, lattice membership and
containment and the integrality of a weight, all of which the library now
runs on the integer grid (``roots.Grid``),
``dominant_representative`` and ``inverse``, which the kernel
classification once composed to find sigma, the quarter-delta pair, whose
grid needs D = 4, a half-scaled C2 pair whose subgroup's grid is coarser
than G's, and a pair on the non-reduced system BC1.
"""

from fractions import Fraction
from typing import Dict

from character_reference import FormalCharacter
from dirackernel.errors import (ConsistencyError, DimensionError,
                                NonDominantError)
from dirackernel.lattice import HALF, LatticeSpec, Weight, inner_product
from dirackernel.roots import (RootSystem, WeylElement, dominant_walk,
                               weyl_group)
from dirackernel.sympair import SymmetricPair, W1Element


def mass(ch) -> int:
    """Sum of multiplicities (the dimension, for a true character)."""
    return sum(ch.terms.values())


def support(ch) -> list:
    """The weights of ch with a nonzero coefficient, sorted."""
    return sorted(ch.terms)


def act(element: WeylElement, v: Weight) -> Weight:
    """s_word[0] ... s_word[-1] v for the word of the element (the
    rightmost reflection first)."""
    if len(v) != element.rs.rank:
        raise DimensionError(
            f"weight length {len(v)} vs rank {element.rs.rank}")
    for i in reversed(element.word):
        v = element.rs.reflect(v, i)
    return v


def apply(ch, element: WeylElement) -> FormalCharacter:
    """The Weyl action on a character: permutes the support, preserves the
    multiplicities."""
    return FormalCharacter(
        ch.rank, {act(element, w): c for w, c in ch.terms.items()})


def identity(rs: RootSystem) -> WeylElement:
    """The identity of the Weyl group of rs: the empty word, image delta."""
    return WeylElement(rs, (), rs.delta)


def inverse(element: WeylElement) -> WeylElement:
    """The inverse element: the reversed word."""
    return WeylElement.from_word(element.rs, reversed(element.word))


def dominant_representative(w: Weight, rs: RootSystem):
    """Return (element, dominant, regular) with element * w = dominant.

    The element comes from ``dominant_walk``.  When the result is regular
    (strictly dominant), it is the unique Weyl element moving w into the
    open chamber.
    """
    if len(w) != rs.rank:
        raise DimensionError(f"weight length {len(w)} vs rank {rs.rank}")
    steps, dominant = dominant_walk(w, rs)
    regular = rs.is_dominant(dominant, strict=True)
    return WeylElement.from_word(rs, steps[::-1]), dominant, regular


def reference_half_sum(roots, rank: int) -> Weight:
    """Half the sum of the roots, added as ``Fraction`` weights."""
    return sum(roots, Weight.zero(rank)) * HALF


def reference_reduced(rs: RootSystem) -> tuple:
    """The positions of the positive roots that are not twice another
    root, tested on ``Fraction`` weights."""
    roots = set(rs.positive_roots)
    return tuple(k for k, a in enumerate(rs.positive_roots)
                 if a * HALF not in roots)


def is_integer_vector(w: Weight) -> bool:
    """Every coordinate of w is an integer."""
    return all(c.denominator == 1 for c in w)


def reference_contains(lattice: LatticeSpec, w: Weight) -> bool:
    """w in the lattice on ``Fraction`` weights: w - s is an integer vector
    for some coset shift s.  ``Grid.contains`` is the library's test."""
    if len(w) != lattice.rank:
        raise DimensionError(
            f"weight length {len(w)} vs lattice rank {lattice.rank}")
    return any(is_integer_vector(w - s) for s in lattice.coset_shifts)


def reference_is_integral(rs: RootSystem, v: Weight) -> bool:
    """<v, a^> is an integer for every simple root a, on ``Fraction``
    weights.  ``Grid.is_integral`` is the library's test."""
    return all(rs.coroot_pairing(v, i).denominator == 1
               for i in range(len(rs.simple_roots)))


def is_sublattice(a: LatticeSpec, b: LatticeSpec) -> bool:
    """Point-set containment of a in b on ``Fraction`` weights: each coset
    shift of a lies in b."""
    if a.rank != b.rank:
        raise DimensionError("lattice ranks differ")
    return all(reference_contains(b, s) for s in a.coset_shifts)


def reference_residues(lattice: LatticeSpec) -> set:
    """The coset shifts of the lattice reduced mod Z^rank, as ``Fraction``
    weights."""
    return {Weight(c % 1 for c in s) for s in lattice.coset_shifts}


def simple_coefficients(rs: RootSystem, vector: Weight) -> tuple:
    """Coordinates of ``vector`` in the simple-root basis, by the solver
    that ``RootSystem`` runs on its positive roots; ValueError when the
    vector is outside the span."""
    (coeffs,) = rs._solve([vector])
    if coeffs is None:
        raise rs._outside_span(vector)
    return coeffs


def reference_weyl_dim(rs: RootSystem, nu: Weight) -> int:
    """Weyl's product formula on ``Fraction`` weights: the product over
    Delta^+ of <nu + delta, alpha> / <delta, alpha>."""
    delta = rs.delta
    result = Fraction(1)
    shifted = Weight(nu) + delta
    for alpha in rs.positive_roots:
        result *= inner_product(shifted, alpha) / inner_product(delta, alpha)
    if result.denominator != 1 or result <= 0:
        raise ConsistencyError(
            f"Weyl dimension formula gave {result} for {nu} in {rs}")
    return int(result)


def all_roots(rs: RootSystem) -> tuple:
    """The positive roots, then their negatives."""
    return rs.positive_roots + tuple(-a for a in rs.positive_roots)


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """w1 after w2, with a reduced word read off its image."""
    image = act(w1, w2.image)
    return WeylElement(w1.rs, dominant_walk(image, w1.rs)[0], image)


def integers_and_half_integers(rank: int) -> LatticeSpec:
    """Z^m union (Z + 1/2)^m."""
    return LatticeSpec(rank, [Weight.zero(rank), Weight([HALF] * rank)])


def deltas(pair: SymmetricPair):
    """(delta, delta_h, delta_p); checks delta = delta_h + delta_p."""
    d, dh, dp = pair.delta, pair.delta_h, pair.delta_p
    if d != dh + dp:
        raise ConsistencyError(
            f"delta = {d} differs from delta_h + delta_p = {dh + dp}")
    return d, dh, dp


def quarter_delta_pair() -> SymmetricPair:
    # B2 scaled by 1/2 with h = {(0, 1/2)} has delta = (3/4, 1/4), so
    # D (nu + delta) is integral for D = 4 and not for D = 2
    half = Fraction(1, 2)
    rs = RootSystem(2, [(half, -half), (half, half), (half, 0), (0, half)])
    both = integers_and_half_integers(2)
    return SymmetricPair(rs, [(0, half)], both, both, name="b2_half")


def half_c2_pair() -> SymmetricPair:
    # C2 scaled by 1/2 with h = the long roots 1,0 and 0,1: the grid of G
    # needs D = 4 and that of Delta_h only 2, so the subgroup's weight
    # tables in the chi split are rescaled onto the grid of G
    half = Fraction(1, 2)
    rs = RootSystem(2, [(half, -half), (half, half), (1, 0), (0, 1)])
    return SymmetricPair(rs, [(1, 0), (0, 1)], LatticeSpec.integers(2),
                         LatticeSpec(2, [(0, 0), (half, 0)]), name="c2_half")


def bc1_pair() -> SymmetricPair:
    # BC1, whose root 1 is twice the root 1/2, with h = {1}: W_1 is the
    # identity alone, and the reflection in 1 is the one in 1/2
    rs = RootSystem(1, [(HALF,), (1,)])
    return SymmetricPair(rs, [(1,)], LatticeSpec.integers(1),
                         integers_and_half_integers(1), name="bc1")


def reference_w1(pair: SymmetricPair) -> tuple:
    """W_1 filtered out of ``weyl_group`` on ``Fraction`` weights: each sigma
    whose image sigma(delta) is strictly Delta_h-dominant, in image order,
    with its sign and delta_p^sigma = sigma(delta) - delta_h."""
    h_system = pair.h_system
    return tuple(
        W1Element(sigma, sigma.sign, sigma.image - pair.delta_h)
        for sigma in weyl_group(pair.root_system)
        if h_system.is_dominant(sigma.image, strict=True))


def reference_pair_failures(rs: RootSystem, h_positive, lattice_F,
                            lattice_F1) -> list:
    """The checks of ``sympair.PAIR_CHECKS`` on ``Fraction`` weights, one
    "check: detail" per failed check, in order: bracket grading adds the
    roots as ``Weight``s and looks the sums up in sets of ``Weight``s, and
    the level parity tests membership in those sets.  ``validate_pair``
    runs the same checks on the grid, by the positions of the roots."""
    h_set = set(h_positive)
    p_set = {a for a in rs.positive_roots if a not in h_set}
    failures = []
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
              for alpha, coeffs in zip(rs.positive_roots, rs.coefficients)}
    wrong = [a for a, n_p in levels.items() if n_p % 2 != (a in p_set)]
    if wrong:
        failures.append(
            f"p_level_parity: root {wrong[0]} has p-level "
            f"{levels[wrong[0]]}, expected "
            f"{'odd' if wrong[0] in p_set else 'even'}")

    if not is_sublattice(lattice_F, lattice_F1):
        failures.append("lattice_containment: F is not contained in F1")
    return failures


def branch_interleave_BD(m: int, nu: Weight) -> Dict[Weight, int]:
    """Branching multiplicities for the odd/even orthogonal chain by the
    interleaving condition nu_1 >= a_1 >= nu_2 >= ... >= nu_m >= |a_m|.

    Components a run over the same integrality class as nu (all integers
    or all half-odd-integers), each with multiplicity one.  Independent of
    the character machinery; used as its cross-check.
    """
    nu = Weight(nu)
    if len(nu) != m:
        raise DimensionError(f"nu has length {len(nu)}, expected {m}")
    if not all(nu[i] >= nu[i + 1] for i in range(m - 1)) or nu[-1] < 0:
        raise NonDominantError(f"{nu} is not dominant for B{m}")
    frac = nu[0] - int(nu[0])
    if any(c - int(c) != frac for c in nu):
        raise ValueError(f"{nu} is not in a single integrality class")

    result: Dict[Weight, int] = {}

    def extend(k: int, prefix: tuple) -> None:
        if k == m - 1:
            upper = nu[m - 1]
            a = -upper
            while a <= upper:
                result[Weight(prefix + (a,))] = 1
                a += 1
            return
        lower, upper = nu[k + 1], nu[k]
        a = lower
        while a <= upper:
            extend(k + 1, prefix + (a,))
            a += 1

    extend(0, ())
    return result
