"""The ``Fraction`` references of the root, lattice and pair layer, which
the library runs on the integer grid (``roots.Grid``), and the helpers the
tests share: the dot product of ``Weight``s (``inner_product``), and from
it alone the simple reflections and the walk into the dominant chamber on
``Weight``s, the Weyl action by words, the
breadth-first orbit, the walk on the grid, half-sums,
residues, lattice membership and integrality, the solver
behind the simple coefficients, Weyl's product formula and Bott's index,
the W_1 filter, the pair checks, and two pairs no registry name
reaches.  ``listed_group``
lists ``roots.weyl_group`` once per session for each root system.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from dirackernel.errors import (ConsistencyError, DimensionError,
                                GroupOrderLimitError)
from dirackernel.lattice import HALF, LatticeSpec, Weight
from dirackernel.roots import (ORBIT_LIMIT, Grid, RootSystem, WeylElement,
                               weyl_group)
from dirackernel.sympair import SymmetricPair, W1Element, admissible_mu


def W(text: str) -> Weight:
    return Weight.parse(text)


def inner_product(a: Weight, b: Weight) -> Fraction:
    """Euclidean dot product in the e-basis, exact: the ``Fraction``
    reference for the integer dot products the library takes on the grid.

    The ambient inner product is fixed up to positive scale; every test it
    serves (dominance, Casimir-shell equality) is invariant under that
    rescaling, so the convention-free dot product is used throughout.
    """
    if len(a) != len(b):
        raise DimensionError(f"weight length mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@lru_cache(maxsize=None)
def listed_group(rs: RootSystem) -> tuple:
    """``weyl_group(rs)``, listed once per session: equal root systems share
    one listing."""
    return weyl_group(rs)


@lru_cache(maxsize=None)
def _coroots(rs: RootSystem) -> tuple:
    # a^ = 2a / <a, a> for each simple root a
    return tuple(a * (2 / inner_product(a, a)) for a in rs.simple_roots)


def reference_reflect(rs: RootSystem, v: Weight, i: int) -> Weight:
    """s_a(v) = v - <v, a^> a for the i-th simple root a, by
    ``inner_product`` on ``Fraction`` weights: the reference for
    ``Grid.reflect``."""
    return v - rs.simple_roots[i] * inner_product(v, _coroots(rs)[i])


def reference_walk(w: Weight, rs: RootSystem) -> tuple:
    """(steps, dominant): w reflected (``reference_reflect``) in the first
    simple root it pairs negatively with, rescanning from the first after
    each step, until none does, so s_steps[-1] ... s_steps[0] w =
    dominant: the ``Fraction`` reference for ``Grid.walk``."""
    steps = []
    i = 0
    while i < len(rs.simple_roots):
        if inner_product(w, rs.simple_roots[i]) < 0:
            w = reference_reflect(rs, w, i)
            steps.append(i)
            i = 0
        else:
            i += 1
    return tuple(steps), w


def act(element: WeylElement, v: Weight) -> Weight:
    """s_word[0] ... s_word[-1] v for the word of the element (the
    rightmost reflection first)."""
    if len(v) != element.rs.rank:
        raise DimensionError(
            f"weight length {len(v)} vs rank {element.rs.rank}")
    for i in reversed(element.word):
        v = reference_reflect(element.rs, v, i)
    return v


def group_images(rs: RootSystem, weights) -> dict:
    """{element: (its images of the weights)} over ``listed_group(rs)``: an
    element's images are those of its parent, the element whose word drops
    the first letter, reflected once.  The orbit words are suffix-closed, so
    every parent comes first when the group is taken by word length."""
    by_word = {(): tuple(weights)}
    table = {}
    for element in sorted(listed_group(rs), key=lambda w: len(w.word)):
        word = element.word
        if word:
            by_word[word] = tuple(reference_reflect(rs, v, word[0])
                                  for v in by_word[word[1:]])
        table[element] = by_word[word]
    return table


def identity(rs: RootSystem) -> WeylElement:
    """The identity of the Weyl group of rs: the empty word, image delta."""
    return WeylElement(rs, (), rs.delta)


def reference_element(rs: RootSystem, word) -> WeylElement:
    """The element of the word, its image of delta replayed on ``Fraction``
    weights (``reference_reflect``, the rightmost reflection first): the
    reference for ``WeylElement.from_word``."""
    word = tuple(word)
    image = rs.delta
    for i in reversed(word):
        image = reference_reflect(rs, image, i)
    return WeylElement(rs, word, image)


def inverse(element: WeylElement) -> WeylElement:
    """The inverse element: the reversed word."""
    return reference_element(element.rs, reversed(element.word))


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """w1 after w2, with a reduced word read off its image."""
    image = act(w1, w2.image)
    return WeylElement(w1.rs, reference_walk(image, w1.rs)[0], image)


def dominant_representative(w: Weight, rs: RootSystem):
    """Return (element, dominant, regular) with element * w = dominant.

    The element comes from ``reference_walk``.  When the result is regular
    (strictly dominant), it is the unique Weyl element moving w into the
    open chamber.
    """
    if len(w) != rs.rank:
        raise DimensionError(f"weight length {len(w)} vs rank {rs.rank}")
    steps, dominant = reference_walk(w, rs)
    regular = all(inner_product(dominant, a) > 0 for a in rs.simple_roots)
    return reference_element(rs, steps[::-1]), dominant, regular


def reference_orbit(rs: RootSystem, v: Weight,
                    limit: int = ORBIT_LIMIT) -> dict:
    """The W-orbit of the weight v as {image: word}, with s_word[0] ...
    s_word[-1] v = image, on ``Fraction``s: breadth-first from any v,
    every image reflected in every simple root, generators in index order,
    a new image's word being the generator prepended to its parent's.  The
    reference for ``roots.orbit``, which walks down from a dominant start
    on the grid."""
    seen = {v: ()}
    frontier = [v]
    while frontier:
        new_frontier = []
        for u in frontier:
            word = seen[u]
            for i in range(len(rs.simple_roots)):
                image = reference_reflect(rs, u, i)
                if image not in seen:
                    seen[image] = (i,) + word
                    new_frontier.append(image)
                    if len(seen) > limit:
                        raise GroupOrderLimitError(
                            f"group closure exceeded limit {limit}")
        frontier = new_frontier
    return seen


def reference_grid_walk(g: Grid, x: tuple) -> tuple:
    """(steps, dominant) for the int tuple x on g, walked as ``Grid.walk``
    walks it, but through the checked ``Grid.coroot_pairing`` of every
    simple root it scans and ``Grid.reflect``: the reference for the
    inline walk."""
    steps = []
    i = 0
    while i < len(g.supports):
        if g.coroot_pairing(x, i) < 0:
            x = g.reflect(x, i)
            steps.append(i)
            i = 0
        else:
            i += 1
    return tuple(steps), x


def reference_half_sum(roots, rank: int) -> Weight:
    """Half the sum of the roots, added as ``Fraction`` weights."""
    return sum(roots, Weight.zero(rank)) * HALF


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


def integers_and_half_integers(rank: int) -> LatticeSpec:
    """Z^m union (Z + 1/2)^m."""
    return LatticeSpec(rank, [Weight.zero(rank), Weight([HALF] * rank)])


def reference_w_stable(rs: RootSystem, lattice: LatticeSpec) -> bool:
    """Each generator of the lattice (each e_k and each coset shift),
    reflected in each simple root (``reference_reflect``), lies in it:
    W-stability on ``Fraction`` weights.  ``sympair`` asks that F be an
    integral group holding the roots, which implies it."""
    generators = [*lattice.coset_shifts,
                  *(Weight.basis(lattice.rank, k) for k in range(lattice.rank))]
    return all(reference_contains(lattice, reference_reflect(rs, x, i))
               for x in generators for i in range(len(rs.simple_roots)))


def reference_solve(basis, vectors) -> list:
    """The coordinates of each vector over the vectors ``basis``, or None
    for one outside their span: one ``Fraction`` Gauss-Jordan elimination
    of the basis, with the vectors as right-hand sides, a basis vector
    that depends on earlier ones getting coordinate 0.  ``RootSystem``
    runs a fraction-free integer elimination instead (``roots._solve``)."""
    if not basis:  # builds no rows: the rank may be huge
        return [None if any(v) else () for v in vectors]
    ncols = len(basis)
    rows = [[Fraction(a[i]) for a in basis] + [Fraction(v[i]) for v in vectors]
            for i in range(len(basis[0]))]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
        r += 1
    result = []
    for j in range(ncols, ncols + len(vectors)):
        coeffs = [Fraction(0)] * ncols
        for i, c in enumerate(pivots):
            coeffs[c] = rows[i][j]
        outside = any(row[j] for row in rows[r:])
        result.append(None if outside else tuple(coeffs))
    return result


def simple_coefficients(rs: RootSystem, vector: Weight) -> tuple:
    """Coordinates of ``vector`` in the simple-root basis, by the
    ``Fraction`` reference solver; ValueError when the vector is outside
    the span."""
    (coeffs,) = reference_solve(rs.simple_roots, [vector])
    if coeffs is None:
        raise rs._outside_span(vector)
    return coeffs


def reference_simple_data(rs: RootSystem) -> tuple:
    """(simple_index, coefficients) on ``Fraction`` weights: the positive
    roots that are no sum of two, found by adding ``Weight``s, and the
    coefficients of every positive root from the ``Fraction`` solver."""
    roots = rs.positive_roots
    index = {a: k for k, a in enumerate(roots)}
    sums = {index[a + b] for i, a in enumerate(roots)
            for b in roots[i:] if a + b in index}
    simple_index = tuple(k for k in range(len(roots)) if k not in sums)
    solved = reference_solve([roots[k] for k in simple_index], roots)
    if not all(c.denominator == 1 and c >= 0 for cs in solved for c in cs):
        raise ConsistencyError(f"{rs} has a root off the simple cone")
    return simple_index, tuple(tuple(map(int, cs)) for cs in solved)


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


def reference_bott_index(pair: SymmetricPair, lam: Weight) -> Fraction:
    """Bott's index (-1)^m P(lambda + delta) on ``Fraction`` weights: P is
    the product over the positive roots alpha of <lambda + delta, alpha> /
    <delta, alpha>."""
    rs = pair.root_system
    delta = rs.delta
    shifted = Weight(lam) + delta
    result = Fraction((-1) ** pair.m)
    for alpha in rs.positive_roots:
        result *= inner_product(shifted, alpha) / inner_product(delta, alpha)
    return result


def deltas(pair: SymmetricPair):
    """(delta, delta_h, delta_p); checks delta = delta_h + delta_p."""
    d, dh, dp = pair.delta, pair.delta_h, pair.delta_p
    if d != dh + dp:
        raise ConsistencyError(
            f"delta = {d} differs from delta_h + delta_p = {dh + dp}")
    return d, dh, dp


def admissible_box(pair: SymmetricPair, box: int):
    """(lambda, mu = lambda + delta_p) for every admissible mu with
    |lambda_i| <= box, lambda in lex order."""
    for coords in itertools.product(range(-box, box + 1), repeat=pair.rank):
        lam = Weight(coords)
        mu = lam + pair.delta_p
        if admissible_mu(pair, mu):
            yield lam, mu


def half_integers(rank: int) -> LatticeSpec:
    """(1/2 Z)^m: every shift in {0, 1/2}^m."""
    return LatticeSpec(rank, itertools.product((0, HALF), repeat=rank))


def quarter_delta_pair() -> SymmetricPair:
    # B2 scaled by 1/2 with h = {(0, 1/2)} has delta = (3/4, 1/4), so
    # D (nu + delta) is integral for D = 4 and not for D = 2; F = F1 =
    # (1/2 Z)^2 holds the roots
    half = Fraction(1, 2)
    rs = RootSystem(2, [(half, -half), (half, half), (half, 0), (0, half)])
    both = half_integers(2)
    return SymmetricPair(rs, [(0, half)], both, both, name="b2_half")


def half_c2_pair() -> SymmetricPair:
    # C2 scaled by 1/2 with h = the long roots 1,0 and 0,1: the grid of G
    # needs D = 4 and that of Delta_h only 2, so the chi split runs on the
    # subgroup's grid at G's scale, not at its own; F = Z^2 u ((1/2,1/2) +
    # Z^2) holds the short roots (1/2, +-1/2)
    half = Fraction(1, 2)
    rs = RootSystem(2, [(half, -half), (half, half), (1, 0), (0, 1)])
    return SymmetricPair(rs, [(1, 0), (0, 1)],
                         LatticeSpec(2, [(0, 0), (half, half)]),
                         half_integers(2), name="c2_half")


def reference_w1(pair: SymmetricPair) -> tuple:
    """W_1 filtered out of the listed Weyl group on ``Fraction`` weights:
    each sigma whose image sigma(delta) is strictly Delta_h-dominant, in
    image order, with its sign and delta_p^sigma = sigma(delta) - delta_h."""
    h_system = pair.h_system
    return tuple(
        W1Element(sigma, sigma.sign, sigma.image - pair.delta_h)
        for sigma in listed_group(pair.root_system)
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
