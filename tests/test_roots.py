import itertools
import pickle
import random
import re
import sys
from fractions import Fraction
from functools import partial
from operator import add

import pytest

import dirackernel.dirac as dirac
import dirackernel.roots as roots
from corpus import CORPUS, W1_PAIRS, corpus_pair
from dirackernel.characters import weyl_product
from dirackernel.errors import (ConsistencyError, GroupOrderLimitError,
                                NonDominantError, UnsupportedRootSystemError)
from dirackernel.lattice import HALF, Weight
from dirackernel.roots import (Grid, RootSystem, WeylElement, _solve,
                               build_classical, classical_dimension, grid,
                               orbit, root_sums, weyl_group, weyl_order)
from dirackernel.spin import spinor_counts
from dirackernel.sympair import builtin_pair, builtin_pair_names
from reference_roots import (W, act, admissible_box, compose,
                             dominant_representative, group_images,
                             half_c2_pair, identity, inner_product, inverse,
                             is_sublattice, quarter_delta_pair,
                             reference_contains, reference_element,
                             reference_grid_walk, reference_half_sum,
                             reference_orbit, reference_residues, reference_simple_data,
                             reference_solve, simple_coefficients)


# the pairs of the Borel-de Siebenthal rule: the built-ins and the corpus
MARKED_PAIRS = ([builtin_pair(name) for name in builtin_pair_names()]
                + [corpus_pair(*node) for node in CORPUS])


class TestBuildClassical:
    def test_b1(self):
        rs = build_classical("B", 1)
        assert rs.positive_roots == (W("1"),)

    def test_b2(self):
        rs = build_classical("B", 2)
        assert set(rs.positive_roots) == {W("1,-1"), W("1,1"), W("1,0"), W("0,1")}
        assert set(rs.simple_roots) == {W("1,-1"), W("0,1")}

    def test_d2(self):
        rs = build_classical("D", 2)
        assert set(rs.positive_roots) == {W("1,-1"), W("1,1")}
        # reducible: both roots are simple
        assert set(rs.simple_roots) == {W("1,-1"), W("1,1")}

    def test_a2_lives_in_three_coordinates(self):
        rs = build_classical("A", 2)
        assert rs.rank == 3
        assert len(rs.positive_roots) == 3
        assert set(rs.simple_roots) == {W("1,-1,0"), W("0,1,-1")}

    def test_c3_long_roots(self):
        rs = build_classical("C", 3)
        assert W("2,0,0") in rs.positive_roots
        assert len(rs.positive_roots) == 9

    def test_rejects_bad_input(self):
        with pytest.raises(UnsupportedRootSystemError):
            build_classical("E", 8)
        with pytest.raises(UnsupportedRootSystemError):
            build_classical("D", 1)
        with pytest.raises(UnsupportedRootSystemError):
            build_classical("B", 0)

    def test_positive_roots_decompose_over_simples(self):
        for family, rank in [("A", 2), ("B", 3), ("C", 2), ("D", 3)]:
            rs = build_classical(family, rank)
            for alpha in rs.positive_roots:
                coeffs = simple_coefficients(rs, alpha)
                assert all(c.denominator == 1 and c >= 0 for c in coeffs)
                rebuilt = sum((s * c for s, c in zip(rs.simple_roots, coeffs)),
                              Weight.zero(rs.rank))
                assert rebuilt == alpha

    def test_rejects_root_outside_half_integers(self):
        with pytest.raises(ValueError, match="outside 1/2 Z"):
            RootSystem(1, [W("1/3")])

    @pytest.mark.parametrize("rank,roots,message", [
        # BC1, in either order, and BC2: the root system of a compact Lie
        # algebra has no root twice another, so none is built
        (1, ["1/2", "1"], "root 1 is twice the root 1/2"),
        (1, ["1", "1/2"], "root 1 is twice the root 1/2"),
        (2, ["1,-1", "1,1", "1,0", "0,1", "2,0", "0,2"],
         "root 2,0 is twice the root 1,0"),
        (2, ["1/2,1/2", "1,1", "1,-1"], "root 1,1 is twice the root 1/2,1/2"),
    ])
    def test_rejects_a_root_twice_another(self, rank, roots, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RootSystem(rank, [W(r) for r in roots])

    @pytest.mark.parametrize("roots,message,rank", [
        # an angle that is no rational multiple of pi: W would be infinite
        (["1,0", "2,1"],
         "reflecting 2,1 in the simple root 1,0 gives -2,1", 2),
        (["1,0", "0,1", "1,1"],
         "reflecting 1,1 in the simple root 1,0 gives -1,1", 2),
        # the pairing 2/3 is not an integer: a floor division would give 0
        (["1,1,1", "1,0,0"],
         "reflecting 1,0,0 in the simple root 1,1,1 gives 1/3,-2/3,-2/3",
         3),
    ])
    def test_rejects_roots_not_closed_under_reflections(self, roots, message,
                                                        rank):
        with pytest.raises(ValueError, match=f"{message}, which is not a root"):
            RootSystem(rank, [W(r) for r in roots])

    @pytest.mark.parametrize("rank,roots,message", [
        # closed under the reflections, but 2 = 4 * (1/2)
        (1, ["1/2", "2"],
         r"the simple roots 1/2; 2 are linearly dependent: 2 has "
         r"coefficients \(4, 0\)"),
        (2, ["1/2,0", "2,0", "0,1"],
         r"the simple roots 1/2,0; 2,0; 0,1 are linearly dependent: 2,0 "
         r"has coefficients \(4, 0, 0\)"),
    ])
    def test_rejects_linearly_dependent_simple_roots(self, rank, roots,
                                                     message):
        with pytest.raises(ValueError, match=message):
            RootSystem(rank, [W(r) for r in roots])

    @pytest.mark.parametrize("roots,bad", [
        # 1/2,1/2 = (1,0 + 0,1) / 2: a fractional coefficient
        (["1,0", "0,1", "1/2,1/2"], "1/2,1/2"),
        # -1,1 = 2 (-1,0) - (-1,-1): a negative one
        (["-1,-1", "-1,0", "-1,1"], "-1,1")])
    def test_rejects_coefficients_outside_nonnegative_integers(self, roots,
                                                               bad):
        simples = ", ".join(f"Weight({r})" for r in roots)
        message = (f"{bad} is not a nonnegative integer combination of the "
                   f"simple roots ({simples})")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RootSystem(2, [W(r) for r in roots])

    def test_root_outside_the_span_of_the_simple_roots(self):
        # the simple roots are 1,0 and -1,0; 0,1 = (-1,1) + (1,0) is first
        with pytest.raises(ValueError, match="^0,1 outside the root span$"):
            RootSystem(2, [W("0,1"), W("-1,1"), W("1,0"), W("-1,0")])

    @pytest.mark.parametrize("rs,vector,message", [
        (build_classical("A", 2), "1,0,0", "1,0,0 outside the root span"),
        (RootSystem(3, [W("1,0,0")]), "1/2,1,0",
         "1/2,1,0 outside the root span"),
        (RootSystem(2, []), "0,1", "0,1 outside the \\(empty\\) root span"),
    ])
    def test_simple_coefficients_outside_the_span(self, rs, vector, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            simple_coefficients(rs, W(vector))

    def test_coefficient_table(self):
        for family, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
            rs = build_classical(family, rank)
            assert len(rs.coefficients) == len(rs.positive_roots)
            for alpha, coeffs in zip(rs.positive_roots, rs.coefficients):
                assert coeffs == simple_coefficients(rs, alpha)

    @pytest.mark.parametrize("family,rank", [
        (family, rank) for family in "ABCD"
        for rank in range(2 if family == "D" else 1, 9)])
    def test_coefficient_table_rebuilds_each_root(self, family, rank):
        # the table and simple_coefficients share one solver, so check
        # sum c_i alpha_i = alpha directly
        rs = build_classical(family, rank)
        for alpha, coeffs in zip(rs.positive_roots, rs.coefficients):
            assert all(c >= 0 for c in coeffs)
            rebuilt = sum((s * c for s, c in zip(rs.simple_roots, coeffs)),
                          Weight.zero(rs.rank))
            assert rebuilt == alpha

    @pytest.mark.parametrize("family,rank", [
        ("A", 1), ("a", 4), ("B", 1), ("C", 3), ("D", 2), ("D", 5)])
    def test_classical_dimension(self, family, rank):
        assert (classical_dimension(family, rank)
                == build_classical(family, rank).rank)

    @pytest.mark.parametrize("family,rank", [
        ("E", 8), ("D", 1), ("B", 0), ("A", sys.maxsize)])
    def test_classical_dimension_rejects_what_build_rejects(self, family,
                                                            rank):
        with pytest.raises(UnsupportedRootSystemError) as built:
            build_classical(family, rank)
        with pytest.raises(UnsupportedRootSystemError,
                           match=str(built.value)):
            classical_dimension(family, rank)


class TestEquality:
    """Equality compares the rank and the int tuples 2 alpha, not names."""

    def test_separately_built_systems_are_equal(self):
        for family, rank in [("A", 3), ("B", 2), ("B", 4), ("C", 3),
                             ("D", 4)]:
            a = build_classical(family, rank)
            b = RootSystem(a.rank, a.positive_roots)
            assert a is not b and a == b and hash(a) == hash(b)
        a = build_classical("B", 2)
        named = RootSystem(2, a.positive_roots, name="renamed")
        assert named == a and hash(named) == hash(a)

    def test_one_system_per_family_and_rank(self):
        # build_classical builds B2 once, whichever case names the family,
        # and the two pairs on B2 share it
        b2 = build_classical("B", 2)
        assert build_classical("b", 2) is b2
        assert build_classical("C", 2) is not b2
        assert builtin_pair("so5_so4").root_system is b2
        assert builtin_pair("so5_so2xso3").root_system is b2

    def test_root_order_and_rank_count(self):
        rs = build_classical("B", 2)
        reordered = RootSystem(2, rs.positive_roots[::-1])
        assert reordered != rs and not reordered == rs
        assert RootSystem(1, []) != RootSystem(2, [])
        assert RootSystem(2, []) == RootSystem(2, [])

    def test_matches_fraction_tuple_equality(self):
        systems = ([p.h_system for p in W1_PAIRS]
                   + [build_classical(f, r) for f in "ABCD" for r in (2, 3)])
        for a, b in itertools.product(systems, repeat=2):
            assert (a == b) == ((a.rank, a.positive_roots)
                                == (b.rank, b.positive_roots)), (a, b)


# every h_system of the W_1 corpus, then classical systems and one with a
# torus factor (the third coordinate)
ELIMINATION_SYSTEMS = (
    [pytest.param(p.h_system, id=f"{p.name}:h") for p in W1_PAIRS]
    + [pytest.param(build_classical(family, rank), id=f"{family}{rank}")
       for family in "ABCD" for rank in range(2 if family == "D" else 1, 9)]
    + [pytest.param(RootSystem(3, [W("1,-1,0"), W("1,1,0"), W("1,0,0"),
                                   W("0,1,0")]), id="B2+torus")])


class TestIntegerElimination:
    @pytest.mark.parametrize("rs", ELIMINATION_SYSTEMS)
    def test_matches_fraction_reference(self, rs):
        assert (rs.simple_index, rs.coefficients) == reference_simple_data(rs)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_matrices_match_fraction_reference(self, seed):
        # dependent basis vectors, vectors outside the span and fractional
        # coordinates, which a valid root system does not reach
        rng = random.Random(seed)
        rank, ncols = rng.randint(1, 5), rng.randint(1, 5)
        entries = range(-3, 4) if seed % 2 else (0, 0, 1, -2, 6)
        basis = [tuple(rng.choice(entries) for _ in range(rank))
                 for _ in range(ncols)]
        if seed % 3 == 0 and ncols > 1:  # a column that depends on others
            basis[-1] = tuple(2 * x - y for x, y in zip(basis[0], basis[1]))
        vectors = basis + [tuple(rng.choice(entries) for _ in range(rank))
                           for _ in range(6)]
        expected = reference_solve(basis, vectors)
        d, solved = _solve(basis, vectors)
        got = [None if s is None else tuple(Fraction(n, d) for n in s)
               for s in solved]
        assert got == expected


class TestHalfSum:
    def test_b1(self):
        assert build_classical("B", 1).delta == W("1/2")

    def test_b2(self):
        # half-sum of the four listed positive roots, not the closed form
        assert build_classical("B", 2).delta == W("3/2,1/2")

    def test_d2(self):
        assert build_classical("D", 2).delta == W("1,0")

    @pytest.mark.parametrize("pair,marked", [
        pytest.param(p, p in MARKED_PAIRS, id=p.name)
        for p in MARKED_PAIRS + [quarter_delta_pair(), half_c2_pair()]])
    def test_grid_data_match_fraction_references(self, pair, marked):
        # the half-sums and residues Grid derives once
        # against their Fraction references
        rs = pair.root_system
        g = grid(rs)
        half = reference_half_sum(rs.positive_roots, rs.rank)
        assert g.weight(g.delta) == rs.delta == pair.delta == half
        assert pair.delta_h == reference_half_sum(pair.h_positive, rs.rank)
        delta_p = reference_half_sum(pair.p_positive, rs.rank)
        assert pair.delta_p == delta_p == g.weight(pair.delta_p_point)
        h = grid(pair.h_system, g.scale)
        assert h.weight(h.delta) == pair.delta_h
        for k, alpha in enumerate(rs.positive_roots):
            assert g.weight(g.half_sum((k,))) == alpha * HALF
        if marked:  # F1 = F u (F + (delta_p mod 1))
            shift = Weight(c % 1 for c in delta_p)
            assert pair.lattice_F1.coset_shifts == {Weight.zero(rs.rank),
                                                    shift}
        F, F1 = pair.lattice_F, pair.lattice_F1
        for lattice in (F, F1):
            assert set(map(g.weight, g.residues(lattice))) == \
                reference_residues(lattice)
        assert g.residues(F) <= g.residues(F1)
        assert (g.residues(F1) <= g.residues(F)) == is_sublattice(F1, F)


# grid primitives against their Fraction forms: a box of weights with
# thirds and quarters, which lie off every grid of these pairs
OFF_GRID_BOX = tuple(Fraction(n, d) for n, d in [
    (-1, 1), (-1, 2), (-1, 3), (0, 1), (1, 4), (1, 2), (2, 3), (3, 2)])


class TestGridPrimitives:
    PAIRS = MARKED_PAIRS + [quarter_delta_pair(), half_c2_pair()]

    @pytest.mark.parametrize("pair", [pytest.param(p, id=p.name)
                                      for p in PAIRS])
    def test_contains_matches_fraction_reference(self, pair):
        # a weight reaches the residue test as its grid point, None when
        # it is off the grid
        g = grid(pair.root_system)
        coords = OFF_GRID_BOX if pair.rank < 4 else OFF_GRID_BOX[1:-1]
        for w in itertools.product(coords, repeat=pair.rank):
            w = Weight(w)
            for lattice in (pair.lattice_F, pair.lattice_F1):
                assert g.contains(lattice, g.locate(w)) == reference_contains(
                    lattice, w), (lattice.sorted_shifts(), w)

    @pytest.mark.parametrize("scale", [2, 3, 4, 6])
    def test_point_and_weight_match_fraction_construction(self, scale):
        # D3 has an integral delta, so it has a grid at every scale
        g = Grid(build_classical("D", 3), scale)
        rng = random.Random(scale)
        points = [(0, 0, 0), (-1, 0, scale)] + [
            tuple(rng.randint(-3 * scale, 3 * scale) for _ in range(3))
            for _ in range(200)]
        for x in points:
            w = g.weight(x)
            expected = Weight(Fraction(c, scale) for c in x)
            assert w == expected and hash(w) == hash(expected)
            assert type(w) is Weight
            assert all(type(c) is Fraction for c in w), x
            assert g.point(expected) == g.locate(expected) == x
        for text in ["1/5,0,0", f"0,-1/{2 * scale},1", "1,2/7,-3"]:
            assert g.locate(W(text)) is None
            with pytest.raises(ConsistencyError,
                               match=f"^{text} is not on the grid 1/{scale} Z$"):
                g.point(W(text))

    @pytest.mark.parametrize("pair", [pytest.param(p, id=p.name)
                                      for p in W1_PAIRS])
    def test_weight_holds_fractions(self, pair):
        # Grid.weight builds the Weight from its cached quotients, without
        # Weight.__new__: each coordinate, zero and negative ones too, is a
        # Fraction, on G's grid and on the subgroup's grid at G's scale
        g = grid(pair.root_system)
        h = grid(pair.h_system, g.scale)
        for space in (g, h):
            points = [(0,) * pair.rank, tuple(-c for c in space.delta)]
            points += [tuple(-c for c in x) for x in space.positive]
            points += [x for w1 in pair.w1 for x in (
                g.point(w1.element.image), g.point(w1.delta_p_sigma))]
            for x in points:
                w = space.weight(x)
                assert type(w) is Weight and len(w) == pair.rank
                assert all(type(c) is Fraction for c in w), x
                assert w == Weight(Fraction(c, g.scale) for c in x)

    @pytest.mark.parametrize("pair", [pytest.param(p, id=p.name)
                                      for p in W1_PAIRS])
    def test_is_dominant_matches_the_weight_test(self, pair):
        # the kernel's regularity test reads Grid.is_dominant at the walk's
        # end point: on G's grid and on the subgroup's grid at G's scale, a
        # box about 0 (every wall, and points off the weight lattice) and
        # one about D delta (strictly dominant points) read as
        # RootSystem.is_dominant reads their Weights, strict or not
        g = grid(pair.root_system)
        offsets = list(itertools.product(range(-2, 3), repeat=pair.rank))
        box = offsets + [tuple(map(add, g.delta, o)) for o in offsets]
        for rs, space in ((pair.root_system, g),
                          (pair.h_system, grid(pair.h_system, g.scale))):
            for strict in (False, True):
                assert [space.is_dominant(x, strict) for x in box] == [
                    rs.is_dominant(space.weight(x), strict) for x in box], (
                        rs, strict)
        # on G's grid the box holds regular points, points on a wall and,
        # but for rank 1, points whose coroot pairings are not all integers
        zero = (0,) * pair.rank
        assert g.delta in box and g.is_dominant(g.delta, strict=True)
        assert g.is_dominant(zero) and not g.is_dominant(zero, strict=True)
        assert pair.rank == 1 or not all(map(g.is_integral, box))

    @pytest.mark.parametrize("pair", [pytest.param(p, id=p.name)
                                      for p in PAIRS])
    def test_mirrors_reflect_in_every_reduced_root(self, pair):
        # the simple roots first, then the other positive roots (no root
        # is twice another, so every one is reduced); each reflection
        # against s_b(w) = w - (2 <w, b> / <b, b>) b
        rs = pair.root_system
        g = grid(rs)
        simple = len(rs.simple_roots)
        assert g.mirror_index[:simple] == rs.simple_index
        assert sorted(g.mirror_index) == list(range(len(rs.positive_roots)))
        assert g.supports == g.mirrors[:simple]
        weights = [pair.delta] + [
            Weight(c) for c in itertools.product(range(-1, 2),
                                                 repeat=pair.rank)]
        for i, k in enumerate(g.mirror_index):
            b = rs.positive_roots[k]
            for w in weights:
                image = w - b * (2 * inner_product(w, b) / inner_product(b, b))
                assert g.weight(g.reflect(g.point(w), i)) == image

    @pytest.mark.parametrize("pair", [pytest.param(p, id=p.name)
                                      for p in PAIRS])
    def test_root_sums_match_fraction_sums(self, pair):
        rs = pair.root_system
        roots = rs.positive_roots
        expected = [(i, j, roots.index(roots[i] + roots[j]))
                    for i in range(len(roots)) for j in range(i, len(roots))
                    if roots[i] + roots[j] in roots]
        assert list(root_sums(grid(rs).positive)) == expected
        assert rs.sums == tuple(expected)  # kept from the scan on 2 alpha
        sums = {k for _, _, k in expected}
        assert rs.simple_index == tuple(
            k for k in range(len(roots)) if k not in sums)
        assert rs.simple_roots == tuple(roots[k] for k in rs.simple_index)


def reference_denominator(rs: RootSystem, scale: int) -> Fraction:
    """prod D^2 <delta, alpha> over the positive roots, on ``Fraction``
    weights."""
    result = Fraction(1)
    for alpha in rs.positive_roots:
        result *= scale ** 2 * inner_product(rs.delta, alpha)
    return result


class TestWeylDenominator:
    @pytest.mark.parametrize("pair", [pytest.param(p, id=p.name)
                                      for p in W1_PAIRS])
    def test_matches_fraction_product(self, pair):
        # on G's grid and on the subgroup's grid at G's scale; W1_PAIRS
        # holds the quarter-delta pair (D = 4)
        g = grid(pair.root_system)
        for rs, space in ((pair.root_system, g),
                          (pair.h_system, grid(pair.h_system, g.scale))):
            assert space.weyl_denominator == reference_denominator(
                rs, g.scale)

    def test_refined_a2_grid(self):
        rs = build_classical("A", 2)
        assert grid(rs).scale == 2
        g = grid(rs, 6)
        # <delta, alpha> is 1, 1, 2 over the positive roots of A2
        assert g.weyl_denominator == reference_denominator(rs, 6)
        assert g.weyl_denominator == 2 * 36 ** 3

    def test_quarter_delta_pair(self):
        # delta = 3/4,1/4 over the roots of B2 halved: D = 4
        rs = quarter_delta_pair().root_system
        g = grid(rs)
        assert g.scale == 4
        assert g.weyl_denominator == reference_denominator(rs, 4)
        assert g.weyl_denominator == 4 * 8 * 6 * 2

    def test_one_on_a_torus_factor(self):
        # Delta_h of so3_so2 is empty: a rank-one torus, an empty product
        h = grid(builtin_pair("so3_so2").h_system)
        assert h.positive == ()
        assert h.weyl_denominator == 1

    def test_read_from_delta_on_first_use(self):
        # a grid whose delta is replaced before the first read takes the
        # new delta (TestInvariantsRaise patches it so); the value is kept
        rs = build_classical("B", 2)
        g = Grid(rs, 2)
        g.delta = g.point(W("3,1"))
        assert g.weyl_denominator == 8 * 16 * 12 * 4
        g.delta = g.point(rs.delta)
        assert g.weyl_denominator == 8 * 16 * 12 * 4


def dense_root_product(rs: RootSystem, g: Grid, y: tuple) -> int:
    """prod <y, D alpha> over the positive roots, each pairing over every
    coordinate."""
    product = 1
    for alpha in g.positive:
        product *= sum(a * b for a, b in zip(y, alpha))
    return product


def product_grids():
    """(name, system, grid): every grid of W1_PAIRS, G's and the
    subgroup's at G's scale, then A3's and A2's refined by thirds."""
    for pair in W1_PAIRS:
        g = grid(pair.root_system)
        yield pair.name, pair.root_system, g
        yield pair.name + "_h", pair.h_system, grid(pair.h_system, g.scale)
    a3, a2 = build_classical("A", 3), build_classical("A", 2)
    yield "A3", a3, grid(a3)
    yield "A2_thirds", a2, grid(a2, 6)


class TestWeylProduct:
    # weyl_product reads each pairing over the sparse support of D alpha
    # (Grid.root_product, over the mirrors); against the dense product over
    # the dense weyl_denominator at seeded integral points y = D delta + D t
    # and y = D t, t integral, which include singular points (0).
    @pytest.mark.parametrize("name,rs,g", [pytest.param(*case, id=case[0])
                                           for case in product_grids()])
    def test_matches_the_dense_product(self, name, rs, g):
        rng = random.Random(name)
        bottom = dense_root_product(rs, g, g.delta)
        assert g.weyl_denominator == bottom
        reads = set()
        for _ in range(40):
            t = [g.scale * rng.randint(-3, 3) for _ in range(rs.rank)]
            for y in (tuple(map(add, g.delta, t)), tuple(t)):
                assert g.is_integral(y)
                top = dense_root_product(rs, g, y)
                assert g.root_product(y) == top
                assert top % bottom == 0, (name, y)
                assert weyl_product(rs, g, y) == top // bottom, (name, y)
                reads.add("singular" if not top else "regular")
        assert reads >= {"singular", "regular"} or not g.positive


class TestGridCache:
    @pytest.mark.parametrize("pair", [pytest.param(p, id=p.name)
                                      for p in W1_PAIRS])
    def test_default_scale_is_the_same_grid(self, pair):
        # a grid asked for without a scale is the one at its default scale
        for rs in (pair.root_system, pair.h_system):
            assert grid(rs) is grid(rs, grid(rs).scale)

    def test_scale_is_positional_only(self):
        with pytest.raises(TypeError):
            grid(build_classical("B", 2), scale=4)


class TestWeylGroup:
    def test_b1_two_elements(self):
        group = weyl_group(build_classical("B", 1))
        assert len(group) == 2
        signs = sorted(w.sign for w in group)
        assert signs == [-1, 1]

    def test_b2_eight_elements(self):
        assert len(weyl_group(build_classical("B", 2))) == 8

    def test_d2_four_elements(self):
        assert len(weyl_group(build_classical("D", 2))) == 4

    @pytest.mark.parametrize("family,rank,order", [
        ("B", 2, 8), ("B", 3, 48), ("B", 4, 384),
        ("D", 2, 4), ("D", 3, 24), ("D", 4, 192),
        ("A", 2, 6), ("A", 3, 24), ("C", 3, 48), ("D", 5, 1920),
    ])
    def test_orders_match_formulas(self, family, rank, order):
        assert len(weyl_group(build_classical(family, rank))) == order

    def test_elements_permute_roots(self):
        for family, rank in [("B", 2), ("D", 3), ("A", 2), ("B", 4)]:
            rs = build_classical(family, rank)
            roots = rs.positive_roots + tuple(-a for a in rs.positive_roots)
            for images in group_images(rs, roots).values():
                assert set(images) == set(roots)

    def test_sign_is_homomorphism(self):
        # the image of delta under w1 w2 is w1 applied to w2(delta), and it
        # names the element w1 w2 and so its sign
        for family, rank in [("B", 2), ("A", 2), ("B", 3)]:
            rs = build_classical(family, rank)
            group = weyl_group(rs)
            sign_of = {w.image: w.sign for w in group}
            table = group_images(rs, [w.image for w in group])
            for w1 in group:
                for w2, image in zip(group, table[w1]):
                    assert sign_of[image] == w1.sign * w2.sign

    def test_words_are_reduced_and_match_sign(self):
        # len(word) equals the number of positive roots sent to negative
        # roots, which is the length of w and fixes det(w) = (-1)^length;
        # w also preserves the inner products of the basis vectors.
        for family, rank in [("B", 3), ("D", 4), ("A", 3)]:
            rs = build_classical(family, rank)
            pos = rs.positive_roots
            positive = set(pos)
            basis = [Weight.basis(rs.rank, k) for k in range(rs.rank)]
            table = group_images(rs, pos + tuple(basis))
            for w in weyl_group(rs):
                images = table[w]
                inversions = sum(1 for b in images[:len(pos)]
                                 if -b in positive)
                assert len(w.word) == inversions
                assert w.sign == (-1) ** inversions
                images = images[len(pos):]
                for i, j in itertools.product(range(rs.rank), repeat=2):
                    assert (inner_product(images[i], images[j])
                            == inner_product(basis[i], basis[j]))

    @pytest.mark.parametrize("rs", [
        build_classical("B", 3), build_classical("A", 3),
        build_classical("D", 4),
        # B2 scaled by 1/2: delta = 3/4,1/4 sits on the grid with D = 4
        RootSystem(2, [W("1/2,-1/2"), W("1/2,1/2"), W("1/2,0"),
                       W("0,1/2")]),
        build_classical("C", 3), build_classical("B", 4),
        build_classical("A", 4)], ids=lambda rs: repr(rs))
    def test_grid_orbit_matches_fraction_orbit(self, rs):
        # weyl_group walks D delta down on ints; the breadth-first orbit on
        # Fraction weights is the reference for images, words and order
        reference = reference_orbit(rs, rs.delta)
        group = weyl_group(rs)
        assert [(w.image, w.word) for w in group] == sorted(reference.items())
        for w in group:
            assert WeylElement.from_word(rs, w.word).image == w.image

    def test_order_limit(self, monkeypatch):
        # the search for the 384 images of D delta meets the limit
        monkeypatch.setattr(roots, "ORBIT_LIMIT", 10)
        with pytest.raises(GroupOrderLimitError):
            weyl_group(build_classical("B", 4))

    def test_deterministic_order(self):
        rs = build_classical("B", 2)
        first = [w.image for w in weyl_group(rs)]
        second = [w.image for w in weyl_group(build_classical("B", 2))]
        assert first == second == sorted(first)


def orbit_order(rs):
    """|W| counted as the orbit of D delta on the grid."""
    g = grid(rs)
    return len(orbit(g, g.delta)[0])


class TestWeylOrder:
    @pytest.mark.parametrize("family,rank", [
        (family, rank) for family, ranks in [
            ("A", range(1, 7)), ("B", range(1, 7)), ("C", range(1, 7)),
            ("D", range(2, 7))] for rank in ranks])
    def test_classical(self, family, rank):
        rs = build_classical(family, rank)
        assert weyl_order(rs) == orbit_order(rs)

    def test_no_roots(self):
        rs = RootSystem(3, [])
        assert weyl_order(rs) == orbit_order(rs) == 1

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_h_systems(self, pair):
        # reducible systems with torus directions, in the full ambient space
        assert weyl_order(pair.h_system) == orbit_order(pair.h_system)


class TestOrbit:
    def test_words_reach_every_image(self):
        rs = build_classical("B", 3)
        g = grid(rs)
        group = weyl_group(rs)
        for v, size in [("1,0,0", 6), ("1,1,0", 12), ("1/2,1/2,1/2", 8),
                        ("2,1,0", 24), ("0,0,0", 1)]:
            v = W(v)
            images = [g.weight(x) for x in orbit(g, g.point(v))[0]]
            assert set(images) == {act(w, v) for w in group}
            assert len(images) == size
            # the reference's shortest word reaches the image
            for image, word in reference_orbit(rs, v).items():
                assert act(WeylElement.from_word(rs, word), v) == image

    @pytest.mark.parametrize("family,rank,weights", [
        ("B", 3, ["1,0,0", "1,1,0", "1/2,1/2,1/2", "2,1,0", "0,0,0"]),
        ("C", 3, ["1,0,0", "1,1,0", "2,1,1", "3,1,0"]),
        ("A", 3, ["1,0,0,0", "1,1,0,0", "2,1,0,-1", "1,1,1,1"]),
        ("D", 4, ["1,0,0,0", "1,1,0,0", "1/2,1/2,1/2,-1/2", "2,1,1,-1"]),
        ("B", 4, ["1,1,0,0", "3/2,1/2,1/2,1/2", "3,2,1,0"])])
    def test_matches_the_weight_reference(self, family, rank, weights):
        # walking down from a dominant start keeps the images and order of
        # the breadth-first orbit that reflects every image in every simple
        # root
        rs = build_classical(family, rank)
        g = grid(rs)
        for v in map(W, weights):
            assert_reference_orbit(g, g.point(v))

    @pytest.mark.parametrize("family,rank,v", [
        ("B", 3, "1,-1,0"), ("A", 3, "0,1,0,0"), ("C", 3, "-1/2,0,0")])
    def test_non_dominant_start_raises(self, family, rank, v):
        g = grid(build_classical(family, rank), 4)
        with pytest.raises(NonDominantError) as raised:
            orbit(g, g.point(W(v)))
        assert str(raised.value) == f"orbit start {v} is not dominant"

    def test_non_integral_start_raises(self):
        g = Grid(build_classical("B", 2), 4)
        with pytest.raises(ConsistencyError) as raised:
            orbit(g, g.point(W("1/4,1/4")))
        assert str(raised.value) == (
            "1/4,1/4 pairs to 1/2 with the coroot of 0,1")

    def test_limit(self, monkeypatch):
        # 2,1,0 has 24 images: one over the limit raises, and a limit of
        # 24 lets the search through
        g = Grid(build_classical("B", 3), 2)
        x = g.point(W("2,1,0"))
        for limit in [10, 23]:
            monkeypatch.setattr(roots, "ORBIT_LIMIT", limit)
            with pytest.raises(GroupOrderLimitError) as raised:
                orbit(g, x)
            assert str(raised.value) == f"group closure exceeded limit {limit}"
        monkeypatch.setattr(roots, "ORBIT_LIMIT", 24)
        assert len(orbit(g, x)[0]) == 24
        with pytest.raises(GroupOrderLimitError):
            reference_orbit(build_classical("B", 3), W("2,1,0"), limit=10)

    @pytest.mark.parametrize("rs", [
        build_classical("B", 2), build_classical("B", 3),
        build_classical("C", 3), build_classical("D", 4),
        build_classical("A", 3), builtin_pair("so5_so2xso3").h_system],
        ids=lambda rs: repr(rs))
    def test_every_wall_set_matches_the_reference(self, rs):
        # which reflections the search takes depends on the walls of the
        # start, whose stabilizer they generate: one start per wall set
        g = Grid(rs, grid(rs).scale)
        starts = starts_by_walls(g)
        assert len(starts) == 2 ** len(g.supports)
        for x in starts.values():
            assert_reference_orbit(g, x)

    def test_refined_grid_matches_the_reference(self):
        # A2 at nu = 2/3,-1/3,-1/3 lies on the grid 1/6 Z only
        g = Grid(build_classical("A", 2), 6)
        for v in ["2/3,-1/3,-1/3", "4/3,-2/3,-2/3", "1/3,1/3,-2/3",
                  "2/3,2/3,-4/3", "1,0,-1", "2,0,-2"]:
            assert_reference_orbit(g, g.point(W(v)))


class TestOrbitReplay:
    """Later starts on a grid that earlier starts have searched."""

    def test_replay_tests_integrality(self):
        # 1/4,1/4 has the walls of 1,1; after delta and 1,1 were searched
        # on the same grid, the search still raises its ConsistencyError
        g = Grid(build_classical("B", 2), 4)
        orbit(g, g.delta)
        orbit(g, g.point(W("1,1")))
        with pytest.raises(ConsistencyError) as raised:
            orbit(g, g.point(W("1/4,1/4")))
        assert str(raised.value) == (
            "1/4,1/4 pairs to 1/2 with the coroot of 0,1")


def walk_outcome(walk, x: tuple):
    """walk(x), or the message of the ConsistencyError it raises."""
    try:
        return walk(x)
    except ConsistencyError as error:
        return str(error)


class TestGridWalk:
    """``Grid.walk`` against ``reference_grid_walk``, which reads every
    pairing it scans through ``Grid.coroot_pairing``: the same steps and end
    point, or the same ConsistencyError."""

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_set_up_and_straightening_inputs(self, pair):
        # the inputs of _orbit_word (the images of D delta in W_1, then
        # D delta reflected along their steps), of w0's word (-D
        # delta_h) and of straightening: x + D delta_h for the points x of
        # chi^+- on the subgroup's grid and x + D delta for the points x of
        # a box on G's grid, where integral
        g = grid(pair.root_system)
        h = grid(pair.h_system, g.scale)
        inputs = [(h, tuple(-c for c in h.delta))]
        for w1 in pair.w1:
            x = g.point(w1.element.image)
            y = g.delta
            for i in reference_grid_walk(g, x)[0]:
                y = g.reflect(y, i)
            inputs += [(g, x), (g, y)]
        counts = spinor_counts(pair)
        inputs += [(h, tuple(map(add, x, h.delta)))
                   for side in (1, -1) for x in counts[side]
                   if h.is_integral(x)]
        box = range(-2, 3) if pair.rank < 4 else range(-1, 2)
        for t in itertools.product(box, repeat=pair.rank):
            x = tuple(c * g.scale // 2 for c in t)
            if g.is_integral(x):
                inputs.append((g, tuple(map(add, x, g.delta))))
        steps = 0
        for space, x in inputs:
            walked = space.walk(x)
            assert walked == reference_grid_walk(space, x), x
            steps += len(walked[0])
        assert steps

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_multiplicity_reads(self, pair, monkeypatch):
        # every point the oracle's extraction reads on demand, over the
        # admissible mu of a box; b2_half admits none
        reads = []
        read = dirac._multiplicity

        def recorded(g, top, y):
            reads.append((g, y))
            return read(g, top, y)

        monkeypatch.setattr(dirac, "_multiplicity", recorded)
        for _lam, mu in admissible_box(pair, 2 if pair.rank < 4 else 1):
            assert dirac.euler_verify(pair, mu).passed, mu
        assert bool(reads) == (pair.name != "b2_half")
        steps = 0
        for g, y in reads:
            walked = g.walk(y)
            assert walked == reference_grid_walk(g, y), y
            steps += len(walked[0])
        assert steps or not reads

    @pytest.mark.parametrize("family,rank,scale", [
        ("B", 2, 4), ("C", 3, 4), ("A", 2, 6), ("D", 4, 2)])
    def test_every_point_of_a_box(self, family, rank, scale):
        # integral or not: a non-integral pairing raises where the
        # reference's checked pairing raises, with its message
        g = Grid(build_classical(family, rank), scale)
        raised = 0
        for x in itertools.product(range(-3, 4), repeat=g.rs.rank):
            walked = walk_outcome(g.walk, x)
            assert walked == walk_outcome(partial(reference_grid_walk, g), x)
            raised += isinstance(walked, str)
        assert raised

    def test_non_integral_message(self):
        # a positive pairing of 1/2 raises too, though it reflects nothing
        g = Grid(build_classical("B", 2), 4)
        for x, message in [
                ("1/4,1/4", "1/4,1/4 pairs to 1/2 with the coroot of 0,1"),
                ("-1/4,-1/4", "-1/4,-1/4 pairs to -1/2 with the coroot of 0,1")]:
            with pytest.raises(ConsistencyError) as raised:
                g.walk(g.point(W(x)))
            assert str(raised.value) == message


def starts_by_walls(g: Grid) -> dict:
    """{J: the first integral dominant start with walls J} over the points
    D t / 2, t in [-6, 6]^rank."""
    found = {}
    for t in itertools.product(range(-6, 7), repeat=g.rs.rank):
        x = tuple(c * g.scale // 2 for c in t)
        if g.is_dominant(x) and g.is_integral(x):
            walls = tuple(i for i in range(len(g.supports))
                          if not g.coroot_pairing(x, i))
            found.setdefault(walls, x)
    return found


def assert_reference_orbit(g: Grid, x: tuple) -> None:
    """``orbit(g, x)`` has the images and order of the breadth-first
    reference on ``Fraction`` weights, and each image is its parent
    reflected in its generator."""
    images, parents, generators = orbit(g, x)
    assert images == list(map(g.point, reference_orbit(g.rs, g.weight(x)))), x
    for n, (p, i) in enumerate(zip(parents, generators), 1):
        assert images[n] == g.reflect(images[p], i)


class TestDominantRepresentative:
    def test_single_reflection(self):
        rs = build_classical("B", 1)
        element, dom, regular = dominant_representative(W("-5/2"), rs)
        assert dom == W("5/2")
        assert regular
        assert act(element, W("-5/2")) == dom
        assert element.sign == -1

    def test_wall_weight_is_irregular(self):
        rs = build_classical("B", 2)
        element, dom, regular = dominant_representative(W("3/2,3/2"), rs)
        assert dom == W("3/2,3/2")
        assert not regular
        assert element == identity(rs)

    def test_sort_and_flip(self):
        # one transposition plus one sign flip: determinant +1
        rs = build_classical("B", 2)
        element, dom, regular = dominant_representative(W("-1/2,5/2"), rs)
        assert dom == W("5/2,1/2")
        assert regular
        assert element.sign == 1
        assert act(element, W("-1/2,5/2")) == dom

    def test_delta_orbit_recovers_inverse(self):
        for family, rank in [("B", 2), ("D", 3), ("A", 2)]:
            rs = build_classical(family, rank)
            delta = rs.delta
            for w in weyl_group(rs):
                element, dom, regular = dominant_representative(
                    act(w, delta), rs)
                assert regular
                assert dom == delta
                assert element == inverse(w)


class TestWeylElement:
    @pytest.mark.parametrize("rs", [
        build_classical("B", 3), build_classical("A", 3),
        build_classical("D", 4), half_c2_pair().root_system,
        RootSystem(1, [W("1/2")])], ids=lambda rs: repr(rs))
    def test_from_word_replays_as_the_fraction_reference(self, rs):
        # every word of length up to 3, reduced or not: the image replayed
        # on the grid is the one replayed on Fraction weights
        letters = range(len(rs.simple_roots))
        for n in range(4):
            for word in itertools.product(letters, repeat=n):
                w = WeylElement.from_word(rs, word)
                assert (w.word, w.image) == (
                    word, reference_element(rs, word).image)

    @pytest.mark.parametrize("word", [(-1,), (2,), (0, 2, 1), (1, -1)])
    def test_from_word_rejects_a_letter_off_the_simple_roots(self, word):
        # B2 has two simple roots; the grid would reflect 2 and -1 in a
        # non-simple root of its mirrors
        rs = build_classical("B", 2)
        bad = next(i for i in word if i not in (0, 1))
        message = (f"letter {bad} is not the index of one of the 2 simple "
                   f"roots of RootSystem(B2, 4 positive roots)")
        with pytest.raises(ValueError) as raised:
            WeylElement.from_word(rs, word)
        assert str(raised.value) == message

    def test_from_word_takes_every_simple_letter(self):
        rs = build_classical("B", 2)
        w = WeylElement.from_word(rs, iter((1, 0)))
        assert (w.word, w.image, w.sign) == ((1, 0), W("1/2,-3/2"), 1)

    def test_slotted(self):
        # no instance dict; the three slots pickle with the element
        rs = build_classical("B", 3)
        for w in weyl_group(rs)[:10] + tuple(
                x.element for x in builtin_pair("so7_so6").w1):
            assert not hasattr(w, "__dict__")
            with pytest.raises(AttributeError):
                w.extra = 1
            copy = pickle.loads(pickle.dumps(w))
            assert (copy.rs, copy.word, copy.image) == (w.rs, w.word, w.image)
            assert copy == w and hash(copy) == hash(w)

    def test_inverse_is_transpose(self):
        rs = build_classical("B", 3)
        for w in weyl_group(rs)[:10]:
            assert compose(w, inverse(w)) == identity(rs)
            assert compose(inverse(w), w) == identity(rs)

    def test_reflection_is_involution(self):
        rs = build_classical("B", 2)
        refl = WeylElement.from_word(rs, (0,))
        assert rs.simple_roots[0] == W("1,-1")
        assert compose(refl, refl) == identity(rs)
        assert act(refl, W("2,5")) == W("5,2")
