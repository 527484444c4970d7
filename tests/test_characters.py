import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirackernel.characters as characters
from dirackernel.characters import (branch_equal_rank, tensor, weight_table,
                                   weyl_dim)
from dirackernel.errors import (ConsistencyError, DecompositionError,
                                DimensionError, NonDominantError,
                                SymmetryError, UnsupportedRootSystemError)
from dirackernel.lattice import Weight, inner_product
from dirackernel.roots import RootSystem, WeylElement, build_classical
from dirackernel.sympair import builtin_pair, builtin_pair_names
from reference_characters import (FormalCharacter, apply,
                                  branch_interleave_BD, decompose,
                                  irreducible_character, mass, peel,
                                  reference_character, support,
                                  weight_multiplicity)
from reference_roots import (W, act, bc1_pair, is_integer_vector,
                             listed_group, quarter_delta_pair,
                             reference_contains, reference_is_integral,
                             reference_weyl_dim, simple_coefficients)


def mono(text, coeff=1):
    return FormalCharacter.monomial(W(text), coeff)


class TestRingOps:
    def test_difference_of_squares(self):
        a = mono("1/2") + mono("-1/2")
        b = mono("1/2") - mono("-1/2")
        assert a * b == mono("1") - mono("-1")

    def test_weyl_action_permutes_support(self):
        rs = build_classical("B", 1)
        refl = WeylElement.from_word(rs, (0,))
        assert apply(mono("1/2"), refl) == mono("-1/2")

    def test_cancellation_removes_zero_terms(self):
        ch = (mono("1,0") + mono("0,1")) + mono("0,1", -1)
        assert ch == mono("1,0")
        assert ch.terms == {W("1,0"): 1}

    def test_scalar_multiplication(self):
        assert (mono("1") * 3).terms == {W("1"): 3}


class TestIrreducibleCharacter:
    def test_b1_vector_representation(self):
        ch = irreducible_character(build_classical("B", 1), W("1"))
        assert ch.terms == {W("1"): 1, W("0"): 1, W("-1"): 1}

    def test_trivial_representation(self):
        for family, rank in [("B", 2), ("A", 2), ("D", 3)]:
            rs = build_classical(family, rank)
            zero = Weight.zero(rs.rank)
            assert irreducible_character(rs, zero).terms == {zero: 1}

    def test_d2_half_spin(self):
        ch = irreducible_character(build_classical("D", 2), W("1/2,1/2"))
        assert ch.terms == {W("1/2,1/2"): 1, W("-1/2,-1/2"): 1}

    def test_highest_weight_multiplicity_one(self):
        rs = build_classical("B", 2)
        for nu in [W("1,0"), W("2,1"), W("1/2,1/2"), W("3/2,1/2")]:
            assert irreducible_character(rs, nu).terms[nu] == 1

    def test_support_lies_below_highest_weight(self):
        rs = build_classical("B", 2)
        nu = W("2,1")
        for w in support(irreducible_character(rs, nu)):
            coeffs = simple_coefficients(rs, nu - w)
            assert all(c.denominator == 1 and c >= 0 for c in coeffs)

    def test_weyl_invariance(self):
        rs = build_classical("B", 2)
        ch = irreducible_character(rs, W("2,1"))
        for w in listed_group(rs):
            assert apply(ch, w) == ch

    def test_non_dominant_rejected(self):
        rs = build_classical("B", 2)
        with pytest.raises(NonDominantError):
            irreducible_character(rs, W("0,1"))

    def test_dominant_part_by_descending_height(self):
        for family, rank, nu in [("B", 3, "2,1,0"), ("C", 3, "2,1,1"),
                                 ("D", 4, "3/2,1/2,1/2,-1/2")]:
            rs = build_classical(family, rank)
            ch = irreducible_character(rs, W(nu))
            g = characters.grid(rs)
            dominant = [g.weight(x) for x in characters._dominant_weights(
                g, g.point(W(nu)))]
            assert len(set(dominant)) == len(dominant)
            assert set(dominant) == {w for w in ch.terms
                                     if rs.is_dominant(w)}
            heights = [inner_product(w, rs.delta) for w in dominant]
            assert heights == sorted(heights, reverse=True)
            assert dominant[0] == W(nu)
            assert ch.terms[W(nu)] == 1

    def test_weyl_character_formula_identity(self):
        # Independent of Freudenthal: ch * (sum_w sgn(w) e^{w delta})
        # must equal sum_w sgn(w) e^{w(nu+delta)}.
        for family, rank, nus in [
            ("B", 2, ["1,0", "2,1", "1/2,1/2"]),
            ("A", 2, ["1,0,-1", "2,1,0"]),
            ("D", 3, ["1,1,0", "1/2,1/2,-1/2"]),
        ]:
            rs = build_classical(family, rank)
            group = listed_group(rs)
            delta = rs.delta
            denom = FormalCharacter.zero(rs.rank)
            for w in group:
                denom += FormalCharacter.monomial(act(w, delta), w.sign)
            for nu_text in nus:
                nu = W(nu_text)
                numer = FormalCharacter.zero(rs.rank)
                for w in group:
                    numer += FormalCharacter.monomial(
                        act(w, nu + delta), w.sign)
                ch = irreducible_character(rs, nu)
                assert ch * denom == numer, (family, rank, nu_text)


class TestWeylDim:
    @pytest.mark.parametrize("nu,expected", [
        ("1,0", 5), ("1/2,1/2", 4), ("0,0", 1), ("2,1", 35), ("1,1", 10),
    ])
    def test_b2_dimensions(self, nu, expected):
        assert weyl_dim(build_classical("B", 2), W(nu)) == expected

    def test_matches_multiplicity_mass(self):
        cases = [
            ("B", 1, 3), ("B", 2, 3), ("A", 2, 2), ("D", 2, 3),
            ("C", 2, 2), ("B", 3, 2), ("D", 3, 2),
            ("C", 3, 2), ("D", 4, 2), ("B", 4, 2),
        ]
        for family, rank, bound in cases:
            rs = build_classical(family, rank)
            ambient = rs.rank
            for coords in itertools.product(range(bound + 1), repeat=ambient):
                nu = Weight(coords)
                if not rs.is_dominant(nu):
                    continue
                ch = irreducible_character(rs, nu)
                assert mass(ch) == weyl_dim(rs, nu), (family, rank, coords)

    @pytest.mark.parametrize("family,rank,nu", [
        ("B", 2, "5/2,0"), ("B", 3, "7/2,1/2,0"), ("B", 2, "1/3,0")])
    def test_non_integral_rejected(self, family, rank, nu):
        with pytest.raises(NonDominantError, match="not algebraically integral"):
            weyl_dim(build_classical(family, rank), W(nu))

    @pytest.mark.parametrize("family,ranks", [
        ("A", range(1, 7)), ("B", range(1, 7)), ("C", range(1, 7)),
        ("D", range(2, 7))])
    def test_matches_fraction_product(self, family, ranks):
        # every dominant nu with coordinates in {0, 1, 2}, and on B and D
        # the spin weights with coordinates in {1/2, 3/2}, the last one of
        # either sign on D
        for rank in ranks:
            rs = build_classical(family, rank)
            values = [range(3)]
            if family in "BD":
                half = [Fraction(1, 2), Fraction(3, 2)]
                values.append(half + [-c for c in half] if family == "D"
                              else half)
            count = 0
            for coords in values:
                for nu in map(Weight, itertools.product(coords,
                                                        repeat=rs.rank)):
                    if rs.is_dominant(nu):
                        assert weyl_dim(rs, nu) == \
                            reference_weyl_dim(rs, nu), (family, rank, nu)
                        count += 1
            assert count >= rank + 1

    def test_refined_grid_matches_fraction_product(self):
        rs = build_classical("A", 2)
        for text in ("2/3,-1/3,-1/3", "1/3,1/3,-2/3", "4/3,1/3,-5/3"):
            nu = W(text)
            assert weyl_dim(rs, nu) == reference_weyl_dim(rs, nu), nu
        assert weyl_dim(rs, W("2/3,-1/3,-1/3")) == 3

    def test_half_integral_mass(self):
        cases = [
            ("B", 3, ["1/2,1/2,1/2", "3/2,1/2,1/2", "3/2,3/2,3/2"]),
            ("D", 4, ["1/2,1/2,1/2,1/2", "1/2,1/2,1/2,-1/2",
                      "3/2,1/2,1/2,1/2", "3/2,3/2,1/2,-1/2"]),
            ("B", 4, ["1/2,1/2,1/2,1/2", "3/2,1/2,1/2,1/2",
                      "3/2,3/2,1/2,1/2"]),
        ]
        for family, rank, nus in cases:
            rs = build_classical(family, rank)
            for nu in map(W, nus):
                assert mass(irreducible_character(rs, nu)) == \
                    weyl_dim(rs, nu), (family, rank, nu)


class TestHighestWeightCheck:
    """``_check_highest_weight`` on the grid point of nu against the
    ``Fraction`` checks: ``RootSystem.is_dominant``, then integrality
    (``reference_roots.reference_is_integral``), with the same messages."""

    # A-D, a subgroup with a torus direction (so5_so2xso3: h = {0,1} in
    # rank 2), an A1 in three coordinates and a torus of rank 2
    SYSTEMS = ([build_classical(family, rank) for family, rank in
                [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                 ("D", 4)]]
               + [builtin_pair("so5_so2xso3").h_system,
                  RootSystem(3, [(1, -1, 0)]), RootSystem(2, [])])
    COORDS = tuple(Fraction(n, d) for n, d in [
        (-1, 2), (-1, 3), (0, 1), (1, 3), (1, 2), (2, 3), (1, 1)])

    @pytest.mark.parametrize("rs", SYSTEMS, ids=repr)
    def test_matches_fraction_checks(self, rs):
        outcomes = set()
        for nu in map(Weight, itertools.product(self.COORDS,
                                                repeat=rs.rank)):
            if not rs.is_dominant(nu):
                expected = f"{nu} is not dominant for {rs}"
            elif not reference_is_integral(rs, nu):
                expected = f"{nu} is not algebraically integral for {rs}"
            else:
                expected = None
            try:
                g, x = characters._highest_weight_point(rs, nu)
            except NonDominantError as exc:
                assert str(exc) == expected, nu
            else:
                assert expected is None and g.weight(x) == nu, nu
            outcomes.add(expected is None)
        # a torus has only dominant integral weights
        assert outcomes == {True, not rs.simple_roots}

    def test_a2_third_weights(self):
        rs = build_classical("A", 2)
        g, x = characters._highest_weight_point(rs, W("2/3,-1/3,-1/3"))
        assert (g.scale, x) == (6, (4, -2, -2))
        assert weyl_dim(rs, W("2/3,-1/3,-1/3")) == 3
        with pytest.raises(NonDominantError,
                           match="^-1/3,2/3,-1/3 is not dominant for "):
            weyl_dim(rs, W("-1/3,2/3,-1/3"))


class TestWrongLengthNu:
    """A nu whose length is not the rank raises DimensionError before any
    grid point is taken."""

    B2 = build_classical("B", 2)
    CALLS = {
        "weight_table": lambda rs, nu: weight_table(rs, nu),
        "weyl_dim": lambda rs, nu: weyl_dim(rs, nu),
        "tensor-first": lambda rs, nu: tensor(rs, nu, W("1,0")),
        "tensor-second": lambda rs, nu: tensor(rs, W("1,0"), nu),
        "branch_equal_rank": lambda rs, nu: branch_equal_rank(
            builtin_pair("so5_so4"), nu)}

    @pytest.mark.parametrize("text", ["2,1,0", "1,0,0", "1"])
    @pytest.mark.parametrize("name", CALLS)
    def test_raises_dimension_error(self, name, text):
        message = f"^weight length {len(W(text))} vs rank 2$"
        with pytest.raises(DimensionError, match=message):
            self.CALLS[name](self.B2, W(text))


class TestNonReducedRefused:
    """Freudenthal and Weyl's product need a reduced root system: on BC1,
    whose root 1 is twice its root 1/2, every character entry point
    raises UnsupportedRootSystemError, a ValueError, naming the root."""

    BC1 = bc1_pair()
    CALLS = {
        "weight_table": lambda pair, nu: weight_table(pair.root_system, nu),
        "weyl_dim": lambda pair, nu: weyl_dim(pair.root_system, nu),
        "tensor": lambda pair, nu: tensor(pair.root_system, nu, nu),
        "branch_equal_rank": branch_equal_rank}

    @pytest.mark.parametrize("text", ["0", "1/2", "1"])
    @pytest.mark.parametrize("name", CALLS)
    def test_raises(self, name, text):
        with pytest.raises(UnsupportedRootSystemError) as raised:
            self.CALLS[name](self.BC1, W(text))
        assert str(raised.value) == (f"{self.BC1.root_system} is not reduced: "
                                     "its root 1 is twice the root 1/2")


class TestDecompose:
    def test_roundtrip_single(self):
        rs = build_classical("B", 2)
        ch = irreducible_character(rs, W("1,0"))
        assert decompose(ch, rs) == {W("1,0"): 1}

    def test_three_times_three(self):
        rs = build_classical("B", 1)
        prod = (irreducible_character(rs, W("1"))
                * irreducible_character(rs, W("1")))
        assert decompose(prod, rs) == {W("2"): 1, W("1"): 1, W("0"): 1}

    def test_non_invariant_raises_symmetry_error(self):
        rs = build_classical("B", 2)
        with pytest.raises(SymmetryError):
            decompose(mono("1,0") + mono("0,1"), rs)

    def test_invariant_but_negative_raises(self):
        rs = build_classical("B", 1)
        adjoint = irreducible_character(rs, W("1"))
        trivial = irreducible_character(rs, W("0"))
        with pytest.raises(DecompositionError):
            decompose(trivial - adjoint, rs)

    def test_tensor_dimension_balance(self):
        rs = build_classical("B", 2)
        for nu1, nu2 in [(W("1,0"), W("1,0")), (W("1,0"), W("1/2,1/2")),
                         (W("1,1"), W("1,0"))]:
            product = (irreducible_character(rs, nu1)
                       * irreducible_character(rs, nu2))
            parts = decompose(product, rs)
            total = sum(m * weyl_dim(rs, w) for w, m in parts.items())
            assert total == weyl_dim(rs, nu1) * weyl_dim(rs, nu2)

    @given(st.sampled_from([("B", 2), ("A", 2), ("D", 2), ("B", 3)]),
           st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)),
                    min_size=1, max_size=4))
    @settings(max_examples=12, deadline=None)
    def test_roundtrip_random_combinations(self, system, picks):
        family, rank = system
        rs = build_classical(family, rank)
        dominant = []
        for coords in itertools.product(range(3), repeat=rs.rank):
            nu = Weight(coords)
            if rs.is_dominant(nu):
                dominant.append(nu)
        combo = {}
        total = FormalCharacter.zero(rs.rank)
        for index, mult in picks:
            nu = dominant[index % len(dominant)]
            combo[nu] = combo.get(nu, 0) + mult
            total += irreducible_character(rs, nu) * mult
        assert decompose(total, rs) == combo


@lru_cache(maxsize=None)
def dominant_grid(rs, top, half=False):
    """Dominant weights with coordinates in 0..top, and with every
    coordinate shifted by 1/2 as well when ``half``; built once per
    session."""
    shifts = [Weight.zero(rs.rank)]
    if half:
        shifts.append(Weight([Fraction(1, 2)] * rs.rank))
    return tuple(
        nu for coords in itertools.product(range(top + 1), repeat=rs.rank)
        for nu in (Weight(coords) + s for s in shifts) if rs.is_dominant(nu))


class TestDecomposeMatchesPeel:
    """Straightening against the test reference peel on the same input."""

    SYSTEMS = [("A", 2, 2, False), ("A", 3, 1, False), ("B", 2, 2, True),
               ("B", 3, 1, True), ("C", 2, 2, False), ("C", 3, 1, False),
               ("D", 3, 1, True), ("D", 4, 1, True)]

    def assert_agree(self, ch, rs):
        try:
            expected = peel(ch, rs)
        except (DecompositionError, NonDominantError, SymmetryError) as exc:
            with pytest.raises(type(exc)):
                decompose(ch, rs)
            return None
        assert decompose(ch, rs) == expected
        return expected

    def test_products(self):
        cases = spin = 0
        for family, rank, top, half in self.SYSTEMS:
            rs = build_classical(family, rank)
            nus = dominant_grid(rs, top, half)
            for nu1, nu2 in itertools.combinations_with_replacement(nus, 2):
                dim = weyl_dim(rs, nu1) * weyl_dim(rs, nu2)
                if dim > 200:
                    continue
                product = (irreducible_character(rs, nu1)
                           * irreducible_character(rs, nu2))
                parts = self.assert_agree(product, rs)
                assert sum(m * weyl_dim(rs, w)
                           for w, m in parts.items()) == dim
                cases += 1
                spin += not (is_integer_vector(nu1)
                             and is_integer_vector(nu2))
        assert (cases, spin) == (182, 48)

    def test_random_signed_combinations(self):
        rng = random.Random(6)
        raised = 0
        for family, rank, top, half in self.SYSTEMS:
            rs = build_classical(family, rank)
            nus = [nu for nu in dominant_grid(rs, top, half)
                   if weyl_dim(rs, nu) <= 64]
            for _ in range(25):
                combo = {}
                for nu in rng.sample(nus, rng.randint(1, 4)):
                    combo[nu] = rng.choice((-2, -1, 1, 2, 3))
                total = FormalCharacter.zero(rs.rank)
                for nu, c in combo.items():
                    total += irreducible_character(rs, nu) * c
                parts = self.assert_agree(total, rs)
                if parts is None:
                    assert min(combo.values()) < 0
                    raised += 1
                else:
                    assert parts == combo
        assert 40 < raised < 160  # both outcomes well represented

    @pytest.mark.parametrize("name", builtin_pair_names())
    def test_branch_equal_rank_over_a_box(self, name):
        pair = builtin_pair(name)
        rs = pair.root_system
        top = {"so3_so2": 4, "so5_so4": 2, "so5_so2xso3": 2}.get(name, 1)
        nus = [nu for nu in dominant_grid(rs, top, half=True)
               if reference_contains(pair.lattice_F1, nu)]
        assert len(nus) >= 4
        for nu in nus:
            assert branch_equal_rank(pair, nu) == peel(
                irreducible_character(rs, nu), pair.h_system), nu

    def test_cancelled_negative_constituent_raises(self):
        # chi_1 - chi_0 = e^1 + e^-1 in B1: the weight 0 of the negative
        # constituent is gone from the support, and e^-1 straightens to it
        rs = build_classical("B", 1)
        ch = irreducible_character(rs, W("1")) - irreducible_character(rs, W("0"))
        assert ch.terms == {W("1"): 1, W("-1"): 1}
        with pytest.raises(DecompositionError, match="-1 at 0"):
            decompose(ch, rs)
        with pytest.raises(DecompositionError):
            peel(ch, rs)

    def test_non_invariant_characters_raise(self):
        # e^(1,0) has no image e^(0,-1) or e^(-1,0) beside it, and e^(1,1)
        # added to the vector no orbit: both invariance checks must fire
        rs = build_classical("B", 2)
        for ch in (mono("1,0") + mono("0,1"),
                   irreducible_character(rs, W("1,0")) + mono("1,1")):
            with pytest.raises(SymmetryError, match="not invariant"):
                peel(ch, rs)
            assert self.assert_agree(ch, rs) is None

    def test_non_integral_support_raises(self):
        rs = build_classical("B", 1)
        ch = mono("1/3") + mono("-1/3")
        with pytest.raises(NonDominantError):
            decompose(ch, rs)
        with pytest.raises(NonDominantError):
            peel(ch, rs)


class TestBranching:
    def test_so5_vector(self):
        pair = builtin_pair("so5_so4")
        assert branch_equal_rank(pair, W("1,0")) == {
            W("1,0"): 1, W("0,0"): 1}

    def test_so5_spin(self):
        pair = builtin_pair("so5_so4")
        assert branch_equal_rank(pair, W("1/2,1/2")) == {
            W("1/2,1/2"): 1, W("1/2,-1/2"): 1}

    def test_trivial(self):
        for name in ("so3_so2", "so5_so4", "so5_so2xso3"):
            pair = builtin_pair(name)
            zero = Weight.zero(pair.rank)
            assert branch_equal_rank(pair, zero) == {zero: 1}

    def test_interleave_m2_vector(self):
        assert branch_interleave_BD(2, W("1,0")) == {
            W("1,0"): 1, W("0,0"): 1}

    def test_interleave_m1_range(self):
        assert branch_interleave_BD(1, W("2")) == {
            W(str(k)): 1 for k in range(-2, 3)}

    def test_interleave_trivial(self):
        assert branch_interleave_BD(2, W("0,0")) == {W("0,0"): 1}

    def test_interleave_rejects_mixed_class(self):
        with pytest.raises(ValueError):
            branch_interleave_BD(2, W("3/2,1"))

    def test_interleave_rejects_non_dominant(self):
        with pytest.raises(NonDominantError):
            branch_interleave_BD(2, W("0,1"))

    @pytest.mark.parametrize("name,m", [("so3_so2", 1), ("so5_so4", 2)])
    def test_cross_check_small(self, name, m):
        pair = builtin_pair(name)
        for base in itertools.product(range(3), repeat=m):
            for half in (False, True):
                nu = Weight(base)
                if half:
                    nu = nu + Weight([Fraction(1, 2)] * m)
                if not pair.root_system.is_dominant(nu):
                    continue
                assert branch_equal_rank(pair, nu) == \
                    branch_interleave_BD(m, nu), nu


class TestWeightMultiplicity:
    @pytest.mark.parametrize("family,rank,nu", [
        ("B", 2, "2,1"), ("B", 3, "3/2,1/2,1/2"), ("C", 2, "2,1"),
        ("D", 4, "2,1,1,0"), ("A", 2, "2,1,0")])
    def test_matches_irreducible_character(self, family, rank, nu):
        rs = build_classical(family, rank)
        nu = W(nu)
        ch = irreducible_character(rs, nu)
        for w, mult in ch.terms.items():
            assert weight_multiplicity(rs, nu, w) == mult
        # one step above the top and outside the lattice coset: not weights
        for a in rs.simple_roots:
            assert weight_multiplicity(rs, nu, nu + a) == 0
        shifted = nu + Weight([Fraction(1, 3)] + [0] * (len(nu) - 1))
        assert weight_multiplicity(rs, nu, shifted) == 0

    def test_non_dominant_rejected(self):
        rs = build_classical("B", 2)
        with pytest.raises(NonDominantError):
            weight_multiplicity(rs, W("0,1"), W("5,5"))


@lru_cache(maxsize=None)
def small_highest_weights(rs):
    """The dominant integral nu with coordinates in {-2, -3/2, ..., 2},
    built once per session."""
    coords = [Fraction(k, 2) for k in range(-4, 5)]
    box = map(Weight, itertools.product(coords, repeat=rs.rank))
    return tuple(nu for nu in box
                 if rs.is_dominant(nu) and reference_is_integral(rs, nu))


class TestIntegerTable:
    """The scaled-integer weight table against Freudenthal on Fraction
    weights (``reference_characters.reference_character``)."""

    @pytest.mark.parametrize("family,rank", [
        ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4), ("C", 2),
        ("C", 3), ("C", 4), ("D", 4)])
    def test_matches_fraction_freudenthal(self, family, rank):
        rs = build_classical(family, rank)
        count = 0
        for nu in small_highest_weights(rs):
            assert irreducible_character(rs, nu).terms == \
                reference_character(rs, nu), nu
            count += 1
        assert count >= 6

    def test_a2_needs_the_denominator_of_nu(self):
        rs = build_classical("A", 2)
        nu = W("2/3,-1/3,-1/3")
        table = characters.weight_table(rs, nu)
        assert table.grid.scale == 6
        assert irreducible_character(rs, nu).terms == \
            reference_character(rs, nu)
        assert sum(table.terms.values()) == weyl_dim(rs, nu) == 3


class TestGridStraightening:
    """``tensor`` and ``branch_equal_rank`` straighten the integer weight
    tables on the grid; the peel on ``Fraction`` characters is the
    reference."""

    @pytest.mark.parametrize("family,rank,nu1,nu2,scales", [
        ("A", 2, "2/3,-1/3,-1/3", "1/3,1/3,-2/3", (6, 6)),
        ("A", 2, "2/3,-1/3,-1/3", "1,0,-1", (6, 2)),
        ("B", 2, "1/2,1/2", "1,0", (2, 2)),
        ("B", 3, "1/2,1/2,1/2", "3/2,1/2,1/2", (2, 2)),
        ("C", 2, "1,1", "2,0", (2, 2))])
    def test_tensor_matches_peel(self, family, rank, nu1, nu2, scales):
        rs = build_classical(family, rank)
        nu1, nu2 = W(nu1), W(nu2)
        assert tuple(characters.weight_table(rs, nu).grid.scale
                     for nu in (nu1, nu2)) == scales
        product = (irreducible_character(rs, nu1)
                   * irreducible_character(rs, nu2))
        expected = peel(product, rs)
        assert characters.tensor(rs, nu1, nu2) == expected
        assert decompose(product, rs) == expected
        assert sum(m * weyl_dim(rs, w) for w, m in expected.items()) == \
            weyl_dim(rs, nu1) * weyl_dim(rs, nu2)

    @pytest.mark.parametrize("nu", ["1/2,1/2,1/2,1/2", "5/2,3/2,1/2,1/2"])
    def test_branch_half_integral_nu(self, nu):
        pair = builtin_pair("so9_so8")
        nu = W(nu)
        expected = peel(irreducible_character(pair.root_system, nu),
                        pair.h_system)
        assert branch_equal_rank(pair, nu) == expected
        assert expected == branch_interleave_BD(4, nu)

    def test_branch_quarter_delta(self):
        pair = quarter_delta_pair()
        rs = pair.root_system
        assert characters.grid(rs).scale == 4
        nus = [nu for nu in dominant_grid(rs, 1, half=True)
               if reference_contains(pair.lattice_F1, nu)]
        assert len(nus) == 6
        for nu in nus:
            assert branch_equal_rank(pair, nu) == peel(
                irreducible_character(rs, nu), pair.h_system), nu

    @pytest.mark.parametrize("scale", [None, 6])
    def test_messages_name_the_callers_system(self, scale):
        # grid is cached by RootSystem equality, which ignores the name, so
        # the grid of D4 may belong to so9_so8's Delta_h (equal to D4) or to
        # the decoy built first; the message names the system passed in
        d4 = build_classical("D", 4)
        characters.grid(builtin_pair("so9_so8").h_system)
        decoy = RootSystem(4, d4.positive_roots, name="decoy")
        characters.grid(decoy, 6)
        g = characters.grid(d4, scale)
        w = Weight((Fraction(1, g.scale), 0, 0, 0))
        with pytest.raises(NonDominantError, match=(
                rf"^{w} is not algebraically integral for "
                rf"RootSystem\(D4, 12 positive roots\)$")):
            characters._straighten(d4, g, {(1, 0, 0, 0): 1,
                                           (-1, 0, 0, 0): 1})

    def test_unpaired_point_below_a_wall_raises(self):
        # the vector of B2 plus -2e1: it is on the wall of e2 and below
        # that of e1 - e2, and s -2e1 = -2e2 is absent.  It is never
        # reflected, as only points above a wall are, so the count of
        # the points below each wall must catch it
        rs = build_classical("B", 2)
        table = weight_table(rs, W("1,0"))
        g = table.grid
        terms = {**table.terms, g.point(W("-2,0")): 1}
        with pytest.raises(SymmetryError) as raised:
            characters._straighten(rs, g, terms)
        assert str(raised.value) == (
            "character is not invariant under reflection in 1,-1")
        assert characters._straighten(rs, g, table.terms) == {W("1,0"): 1}


class TestInvariantsRaise:
    """Broken invariants raise ConsistencyError, also under python -O."""

    def test_freudenthal_integrality(self, monkeypatch):
        rs = build_classical("B", 2)
        nu = W("1,1")
        g = characters.grid(rs)
        # without 1,0 (and so its orbit) the table is incomplete, and
        # Freudenthal gives 4/3 at 0,0
        full = characters._dominant_weights(g, g.point(nu))
        broken = [x for x in full if x != g.point(W("1,0"))]
        assert len(broken) == len(full) - 1
        monkeypatch.setattr(characters, "_dominant_weights",
                            lambda grid, top: broken)
        with pytest.raises(ConsistencyError, match="Freudenthal"):
            characters.grid_table.__wrapped__(g, g.point(nu))

    def test_off_grid_coordinate(self, monkeypatch):
        # delta = 3/2,1/2 of B2 is not on the grid Z, so a grid of scale 1
        # cannot be built, and a reflection of a non-integral weight has
        # no integral coroot pairing
        rs = build_classical("B", 2)
        monkeypatch.setattr(characters, "grid",
                            lambda rs, scale=None: characters.Grid(rs, 1))
        with pytest.raises(ConsistencyError, match="not on the grid"):
            characters.weight_table(rs, W("1,0"))
        g = characters.Grid(rs, 4)
        with pytest.raises(ConsistencyError, match="pairs to 1/2"):
            g.reflect(g.point(W("0,1/4")), 1)

    def test_weyl_dim_integrality(self, monkeypatch):
        # weyl_dim reads D delta off the grid; with delta = 3,1 in place of
        # 3/2,1/2 the product formula gives 5/2 at nu = 1,0
        rs = build_classical("B", 2)
        broken = characters.Grid(rs, 2)
        broken.delta = broken.point(W("3,1"))
        monkeypatch.setattr(characters, "grid",
                            lambda rs, scale=None: broken)
        with pytest.raises(ConsistencyError, match="Weyl dimension"):
            weyl_dim(rs, W("1,0"))

    def test_branching_dimension_balance(self, monkeypatch):
        pair = builtin_pair("so5_so4")
        monkeypatch.setattr(characters, "_straighten",
                            lambda rs, g, terms: {W("1,0"): 1})
        with pytest.raises(ConsistencyError, match="lost dimensions"):
            branch_equal_rank(pair, W("1,0"))
