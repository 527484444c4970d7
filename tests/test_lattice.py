from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirackernel.errors import DimensionError
from dirackernel.lattice import LatticeSpec, Weight, inner_product
from dirackernel.roots import build_classical, grid
from support import (integers_and_half_integers, is_sublattice,
                     reference_contains)

HALF = Fraction(1, 2)


def W(text):
    return Weight.parse(text)


class TestWeight:
    def test_parse_and_format_roundtrip(self):
        for text in ["3/2,-1/2", "0,0,0", "-7", "1,2,3,4"]:
            assert str(W(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Weight.parse("")
        with pytest.raises(ValueError):
            Weight.parse("1,,2")
        with pytest.raises(ValueError):
            Weight.parse("1/0")

    def test_arithmetic_is_exact(self):
        a = W("1/3,1/3")
        b = W("2/3,-1/3")
        assert a + b == W("1,0")
        assert a - b == W("-1/3,2/3")
        assert a * 3 == W("1,1")
        assert -a == W("-1/3,-1/3")
        assert sum([a, b, W("0,1")]) == W("1,1")

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionError):
            W("1,2") + W("1,2,3")
        with pytest.raises(DimensionError):
            inner_product(W("1"), W("1,0"))


class TestInnerProduct:
    def test_orthonormal_basis(self):
        assert inner_product(W("1,0"), W("0,1")) == 0

    def test_half_integral(self):
        assert inner_product(W("3/2,1/2"), W("3/2,1/2")) == Fraction(5, 2)
        assert inner_product(W("1/2"), W("1/2")) == Fraction(1, 4)

    @given(st.lists(st.fractions(max_denominator=8), min_size=1, max_size=4),
           st.fractions(max_denominator=8))
    @settings(max_examples=50, deadline=None)
    def test_bilinear_and_symmetric(self, coords, c):
        a = Weight(coords)
        b = Weight(reversed(coords))
        assert inner_product(a * c, b) == c * inner_product(a, b)
        assert inner_product(a, b) == inner_product(b, a)


class TestMembership:
    # membership is a residue test on the integer grid of a root system
    B2 = grid(build_classical("B", 2))

    def test_so5_integral_forms(self):
        F = LatticeSpec.integers(2)
        assert self.B2.contains(F, W("2,-1"))
        assert not self.B2.contains(F, W("3/2,1/2"))

    def test_spin5_integral_forms(self):
        F1 = integers_and_half_integers(2)
        assert self.B2.contains(F1, W("3/2,1/2"))
        assert not self.B2.contains(F1, W("3/2,1"))

    @given(st.integers(-5, 5), st.integers(-5, 5), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_integer_translation(self, a, b, half):
        F1 = integers_and_half_integers(2)
        w = W("1/2,1/2") if half else W("0,1")
        shifted = w + Weight((a, b))
        assert self.B2.contains(F1, w) == self.B2.contains(F1, shifted)

    @pytest.mark.parametrize("text", ["1,0,0", "1"])
    def test_wrong_length_raises(self, text):
        message = f"^weight length {len(W(text))} vs lattice rank 2$"
        for contains in (self.B2.contains, reference_contains):
            with pytest.raises(DimensionError, match=message):
                contains(LatticeSpec.integers(2), W(text))

    def test_shift_constraints(self):
        with pytest.raises(ValueError):
            LatticeSpec(2, [W("0,0"), W("1/3,0")])
        with pytest.raises(ValueError):
            LatticeSpec(2, [W("1/2,1/2")])  # zero shift missing

    def test_sublattice_containment(self):
        F = LatticeSpec.integers(2)
        F1 = integers_and_half_integers(2)
        assert is_sublattice(F, F1)
        assert not is_sublattice(F1, F)
        # validate_pair compares the residues of the two on the grid
        g = grid(build_classical("B", 2))
        assert g.residues(F) <= g.residues(F1)
        assert not g.residues(F1) <= g.residues(F)


class TestDominance:
    B2 = build_classical("B", 2)  # simple roots 1,-1 and 0,1

    def test_decreasing_nonnegative(self):
        assert self.B2.is_dominant(W("2,1"), strict=False)

    def test_wall_weight_not_strict(self):
        assert not self.B2.is_dominant(W("1,1"), strict=True)
        assert self.B2.is_dominant(W("1,1"), strict=False)

    def test_strictly_dominant_half_integral(self):
        assert self.B2.is_dominant(W("3/2,1/2"), strict=True)

    def test_wrong_length_raises(self):
        with pytest.raises(DimensionError):
            self.B2.is_dominant(W("1,0,0"))

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_strict_implies_non_strict(self, a, b):
        w = Weight((a, b))
        if self.B2.is_dominant(w, strict=True):
            assert self.B2.is_dominant(w, strict=False)
