import itertools
from collections import Counter
from fractions import Fraction

import pytest

from clifford_model import (_kernel_basis, _m_add, _m_identity, _m_mul,
                            _m_scale, build_clifford, pair_operators,
                            simultaneous_spin_weights)
from corpus import corpus_pair
from dirackernel.lattice import Weight
from dirackernel.spin import (_entries_from_roots, chi_decompose,
                              chi_trace_difference, spinor_weights)
from dirackernel.characters import FormalCharacter, irreducible_character
from dirackernel.sympair import builtin_pair, builtin_pair_names
from support import mass


def W(text):
    return Weight.parse(text)


# the built-ins, and two marked-node pairs whose half-spin weights repeat
# (the 8 rows of E+ of C3 node 0 give 7 weights, the 32 of B3 node 1 24)
SPIN_PAIRS = ([builtin_pair(name) for name in builtin_pair_names()]
              + [corpus_pair("C", 3, 0), corpus_pair("B", 3, 1)])


class TestCliffordModel:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_relations_hold_exactly(self, n):
        c = build_clifford(n)
        ident = _m_identity(c.size)
        minus_two = _m_scale(ident, (Fraction(-2), Fraction(0)))
        for j in range(n):
            for k in range(n):
                anti = _m_add(_m_mul(c.generators[j], c.generators[k]),
                              _m_mul(c.generators[k], c.generators[j]))
                assert anti == (minus_two if j == k else {}), (j, k)

    def test_n2_generators_anticommute_exactly(self):
        c = build_clifford(2)
        e1, e2 = c.generators
        assert _m_add(_m_mul(e1, e2), _m_mul(e2, e1)) == {}

    @pytest.mark.parametrize("n,size", [(2, 2), (4, 4), (6, 8), (8, 16)])
    def test_spinor_space_dimension(self, n, size):
        assert build_clifford(n).size == size

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_volume_eigenspaces_split_evenly(self, n):
        c = build_clifford(n)
        ident = _m_identity(c.size)
        for sign in (1, -1):
            shifted = _m_add(c.volume,
                             _m_scale(ident, (Fraction(-sign), Fraction(0))))
            assert len(_kernel_basis(shifted, c.size)) == c.size // 2

    def test_volume_is_product_of_pair_operators(self):
        for n in (4, 6):
            c = build_clifford(n)
            prod = _m_identity(c.size)
            for om in pair_operators(c):
                prod = _m_mul(prod, om)
            assert prod == c.volume

    def test_entries_are_gaussian_integers(self):
        c = build_clifford(6)
        for g in c.generators:
            for re, im in g.values():
                assert re.denominator == 1 and im.denominator == 1

    def test_rejects_bad_sizes(self):
        for n in (1, 3, 0, 14):
            with pytest.raises(ValueError):
                build_clifford(n)

    def test_largest_supported_sizes(self):
        # relations and volume invariants are verified at construction
        for n in (10, 12):
            c = build_clifford(n)
            assert c.size == 2 ** (n // 2)
            spectrum = simultaneous_spin_weights(c)
            assert len(spectrum) == c.size


class TestSimultaneousSpinWeights:
    def test_n2(self):
        assert simultaneous_spin_weights(build_clifford(2)) == [
            W("-1/2"), W("1/2")]

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_full_sign_hypercube_each_once(self, n):
        m = n // 2
        got = simultaneous_spin_weights(build_clifford(n))
        expected = sorted(Weight(Fraction(e, 2) for e in eps)
                          for eps in itertools.product((1, -1), repeat=m))
        assert got == expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matrix_route_matches_combinatorial_route(self, m):
        # For the odd/even orthogonal pairs Delta_p^+ is an orthogonal set,
        # so the matrix spectrum scaled onto the axes reproduces the
        # spinor weights.
        pair = builtin_pair(f"so{2 * m + 1}_so{2 * m}")
        combinatorial = sorted(
            e.weight for e in spinor_weights(pair).entries)
        matrix_route = simultaneous_spin_weights(build_clifford(2 * m))
        assert combinatorial == matrix_route


class TestSpinorWeights:
    def test_so3_so2(self):
        sw = spinor_weights(builtin_pair("so3_so2"))
        assert sw.side_character(1).terms == {W("1/2"): 1}
        assert sw.side_character(-1).terms == {W("-1/2"): 1}

    def test_so5_so4_parity_split(self):
        sw = spinor_weights(builtin_pair("so5_so4"))
        assert sw.side_character(1).terms == {W("-1/2,-1/2"): 1,
                                              W("1/2,1/2"): 1}
        assert sw.side_character(-1).terms == {W("-1/2,1/2"): 1,
                                               W("1/2,-1/2"): 1}

    def test_so5_so2xso3_eight_weights(self):
        sw = spinor_weights(builtin_pair("so5_so2xso3"))
        assert len(sw.entries) == 8
        expected = set()
        for eps in itertools.product((1, -1), repeat=3):
            total = (W("1,-1") * Fraction(eps[0], 2)
                     + W("1,1") * Fraction(eps[1], 2)
                     + W("1,0") * Fraction(eps[2], 2))
            expected.add(total)
        assert {e.weight for e in sw.entries} == expected

    def test_entry_count_is_2_to_m(self):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            assert len(spinor_weights(pair).entries) == 2 ** pair.m

    def test_parity_independent_of_enumeration_order(self):
        roots = [W("1,-1"), W("1,1"), W("1,0")]
        base = {(e.weight, e.parity)
                for e in _entries_from_roots(tuple(roots), 2)}
        for perm in itertools.permutations(roots):
            shuffled = {(e.weight, e.parity)
                        for e in _entries_from_roots(tuple(perm), 2)}
            assert shuffled == base

    def test_weight_disjointness(self):
        for name in builtin_pair_names():
            sw = spinor_weights(builtin_pair(name))
            assert not (sw.side_character(1).terms.keys()
                        & sw.side_character(-1).terms.keys())

    @pytest.mark.parametrize("pair", SPIN_PAIRS, ids=lambda p: p.name)
    def test_side_character_counts_the_rows(self, pair):
        sw = spinor_weights(pair)
        for side in (1, -1):
            rows = Counter(e.weight for e in sw.entries if e.parity == side)
            assert sw.side_character(side).terms == dict(rows)

    @pytest.mark.parametrize("pair", SPIN_PAIRS, ids=lambda p: p.name)
    def test_rows_in_product_order(self, pair):
        # row k is the k-th sign vector of itertools.product((1, -1), ...)
        sw = spinor_weights(pair)
        signs = itertools.product((1, -1), repeat=pair.m)
        for e, eps in zip(sw.entries, signs, strict=True):
            assert e.epsilon == eps
            assert e.weight == sum((a * Fraction(x, 2) for x, a in
                                    zip(eps, pair.p_positive)),
                                   Weight.zero(pair.rank))
            assert e.parity == (-1) ** eps.count(-1)

    def test_half_spinor_characters_have_equal_mass(self):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            sw = spinor_weights(pair)
            half = 2 ** (pair.m - 1)
            assert mass(sw.side_character(1)) == half
            assert mass(sw.side_character(-1)) == half


class TestTraceDifference:
    def test_so3_so2_single_factor(self):
        ch = chi_trace_difference(builtin_pair("so3_so2"))
        assert ch.terms == {W("1/2"): 1, W("-1/2"): -1}

    def test_so5_so4_two_factors(self):
        ch = chi_trace_difference(builtin_pair("so5_so4"))
        assert ch.terms == {W("1/2,1/2"): 1, W("1/2,-1/2"): -1,
                            W("-1/2,1/2"): -1, W("-1/2,-1/2"): 1}

    def test_identity_for_all_builtins(self):
        # chi_trace_difference asserts the product equals the parity-signed
        # spinor-weight sum internally; reaching here means it held.
        for name in builtin_pair_names():
            chi_trace_difference(builtin_pair(name))


class TestChiDecompose:
    def test_so5_so4(self):
        plus, minus = chi_decompose(builtin_pair("so5_so4"))
        assert plus == {W("1/2,1/2"): 1}
        assert minus == {W("1/2,-1/2"): 1}

    def test_so3_so2(self):
        plus, minus = chi_decompose(builtin_pair("so3_so2"))
        assert plus == {W("1/2"): 1}
        assert minus == {W("-1/2"): 1}

    def test_so5_so2xso3(self):
        plus, minus = chi_decompose(builtin_pair("so5_so2xso3"))
        assert plus == {W("3/2,0"): 1, W("-1/2,1"): 1}
        assert minus == {W("-3/2,0"): 1, W("1/2,1"): 1}

    def test_multiplicity_one_and_character_identity(self):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            plus, minus = chi_decompose(pair)
            assert set(plus.values()) <= {1}
            assert set(minus.values()) <= {1}
            sw = spinor_weights(pair)
            for side, mapping in ((1, plus), (-1, minus)):
                total = FormalCharacter.zero(pair.rank)
                for hw in mapping:
                    total += irreducible_character(pair.h_system, hw)
                assert total == sw.side_character(side)


class TestMergePath:
    def test_coinciding_sign_sums_merge_in_characters(self):
        # Synthetic root list where distinct sign vectors give one weight:
        # with alpha_1 = alpha_2 = (1,0) the vectors (+,-) and (-,+) both
        # produce (0,0); character-level bookkeeping must merge them.
        entries = _entries_from_roots((W("1,0"), W("1,0")), 2)
        zero_entries = [e for e in entries if e.weight == W("0,0")]
        assert len(zero_entries) == 2
        assert all(e.parity == -1 for e in zero_entries)
        minus_char = FormalCharacter.zero(2)
        for e in entries:
            if e.parity == -1:
                minus_char += FormalCharacter.monomial(e.weight)
        assert minus_char.terms[W("0,0")] == 2
