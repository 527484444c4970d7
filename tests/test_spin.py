import itertools
from collections import Counter
from fractions import Fraction

import pytest

import dirackernel.spin as spin
from clifford_model import (_m_identity, _m_mul, build_clifford,
                            pair_operators, simultaneous_spin_weights)
from corpus import W1_PAIRS, corpus_pair
from dirackernel.errors import ConsistencyError
from dirackernel.lattice import Weight
from dirackernel.roots import grid
from dirackernel.spin import (chi_decompose, chi_disjointness_check,
                              chi_trace_difference, spinor_counts,
                              spinor_weights)
from dirackernel.sympair import builtin_pair, builtin_pair_names
from reference_characters import (FormalCharacter, binomial_reference,
                                  irreducible_character, peel,
                                  side_character)
from reference_roots import W


def as_weights(pair, points: dict) -> dict:
    """A dict on ``grid(pair.root_system)`` keyed by ``Weight``s."""
    g = grid(pair.root_system)
    return {g.weight(x): n for x, n in points.items()}


def counted(pair, side) -> dict:
    """chi^side from ``spinor_counts``, keyed by ``Weight``s."""
    return as_weights(pair, spinor_counts(pair)[side])


# the built-ins, and two marked-node pairs whose half-spin weights repeat
# (the 8 rows of E+ of C3 node 0 give 7 weights, the 32 of B3 node 1 24)
SPIN_PAIRS = ([builtin_pair(name) for name in builtin_pair_names()]
              + [corpus_pair("C", 3, 0), corpus_pair("B", 3, 1)])


class TestCliffordModel:
    # the relations, dimensions, volume eigenspaces and joint spectra for
    # n <= 8 are checked once, in test_criterion_08_clifford_model

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
        pair = builtin_pair("so3_so2")
        assert counted(pair, 1) == {W("1/2"): 1}
        assert counted(pair, -1) == {W("-1/2"): 1}

    def test_so5_so4_parity_split(self):
        pair = builtin_pair("so5_so4")
        assert counted(pair, 1) == {W("-1/2,-1/2"): 1, W("1/2,1/2"): 1}
        assert counted(pair, -1) == {W("-1/2,1/2"): 1, W("1/2,-1/2"): 1}

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
        # D alpha / 2 on the grid D = 2 of the roots 1,-1 and 1,1 and 1,0
        halves = [(1, -1), (1, 1), (1, 0)]
        base = set(spin._rows(halves, 2))
        assert len(base) == 8
        for perm in itertools.permutations(halves):
            assert set(spin._rows(perm, 2)) == base

    def test_weight_disjointness(self):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            counts = spinor_counts(pair)
            assert not counts[1].keys() & counts[-1].keys()
            chi_disjointness_check(pair)

    @pytest.mark.parametrize("pair", SPIN_PAIRS, ids=lambda p: p.name)
    def test_side_character_counts_the_rows(self, pair):
        sw = spinor_weights(pair)
        for side in (1, -1):
            rows = Counter(e.weight for e in sw.entries if e.parity == side)
            assert side_character(pair, side).terms == dict(rows)
            assert counted(pair, side) == dict(rows)

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
            half = 2 ** (pair.m - 1)
            assert sum(spinor_counts(pair)[1].values()) == half
            assert sum(spinor_counts(pair)[-1].values()) == half


class TestTraceDifference:
    def test_so3_so2_single_factor(self):
        pair = builtin_pair("so3_so2")
        assert as_weights(pair, chi_trace_difference(pair)) == {
            W("1/2"): 1, W("-1/2"): -1}

    def test_so5_so4_two_factors(self):
        pair = builtin_pair("so5_so4")
        assert as_weights(pair, chi_trace_difference(pair)) == {
            W("1/2,1/2"): 1, W("1/2,-1/2"): -1, W("-1/2,1/2"): -1,
            W("-1/2,-1/2"): 1}

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
            for side, mapping in ((1, plus), (-1, minus)):
                total = FormalCharacter.zero(pair.rank)
                for hw in mapping:
                    total += irreducible_character(pair.h_system, hw)
                assert total == side_character(pair, side)

    def test_non_invariant_chi_raises(self, monkeypatch):
        # chi^+ of so7_so6 with one more weight at -delta_h: its shift by
        # delta_h is 0, singular, so straightening drops it and the
        # components still match W_1; the invariance check alone fails
        pair = builtin_pair("so7_so6")
        h = grid(pair.h_system, grid(pair.root_system).scale)
        counts = spinor_counts(pair)
        moved = {1: {**counts[1], tuple(-c for c in h.delta): 1},
                 -1: counts[-1]}
        monkeypatch.setattr(spin, "spinor_counts", lambda p: moved)
        spin.chi_components.cache_clear()
        with pytest.raises(ConsistencyError,
                           match=r"chi\^\+ is not invariant under "
                                 r"reflection in"):
            chi_decompose(pair)


class TestMergePath:
    def test_coinciding_sign_sums_merge_in_characters(self):
        # Synthetic root list where distinct sign vectors give one weight:
        # with alpha_1 = alpha_2 = (1,0), D alpha / 2 = (1,0) on the grid
        # D = 2, the vectors (+,-) and (-,+) both produce (0,0);
        # character-level bookkeeping must merge them.
        rows = spin._rows(((1, 0), (1, 0)), 2)
        zero_rows = [row for row in rows if row[0] == (0, 0)]
        assert zero_rows == [((0, 0), -1), ((0, 0), -1)]
        minus_char = FormalCharacter.zero(2)
        for x, parity in rows:
            if parity == -1:
                minus_char += FormalCharacter.monomial(
                    Weight(Fraction(c, 2) for c in x))
        assert minus_char.terms[W("0,0")] == 2
        # C3 node 0: two of the 8 rows of E+ give one weight
        counts = spinor_counts(corpus_pair("C", 3, 0))[1]
        assert sorted(counts.values()) == [1] * 6 + [2]


class TestGridAgainstReference:
    """The grid chi code against the ``Weight``-keyed reference."""

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_split_matches_peel(self, pair):
        plus, minus = chi_decompose(pair)
        for side, mapping in ((1, plus), (-1, minus)):
            assert peel(side_character(pair, side), pair.h_system) == mapping

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_counts_are_the_rows(self, pair):
        rows = spinor_weights(pair).entries
        assert len(rows) == 2 ** pair.m
        for side in (1, -1):
            assert counted(pair, side) == Counter(
                e.weight for e in rows if e.parity == side)

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_trace_difference_is_the_binomial_product(self, pair):
        assert as_weights(pair, chi_trace_difference(pair)) == \
            binomial_reference(pair).terms

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_flipped_row_parity_raises(self, pair, monkeypatch):
        # one row of E+ moved to E- at the same weight
        chi_trace_difference(pair)
        plus, minus = spinor_counts(pair)[1], spinor_counts(pair)[-1]
        x = next(iter(plus))
        moved = {1: {**plus, x: plus[x] - 1},
                 -1: {**minus, x: minus.get(x, 0) + 1}}
        monkeypatch.setattr(spin, "spinor_counts", lambda p: moved)
        with pytest.raises(ConsistencyError, match="trace difference"):
            chi_trace_difference(pair)

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_dropped_sigma_raises(self, pair, monkeypatch):
        for k in range(len(pair.w1)):
            kept = pair.w1[:k] + pair.w1[k + 1:]
            side = "+" if pair.w1[k].sign == 1 else "-"
            with monkeypatch.context() as patch:
                patch.setattr(pair, "w1", kept)
                with pytest.raises(ConsistencyError,
                                   match=f"chi\\^\\{side} does not"):
                    chi_decompose(pair)
        chi_decompose(pair)
