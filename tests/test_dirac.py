import itertools
from fractions import Fraction

import pytest

import dirackernel.dirac as dirac
import dirackernel.spin as spin
from character_reference import (casimir_shell, frobenius_multiplicity,
                                 irreducible_character, side_character)
from dirackernel.dirac import (KernelStatus, casimir_eigenvalue,
                               chi_casimir_check, dirac_kernel)
from dirackernel.errors import AdmissibilityError, ConsistencyError
from dirackernel.lattice import Weight, inner_product
from dirackernel.roots import Grid, grid, weyl_group
from dirackernel.spin import spinor_weights
from dirackernel.sympair import (SymmetricPair, admissibility_failures,
                                 admissible_mu, builtin_pair,
                                 builtin_pair_names)
from corpus import CORPUS, corpus_pair
from oracle_reference import checked_euler, reference_kernel
from peel_reference import peel
from support import (act, dominant_representative, identity, inverse,
                     quarter_delta_pair, reference_contains)


def W(text):
    return Weight.parse(text)


class TestCasimirEigenvalue:
    def test_so3_quadratic(self):
        assert casimir_eigenvalue(builtin_pair("so3_so2"), W("2")) == 6

    def test_zero(self):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            assert casimir_eigenvalue(pair, Weight.zero(pair.rank)) == 0

    def test_so5_vector(self):
        assert casimir_eigenvalue(builtin_pair("so5_so4"), W("1,0")) == 4


class TestChiCasimir:
    @pytest.mark.parametrize("name,expected", [
        ("so3_so2", Fraction(1, 4)),
        ("so5_so4", Fraction(3, 2)),
        ("so5_so2xso3", Fraction(9, 4)),
    ])
    def test_scalar_values(self, name, expected):
        assert chi_casimir_check(builtin_pair(name)) == expected

    def test_all_builtins_consistent(self):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            scalar = chi_casimir_check(pair)
            assert scalar == (inner_product(pair.delta, pair.delta)
                              - inner_product(pair.delta_h, pair.delta_h))


class TestDiracKernel:
    def test_so3_positive_lambda(self):
        result = dirac_kernel(builtin_pair("so3_so2"), W("5/2"))
        assert result.status is KernelStatus.MINUS
        assert result.nu == W("2")
        assert result.dimension == 5
        assert result.casimir == 6

    def test_so3_negative_lambda(self):
        result = dirac_kernel(builtin_pair("so3_so2"), W("-3/2"))
        assert result.status is KernelStatus.PLUS
        assert result.nu == W("1")
        assert result.dimension == 3

    def test_so5_positive(self):
        result = dirac_kernel(builtin_pair("so5_so4"), W("5/2,3/2"))
        assert result.status is KernelStatus.PLUS
        assert result.nu == W("2,1")
        assert result.dimension == 35

    def test_so5_negative_last_coordinate(self):
        result = dirac_kernel(builtin_pair("so5_so4"), W("3/2,-1/2"))
        assert result.status is KernelStatus.MINUS
        assert result.nu == W("1,0")
        assert result.sigma_sign == -1

    def test_both_zero_on_singular_wall(self):
        result = dirac_kernel(builtin_pair("so5_so2xso3"), W("3/2,1"))
        assert result.status is KernelStatus.BOTH_ZERO
        assert result.nu is None and result.sigma is None

    def test_inadmissible_mu_rejected(self):
        with pytest.raises(AdmissibilityError):
            dirac_kernel(builtin_pair("so3_so2"), W("2"))

    def test_status_matches_sign_rule(self):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            for coords in itertools.product(range(-2, 3), repeat=pair.rank):
                mu = Weight(coords) + pair.delta_p
                if not admissible_mu(pair, mu):
                    continue
                result = dirac_kernel(pair, mu)
                if result.status is KernelStatus.BOTH_ZERO:
                    continue
                plus = result.sigma_sign * (-1) ** pair.m == 1
                assert (result.status is KernelStatus.PLUS) == plus
                assert casimir_eigenvalue(pair, result.nu) == result.casimir
                assert act(result.sigma, result.nu + pair.delta) == \
                    (mu - pair.delta_p) + pair.delta

    @pytest.mark.parametrize("name", builtin_pair_names())
    def test_sigma_is_the_inverse_of_the_dominant_representative(self, name):
        # sigma is read straight off the walk of lambda + delta; the
        # reference builds w with w(lambda + delta) dominant and inverts it
        pair = builtin_pair(name)
        rs = pair.root_system
        regular = 0
        for lam, mu in admissible_box(pair, 2):
            result = dirac_kernel(pair, mu)
            element, _, is_regular = dominant_representative(
                lam + pair.delta, rs)
            if not is_regular:
                assert result.sigma is None
                continue
            regular += 1
            sigma = inverse(element)
            assert (result.sigma.word, result.sigma.image, result.sigma_sign
                    ) == (sigma.word, sigma.image, sigma.sign)
        assert regular

    def test_completeness_recovers_every_irreducible(self):
        # nu + delta_p is admissible and comes back unchanged with sigma = 1.
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            ident = identity(pair.root_system)
            for coords in itertools.product(range(3), repeat=pair.rank):
                nu = Weight(coords)
                if not pair.root_system.is_dominant(nu):
                    continue
                assert reference_contains(pair.lattice_F, nu)
                result = dirac_kernel(pair, nu + pair.delta_p)
                assert result.status is not KernelStatus.BOTH_ZERO
                assert result.nu == nu
                assert result.sigma == ident


def brute_force_shell(pair, lam, scale=Fraction(1)):
    """Independent shell enumeration: scan the covering coordinate box and
    keep dominant lattice points satisfying the scaled shell equation."""
    delta = pair.delta
    target = scale * inner_product(lam + delta * 2, lam)
    radius_sq = inner_product(lam + delta, lam + delta)
    bound = 1
    while bound * bound < radius_sq:
        bound += 1
    found = []
    values = []
    step = Fraction(1, 2)
    v = -bound - 1
    while v <= bound + 1:
        values.append(v)
        v += step
    for coords in itertools.product(values, repeat=pair.rank):
        nu = Weight(coords)
        if not reference_contains(pair.lattice_F, nu):
            continue
        if not pair.root_system.is_dominant(nu):
            continue
        if scale * inner_product(nu + delta * 2, nu) == target:
            found.append(nu)
    return sorted(found)


class TestCasimirShell:
    def test_so3_lambda_two(self):
        assert casimir_shell(builtin_pair("so3_so2"), W("2")) == [W("2")]

    def test_so3_lambda_minus_three(self):
        assert casimir_shell(builtin_pair("so3_so2"), W("-3")) == [W("2")]

    def test_so5_origin(self):
        assert casimir_shell(builtin_pair("so5_so4"), W("0,0")) == [W("0,0")]

    def test_matches_brute_force(self):
        for name, lams in [
            ("so3_so2", ["0", "2", "-3", "4"]),
            ("so5_so4", ["0,0", "2,1", "1,-1", "2,-2"]),
            ("so5_so2xso3", ["0,1", "1,2", "2,0"]),
        ]:
            pair = builtin_pair(name)
            for lam_text in lams:
                lam = W(lam_text)
                assert casimir_shell(pair, lam) == brute_force_shell(pair, lam)

    def test_scale_invariance(self):
        # rescaling the inner product by 2 or 1/3 does not change the shell
        pair = builtin_pair("so5_so4")
        for lam_text in ["2,1", "1,-1"]:
            lam = W(lam_text)
            reference = casimir_shell(pair, lam)
            for factor in (Fraction(2), Fraction(1, 3)):
                assert brute_force_shell(pair, lam, scale=factor) == reference

    def test_quarter_delta_matches_brute_force(self):
        pair = quarter_delta_pair()
        both = pair.lattice_F
        assert pair.delta == W("3/4,1/4")
        assert grid(pair.root_system).scale == 4
        assert casimir_shell(pair, W("4,3")) == [W("4,3"), W("5,0")]
        for coords in itertools.product(range(-1, 4), repeat=2):
            for shift in both.coset_shifts:
                lam = Weight(coords) + shift
                assert casimir_shell(pair, lam) == \
                    brute_force_shell(pair, lam), lam


class TestFrobenius:
    def test_so5_shell_member_sides(self):
        pair = builtin_pair("so5_so4")
        assert frobenius_multiplicity(pair, W("2,1"), W("5/2,3/2"), +1) == 1
        assert frobenius_multiplicity(pair, W("2,1"), W("5/2,3/2"), -1) == 0

    def test_so5_trivial_nu(self):
        pair = builtin_pair("so5_so4")
        assert frobenius_multiplicity(pair, W("0,0"), W("1/2,1/2"), +1) == 1

    def test_mu_not_a_summand_of_chi(self):
        # chi tensor trivial contains only the tau_sigma components
        for name in ("so5_so4", "so5_so2xso3"):
            pair = builtin_pair(name)
            zero = Weight.zero(pair.rank)
            mu = pair.delta_p + Weight([2] + [0] * (pair.rank - 1))
            if not admissible_mu(pair, mu):
                continue
            sigma_weights = {x.delta_p_sigma for x in pair.w1}
            assert mu not in sigma_weights
            assert frobenius_multiplicity(pair, zero, mu, +1) == 0
            assert frobenius_multiplicity(pair, zero, mu, -1) == 0


def reference_multiplicity(pair, nu, mu, side):
    """The product-and-peel route: chi^s * pi_nu peeled over Delta_h by the
    test reference ``peel_reference.peel``, not by the library."""
    s = side if pair.m % 2 == 0 else -side
    product = (side_character(pair, s)
               * irreducible_character(pair.root_system, nu))
    return peel(product, pair.h_system).get(mu, 0)


def admissible_box(pair, box):
    """(lambda, mu) for every admissible mu with |lambda_i| <= box."""
    for lam in itertools.product(range(-box, box + 1), repeat=pair.rank):
        mu = Weight(lam) + pair.delta_p
        if admissible_mu(pair, mu):
            yield Weight(lam), mu


KERNEL_PAIRS = ([builtin_pair(name) for name in builtin_pair_names()]
                + [corpus_pair(*node) for node in CORPUS]
                + [quarter_delta_pair()])


def kernel_weights(pair, s):
    """``_extraction_kernel(pair, s)`` read back as {Weight: c}."""
    g = grid(pair.root_system)
    return {g.weight(k): c for k, c in dirac._extraction_kernel(pair, s)}


class TestExtractionKernel:
    @pytest.mark.parametrize("name", builtin_pair_names())
    def test_shifts_cancel_to_one_orbit_per_component(self, name):
        # The kernel is e^delta_h times (A_delta_h * chi^s)(-x), and
        # A_delta_h * chi^s is the sum of the alternants A_(tau + delta_h)
        # over the components tau of chi^s, each with |W_H| distinct
        # terms; chi^+ and chi^- together have |W_1| components.
        pair = builtin_pair(name)
        terms = (len(dirac._extraction_kernel(pair, 1))
                 + len(dirac._extraction_kernel(pair, -1)))
        assert terms == pair.weyl_h_order * len(pair.w1)

    @pytest.mark.parametrize("family,rank,node", CORPUS)
    def test_counts_match_a_walk_over_the_rows(self, family, rank, node):
        # one term per (w, row) pair, so a weight that several sign vectors
        # give is counted that many times
        pair = corpus_pair(family, rank, node)
        for s in (1, -1):
            rows = [e for e in spinor_weights(pair).entries if e.parity == s]
            walked = {}
            for w in weyl_group(pair.h_system):
                base = pair.delta_h - w.image
                for e in rows:
                    k = base - e.weight
                    walked[k] = walked.get(k, 0) + w.sign
            assert kernel_weights(pair, s) == {
                k: c for k, c in walked.items() if c}

    @pytest.mark.parametrize("pair", KERNEL_PAIRS, ids=lambda p: p.name)
    def test_product_matches_the_sum_over_W_H(self, pair):
        for s in (1, -1):
            assert kernel_weights(pair, s) == reference_kernel(pair, s)

    def test_off_grid_coordinate(self, monkeypatch):
        # delta = 3/2,1/2 of so5_so4 is not on the grid Z
        pair = builtin_pair("so5_so4")
        monkeypatch.setattr(spin, "grid", lambda rs: Grid(rs, 1))
        monkeypatch.setattr(dirac, "grid", lambda rs: Grid(rs, 1))
        with pytest.raises(ConsistencyError, match="not on the grid"):
            spin.binomial_products.__wrapped__(pair)
        with pytest.raises(ConsistencyError, match="not on the grid"):
            dirac._extraction_kernel.__wrapped__(pair, 1)
        with pytest.raises(ConsistencyError, match="not on the grid"):
            dirac.euler_verify(pair, W("5/2,3/2"))


class TestFrobeniusDifferential:
    def assert_agree(self, pair, nu, mu):
        for side in (1, -1):
            assert (frobenius_multiplicity(pair, nu, mu, side)
                    == reference_multiplicity(pair, nu, mu, side)
                    ), (pair.name, mu, nu, side)

    def test_extraction_matches_product_and_peel_on_shells(self):
        boxes = {"so3_so2": 3, "so5_so4": 3, "so5_so2xso3": 3, "so7_so6": 2}
        pairs = 0
        for name, box in boxes.items():
            pair = builtin_pair(name)
            for lam, mu in admissible_box(pair, box):
                for nu in casimir_shell(pair, lam):
                    self.assert_agree(pair, nu, mu)
                    pairs += 1
        assert 2 * pairs == 146

    def test_extraction_matches_product_and_peel_off_shell(self):
        # On the shells above every term with w != 1 in W_H vanishes, so a
        # wrong sign there passes the test before; nu off the shell of mu
        # exercises the alternating sum over W_H.
        # pair -> (box on |lambda_i|, bound on the coordinates of nu)
        # C3 node 0 has a half-spin weight that two sign vectors give.
        boxes = {builtin_pair("so3_so2"): (3, 4),
                 builtin_pair("so5_so4"): (2, 3),
                 builtin_pair("so5_so2xso3"): (2, 2),
                 builtin_pair("so7_so6"): (1, 1),
                 corpus_pair("C", 3, 0): (1, 1)}
        for pair, (box, top) in boxes.items():
            nus = [Weight(c) for c in
                   itertools.product(range(top + 1), repeat=pair.rank)]
            nus = [nu for nu in nus
                   if reference_contains(pair.lattice_F, nu)
                   and pair.root_system.is_dominant(nu)]
            for _lam, mu in admissible_box(pair, box):
                for nu in nus:
                    self.assert_agree(pair, nu, mu)


class TestEulerVerify:
    def test_so3_example(self):
        report = checked_euler(builtin_pair("so3_so2"), W("5/2"))
        assert report.passed
        assert [r.nu for r in report.rows] == [W("2")]
        assert report.rows[0].mult_plus == 0
        assert report.rows[0].mult_minus == 1
        assert report.signed_sum == ((W("2"), -1),)

    def test_so5_example(self):
        report = checked_euler(builtin_pair("so5_so4"), W("5/2,3/2"))
        assert report.passed
        assert report.signed_sum == ((W("2,1"), 1),)

    def test_both_zero_empty_shell(self):
        report = checked_euler(builtin_pair("so5_so2xso3"), W("3/2,1"))
        assert report.passed
        assert report.kernel.status is KernelStatus.BOTH_ZERO
        assert report.signed_sum == ()

    def test_both_zero_nonempty_shell(self):
        # lambda = (1,2): lambda + delta is singular but the shell contains
        # (2,0); both multiplicities must vanish there.
        report = checked_euler(builtin_pair("so5_so2xso3"), W("5/2,2"))
        assert report.passed
        assert report.kernel.status is KernelStatus.BOTH_ZERO
        assert [r.nu for r in report.rows] == [W("2,0")]
        assert report.rows[0].mult_plus == 0
        assert report.rows[0].mult_minus == 0

    def test_parity_disjointness_on_shell(self):
        # full |lambda| <= 3 box on the rank <= 2 pairs; the so7_so6 box is
        # exercised by the acceptance suite and so9_so8 is sampled below
        for name in ("so3_so2", "so5_so4", "so5_so2xso3"):
            pair = builtin_pair(name)
            for coords in itertools.product(range(-3, 4), repeat=pair.rank):
                mu = Weight(coords) + pair.delta_p
                if not admissible_mu(pair, mu):
                    continue
                report = checked_euler(pair, mu)
                assert report.passed, (name, mu, report.failures)
                for row in report.rows:
                    assert row.mult_plus + row.mult_minus <= 1

    def test_medium_rank_sample(self):
        pair = builtin_pair("so7_so6")
        for lam_text in ["0,0,0", "1,1,1", "2,1,-1", "1,1,-2"]:
            mu = W(lam_text) + pair.delta_p
            if not admissible_mu(pair, mu):
                continue
            report = checked_euler(pair, mu)
            assert report.passed, (lam_text, report.failures)

    def test_mu_is_checked_once(self, monkeypatch):
        calls = []

        def counted(pair, mu):
            calls.append(mu)
            return admissibility_failures(pair, mu)

        monkeypatch.setattr(dirac, "admissibility_failures", counted)
        mu = W("9/2,9/2,3/2")
        report = dirac.euler_verify(builtin_pair("so7_so6"), mu)
        assert report.passed and len(report.rows) == 4
        assert calls == [mu]

    @pytest.mark.parametrize("name,mu,message", [
        ("so3_so2", "2", "mu=2 is not admissible for so3_so2: "
                         "mu - delta_p not in F"),
        ("so5_so4", "1/2,-3/2", "mu=1/2,-3/2 is not admissible for "
                                "so5_so4: mu not dominant for Delta_h+")])
    def test_inadmissible_mu_raises_before_the_shell(self, monkeypatch, name,
                                                     mu, message):
        searches = []
        search = dirac._squares_summing_to

        def counted(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(dirac, "_squares_summing_to", counted)
        pair = builtin_pair(name)
        with pytest.raises(AdmissibilityError) as raised:
            dirac.euler_verify(pair, W(mu))
        assert str(raised.value) == message
        assert searches == []
        dirac.euler_verify(pair, pair.delta_p)
        assert searches

    def test_reads_neither_W_H_nor_W1(self, monkeypatch):
        def unusable(self):
            raise AssertionError("the oracle read W_H or W_1")

        for name in ("w1", "weyl_h_order"):
            monkeypatch.setattr(SymmetricPair, name, property(unusable))
        pair = builtin_pair("so7_so6")
        report = dirac.euler_verify(pair, W("9/2,7/2,7/2"))
        assert report.passed and len(report.rows) == 4

    def test_so9_sample(self):
        pair = builtin_pair("so9_so8")
        for lam_text in ["0,0,0,0", "1,0,0,0", "1,1,1,-1"]:
            mu = W(lam_text) + pair.delta_p
            report = checked_euler(pair, mu)
            assert report.passed, (lam_text, report.failures)
