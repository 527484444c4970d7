import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

import pytest

import dirackernel.characters as characters
import dirackernel.dirac as dirac
import dirackernel.spin as spin
from corpus import CORPUS, W1_PAIRS, bott_sweep, corpus_pair
from dirackernel.dirac import (KernelStatus, casimir_eigenvalue,
                               chi_casimir_check, dirac_kernel)
from dirackernel.errors import (AdmissibilityError, ConsistencyError,
                               DimensionError)
from dirackernel.lattice import LatticeSpec, Weight
from dirackernel.roots import (ORBIT_LIMIT, Grid, _solve, build_classical,
                               grid)
from dirackernel.roots import RootSystem
from dirackernel.sympair import (SymmetricPair, admissible_mu, builtin_pair,
                                 builtin_pair_names, marked_node_pair)
from reference_characters import irreducible_character, reference_character
from reference_oracle import (brute_force_shell, casimir_shell,
                              checked_euler, checked_kernel,
                              frobenius_multiplicity,
                              binomial_kernel, integer_brute_force_shell,
                              kernel_multiplicity, kernel_weights,
                              reference_casimir, reference_kernel,
                              reference_multiplicity, shell_rows,
                              table_multiplicity)
from reference_roots import (W, act, admissible_box, dominant_representative,
                             half_c2_pair, inner_product, quarter_delta_pair,
                             reference_contains, reference_grid_walk,
                             reference_reflect, reference_walk)


class TestCasimirEigenvalue:
    def test_so3_quadratic(self):
        assert casimir_eigenvalue(builtin_pair("so3_so2"), W("2")) == 6

    def test_zero(self):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            assert casimir_eigenvalue(pair, Weight.zero(pair.rank)) == 0

    def test_so5_vector(self):
        assert casimir_eigenvalue(builtin_pair("so5_so4"), W("1,0")) == 4

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_matches_the_fraction_formula(self, pair):
        # zero, dominant or not, on G's grid or off it (thirds, sixths:
        # 1/3,0 on so5_so4, where D = 2, gives 10/9)
        values = [Fraction(v) for v in ("-1", "-1/2", "0", "1/3", "5/6", "2")]
        for coords in itertools.product(values, repeat=pair.rank):
            nu = Weight(coords)
            value = casimir_eigenvalue(pair, nu)
            assert (type(value), value) == \
                (Fraction, reference_casimir(pair, nu)), (pair.name, nu)

    def test_wrong_length_raises(self):
        with pytest.raises(DimensionError, match="nu length 3 vs rank 2"):
            casimir_eigenvalue(builtin_pair("so5_so4"), W("1,0,0"))


class TestChiCasimir:
    @pytest.mark.parametrize("name,expected", [
        ("so3_so2", Fraction(1, 4)),
        ("so5_so4", Fraction(3, 2)),
        ("so5_so2xso3", Fraction(9, 4)),
    ])
    def test_scalar_values(self, name, expected):
        assert chi_casimir_check(builtin_pair(name)) == expected


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

    def test_both_zero_builds_no_weight(self, monkeypatch):
        # lambda + delta's regularity is read on the grid at the walk's end
        # point: a singular mu, found by the walk on Fraction weights, takes
        # neither RootSystem.is_dominant nor Grid.weight
        singular = []
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            rs = pair.root_system
            for lam, mu in admissible_box(pair, 2):
                dominant = reference_walk(lam + pair.delta, rs)[1]
                if not all(inner_product(dominant, a) > 0
                           for a in rs.simple_roots):
                    singular.append((pair, mu, reference_casimir(pair, lam)))
        # all four on so5_so2xso3, 3/2,1 among them
        assert len(singular) == 4
        assert (builtin_pair("so5_so2xso3"), W("3/2,1")) in [
            (pair, mu) for pair, mu, _ in singular]

        def refuse(*args, **kwargs):
            raise AssertionError("a Weight on the BOTH_ZERO path")

        monkeypatch.setattr(RootSystem, "is_dominant", refuse)
        monkeypatch.setattr(Grid, "weight", refuse)
        for pair, mu, casimir in singular:
            assert dirac_kernel(pair, mu) == dirac.KernelResult(
                KernelStatus.BOTH_ZERO, casimir), (pair.name, mu)

    def test_regular_kernel_forms_nu_on_the_grid(self, monkeypatch):
        # nu is the walk's end point less D delta, made a Weight once: no
        # Weight arithmetic, no weight but mu put on the grid, and nu's
        # Casimir scalar read without casimir_eigenvalue; half_c2_pair has
        # D = 4 (quarter_delta_pair admits no mu).  No valid pair fails
        # nu's F test, so it is reached, on the same terms, by moving the
        # walk's end point one grid step along e_0: F is Z^rank on the
        # built-ins (D = 2) and lies in (1/2) Z^2 on half_c2_pair
        def read(result):
            return (result.status, result.nu, result.sigma.word,
                    result.sigma.image, result.sigma_sign, result.dimension,
                    result.casimir)

        expected = []
        for pair in [*map(builtin_pair, builtin_pair_names()), half_c2_pair()]:
            step = Weight.basis(pair.rank, 0,
                                Fraction(1, grid(pair.root_system).scale))
            for _lam, mu in admissible_box(pair, 2):
                result = checked_kernel(pair, mu)
                if result.status is not KernelStatus.BOTH_ZERO:
                    off_F = (f"computed nu={result.nu + step} is not a "
                             f"dominant lattice point for mu={mu}")
                    expected.append((pair, mu, read(result), off_F))
        assert len(expected) == 75 + 9

        def refuse(*args, **kwargs):
            raise AssertionError("nu formed off the grid")

        located = []  # the weights read onto a grid: by locate or lift
        locate, lift = Grid.locate, Grid.lift
        monkeypatch.setattr(Weight, "__sub__", refuse)
        monkeypatch.setattr(Weight, "__add__", refuse)
        monkeypatch.setattr(dirac, "casimir_eigenvalue", refuse)
        monkeypatch.setattr(
            Grid, "locate", lambda g, w: located.append(w) or locate(g, w))
        monkeypatch.setattr(
            Grid, "lift", lambda g, w: located.append(w) or lift(g, w))
        for pair, mu, value, _ in expected:
            located.clear()
            assert read(dirac_kernel(pair, mu)) == value, (pair.name, mu)
            assert located and all(w == mu for w in located), (pair.name, mu)

        walk = Grid.walk

        def moved(g, x):
            steps, end = walk(g, x)
            return steps, (end[0] + 1,) + end[1:]

        monkeypatch.setattr(Grid, "walk", moved)
        for pair, mu, _, off_F in expected:
            located.clear()
            with pytest.raises(ConsistencyError) as caught:
                dirac_kernel(pair, mu)
            assert str(caught.value) == off_F, (pair.name, mu)
            assert located and all(w == mu for w in located), (pair.name, mu)

    def test_inadmissible_mu_rejected(self):
        with pytest.raises(AdmissibilityError):
            dirac_kernel(builtin_pair("so3_so2"), W("2"))

    def test_status_matches_sign_rule(self):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            for lam, mu in admissible_box(pair, 2):
                # and against the walk, sigma's image, the Casimir scalar of
                # lambda, Bott's index and weyl_dim
                result = checked_kernel(pair, mu)
                if result.status is KernelStatus.BOTH_ZERO:
                    continue
                plus = result.sigma_sign * (-1) ** pair.m == 1
                assert (result.status is KernelStatus.PLUS) == plus
                assert reference_casimir(pair, result.nu) == result.casimir
                assert act(result.sigma, result.nu + pair.delta) == \
                    lam + pair.delta

    # W1_PAIRS but its last, b2_half, which admits no mu: mu - delta_p in
    # F puts mu off F1
    @pytest.mark.parametrize("pair", W1_PAIRS[:-1], ids=lambda p: p.name)
    def test_casimir_is_the_scalar_of_lambda(self, pair):
        # read on the grid, for every status: <lambda + 2 delta, lambda>
        for lam, mu in admissible_box(pair, 1):
            casimir = dirac_kernel(pair, mu).casimir
            assert type(casimir) is Fraction
            assert casimir == reference_casimir(pair, lam), (pair.name, mu)

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_strictly_dominant_point_less_delta_in_F_is_dominant(self, pair):
        # the lemma that makes the kernel's nu dominance test redundant:
        # for a strictly dominant x = D (nu + delta) with nu in F, <nu +
        # delta, a^> is a positive integer (F is integral) and <delta, a^>
        # = 1 for each simple root a (no root is twice another), so <nu,
        # a^> >= 0.  Over a box of grid points y = D nu about 0; off F the
        # implication fails somewhere in the box of every pair of rank >= 2
        g = grid(pair.root_system)
        reach = 2 * g.scale if pair.rank < 4 else g.scale
        held = failed_off_F = 0
        for y in itertools.product(range(-reach, reach + 1),
                                   repeat=pair.rank):
            x = tuple(map(add, y, g.delta))
            if not g.is_dominant(x, strict=True) or g.is_dominant(y):
                held += g.is_dominant(x, strict=True)
                continue
            assert not g.contains(pair.lattice_F, y), (pair.name, y)
            failed_off_F += 1
        assert held
        assert failed_off_F or pair.rank == 1


class TestBottIndex:
    def test_sweep_matches_weyl_dim_and_the_side(self):
        # every node of A2-A6, B2-B6, C2-C6 and D4-D6, seeded; the CI line
        # runs the same sweep up to rank 8
        results = [checked_kernel(pair, mu) for pair, mu in bott_sweep(6, 10)]
        counts = {status: 0 for status in KernelStatus}
        for result in results:
            counts[result.status] += 1
        assert len(results) == 725
        assert counts[KernelStatus.BOTH_ZERO] == 359
        assert counts[KernelStatus.PLUS] and counts[KernelStatus.MINUS]

    # the checks raise, not assert, so they hold under python -O
    @pytest.mark.parametrize("mu,change,message", [
        ("5/2,3/2", lambda p: -p, "Bott's index -35 disagrees with the side "
                                  "sgn(sigma) (-1)^m = 1 for mu=5/2,3/2"),
        ("3/2,-1/2", lambda p: -p, "Bott's index 5 disagrees with the side "
                                   "sgn(sigma) (-1)^m = -1 for mu=3/2,-1/2"),
        ("5/2,3/2", lambda p: 0, "Bott's index 0 disagrees with the side "
                                 "sgn(sigma) (-1)^m = 1 for mu=5/2,3/2")])
    def test_wrong_sign_raises(self, monkeypatch, mu, change, message):
        product = dirac.weyl_product
        monkeypatch.setattr(dirac, "weyl_product",
                            lambda *args: change(product(*args)))
        with pytest.raises(ConsistencyError) as raised:
            dirac_kernel(builtin_pair("so5_so4"), W(mu))
        assert str(raised.value) == message

    def test_nonzero_at_a_singular_point_raises(self, monkeypatch):
        pair = builtin_pair("so5_so2xso3")
        assert dirac_kernel(pair, W("3/2,1")).status is KernelStatus.BOTH_ZERO
        monkeypatch.setattr(dirac, "weyl_product", lambda *args: 1)
        with pytest.raises(ConsistencyError) as raised:
            dirac_kernel(pair, W("3/2,1"))
        # m = 3
        assert str(raised.value) == ("Bott's index -1 is not 0 at the "
                                     "singular lambda + delta=3/2,3/2 for "
                                     "mu=3/2,1")

    def test_euler_fails_on_a_wrong_row_dimension(self, monkeypatch):
        # the kernel reads its dimension from the index, not grid_dim, so
        # only the oracle's rows change; its index is its own.  The rows
        # are made once per sphere, so the sphere is read from an empty
        # cache of its own, dropped with the patch
        monkeypatch.setattr(dirac, "_sphere",
                            lru_cache(maxsize=None)(dirac._sphere.__wrapped__))
        dimension = dirac.grid_dim
        monkeypatch.setattr(dirac, "grid_dim",
                            lambda *args: 2 * dimension(*args))
        report = dirac.euler_verify(builtin_pair("so5_so4"), W("5/2,3/2"))
        assert report.kernel.dimension == 35
        assert [row.dimension for row in report.rows] == [70]
        assert report.failures == (
            "signed dimension 70 does not match Bott's index 35",)

    def test_euler_index_needs_no_kernel_result(self, monkeypatch):
        # a kernel result with a wrong dimension leaves the oracle's
        # index check alone: it reads z = D (mu + delta_h) itself
        kernel = dirac.dirac_kernel
        monkeypatch.setattr(
            dirac, "dirac_kernel",
            lambda pair, mu: kernel(pair, mu)._replace(dimension=1))
        report = dirac.euler_verify(builtin_pair("so5_so4"), W("5/2,3/2"))
        assert report.passed


def shell_points(pair, g, lam) -> tuple:
    """The D nu of the shell rows of lam = D lambda, in shell order."""
    return tuple(point for point, _dimension, _nu in
                 shell_rows(pair, g, lam))


class TestCasimirShell:
    @pytest.mark.parametrize("family,rank,node", [
        (family, rank, node) for family, rank in [("A", 3), ("C", 3), ("D", 4)]
        for node in range(rank)] + [("B", 3, 0)])
    def test_bounded_search_matches_integer_brute_force(self, family, rank,
                                                        node):
        # simple roots e_i - e_(i+1) have a negative coefficient, which
        # bounds a coordinate from above; every coset residue of F
        pair = corpus_pair(family, rank, node)
        g = grid(pair.root_system)
        nonempty = 0
        for residue in sorted(g.residues(pair.lattice_F)):
            for t in itertools.product(range(-1, 2), repeat=pair.rank):
                lam = tuple(map(add, residue, (g.scale * c for c in t)))
                shell = shell_points(pair, g, lam)
                assert shell == integer_brute_force_shell(pair, lam), lam
                nonempty += bool(shell)
        assert nonempty

    @pytest.mark.parametrize("family,rank,node", CORPUS)
    def test_sphere_cache_matches_integer_brute_force(self, family, rank,
                                                      node):
        # lambda = D t and its reflections s_i(lambda + delta) - delta, on
        # the same sphere: each read cold (cache cleared), then all warm
        pair = corpus_pair(family, rank, node)
        g = grid(pair.root_system)
        lams = []
        for t in [(0,) * pair.rank, (1, 1) + (0,) * (pair.rank - 2)]:
            lam = tuple(g.scale * c for c in t)
            shifted = tuple(map(add, lam, g.delta))
            lams += [lam] + [tuple(map(sub, g.reflect(shifted, i), g.delta))
                             for i in range(len(g.supports))]
        expected = {lam: integer_brute_force_shell(pair, lam)
                    for lam in lams}
        for lam in lams:
            dirac._sphere.cache_clear()
            assert shell_points(pair, g, lam) == expected[lam], lam
        dirac._sphere.cache_clear()
        for lam in lams:
            assert shell_points(pair, g, lam) == expected[lam], lam
        assert dirac._sphere.cache_info().misses == 2
        assert all(expected.values())

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_floors_keep_every_sphere(self, pair, monkeypatch):
        # x_k >= (D delta)_k where e_k is a nonnegative combination of the
        # simple roots: every sphere from |D delta|^2 on, each read cold,
        # equals the search with no floor
        g = grid(pair.root_system)
        least = sum(c * c for c in g.delta)
        totals = range(least, least + 24 * g.scale ** 2)
        floored = {t: dirac._sphere_points(g, pair.lattice_F, t)
                   for t in totals}
        coordinates = dirac._simple_coordinates
        monkeypatch.setattr(
            dirac, "_simple_coordinates",
            lambda g: coordinates(g)[:3] + ((None,) * g.rs.rank,))
        for t in totals:
            assert dirac._sphere_points(g, pair.lattice_F, t) == floored[t], t
        assert sum(map(bool, floored.values())) > 2

    @pytest.mark.parametrize("rs,floored", [
        (build_classical("B", 4), (0, 1, 2, 3)),
        (build_classical("C", 3), (0, 1, 2)),
        (build_classical("D", 4), (0, 1, 2)),
        (build_classical("D", 2), (0,)),
        (build_classical("A", 3), ()),
        # B2 and a torus factor (the third coordinate)
        (RootSystem(3, [W("1,-1,0"), W("1,1,0"), W("1,0,0"), W("0,1,0")]),
         (0, 1)),
        (builtin_pair("so5_so2xso3").h_system, (1,)),
        (RootSystem(2, []), ())], ids=repr)
    def test_coordinate_floors(self, rs, floored):
        # every coordinate of B and C, all but the last of D, none of A or
        # of a torus factor; each floor is (D delta)_k
        g = grid(rs)
        assert dirac._simple_coordinates(g)[3] == tuple(
            c if k in floored else None for k, c in enumerate(g.delta))

    def test_a_point_that_is_not_dominant_raises(self, monkeypatch):
        # the simple-root bounds keep every point of the search dominant;
        # one that is not, here x = -D delta (nu = -2 delta) on so5_so4,
        # is a bug
        pair = builtin_pair("so5_so4")
        g = grid(pair.root_system)
        monkeypatch.setattr(dirac, "_squares_summing_to",
                            lambda *_args: iter([(-3, -1)]))
        dirac._sphere.cache_clear()
        with pytest.raises(ConsistencyError,
                           match="shell point -3,-1 is not dominant"):
            shell_rows(pair, g, (0, 0))
        dirac._sphere.cache_clear()

    def test_equal_norms_share_one_tuple(self):
        # |lambda + delta|^2 = 29/2 for all three, delta = 3/2,1/2
        pair = builtin_pair("so5_so4")
        g = grid(pair.root_system)
        dirac._sphere.cache_clear()
        first = shell_rows(pair, g, g.point(W("2,1")))
        assert first == ((g.point(W("2,1")), 35, W("2,1")),)
        for other in ("2,-2", "0,3"):
            assert shell_rows(pair, g, g.point(W(other))) is first
        assert shell_rows(pair, g, g.point(W("1,1"))) is not first

    def test_pairs_with_equal_F_share_a_sphere(self):
        # so5_so4 and so5_so2xso3 build their Fs apart; the one cache entry
        # of a sphere serves both, found by the lattice's integer key
        first, second = builtin_pair("so5_so4"), builtin_pair("so5_so2xso3")
        assert first.lattice_F is not second.lattice_F
        g = grid(first.root_system)
        assert grid(second.root_system) is g
        lam = g.point(W("2,1"))
        dirac._sphere.cache_clear()
        rows = shell_rows(first, g, lam)
        assert shell_rows(second, g, lam) is rows
        info = dirac._sphere.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert rows == ((lam, 35, W("2,1")),)

    def test_pairs_on_one_grid_keep_their_own_F(self):
        # the roots of so5_so4 with F = Z^2 u (Z + 1/2)^2 (Spin(5)): on the
        # sphere of lambda = 3/2,1/2 only the second F has a member
        base = builtin_pair("so5_so4")
        halves = LatticeSpec(2, [W("0,0"), W("1/2,1/2")])
        spin = SymmetricPair(base.root_system, base.h_positive,
                             lattice_F=halves, lattice_F1=halves,
                             name="spin5_spin4")
        g = grid(base.root_system)
        lam = g.point(W("3/2,1/2"))
        dirac._sphere.cache_clear()
        for pair in (base, spin, base, spin):
            assert shell_points(pair, g, lam) == \
                integer_brute_force_shell(pair, lam), pair.name
        assert shell_points(spin, g, lam) == (lam,)

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


KERNEL_PAIRS = ([builtin_pair(name) for name in builtin_pair_names()]
                + [corpus_pair(*node) for node in CORPUS]
                + [quarter_delta_pair()])


class TestExtractionKernel:
    # The library keeps only the components of chi^s
    # (``spin.chi_components``), and those of chi-bar^s, every weight
    # negated, are the ones of chi^(s (-1)^m); ``kernel_weights`` builds
    # the whole kernel from them over the listed W_H, and these tests hold
    # it against the sum over W_H and the product of binomials.
    @pytest.mark.parametrize("name", builtin_pair_names())
    def test_shifts_cancel_to_one_orbit_per_component(self, name):
        # The kernel is e^delta_h times (A_delta_h * chi^s)(-x), and
        # A_delta_h * chi^s is the sum of the alternants A_(tau + delta_h)
        # over the components tau of chi^s, each with |W_H| distinct
        # terms; chi^+ and chi^- together have |W_1| components.
        pair = builtin_pair(name)
        terms = len(kernel_weights(pair, 1)) + len(kernel_weights(pair, -1))
        assert terms == pair.weyl_h_order * len(pair.w1)
        assert sum(len(spin.chi_components(pair, s * (-1) ** pair.m))
                   for s in (1, -1)) == len(pair.w1)

    @pytest.mark.parametrize("family,rank,node", CORPUS)
    def test_counts_match_a_walk_over_the_rows(self, family, rank, node):
        # The walks of the rows of chi-bar^s leave one component per sigma
        # in W_1 of sign s (Parthasarathy), the dual of delta_p^sigma: its
        # tau + delta_h is the dominant representative of -sigma(delta).
        # Each component's orbit in the kernel has one shift delta_h + p
        # with p strictly dominant, carrying (-1)^|Delta_h^+| n.
        pair = corpus_pair(family, rank, node)
        h = pair.h_system
        sign = (-1) ** len(pair.h_positive)
        for s in (1, -1):
            components = {}
            for k, c in kernel_weights(pair, s).items():
                p = k - pair.delta_h
                if h.is_dominant(p, strict=True):
                    components[p] = sign * c
            expected = {
                dominant_representative(-x.element.image, h)[1]: 1
                for x in pair.w1 if x.sign == s}
            assert components == expected

    @pytest.mark.parametrize("pair", KERNEL_PAIRS, ids=lambda p: p.name)
    def test_product_matches_the_sum_over_W_H(self, pair):
        # one term per (w, row) pair, so a weight that several sign vectors
        # give is counted that many times; and the product of binomials
        # over Delta_h^+, expanded term by term
        g = grid(pair.root_system)
        for s in (1, -1):
            kernel = kernel_weights(pair, s)
            assert kernel == reference_kernel(pair, s)
            assert kernel == {g.weight(k): c
                              for k, c in binomial_kernel(pair, s).items()}

    def test_negative_component_raises(self, monkeypatch):
        # -chi-bar^s straightens to components of multiplicity -1
        pair = builtin_pair("so7_so6")
        negated = {side: {k: -n for k, n in chi.items()}
                   for side, chi in spin.spinor_counts(pair).items()}
        monkeypatch.setattr(spin, "spinor_counts", lambda p: negated)
        for s in (1, -1):
            with pytest.raises(ConsistencyError, match="multiplicity -1 at"):
                spin.chi_components.__wrapped__(pair, s * (-1) ** pair.m)

    def test_off_grid_coordinate(self, monkeypatch):
        # delta = 3/2,1/2 of so5_so4 is not on the grid Z
        pair = builtin_pair("so5_so4")
        monkeypatch.setattr(spin, "grid", lambda rs: Grid(rs, 1))
        monkeypatch.setattr(dirac, "grid", lambda rs: Grid(rs, 1))
        with pytest.raises(ConsistencyError, match="not on the grid"):
            spin.spinor_counts.__wrapped__(pair)
        with pytest.raises(ConsistencyError, match="not on the grid"):
            spin.chi_components.__wrapped__(pair, (-1) ** pair.m)
        with pytest.raises(ConsistencyError, match="not on the grid"):
            dirac.euler_verify(pair, W("5/2,3/2"))


# pair -> box on |lambda_i| of the benchmark's oracle sample (103 mu)
ORACLE_SAMPLE_BOXES = {"so3_so2": 10, "so5_so4": 4, "so5_so2xso3": 4,
                       "so7_so6": 1, "so9_so8": 0}
# the ROADMAP's baseline rungs of the oracle
ROADMAP_RUNGS = [("so7_so6", "5/2,3/2,1/2"), ("so7_so6", "9/2,5/2,1/2"),
                 ("so7_so6", "13/2,7/2,3/2"), ("so9_so8", "7/2,5/2,3/2,1/2")]


def walked_start(pair: SymmetricPair, mu: Weight) -> tuple:
    """w0 z for z = D (mu + delta_h) on the subgroup's grid at G's scale,
    as the negated dominant representative of -z."""
    g = grid(pair.root_system)
    h = grid(pair.h_system, g.scale)
    z = tuple(map(add, g.point(mu), h.delta))
    return tuple(-c for c in reference_grid_walk(h, tuple(-c for c in z))[1])


def longest_word(h: Grid) -> tuple:
    """w0's reduced word: the steps of the walk of -D delta_h."""
    return h.walk(tuple(-c for c in h.delta))[0]


def negated_walk(h: Grid, x: tuple) -> tuple:
    """The negated end point of the walk of -x on h, as euler_verify reads
    the extraction's start w0 x."""
    return tuple(-c for c in h.walk(tuple(-c for c in x))[1])


class TestLongestWord:
    # euler_verify starts the extraction's search at w0 z, z = D (mu +
    # delta_h), the negated end point of the walk of -z; w0's reduced word,
    # the steps of the walk of -D delta_h, reaches the same point
    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_word_gives_the_walked_start(self, pair):
        # b2_half admits no mu (mu - delta_p in F puts mu off F1), so it
        # checks only w0 delta_h = -delta_h
        h = grid(pair.h_system, grid(pair.root_system).scale)
        word = longest_word(h)
        assert len(word) == len(h.positive)  # the parity _extract starts at
        u = h.delta
        for i in word:
            u = h.reflect(u, i)
        assert u == tuple(-c for c in h.delta)
        mus = [mu for _lam, mu in admissible_box(pair, 1)]
        assert bool(mus) == (pair.name != "b2_half")
        for mu in mus:
            u = tuple(map(add, grid(pair.root_system).point(mu), h.delta))
            for i in word:
                u = h.reflect(u, i)
            assert u == walked_start(pair, mu), (pair.name, str(mu))

    def test_euler_verify_starts_at_w0_z(self, monkeypatch):
        # on the oracle sample, every search starts where the walk of -z
        # ends, negated
        starts = []
        extract = dirac._extract

        def recorded(g, h, top, start, components):
            starts.append(start)
            return extract(g, h, top, start, components)

        monkeypatch.setattr(dirac, "_extract", recorded)
        searched = 0  # the mu whose shell is not empty
        for name, box in ORACLE_SAMPLE_BOXES.items():
            pair = builtin_pair(name)
            for _lam, mu in admissible_box(pair, box):
                starts.clear()
                assert dirac.euler_verify(pair, mu).passed
                assert all(start == walked_start(pair, mu)
                           for start in starts), (name, str(mu))
                searched += bool(starts)
        assert searched == 97


class TestLongestMap:
    # w0 z, the extraction's start, as euler_verify reads it (the negated
    # end point of the walk of -z on the subgroup grid), against w0's
    # reduced word replayed on Fraction weights
    @pytest.mark.parametrize(
        "pair", W1_PAIRS + [corpus_pair(*node) for node in [
            ("D", 6, 5), ("D", 7, 6), ("D", 7, 3), ("C", 6, 5)]],
        ids=lambda p: p.name)
    def test_map_is_the_reflected_word(self, pair):
        # every subgroup grid of the corpus, so5_so2xso3 (A1 and a torus
        # direction), so3_so2 (no roots, so the start is z), and at ranks 6
        # and 7, where w0 is not -1: D6:5, C6:5 and D7:6 (A5, A5, A6, each
        # with a torus direction) and D7:3 (D4 + A3).  On a box of strictly
        # Delta_h-dominant, integral grid points around D delta_h, the
        # start equals reflecting along w0's word, the steps of the Fraction
        # walk of -delta_h (reference_walk), one reference_reflect each
        rs = pair.h_system
        h = grid(rs, grid(pair.root_system).scale)
        word = reference_walk(-pair.delta_h, rs)[0]
        assert len(word) == len(h.positive)  # the parity _extract starts at
        box = range(-2, 3) if pair.rank <= 4 else range(-1, 2)
        checked = []
        for t in itertools.product(box, repeat=pair.rank):
            x = tuple(map(add, h.delta, t))
            if not (h.is_dominant(x, strict=True) and h.is_integral(x)):
                continue
            u = h.weight(x)
            for i in word:
                u = reference_reflect(rs, u, i)
            assert negated_walk(h, x) == h.point(u), (pair.name, x)
            checked.append(x)
        assert checked
        if pair.name == "D6_node5":  # w0 of A5 reverses the coordinates
            assert all(negated_walk(h, x) == x[::-1] for x in checked)

    def test_subgroup_reads_the_map(self, monkeypatch):
        # so9_so8, where w0 of D4 is -1: each search of the oracle sample
        # starts at -z on the subgroup's grid at G's scale, and reads its
        # side's cached components
        pair = builtin_pair("so9_so8")
        g = grid(pair.root_system)
        h = grid(pair.h_system, g.scale)
        chi = {side: spin.chi_components(pair, side) for side in (1, -1)}
        calls = []
        extract = dirac._extract

        def recorded(*args):
            calls.append(args)
            return extract(*args)

        monkeypatch.setattr(dirac, "_extract", recorded)
        mus = [mu for _lam, mu in admissible_box(
            pair, ORACLE_SAMPLE_BOXES[pair.name])]
        mus += [W(mu) for name, mu in ROADMAP_RUNGS if name == pair.name]
        for mu in mus:
            calls.clear()
            assert dirac.euler_verify(pair, mu).passed
            z = tuple(map(add, g.point(mu), h.delta))
            assert calls, str(mu)
            for n, (gg, hh, _top, start, components) in enumerate(calls):
                assert gg is g and hh is h and start == tuple(-c for c in z)
                assert components is chi[1 if n % 2 == 0 else -1]

    def test_an_image_off_the_grid_raises(self, monkeypatch):
        # a single root 1,2: w0 = s_(1,2) is (1/5) [[3, -4], [-4, -3]], so
        # 1,0 goes to 3/5,-4/5, off the grid 1/2 Z, and 1,2 to -1,-2.  No
        # valid pair has that subgroup (F = Z^2 holds 1,0, which pairs to
        # 2/5 with the coroot), so the pair h = G is built unvalidated, and
        # the reads before the start are stubbed: the kernel, a one-member
        # shell, and Bott's index, whose product is not integral at 1,0
        rs = RootSystem(2, [W("1,2")])
        pair = SymmetricPair.__new__(SymmetricPair)
        pair.root_system, pair.h_positive = rs, rs.positive_roots
        pair.h_index, pair.name = frozenset({0}), "single_root"
        pair.lattice_F = pair.lattice_F1 = LatticeSpec(2, [W("0,0")])
        g = grid(rs)
        monkeypatch.setattr(
            dirac, "dirac_kernel", lambda pair, mu: dirac.KernelResult(
                status=KernelStatus.BOTH_ZERO, casimir=0))
        monkeypatch.setattr(dirac, "weyl_product", lambda rs, g, y: 0)
        monkeypatch.setattr(dirac, "_sphere",
                            lambda g, lattice, total: [((0, 0), 1, W("0,0"))])
        monkeypatch.setattr(dirac, "chi_components", lambda pair, side: ())
        starts = []
        monkeypatch.setattr(
            dirac, "_extract",
            lambda g, h, top, start, components: starts.append(start) or 0)
        assert g.delta == (1, 2)  # so z = D (mu + delta_h) = D mu + (1, 2)
        dirac.euler_verify(pair, W("1/2,1"))  # z = 2,4, the point 1,2
        assert starts == [(-2, -4)] * 2
        with pytest.raises(ConsistencyError) as raised:
            dirac.euler_verify(pair, W("1/2,-1"))  # z = 2,0, the point 1,0
        assert str(raised.value) == \
            "-1,0 pairs to -2/5 with the coroot of 1,2"
        assert starts == [(-2, -4)] * 2


class TestSearch:
    def test_non_integral_pairing_raises(self, monkeypatch):
        # the search pairs each image with each simple root of Delta_h once,
        # and a negative pairing that is not an integer raises with
        # Grid.coroot_pairing's message, as Grid.reflect would.  The reads
        # are stubbed: G's walk of the same point would raise first.
        pair = builtin_pair("so5_so4")
        g = grid(pair.root_system)
        h = grid(pair.h_system, g.scale)
        start = g.point(W("0,1/2"))
        with pytest.raises(ConsistencyError) as expected:
            h.reflect(start, 0)
        assert str(expected.value) == "0,1/2 pairs to -1/2 with the coroot " \
            "of 1,-1"
        reads = []
        monkeypatch.setattr(dirac, "_multiplicity",
                            lambda g, top, y: reads.append(y) or 0)
        with pytest.raises(ConsistencyError) as raised:
            dirac._extract(g, h, g.point(W("5,5")), start,
                           spin.chi_components(pair, 1))
        assert str(raised.value) == str(expected.value)
        assert len(reads) == 1


class TestOracleSampleTables:
    def test_weight_tables_match_fraction_freudenthal(self):
        # every nu on the shells of the benchmark's oracle sample, the 103
        # admissible mu with lambda in these boxes: the integer table
        # against Freudenthal on Fraction weights
        sample = 0
        for name, box in ORACLE_SAMPLE_BOXES.items():
            pair = builtin_pair(name)
            rs = pair.root_system
            shells = set()
            for lam, _mu in admissible_box(pair, box):
                sample += 1
                shells.update(casimir_shell(pair, lam))
            for nu in sorted(shells):
                assert irreducible_character(rs, nu).terms == \
                    reference_character(rs, nu), (name, nu)
        assert sample == 103


class TestFrobeniusDifferential:
    def assert_agree(self, pair, nu, mu):
        for side in (1, -1):
            assert (frobenius_multiplicity(pair, nu, mu, side)
                    == table_multiplicity(pair, nu, mu, side)
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


class TestOnDemandMultiplicity:
    def test_reads_match_the_table_in_a_box(self):
        # pi_nu on the root systems of W1_PAIRS, read at every integral
        # point y of a box around D nu that holds the ball |y| <= |nu|
        # with a step to spare.  nu is 0, the highest root and, up to rank
        # 3, delta.
        cases = set()
        for rs in dict.fromkeys(pair.root_system for pair in W1_PAIRS):
            g = grid(rs)
            step = g.scale // 2
            highest = max(range(len(g.positive)),
                          key=lambda k: sum(rs.coefficients[k]))
            tops = [(0,) * rs.rank, g.positive[highest]]
            tops += [g.delta] if rs.rank <= 3 else []
            for top in tops:
                radius = sum(c * c for c in top)
                reach = math.isqrt(radius) + max(map(abs, top)) + 2 * step
                box = [range(c - reach, c + reach + 1, step) for c in top]
                terms = characters.grid_table(g, top).terms
                for y in itertools.product(*box):
                    if not g.is_integral(y):
                        continue
                    read = dirac._multiplicity(g, top, y)
                    assert read == terms.get(y, 0), (rs, top, y)
                    norm = sum(c * c for c in y)
                    cases.add((norm > radius, norm == radius, read > 0))
        # outside; the sphere, in W nu and not; inside, weights and not
        assert cases == {(True, False, False), (False, True, True),
                         (False, True, False), (False, False, True),
                         (False, False, False)}

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_one_elimination_per_grid(self, pair):
        # the Q+ test reads nu - y+ through the grid's one elimination: at
        # seeded int vectors, and at seeded combinations of the simple
        # roots, its forms give what an elimination of that vector alone
        # gives, outside the span (A family) included
        g = grid(pair.root_system)
        simple = [g.positive[k] for k in pair.root_system.simple_index]
        d, coefficients, span, _ = dirac._simple_coordinates(g)
        assert d > 0 and len(coefficients) == len(simple)
        rng = random.Random(pair.name)
        vectors = [tuple(rng.randint(-6, 6) for _ in range(pair.rank))
                   for _ in range(20)]
        for _ in range(20):
            weights = [rng.randint(-3, 3) for _ in simple]
            vectors.append(tuple(sum(c * a[k] for c, a in zip(weights, simple))
                                 for k in range(pair.rank)))
        outside = 0
        for v in vectors:
            e, (numerators,) = _solve(simple, [v])
            reads = [[sum(v[k] * c for k, c in form) for form in forms]
                     for forms in (span, coefficients)]
            if numerators is None:
                outside += 1
                assert any(reads[0]), v
            else:
                assert not any(reads[0]), v
                assert [Fraction(n, d) for n in reads[1]] == \
                    [Fraction(n, e) for n in numerators], v
        assert bool(outside) == (len(simple) < pair.rank)

    def test_both_sums_match_the_full_table_sum(self):
        # every row of the oracle sample and of |lambda_i| <= 1 on the
        # corpus pairs: the pruned read, and the whole kernel read on
        # demand, against the whole kernel over the full table
        ops = [(builtin_pair(name), box)
               for name, box in ORACLE_SAMPLE_BOXES.items()]
        ops += [(corpus_pair(*node), 1) for node in CORPUS]
        for pair, box in ops:
            for lam, mu in admissible_box(pair, box):
                for nu in casimir_shell(pair, lam):
                    for side in (1, -1):
                        full = table_multiplicity(pair, nu, mu, side)
                        assert frobenius_multiplicity(pair, nu, mu,
                                                      side) == full
                        assert kernel_multiplicity(pair, nu, mu,
                                                   side) == full

    def test_rung_builds_no_table(self):
        characters.grid_table.cache_clear()
        report = dirac.euler_verify(builtin_pair("so7_so6"),
                                    W("13/2,7/2,3/2"))
        assert report.passed
        assert report.rows[0].dimension == 41769
        assert characters.grid_table.cache_info().misses == 0

    def test_oracle_sample_builds_no_table(self):
        # one cold pass of the 103 sample mu built 32 tables when each
        # row read its whole table, and 5 when rows with dim pi_nu below
        # the kernel's size did; now only an inside read that is a weight
        # builds one, and the sample has none
        characters.grid_table.cache_clear()
        for name, box in ORACLE_SAMPLE_BOXES.items():
            pair = builtin_pair(name)
            for _lam, mu in admissible_box(pair, box):
                assert dirac.euler_verify(pair, mu).passed
        assert characters.grid_table.cache_info().misses == 0


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
            for _lam, mu in admissible_box(pair, 3):
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
            return admissibility(pair, mu)

        admissibility = dirac._admissibility
        monkeypatch.setattr(dirac, "_admissibility", counted)
        mu = W("9/2,9/2,3/2")
        report = dirac.euler_verify(builtin_pair("so7_so6"), mu)
        assert report.passed and len(report.rows) == 4
        assert calls == [mu]

    @pytest.mark.parametrize("name,mu,message", [
        ("so3_so2", "2", "mu=2 is not admissible for so3_so2: "
                         "mu - delta_p not in F"),
        ("so5_so4", "1/2,-3/2", "mu=1/2,-3/2 is not admissible for "
                                "so5_so4: mu not dominant for Delta_h+"),
        # off G's grid: in no lattice, and Delta_h-dominance read from the
        # numerators over the common denominator
        ("so5_so4", "1/3,0", "mu=1/3,0 is not admissible for so5_so4: "
                             "mu not in F1; mu - delta_p not in F"),
        ("so5_so4", "0,1/3", "mu=0,1/3 is not admissible for so5_so4: "
                             "mu not in F1; mu not dominant for Delta_h+; "
                             "mu - delta_p not in F"),
        ("so9_so8", "3/5,1/3,1/6,-1/6",
         "mu=3/5,1/3,1/6,-1/6 is not admissible for so9_so8: mu not in F1; "
         "mu - delta_p not in F"),
        ("so9_so8", "1/3,1/2,0,0",
         "mu=1/3,1/2,0,0 is not admissible for so9_so8: mu not in F1; "
         "mu not dominant for Delta_h+; mu - delta_p not in F")])
    def test_inadmissible_mu_raises_before_the_shell(self, monkeypatch, name,
                                                     mu, message):
        dirac._sphere.cache_clear()  # else delta_p's shell may be cached
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

    def test_cold_caches_give_the_warm_reports(self):
        # the oracle sample and the rungs with the shell and table caches
        # cleared before every call, against a second warm pass
        ops = [(builtin_pair(name), mu)
               for name, box in ORACLE_SAMPLE_BOXES.items()
               for _lam, mu in admissible_box(builtin_pair(name), box)]
        ops += [(builtin_pair(name), W(mu)) for name, mu in ROADMAP_RUNGS]
        assert len(ops) == 107
        cold = []
        for pair, mu in ops:
            dirac._sphere.cache_clear()
            characters.grid_table.cache_clear()
            cold.append(dirac.euler_verify(pair, mu))
        for pair, mu in ops:
            dirac.euler_verify(pair, mu)
        assert [dirac.euler_verify(pair, mu) for pair, mu in ops] == cold
        assert all(report.passed for report in cold)

    def test_each_key_is_built_once(self):
        # on the oracle sample from cleared caches: the elimination once per
        # G grid, the shell once per sphere |lambda + delta|^2, each side's
        # components once per pair, and a second pass builds nothing
        ops = [(builtin_pair(name), lam, mu)
               for name, box in ORACLE_SAMPLE_BOXES.items()
               for lam, mu in admissible_box(builtin_pair(name), box)]
        keys = {dirac._simple_coordinates: {pair.root_system
                                            for pair, _, _ in ops},
                dirac._sphere: {(pair.root_system, pair.lattice_F,
                                 inner_product(lam + pair.delta,
                                               lam + pair.delta))
                                for pair, lam, _ in ops},
                spin.chi_components: {(pair, side) for pair, _, _ in ops
                                      for side in (1, -1)}}
        assert (len(ops), [len(keys[cache]) for cache in keys]) == \
            (103, [4, 34, 10])
        caches = list(keys)
        for cache in caches:
            cache.cache_clear()
        for _ in range(2):
            assert all(dirac.euler_verify(pair, mu).passed
                       for pair, _, mu in ops)
            assert [cache.cache_info().misses for cache in caches] == \
                [len(keys[cache]) for cache in caches]

    def test_an_empty_shell_reads_no_half_spin_character(self, monkeypatch):
        # D7:3 at mu = 2,2,2,2,0,0,0 is BOTH_ZERO with no shell member, so
        # neither side's components are read (straightening chi over D4 +
        # A3 takes seconds); the cache is bypassed, so none hides a read
        def unusable(pair):
            raise AssertionError("the oracle read the half-spin characters")

        monkeypatch.setattr(spin, "spinor_counts", unusable)
        monkeypatch.setattr(dirac, "chi_components",
                            spin.chi_components.__wrapped__)
        report = dirac.euler_verify(corpus_pair("D", 7, 3),
                                    W("2,2,2,2,0,0,0"))
        assert report.passed and report.rows == ()
        assert report.kernel.status is KernelStatus.BOTH_ZERO

    def test_mu_is_read_onto_the_grid_twice(self, monkeypatch):
        # after a warm pass, on the oracle sample and the ROADMAP rungs:
        # euler_verify reads mu onto G's grid twice (the admissibility
        # check's read, handed to the kernel, and its own), dirac_kernel
        # once, and neither reads any other weight
        ops = [(builtin_pair(name), mu)
               for name, box in ORACLE_SAMPLE_BOXES.items()
               for _lam, mu in admissible_box(builtin_pair(name), box)]
        ops += [(builtin_pair(name), W(mu)) for name, mu in ROADMAP_RUNGS]
        warm = [dirac.euler_verify(pair, mu) for pair, mu in ops]
        reads = []
        locate, lift = Grid.locate, Grid.lift
        monkeypatch.setattr(
            Grid, "locate", lambda g, w: reads.append(w) or locate(g, w))
        monkeypatch.setattr(
            Grid, "lift", lambda g, w: reads.append(w) or lift(g, w))
        for (pair, mu), report in zip(ops, warm):
            reads.clear()
            assert dirac.euler_verify(pair, mu) == report
            assert reads == [mu, mu], (pair.name, str(mu))
            reads.clear()
            assert dirac.dirac_kernel(pair, mu) == report.kernel
            assert reads == [mu], (pair.name, str(mu))

    def test_oracle_sample_hashes_no_fraction(self, monkeypatch):
        # after a warm-up pass, and with dirac_kernel's results given
        # precomputed, the oracle's own code on the 103 sample mu hashes no
        # Fraction: its signed sum is collected over the shell's sorted grid
        # points, with no dict, and compared as tuples of the report's
        # Weights
        ops = [(builtin_pair(name), mu)
               for name, box in ORACLE_SAMPLE_BOXES.items()
               for _lam, mu in admissible_box(builtin_pair(name), box)]
        assert len(ops) == 103
        warm = [dirac.euler_verify(pair, mu) for pair, mu in ops]
        given = iter([report.kernel for report in warm])
        monkeypatch.setattr(dirac, "dirac_kernel",
                            lambda pair, mu: next(given))
        hashed = []
        fraction_hash = Fraction.__hash__

        def counted(self):
            hashed.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        reports = [dirac.euler_verify(pair, mu) for pair, mu in ops]
        monkeypatch.undo()
        assert hashed == []
        assert reports == warm
        assert sum(bool(report.signed_sum) for report in reports) > 50

    def test_reads_neither_W_H_nor_W1(self, monkeypatch):
        def unusable(self):
            raise AssertionError("the oracle read W_H or W_1")

        for name in ("w1", "weyl_h_order"):
            monkeypatch.setattr(SymmetricPair, name, property(unusable))
        pair = builtin_pair("so7_so6")
        report = dirac.euler_verify(pair, W("9/2,7/2,7/2"))
        assert report.passed and len(report.rows) == 4

    def test_b8_node_7_at_delta_p(self):
        # |W_H| = 2^7 8! is past ORBIT_LIMIT, and the pruned read never
        # lists W_H: the one member nu = 0 reads its images in the ball
        pair = marked_node_pair(build_classical("B", 8), 7, "so17_so16")
        assert pair.weyl_h_order > ORBIT_LIMIT
        report = dirac.euler_verify(pair, pair.delta_p)
        assert report.passed
        assert [row.nu for row in report.rows] == [Weight.zero(8)]

    def test_so9_sample(self):
        pair = builtin_pair("so9_so8")
        for lam_text in ["0,0,0,0", "1,0,0,0", "1,1,1,-1"]:
            mu = W(lam_text) + pair.delta_p
            report = checked_euler(pair, mu)
            assert report.passed, (lam_text, report.failures)
