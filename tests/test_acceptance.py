"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison below is equality with zero
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
from fractions import Fraction

from clifford_model import (_kernel_basis, _m_add, _m_identity, _m_mul,
                            _m_scale, build_clifford,
                            simultaneous_spin_weights)
from dirackernel.characters import branch_equal_rank, weyl_dim
from dirackernel.dirac import KernelStatus, chi_casimir_check, dirac_kernel
from dirackernel.lattice import Weight
from dirackernel.roots import build_classical, weyl_group
from dirackernel.spin import chi_decompose, chi_trace_difference
from dirackernel.sympair import (builtin_pair, builtin_pair_names,
                                 w1_enumerate)
from reference_characters import (FormalCharacter, branch_interleave_BD,
                                  irreducible_character, side_character,
                                  subset_sum_weights, support)
from reference_oracle import checked_euler
from reference_roots import (W, admissible_box, group_images, identity,
                             inner_product, reference_contains)


def report(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:2d} ({label}): {status}")
    assert not failures, f"criterion {number}: " + "; ".join(
        str(f) for f in failures[:10])


def closed_form_bd(m, lam):
    """The worked-example closed form for the odd/even orthogonal pairs."""
    if lam[-1] >= 0:
        nu = lam
        plus = m % 2 == 0
    else:
        nu = Weight(tuple(lam[:-1]) + (-(lam[-1] + 1),))
        plus = m % 2 == 1
    return (KernelStatus.PLUS if plus else KernelStatus.MINUS), nu


def test_criterion_01_so3_so2_closed_form():
    pair = builtin_pair("so3_so2")
    failures = []
    cases = 0
    for lam1 in range(-4, 5):
        lam = Weight((lam1,))
        result = dirac_kernel(pair, lam + pair.delta_p)
        if lam1 >= 0:
            expected = (KernelStatus.MINUS, lam)
        else:
            expected = (KernelStatus.PLUS, -(lam + W("1")))
        if (result.status, result.nu) != expected:
            failures.append((lam1, result.status, result.nu))
        cases += 1
    if cases != 9:
        failures.append(f"expected 9 cases, ran {cases}")
    report(1, "SO(3)/SO(2) closed form", failures)


def test_criterion_02_so2mp1_so2m_closed_form():
    # The stated box {-2..2} yields 30 admissible cases; coordinates are
    # extended to {-3..3} (a superset) so the >= 40 case count is met.
    failures = []
    cases = 0
    for m in (2, 3):
        pair = builtin_pair(f"so{2 * m + 1}_so{2 * m}")
        for lam, mu in admissible_box(pair, 3):
            expected_status, expected_nu = closed_form_bd(m, lam)
            result = dirac_kernel(pair, mu)
            if (result.status, result.nu) != (expected_status, expected_nu):
                failures.append((m, lam, result.status, result.nu))
            cases += 1
    if cases < 40:
        failures.append(f"only {cases} cases")
    report(2, f"SO(2m+1)/SO(2m) closed form, {cases} cases", failures)


def test_criterion_03_euler_oracle():
    failures = []
    pair = builtin_pair("so3_so2")
    for lam1 in range(-4, 5):
        mu = Weight((lam1,)) + pair.delta_p
        rep = checked_euler(pair, mu)
        if not rep.passed:
            failures.append(("so3_so2", lam1, rep.failures))
    for m in (2, 3):
        pair = builtin_pair(f"so{2 * m + 1}_so{2 * m}")
        for lam, mu in admissible_box(pair, 3):
            rep = checked_euler(pair, mu)
            if not rep.passed:
                failures.append((pair.name, lam, rep.failures))
    zero_case = checked_euler(builtin_pair("so5_so2xso3"), W("3/2,1"))
    if not zero_case.passed:
        failures.append(("so5_so2xso3", "3/2,1", zero_case.failures))
    if zero_case.kernel.status is not KernelStatus.BOTH_ZERO:
        failures.append("expected BOTH_ZERO for so5_so2xso3 mu=3/2,1")
    report(3, "Euler-characteristic oracle", failures)


def test_criterion_04_chi_decomposition():
    failures = []
    for name in builtin_pair_names():
        pair = builtin_pair(name)
        try:
            plus, minus = chi_decompose(pair)
            chi_trace_difference(pair)
        except Exception as exc:  # verification failure raises
            failures.append((name, exc))
            continue
        for side, mapping in ((1, plus), (-1, minus)):
            total = FormalCharacter.zero(pair.rank)
            for hw in mapping:
                total += irreducible_character(pair.h_system, hw)
            if total != side_character(pair, side):
                failures.append((name, side, "character sum mismatch"))
    report(4, "chi splits over W1 with exact character identity", failures)


def test_criterion_05_weight_disjointness():
    failures = []
    for name in builtin_pair_names():
        pair = builtin_pair(name)
        overlap = (side_character(pair, 1).terms.keys()
                   & side_character(pair, -1).terms.keys())
        if overlap:
            failures.append((name, sorted(overlap)))
    report(5, "E+ and E- weight multisets disjoint", failures)


def test_criterion_06_bijection_counts():
    expected = {
        "so3_so2": (2, 1, 2),
        "so5_so4": (8, 4, 2),
        "so5_so2xso3": (8, 2, 4),
        "so7_so6": (48, 24, 2),
        "so9_so8": (384, 192, 2),
    }
    failures = []
    for name, (total, h_order, w1_order) in expected.items():
        pair = builtin_pair(name)
        got = (len(weyl_group(pair.root_system)), pair.weyl_h_order,
               len(w1_enumerate(pair)))
        if got != (total, h_order, w1_order) or total != h_order * w1_order:
            failures.append((name, got))
    report(6, "|W| = |W_H| * |W1| for every built-in pair", failures)


def test_criterion_07_casimir_scalar():
    failures = []
    for name in builtin_pair_names():
        pair = builtin_pair(name)
        try:
            scalar = chi_casimir_check(pair)  # asserts the per-sigma identity
        except Exception as exc:
            failures.append((name, exc))
            continue
        direct = (inner_product(pair.delta, pair.delta)
                  - inner_product(pair.delta_h, pair.delta_h))
        if scalar != direct:
            failures.append((name, scalar, direct))
    report(7, "Casimir scalar identity over W1", failures)


def test_criterion_08_clifford_model():
    failures = []
    for n in (2, 4, 6, 8):
        m = n // 2
        model = build_clifford(n)  # relations verified at construction
        if model.size != 2 ** m:
            failures.append((n, "dimension", model.size))
        ident = _m_identity(model.size)
        for sign in (1, -1):
            shifted = _m_add(model.volume,
                             _m_scale(ident, (Fraction(-sign), Fraction(0))))
            dim = len(_kernel_basis(shifted, model.size))
            if dim != 2 ** (m - 1):
                failures.append((n, f"volume eigenspace {sign}", dim))
        minus_two = _m_scale(ident, (Fraction(-2), Fraction(0)))
        for j in range(n):
            for k in range(n):
                anti = _m_add(_m_mul(model.generators[j], model.generators[k]),
                              _m_mul(model.generators[k], model.generators[j]))
                if anti != (minus_two if j == k else {}):
                    failures.append((n, "relation", j, k))
        spectrum = simultaneous_spin_weights(model)
        hypercube = sorted(Weight(Fraction(e, 2) for e in eps)
                           for eps in itertools.product((1, -1), repeat=m))
        if spectrum != hypercube:
            failures.append((n, "joint spectrum", spectrum))
    report(8, "Clifford relations, dimensions, spectra (n <= 8)", failures)


def test_criterion_09_branching_cross_check():
    failures = []
    for m in (1, 2, 3):
        pair = builtin_pair(f"so{2 * m + 1}_so{2 * m}")
        rs = pair.root_system
        candidates = []
        for coords in itertools.product(range(3), repeat=m):
            candidates.append(Weight(coords))
        for coords in itertools.product((Fraction(1, 2), Fraction(3, 2)),
                                        repeat=m):
            candidates.append(Weight(coords))
        for nu in candidates:
            if not rs.is_dominant(nu):
                continue
            via_characters = branch_equal_rank(pair, nu)
            via_interleaving = branch_interleave_BD(m, nu)
            if via_characters != via_interleaving:
                failures.append((m, nu, "rule mismatch"))
            total = sum(mult * weyl_dim(pair.h_system, a)
                        for a, mult in via_interleaving.items())
            if total != weyl_dim(rs, nu):
                failures.append((m, nu, "dimension imbalance"))
    report(9, "equal-rank branching matches interleaving rule", failures)


def test_criterion_10_kostant_lemmas():
    failures = []
    # weight lemma: brute-force subset sums of positive roots reproduce the
    # weights of pi_delta, with multiplicities, on six systems
    for family, rank in [("B", 1), ("A", 1), ("A", 2), ("B", 2), ("D", 2),
                         ("C", 2)]:
        rs = build_classical(family, rank)
        if irreducible_character(rs, rs.delta).terms != \
                subset_sum_weights(rs):
            failures.append((family, rank, "weight lemma"))
    # norm inequality with exact equality condition; xi1 and xi2 are
    # aligned when one element of W takes them to nu1 and nu2
    rs = build_classical("B", 2)
    reps = [W("0,0"), W("1,0"), W("1,1"), W("2,0"), W("2,1"), W("2,2"),
            W("1/2,1/2"), W("3/2,1/2"), W("3/2,3/2")]
    supports = {nu: support(irreducible_character(rs, nu)) for nu in reps}
    weights = sorted(set().union(*supports.values()))
    images = [dict(zip(weights, row))
              for row in group_images(rs, weights).values()]
    for nu1, nu2 in itertools.product(reps, repeat=2):
        lhs = inner_product(nu1 + nu2, nu1 + nu2)
        for xi1 in supports[nu1]:
            for xi2 in supports[nu2]:
                rhs = inner_product(xi1 + xi2, xi1 + xi2)
                aligned = any(image[xi1] == nu1 and image[xi2] == nu2
                              for image in images)
                if lhs < rhs or (lhs == rhs) != aligned:
                    failures.append((nu1, nu2, xi1, xi2))
    report(10, "Kostant weight lemma and norm inequality", failures)


def test_criterion_11_completeness():
    failures = []
    for name in builtin_pair_names():
        pair = builtin_pair(name)
        ident = identity(pair.root_system)
        for coords in itertools.product(range(3), repeat=pair.rank):
            nu = Weight(coords)
            if not pair.root_system.is_dominant(nu):
                continue
            if not reference_contains(pair.lattice_F, nu):
                failures.append((name, nu, "not in F"))
                continue
            result = dirac_kernel(pair, nu + pair.delta_p)
            if (result.status is KernelStatus.BOTH_ZERO
                    or result.nu != nu or result.sigma != ident):
                failures.append((name, nu, result.status, result.nu))
    report(11, "every irreducible is recovered from nu + delta_p", failures)
