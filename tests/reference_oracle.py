"""The references of the oracle layer: the extraction kernel as a sum over
W_H and as a product of binomials over Delta_h^+, and from the library's
components over the listed W_H; the product-and-peel multiplicity, and the
sums over the whole kernel, read on demand or from the full table; the
Casimir shell by a ``Fraction`` and an integer brute-force scan; the
Casimir scalar on ``Fraction`` weights; ``checked_kernel`` (against the
``Fraction`` walk of lambda + delta, sigma's replayed image, the Casimir
scalar of lambda and the library's of nu, Bott's index and ``weyl_dim``)
and ``checked_euler``; and ``Weight`` views of the library's shell and
extraction.  The kernel per (pair, s), the product and peel per (pair, nu,
s), which serves every mu, and each scan per sphere are computed once per
session.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from types import MappingProxyType
from typing import Mapping

from dirackernel.characters import weight_table, weyl_dim
from dirackernel.dirac import (KernelStatus, _extract, _multiplicity,
                               _sphere, casimir_eigenvalue, dirac_kernel,
                               euler_verify)
from dirackernel.lattice import Weight
from dirackernel.roots import grid
from dirackernel.spin import chi_components, spinor_counts
from reference_characters import irreducible_character, peel, side_character
from reference_roots import (act, inner_product, listed_group,
                             reference_bott_index, reference_contains,
                             reference_element, reference_grid_walk,
                             reference_walk)


@lru_cache(maxsize=None)
def reference_kernel(pair, s) -> Mapping:
    """{k: c} with m_mu = sum c * mult_nu(mu + k): over w in W_H and the
    weights e of chi^s with their counts n_e (the rows of E^s that give e),
    the shift delta_h - w delta_h - e carries sgn(w) n_e; cancelled shifts
    are dropped."""
    dh = pair.delta_h
    chi = side_character(pair, s).terms
    coeffs = {}
    for w in listed_group(pair.h_system):
        base = dh - w.image
        for e, count in chi.items():
            k = base - e
            coeffs[k] = coeffs.get(k, 0) + w.sign * count
    return MappingProxyType({k: c for k, c in coeffs.items() if c})


@lru_cache(maxsize=None)
def binomial_kernel(pair, s) -> Mapping:
    """{k: c} on ``grid(pair.root_system)`` as the product
    prod_{alpha in Delta_h^+} (1 - e^alpha) * chi-bar^s, expanded one
    binomial at a time, with chi-bar^s = chi^(s (-1)^m) read from
    ``spin.spinor_counts``: no straightening and no orbit."""
    g = grid(pair.root_system)
    kernel = dict(spinor_counts(pair)[s * (-1) ** pair.m])
    for alpha in (g.positive[k] for k in sorted(pair.h_index)):
        product = dict(kernel)
        for k, c in kernel.items():
            shifted = tuple(map(add, k, alpha))
            product[shifted] = product.get(shifted, 0) - c
        kernel = {k: c for k, c in product.items() if c}
    return MappingProxyType(kernel)


def kernel_weights(pair, s, components=None) -> dict:
    """The kernel K_s as {Weight: c}, built from the library's components
    of chi-bar^s = chi^(s (-1)^m) (``chi_components(pair, s (-1)^m)``
    unless given) over the listed W_H: each (p, n) puts (-1)^|Delta_h^+|
    sgn(w) n at delta_h + w p, and distinct components meet no shift
    twice."""
    h = grid(pair.h_system, grid(pair.root_system).scale)
    sign = (-1) ** len(pair.h_positive)
    kernel = {}
    if components is None:
        components = chi_components(pair, s * (-1) ** pair.m)
    for p, n in components:
        for w in listed_group(pair.h_system):
            kernel[pair.delta_h + act(w, h.weight(p))] = sign * w.sign * n
    return kernel


@lru_cache(maxsize=None)
def _product_and_peel(pair, nu, s) -> dict:
    product = (side_character(pair, s)
               * irreducible_character(pair.root_system, nu))
    return peel(product, pair.h_system)


def reference_multiplicity(pair, nu, mu, side) -> int:
    """The product-and-peel route: chi^s * pi_nu peeled over Delta_h by the
    test reference ``peel``, not by the library, s = side for m even and
    -side for m odd."""
    s = side if pair.m % 2 == 0 else -side
    return _product_and_peel(pair, nu, s).get(mu, 0)


def frobenius_multiplicity(pair, nu, mu, side: int) -> int:
    """The multiplicity of the mu-irreducible of the subgroup cover in
    chi^s tensor pi_nu restricted, s = side for m even and -side for m
    odd, for nu a dominant point of F and mu admissible: the library's
    extraction, which reads pi_nu on demand, from the start w0 z read by
    the tests' checked walk of -z (``reference_grid_walk``)."""
    g = grid(pair.root_system)
    h = grid(pair.h_system, g.scale)
    z = tuple(map(add, g.point(Weight(mu)), h.delta))
    lowest = reference_grid_walk(h, tuple(-c for c in z))[1]
    return _extract(g, h, g.point(Weight(nu)), tuple(-c for c in lowest),
                    chi_components(pair, side))


def kernel_multiplicity(pair, nu, mu, side: int) -> int:
    """``frobenius_multiplicity`` as the sum c * mult_nu(x + k) over every
    signed shift (k, c) of the whole kernel (``binomial_kernel``), each
    read on demand by ``_multiplicity``: no pruning."""
    s = side if pair.m % 2 == 0 else -side
    g = grid(pair.root_system)
    top, x = g.point(Weight(nu)), g.point(Weight(mu))
    return sum(c * _multiplicity(g, top, tuple(map(add, x, k)))
               for k, c in binomial_kernel(pair, s).items())


def table_multiplicity(pair, nu, mu, side: int) -> int:
    """``frobenius_multiplicity`` as the full-table sum: c * table[x + k]
    over every signed shift (k, c) of the kernel (``binomial_kernel``),
    every value read from the whole Freudenthal table of pi_nu."""
    s = side if pair.m % 2 == 0 else -side
    table = weight_table(pair.root_system, Weight(nu)).terms
    x = grid(pair.root_system).point(Weight(mu))
    return sum(c * table.get(tuple(map(add, x, k)), 0)
               for k, c in binomial_kernel(pair, s).items())


def shell_rows(pair, g, lam) -> tuple:
    """The library's rows (D nu, dim pi_nu, nu) of the Casimir shell of lam
    = D lambda on g = grid(pair.root_system): ``dirac._sphere`` at |D
    (lambda + delta)|^2."""
    return _sphere(g, pair.lattice_F,
                   sum((a + d) ** 2 for a, d in zip(lam, g.delta)))


def casimir_shell(pair, lam) -> list:
    """The dominant points nu of F with the Casimir scalar of lambda, for
    lambda in F, sorted."""
    g = grid(pair.root_system)
    return [nu for _point, _dimension, nu
            in shell_rows(pair, g, g.point(Weight(lam)))]


def brute_force_shell(pair, lam, scale=Fraction(1)) -> list:
    """Independent shell enumeration: scan the covering coordinate box and
    keep dominant lattice points satisfying the scaled shell equation."""
    shifted = lam + pair.delta
    return list(_fraction_sphere(pair, inner_product(shifted, shifted),
                                 scale))


@lru_cache(maxsize=None)
def _fraction_sphere(pair, radius_sq, scale) -> tuple:
    # the shell of every lambda with |lambda + delta|^2 = radius_sq
    delta = pair.delta
    target = scale * (radius_sq - inner_product(delta, delta))
    bound = 1
    while bound * bound < radius_sq:
        bound += 1
    found = []
    values = [Fraction(k, 2) for k in range(-2 * bound - 2, 2 * bound + 3)]
    for coords in itertools.product(values, repeat=pair.rank):
        nu = Weight(coords)
        if not reference_contains(pair.lattice_F, nu):
            continue
        if not pair.root_system.is_dominant(nu):
            continue
        if scale * inner_product(nu + delta * 2, nu) == target:
            found.append(nu)
    return tuple(sorted(found))


def integer_brute_force_shell(pair, lam) -> tuple:
    """The shell of lambda (lam = D lambda) on ``grid(pair.root_system)``
    by a scan of the whole box |x_k| <= |x| for x = D (nu + delta), the
    last coordinate looked up among the squares: every dominant D nu in
    D F with |nu + delta| = |lambda + delta|, sorted.  No bound from a
    simple-root inequality and no step by residue."""
    g = grid(pair.root_system)
    return _integer_sphere(pair, sum((a + d) ** 2
                                     for a, d in zip(lam, g.delta)))


@lru_cache(maxsize=None)
def _integer_sphere(pair, total) -> tuple:
    # the shell of every lambda with |D (lambda + delta)|^2 = total
    g = grid(pair.root_system)
    bound = math.isqrt(total)
    coords = range(-bound, bound + 1)
    roots_of = {}
    for c in coords:
        roots_of.setdefault(c * c, []).append(c)
    squares = [c * c for c in coords]
    found = []
    for head, head_squares in zip(
            itertools.product(coords, repeat=pair.rank - 1),
            itertools.product(squares, repeat=pair.rank - 1)):
        for last in roots_of.get(total - sum(head_squares), ()):
            nu = tuple(map(sub, head + (last,), g.delta))
            if g.contains(pair.lattice_F, nu) and g.is_dominant(nu):
                found.append(nu)
    return tuple(sorted(found))


def reference_casimir(pair, nu) -> Fraction:
    """<nu + 2 delta, nu> by ``inner_product`` on ``Fraction`` weights:
    the reference for ``casimir_eigenvalue`` and the kernel's scalar."""
    nu = Weight(nu)
    return inner_product(nu + pair.delta * 2, nu)


def checked_kernel(pair, mu):
    """``dirac_kernel(pair, mu)``, after checking it against the walk of
    lambda + delta on ``Fraction`` weights (``reference_walk``): BOTH_ZERO
    exactly where it ends singular, else sigma's word is its steps,
    sigma's image the replay of that word on delta (``reference_element``),
    sigma's sign their parity and nu its end less delta; against the
    Casimir scalar of lambda on ``Fraction`` weights
    (``reference_casimir``), for every status, and for PLUS and MINUS
    against the library's scalar of nu (``casimir_eigenvalue``), which the
    kernel does not call; and against Bott's index on ``Fraction`` weights
    (``reference_bott_index``): 0 for BOTH_ZERO, else positive for PLUS,
    negative for MINUS, and of absolute value the dimension, which must
    also be ``weyl_dim`` of nu.  Raised, not asserted: also under python
    -O."""
    result = dirac_kernel(pair, mu)
    rs = pair.root_system
    lam = Weight(mu) - pair.delta_p
    steps, dominant = reference_walk(lam + pair.delta, rs)
    walked = (None, None, None, None)
    if all(inner_product(dominant, a) > 0 for a in rs.simple_roots):
        walked = (steps, reference_element(rs, steps).image,
                  (-1) ** len(steps), dominant - pair.delta)
    sigma = ((None, None) if result.sigma is None
             else (result.sigma.word, result.sigma.image))
    if (*sigma, result.sigma_sign, result.nu) != walked:
        raise AssertionError(f"{pair.name} mu={mu}: {result} against the "
                             f"walk {walked}")
    casimir = reference_casimir(pair, lam)
    if result.casimir != casimir:
        raise AssertionError(f"{pair.name} mu={mu}: {result} against the "
                             f"Casimir scalar {casimir} of lambda")
    index = reference_bott_index(pair, lam)
    if result.status is KernelStatus.BOTH_ZERO:
        expected = 0
    else:
        if casimir_eigenvalue(pair, result.nu) != result.casimir:
            raise AssertionError(f"{pair.name} mu={mu}: {result} against "
                                 f"casimir_eigenvalue of nu")
        dimension = weyl_dim(rs, result.nu)
        expected = (dimension if result.status is KernelStatus.PLUS
                    else -dimension)
        if result.dimension != dimension:
            raise AssertionError(f"{pair.name} mu={mu}: {result} against "
                                 f"weyl_dim {dimension}")
    if index != expected:
        raise AssertionError(f"{pair.name} mu={mu}: {result} against "
                             f"Bott's index {index}")
    return result


def checked_euler(pair, mu):
    """``euler_verify(pair, mu)``, after checking that every shell
    member's Freudenthal mass (the sum of its table) is ``weyl_dim``."""
    report = euler_verify(pair, mu)
    rs = pair.root_system
    for row in report.rows:  # raised, not asserted: also under python -O
        mass = sum(weight_table(rs, row.nu).terms.values())
        if mass != weyl_dim(rs, row.nu) or mass != row.dimension:
            raise AssertionError(f"{row}: mass {mass} against weyl_dim")
    return report
