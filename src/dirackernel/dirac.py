"""Kernel classification of the Dirac operator and its brute-force verifier.

The theorem path: for admissible mu, set lambda = mu - delta_p; if
lambda + delta is singular the kernel vanishes on both sides, otherwise
the unique Weyl element w moving lambda + delta into the open chamber
yields sigma = w^{-1} (the steps of ``dominant_walk``, read as a word),
nu = w(lambda + delta) - delta, and the side is decided by
sgn(sigma) * (-1)^m.

The oracle path shares only the lattice/roots primitives with the theorem
path.  It enumerates the Casimir shell of lambda as integer points on a
sphere, once per sphere (``_sphere``, bounded by the simple-root
inequalities), takes each member's dimension from Weyl's product, computes
Frobenius multiplicities on both sides by Brauer-Klimyk extraction
(``_extract``: the weight multiplicities of pi_nu summed against signed
shifts, over the smaller of the two sides), and checks that the
alternating sum collapses to the predicted signed irreducible (or to
zero).  The multiplicities are read on demand (``_multiplicity``) by a
standard lemma (Humphreys, Introduction to Lie Algebras and Representation
Theory, 13.4 Lemma C and 21.3): every weight of pi_nu lies in the ball
|y| <= |nu|, and the weights of norm |nu| are exactly W nu, each of
multiplicity 1.  So a shift landing outside the ball reads 0, one on its
sphere reads 1 or 0 by a walk to the dominant chamber, and one strictly
inside reads the Freudenthal table (``grid_table``) only when its dominant
representative is a weight.

The oracle runs on int tuples D w on the grid of ``roots.grid`` end to
end; ``Weight`` appears only at its inputs and in its report.  The shifts
are prod (1 - e^alpha) over Delta_h^+ times the negated half-spin
character, built by Weyl's character formula (``_extraction_kernel``): the
character, read from ``spin.spinor_counts`` (negating every weight swaps
the sides when m is odd), is straightened against Delta_h, and each
component contributes one signed W_H-orbit.  The kernel reads W_H only as
orbits on the subgroup's grid; never W_1.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from typing import Dict, NamedTuple, Optional

from .characters import alternant_sums, grid_dim, grid_table, weyl_dim
from .errors import AdmissibilityError, ConsistencyError, DimensionError
from .lattice import LatticeSpec, Weight, inner_product
from .roots import Grid, WeylElement, _solve, dominant_walk, grid, orbit
from .spin import spinor_counts
from .sympair import SymmetricPair, admissibility_failures


class KernelStatus(enum.Enum):
    PLUS = "PLUS"
    MINUS = "MINUS"
    BOTH_ZERO = "BOTH_ZERO"


class KernelResult(NamedTuple):
    """Which side of the kernel carries which irreducible, if any."""

    status: KernelStatus
    casimir: Fraction
    nu: Optional[Weight] = None
    sigma: Optional[WeylElement] = None
    sigma_sign: Optional[int] = None
    dimension: Optional[int] = None


def casimir_eigenvalue(pair: SymmetricPair, nu: Weight) -> Fraction:
    """<nu + 2*delta, nu>, the Casimir scalar of pi_nu (exact)."""
    if len(nu) != pair.rank:
        raise DimensionError(f"nu length {len(nu)} vs rank {pair.rank}")
    return inner_product(nu + pair.delta * 2, nu)


def chi_casimir_check(pair: SymmetricPair) -> Fraction:
    """The scalar by which the subgroup Casimir acts on the spinor space.

    Returns c = <delta, delta> - <delta_h, delta_h> after asserting the
    per-component identity <delta_p^sigma, delta_p^sigma + 2*delta_h> = c
    for every sigma in W_1, both as dot products of grid points over D^2.
    """
    g = grid(pair.root_system)
    square = g.scale ** 2
    delta_h = g.half_sum(pair.h_index)
    c = Fraction(sum(a * a - b * b for a, b in zip(g.delta, delta_h)), square)
    for w1 in pair.w1:
        dps = w1.delta_p_sigma
        value = Fraction(
            sum(a * (a + 2 * b) for a, b in zip(g.point(dps), delta_h)), square)
        if value != c:
            raise ConsistencyError(
                f"Casimir scalar mismatch at sigma with delta_p^sigma={dps}: "
                f"{value} != {c}")
    return c


def _require_admissible(pair: SymmetricPair, mu: Weight) -> None:
    failures = admissibility_failures(pair, mu)
    if failures:
        raise AdmissibilityError(
            f"mu={mu} is not admissible for {pair.name}: "
            + "; ".join(failures))


def dirac_kernel(pair: SymmetricPair, mu: Weight) -> KernelResult:
    """Classify the kernel of the Dirac operator twisted by mu."""
    mu = Weight(mu)
    _require_admissible(pair, mu)
    rs = pair.root_system
    lam = mu - pair.delta_p
    casimir = casimir_eigenvalue(pair, lam)
    steps, dominant = dominant_walk(lam + pair.delta, rs)
    if not rs.is_dominant(dominant, strict=True):
        return KernelResult(status=KernelStatus.BOTH_ZERO, casimir=casimir)
    sigma = WeylElement.from_word(rs, steps)
    nu = dominant - pair.delta
    # Automatic consequences of admissibility; treated as runtime
    # assertions, not assumptions.
    if not pair.h_system.is_dominant(sigma.image, strict=True):
        raise ConsistencyError(
            f"computed sigma is not in W_1 for mu={mu} (lambda={lam})")
    g = grid(rs)
    if not g.contains(pair.lattice_F, g.locate(nu)) or not rs.is_dominant(nu):
        raise ConsistencyError(
            f"computed nu={nu} is not a dominant lattice point for mu={mu}")
    if casimir_eigenvalue(pair, nu) != casimir:
        raise ConsistencyError("Casimir mismatch between nu and lambda")
    sign = sigma.sign
    status = (KernelStatus.PLUS
              if sign * (-1) ** pair.m == 1 else KernelStatus.MINUS)
    return KernelResult(status=status, casimir=casimir, nu=nu, sigma=sigma,
                        sigma_sign=sign, dimension=weyl_dim(rs, nu))


def _squares_summing_to(offsets: tuple, step: int, total: int,
                        checks: list, prefix: tuple = ()):
    """Integer vectors x after prefix with sum x_k^2 = total and x_k =
    offsets[k] mod step, in lex order; the last coordinate is solved for,
    not searched.  Each (support of a, least) in checks[k], a's coefficient
    c at k, bounds x_k by <x, a> >= least: from below if c > 0, else above."""
    k = len(prefix)
    bound = math.isqrt(total)
    low, high = -bound, bound
    for support, least in checks[k]:
        *earlier, (_, c) = support
        rest = least - sum(prefix[j] * b for j, b in earlier)
        if c > 0:
            low = max(low, -(-rest // c))
        else:
            high = min(high, rest // c)
    if k + 1 < len(offsets):
        for x in range(low + (offsets[k] - low) % step, high + 1, step):
            left = total - x * x  # the last coordinate needs a square
            if k + 2 < len(offsets) or math.isqrt(left) ** 2 == left:
                yield from _squares_summing_to(offsets, step, left, checks,
                                               prefix + (x,))
    elif bound * bound == total:  # the last one: +-bound, in the range
        for x in sorted({-bound, bound}):
            if low <= x <= high and not (x - offsets[k]) % step:
                yield prefix + (x,)


def _shell_points(pair: SymmetricPair, g: Grid, lam: tuple) -> tuple:
    """The Casimir shell of lam = D lambda on g = grid(pair.root_system)."""
    return _sphere(g, pair.lattice_F,
                   sum((a + d) ** 2 for a, d in zip(lam, g.delta)))


@lru_cache(maxsize=None)
def _sphere(g: Grid, lattice: LatticeSpec, total: int) -> tuple:
    """The dominant D nu in D F (F = ``lattice``) with |D (nu + delta)|^2 =
    total, sorted; cached per sphere.  It is the shell of every lambda on
    that sphere, as <nu + 2 delta, nu> = |nu + delta|^2 - |delta|^2.

    Per residue r of F (``Grid.residues``) the points x = D (nu + delta)
    are the integer vectors with x = r + D delta mod D and sum x_k^2 =
    total.  nu is dominant iff <x, D a> >= <D delta, D a> for each simple
    root a: each coordinate steps by D within the integer square root of
    what remains and the bounds of the a whose support it completes; the
    end point is tested.
    """
    delta = g.delta
    checks = [[] for _ in delta]
    for support, _ in g.supports:
        checks[support[-1][0]].append(
            (support, sum(delta[k] * c for k, c in support)))
    found = []
    for residue in g.residues(lattice):
        offsets = tuple(map(add, residue, delta))
        for x in _squares_summing_to(offsets, g.scale, total, checks):
            nu = tuple(map(sub, x, delta))
            if g.is_dominant(nu):
                found.append(nu)
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _extraction_kernel(pair: SymmetricPair, s: int) -> dict:
    """The signed shifts {k: c}, k on ``grid(pair.root_system)``, with
    m_mu = sum c * mult_nu(mu + k); cached, so not to be changed.

    Multiplying chi^s * pi_nu = sum m_mu' ch_h(mu') by the Weyl denominator
    of Delta_h and reading off the coefficient of e^(mu + delta_h) gives
    m_mu = sum over w in W_H and the weights e of chi^s of
    sgn(w) n_e mult_nu(mu + delta_h - w delta_h - e).  By Weyl's
    denominator formula the shifts with their signed counts are the
    product K_s = prod_{alpha in Delta_h^+} (1 - e^alpha) * chi-bar^s,
    where the bar negates every weight.  Negating every sign of a row of
    parity s gives a row of parity s (-1)^m, so chi-bar^s is
    chi^(s (-1)^m), read from ``spin.spinor_counts``.

    The product is built by Weyl's character formula on the subgroup's
    grid h: prod (1 - e^alpha) = (-1)^|Delta_h^+| e^delta_h A_delta_h, and
    chi-bar^s splits into h-irreducibles tau (Parthasarathy), each with
    A_delta_h ch_h(tau) = A_(tau + delta_h), a signed W_H-orbit.  So
    chi-bar^s is straightened against Delta_h (``alternant_sums``), and
    each component p = D (tau + delta_h) with multiplicity n puts
    (-1)^|Delta_h^+| sgn(w) n at D delta_h + w p over ``orbit(h, p)``.
    The kernel reads W_H only as orbits on the subgroup's grid; never W_1.
    """
    g = grid(pair.root_system)
    h = grid(pair.h_system, g.scale)
    chi = spinor_counts(pair)[s * (-1) ** pair.m]
    sign = (-1) ** len(pair.h_index)
    kernel = {}
    for p, n in alternant_sums(h, chi).items():
        if n < 0:
            raise ConsistencyError(
                f"half-spin character has multiplicity {n} at the "
                f"subgroup irreducible {h.weight(tuple(map(sub, p, h.delta)))}")
        if n:
            # p is regular, so sgn(w) is (-1)^parity for the parity that
            # orbit gives w p; distinct orbits meet no shift twice
            by_parity = (sign * n, -sign * n)
            for y, parity in orbit(h, p).items():
                kernel[tuple(map(add, h.delta, y))] = by_parity[parity]
    return kernel


def _multiplicity(g: Grid, top: tuple, y: tuple) -> int:
    """mult_nu(y) for pi_nu, top = D nu and y integral on g, read by the
    lemma of ``_extract``.  Outside the ball |y| <= |nu| the read is 0, and
    on its sphere it is 1 when y walks (``dominant_walk``) to nu.  Inside,
    y is walked to y+, a dominant weight of pi_nu exactly when nu - y+ is
    in Q+ (Humphreys, 21.3): its coordinates over the simple roots
    (``roots._solve``) are nonnegative integers.  Then the read is the
    cached Freudenthal table's (``grid_table``), else 0."""
    gap = sum(map(mul, top, top)) - sum(map(mul, y, y))
    if gap < 0:
        return 0
    dominant = dominant_walk(y, g)[1]
    if not gap:
        return int(dominant == top)
    d, (coefficients,) = _solve([g.positive[k] for k in g.rs.simple_index],
                                [tuple(map(sub, top, dominant))])
    if coefficients is None or any(c % d or c // d < 0 for c in coefficients):
        return 0
    return grid_table(g, top).terms[dominant]


def _extract(pair: SymmetricPair, g: Grid, top: tuple, dimension: int,
             x: tuple, side: int) -> int:
    """sum c * mult_nu(x + k) over the signed shifts (k, c) of the kernel
    of ``side``, for pi_nu of the given dimension, top = D nu and x = D mu
    on g = grid(pair.root_system).

    The reads rest on a lemma (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 13.4 Lemma C and 21.3): every weight of pi_nu
    lies in the ball |y| <= |nu|, and the weights of norm |nu| are exactly
    W nu, each of multiplicity 1.  A shift that takes x outside the ball
    reads 0 at once; every other read is ``_multiplicity``'s.  When pi_nu
    is the smaller side (its dimension below the kernel's size), the sum
    runs over its table (``grid_table``) as sum table[y] * kernel[y - x]
    instead."""
    s = side if pair.m % 2 == 0 else -side
    kernel = _extraction_kernel(pair, s)
    if dimension < len(kernel):
        return sum(m * kernel.get(tuple(map(sub, y, x)), 0)
                   for y, m in grid_table(g, top).terms.items())
    radius = sum(map(mul, top, top))
    total = 0
    for k, c in kernel.items():
        y = tuple(map(add, x, k))
        if sum(map(mul, y, y)) <= radius:
            total += c * _multiplicity(g, top, y)
    return total


class ShellRow(NamedTuple):
    nu: Weight
    dimension: int
    mult_plus: int
    mult_minus: int


class EulerReport(NamedTuple):
    pair_name: str
    mu: Weight
    lam: Weight
    rows: tuple  # ShellRow, in shell order
    signed_sum: tuple  # ((nu, coefficient), ...) nonzero entries
    expected: tuple  # same shape, from the kernel classification
    kernel: KernelResult
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def euler_verify(pair: SymmetricPair, mu: Weight) -> EulerReport:
    """Check the alternating-trace collapse against the classification.

    Over every shell member nu: (a) the two Frobenius multiplicities never
    exceed one in total, and (b) the signed sum of multiplicities equals
    +[nu0], -[nu0] or 0 according to the kernel result.  Failures are
    reported, not raised.  mu is checked once, by ``dirac_kernel``, and
    converted once; the shell members, dominant points of F, need no checks.
    """
    mu = Weight(mu)
    kernel = dirac_kernel(pair, mu)
    g = grid(pair.root_system)
    x = g.point(mu)
    lam = tuple(map(sub, x, g.half_sum(pair.p_index)))
    rows = []
    failures = []
    signed: Dict[Weight, int] = {}
    for point in _shell_points(pair, g, lam):
        dimension = grid_dim(pair.root_system, g, point)
        m_plus = _extract(pair, g, point, dimension, x, +1)
        m_minus = _extract(pair, g, point, dimension, x, -1)
        nu = g.weight(point)
        rows.append(ShellRow(nu, dimension, m_plus, m_minus))
        if m_plus + m_minus > 1:
            failures.append(
                f"multiplicity bound violated at nu={nu}: "
                f"m+={m_plus}, m-={m_minus}")
        if m_plus != m_minus:
            signed[nu] = m_plus - m_minus
    if kernel.status is KernelStatus.PLUS:
        expected = {kernel.nu: 1}
    elif kernel.status is KernelStatus.MINUS:
        expected = {kernel.nu: -1}
    else:
        expected = {}
    if signed != expected:
        failures.append(
            f"signed sum {sorted(signed.items())} does not match "
            f"classification {sorted(expected.items())}")
    return EulerReport(
        pair_name=pair.name, mu=mu, lam=g.weight(lam), rows=tuple(rows),
        signed_sum=tuple(sorted(signed.items())),
        expected=tuple(sorted(expected.items())),
        kernel=kernel, failures=tuple(failures))
