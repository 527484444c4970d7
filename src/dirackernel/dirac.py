"""Kernel classification of the Dirac operator and its brute-force verifier.

The theorem path: for admissible mu, set lambda = mu - delta_p; if
lambda + delta is singular the kernel vanishes on both sides, otherwise
the unique Weyl element w moving lambda + delta into the open chamber
yields sigma = w^{-1} (the steps of ``dominant_walk``, read as a word),
nu = w(lambda + delta) - delta, and the side is decided by
sgn(sigma) * (-1)^m.

The oracle path shares only the lattice/roots primitives with the theorem
path.  It enumerates the Casimir shell of lambda as integer points on a
sphere (``_shell_points``), computes Frobenius multiplicities on both
sides by Brauer-Klimyk coefficient extraction (``_extract``: the weight
multiplicities of pi_nu summed against signed shifts, the product of
binomials prod (1 - e^alpha) over Delta_h^+ times the negated half-spin
character, read from the binomial products P_+- of ``spin``), and checks
that the alternating sum collapses to the predicted signed irreducible
(or to zero).  It runs on int tuples D w on the grid of ``roots.grid`` end
to end; ``Weight`` appears only at its inputs and in its report.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Dict, NamedTuple, Optional

from .characters import weight_table, weyl_dim
from .errors import AdmissibilityError, ConsistencyError, DimensionError
from .lattice import Weight, inner_product
from .roots import Grid, WeylElement, dominant_walk, grid
from .spin import binomial_products, times_binomial
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
    if not grid(rs).contains(pair.lattice_F, nu) or not rs.is_dominant(nu):
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
    not searched.  x[:k+1] is extended only if <x, a> >= least for each
    (support of a, least) in checks[k]."""
    k = len(prefix)
    bound = math.isqrt(total)
    if k + 1 < len(offsets):
        values = range(-bound + (offsets[k] + bound) % step, bound + 1, step)
    else:
        values = sorted({-bound, bound}) if bound * bound == total else ()
    for x in values:
        point = prefix + (x,)
        if (x - offsets[k]) % step or any(
                sum(point[j] * c for j, c in support) < least
                for support, least in checks[k]):
            continue
        if len(point) == len(offsets):
            yield point
        else:
            yield from _squares_summing_to(offsets, step, total - x * x,
                                           checks, point)


def _shell_points(pair: SymmetricPair, g: Grid, lam: tuple) -> list:
    """The Casimir shell of lambda as the sorted grid points D nu, for
    lam = D lambda on ``g = grid(pair.root_system)``.

    Since <nu + 2 delta, nu> = |nu + delta|^2 - |delta|^2, members satisfy
    |nu + delta| = |lambda + delta|.  Per residue r of F (``Grid.residues``)
    the points x = D (nu + delta) are the integer vectors with x = r +
    D delta mod D and sum x_k^2 = |D (lambda + delta)|^2; each coordinate
    steps by D up to the integer square root of what remains.  nu is
    dominant iff <x, D a> >= <D delta, D a> for each simple root a, tested
    as soon as the chosen coordinates of x cover the support of a, and
    again on the end point.
    """
    delta = g.delta
    total = sum((a + d) ** 2 for a, d in zip(lam, delta))
    checks = [[] for _ in delta]
    for support, _ in g.supports:
        checks[support[-1][0]].append(
            (support, sum(delta[k] * c for k, c in support)))
    found = []
    for residue in g.residues(pair.lattice_F):
        offsets = tuple(map(add, residue, delta))
        for x in _squares_summing_to(offsets, g.scale, total, checks):
            nu = tuple(map(sub, x, delta))
            if g.is_dominant(nu):
                found.append(nu)
    return sorted(found)


@lru_cache(maxsize=None)
def _extraction_kernel(pair: SymmetricPair, s: int) -> tuple:
    """Signed shifts (k, c), k on ``grid(pair.root_system)``, with
    m_mu = sum c * mult_nu(mu + k).

    Multiplying chi^s * pi_nu = sum m_mu' ch_h(mu') by the Weyl denominator
    of Delta_h and reading off the coefficient of e^(mu + delta_h) gives
    m_mu = sum over w in W_H and the weights e of chi^s of
    sgn(w) n_e mult_nu(mu + delta_h - w delta_h - e).  By Weyl's
    denominator formula the shifts with their signed counts are the
    product K_s = prod_{alpha in Delta_h^+} (1 - e^alpha) * chi-bar^s,
    where chi^s = (P_+ + s P_-) / 2 with
    P_+- = prod_{alpha in Delta_p^+} (e^(alpha/2) +- e^(-alpha/2)), and
    the bar negates every weight: it fixes P_+ and turns P_- into
    (-1)^m P_-.  P_+- come from ``spin.binomial_products``, and the
    Delta_h^+ binomials are multiplied in one at a time, so the kernel
    reads only Delta_h^+ and Delta_p^+: neither W_H nor W_1.
    """
    g = grid(pair.root_system)
    plus, minus = binomial_products(pair)
    bar = s * (-1) ** pair.m
    kernel = {}
    for k in plus.keys() | minus.keys():
        twice = plus.get(k, 0) + bar * minus.get(k, 0)
        if twice % 2:
            raise ConsistencyError(
                f"half-spin character has count {twice}/2 at {g.weight(k)}")
        if twice:
            kernel[k] = twice // 2
    zero = (0,) * pair.rank
    for k in pair.h_index:
        kernel = times_binomial(kernel, zero, g.positive[k], -1)
    return tuple(kernel.items())


def _extract(pair: SymmetricPair, table: dict, x: tuple, side: int) -> int:
    """sum c * table[x + k] over the signed shifts (k, c) of the kernel of
    ``side``, for the weight table of pi_nu and x = D mu."""
    s = side if pair.m % 2 == 0 else -side
    get = table.get
    return sum(c * get(tuple(map(add, x, k)), 0)
               for k, c in _extraction_kernel(pair, s))


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
    reported, not raised.  mu is checked once, by ``dirac_kernel``; the
    shell members are built on the grid, so they need no further checks.
    """
    mu = Weight(mu)
    kernel = dirac_kernel(pair, mu)
    g = grid(pair.root_system)
    lam = mu - pair.delta_p
    x = g.point(mu)
    rows = []
    failures = []
    signed: Dict[Weight, int] = {}
    for point in _shell_points(pair, g, g.point(lam)):
        nu = g.weight(point)
        table = weight_table(g.rs, nu).terms
        m_plus = _extract(pair, table, x, +1)
        m_minus = _extract(pair, table, x, -1)
        rows.append(ShellRow(nu, sum(table.values()), m_plus, m_minus))
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
        pair_name=pair.name, mu=mu, lam=lam, rows=tuple(rows),
        signed_sum=tuple(sorted(signed.items())),
        expected=tuple(sorted(expected.items())),
        kernel=kernel, failures=tuple(failures))
