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
Frobenius multiplicities on both sides by Brauer-Klimyk extraction, and
checks that the alternating sum collapses to the predicted signed
irreducible (or to zero).  The extraction (``_extract``) sums the weight
multiplicities of pi_nu over the W_H-images of D (mu + delta_h), shifted
by the components of the half-spin character of its side
(``spin.chi_components``, cached per pair and side): a pruned search
visits only the images that land in the ball |y| <= |nu| holding every
weight of pi_nu, and each is read on demand (``_multiplicity``).

The oracle runs on int tuples D w on the grid of ``roots.grid`` end to
end; ``Weight`` appears only at its inputs and in its report.  It keeps
nothing of the size of W_H, and never reads W_1.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

from .characters import grid_dim, grid_table, weyl_dim
from .errors import AdmissibilityError, ConsistencyError, DimensionError
from .lattice import LatticeSpec, Weight, inner_product
from .roots import Grid, WeylElement, _solve, dominant_walk, grid
from .spin import chi_components
from .sympair import SymmetricPair, admissibility_failures


class KernelStatus(enum.Enum):
    PLUS = "PLUS"
    MINUS = "MINUS"
    BOTH_ZERO = "BOTH_ZERO"


KernelResult = namedtuple(
    "KernelResult", "status casimir nu sigma sigma_sign dimension",
    defaults=(None,) * 4)
KernelResult.__doc__ = """Which side of the kernel carries which irreducible,
if any: the ``KernelStatus``, the Casimir scalar (a ``Fraction``), and for
a nonzero kernel nu (a ``Weight``), sigma (a ``WeylElement``), its sign
and the dimension of pi_nu, else None each."""


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
    """Classify the kernel of the Dirac operator twisted by mu.

    mu is checked once (``admissibility_failures``).  The Casimir scalar
    <lambda + 2 delta, lambda> = |lambda + delta|^2 - |delta|^2 is read on
    the grid of ``roots.grid``, as one ``Fraction`` over D^2 from D
    (lambda + delta) = D mu + D delta_h.  The walk of lambda + delta, sigma
    and the checks on nu run on ``Weight``s.
    """
    mu = Weight(mu)
    _require_admissible(pair, mu)
    rs = pair.root_system
    g = grid(rs)
    shifted = map(add, g.point(mu), grid(pair.h_system, g.scale).delta)
    casimir = Fraction(sum(c * c for c in shifted)
                       - sum(c * c for c in g.delta), g.scale ** 2)
    lam = mu - pair.delta_p
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
    what remains and the bounds of the a whose support it completes, so
    every end point is dominant (else ConsistencyError).
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
            if not g.is_dominant(nu):
                raise ConsistencyError(
                    f"shell point {g.weight(nu)} is not dominant")
            found.append(nu)
    return tuple(sorted(found))


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


@lru_cache(maxsize=None)
def _longest_word(h: Grid) -> tuple:
    """A reduced word of w0, the longest element of the Weyl group of h:
    the steps of the walk (``dominant_walk``) of -D delta_h to D delta_h,
    as w0 is the one element that sends -delta_h to delta_h.  Its length
    is the number of reduced positive roots; cached per grid."""
    return dominant_walk(tuple(-c for c in h.delta), h)[0]


def _extract(pair: SymmetricPair, g: Grid, top: tuple, start: tuple,
             side: int) -> int:
    """The multiplicity of the subgroup irreducible mu in chi^s tensor pi_nu
    (s = side for m even, -side for m odd), for top = D nu on g =
    grid(pair.root_system) and start = w0 z on the subgroup's grid at g's
    scale, z = D (mu + delta_h) and w0 the longest element of W_H.

    The coefficient of e^(mu + delta_h) in chi^s * pi_nu times the Weyl
    denominator of Delta_h is m_mu = sum c mult_nu(mu + k) over the shifts
    (k, c) of prod_{alpha in Delta_h^+} (1 - e^alpha) times chi^s negated,
    which is chi^side (negating a row of parity s gives parity s (-1)^m).
    Each of its components (p, n) (``spin.chi_components``) puts
    (-1)^|Delta_h^+| sgn(w) n on D delta_h + w p over W_H (Weyl), and
    mult_nu is W-invariant, so m_mu = (-1)^|Delta_h^+| sum_p n sum_u sgn(u)
    mult_nu(p + u) over the images u = w z, sgn(u) = (-1)^l(w) as z is
    strictly Delta_h-dominant.  Every weight of pi_nu lies in the ball |y|
    <= |nu| (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 13.4 Lemma C and 21.3), so u reads nonzero only if 2 <p, u> <=
    |nu|^2 - |p|^2 - |z|^2.  A step toward the dominant chamber adds a
    positive multiple of a simple root to u and shortens w by one: it never
    lowers <p, u> (p is dominant), and such steps reach every u from w0 z.
    So a breadth-first search along them from w0 z, pruned where the bound
    fails, visits exactly the images that can read nonzero, at parity l(w0)
    = ``len(h.reduced)`` (the length of w0's word, ``_longest_word``) less
    the level.  Each reflection tests its pairing (``Grid.reflect``).
    """
    h = grid(pair.h_system, g.scale)
    room = sum(map(mul, top, top)) - sum(map(mul, start, start))
    total = 0
    for p, n in chi_components(pair, side):
        bound = room - sum(map(mul, p, p))  # on 2 <p, u>
        level = [start] if 2 * sum(map(mul, p, start)) <= bound else []
        sign = n if len(h.reduced) % 2 == 0 else -n
        while level:
            up = set()
            for u in level:
                total += sign * _multiplicity(g, top, tuple(map(add, p, u)))
                for i, (support, _) in enumerate(h.supports):
                    if sum(u[k] * c for k, c in support) < 0:
                        y = h.reflect(u, i)
                        if 2 * sum(map(mul, p, y)) <= bound:
                            up.add(y)
            level, sign = up, -sign
    return (-1) ** len(pair.h_index) * total


ShellRow = namedtuple("ShellRow", "nu dimension mult_plus mult_minus")


class EulerReport(namedtuple("EulerReport", "pair_name mu lam rows signed_sum"
                             " expected kernel failures")):
    """The oracle's report: ``rows`` holds a ``ShellRow`` per shell member,
    in shell order; ``signed_sum`` the nonzero ((nu, coefficient), ...),
    and ``expected`` the same from the kernel classification (``kernel``,
    a ``KernelResult``); ``failures`` the messages, empty when it
    passed."""

    __slots__ = ()

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
    The extraction's start w0 z, z = D (mu + delta_h), is z reflected along
    w0's reduced word (``_longest_word``, read once per subgroup grid)
    through ``Grid.reflect``.
    """
    mu = Weight(mu)
    kernel = dirac_kernel(pair, mu)
    g = grid(pair.root_system)
    x = g.point(mu)
    lam = tuple(map(sub, x, g.half_sum(pair.p_index)))
    h = grid(pair.h_system, g.scale)
    start = tuple(map(add, x, h.delta))  # z, then w0 z
    for i in _longest_word(h):
        start = h.reflect(start, i)
    rows = []
    failures = []
    signed: dict[Weight, int] = {}
    for point in _shell_points(pair, g, lam):
        dimension = grid_dim(pair.root_system, g, point)
        m_plus = _extract(pair, g, point, start, +1)
        m_minus = _extract(pair, g, point, start, -1)
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
