"""Kernel classification of the Dirac operator and its brute-force verifier.

The theorem path: for admissible mu, set lambda = mu - delta_p; if
lambda + delta is singular the kernel vanishes on both sides, otherwise
the unique Weyl element w moving lambda + delta into the open chamber
yields sigma = w^{-1} (the steps of ``Grid.walk`` of D (lambda + delta),
read as a word), nu = w(lambda + delta) - delta (the walk's end point less
D delta, on the grid), and the side is decided by sgn(sigma) * (-1)^m.
nu's lattice test and Casimir check read that grid point; only the two
dominance tests, sigma in W_1 and nu dominant, use ``Weight``s.  Bott's
index (-1)^m P(lambda + delta), P Weyl's product
(``characters.weyl_product``), is that signed dimension read with no walk:
0 at a singular lambda + delta, else sgn(sigma) (-1)^m dim pi_nu.
The theorem path takes its dimension from it and checks its sign against
the walk's; the oracle checks its own signed sum against it.

The oracle path shares only the lattice/roots primitives and Weyl's
product with the theorem path.  It enumerates the Casimir shell of lambda
as integer points on a sphere, once per sphere (``_sphere``, bounded by
the simple-root inequalities), with each member's dimension from Weyl's
product and its ``Weight``, computes Frobenius multiplicities on both
sides by Brauer-Klimyk extraction, and checks that the alternating sum
collapses to the predicted signed irreducible (or to zero), and that its
signed dimension is Bott's index, read from its own D (mu + delta_h).  The
extraction (``_extract``) sums the weight multiplicities of pi_nu over the
W_H-images of D (mu + delta_h), shifted by the components of the half-spin
character of its side (``spin.chi_components``, cached per pair and
side): a pruned search from w0 D (mu + delta_h) (w0 read as one integer
map per subgroup grid, ``_longest_map``) visits only the images that land
in the ball |y| <= |nu| holding every weight of pi_nu, and each is read on
demand (``_multiplicity``).

The oracle runs on int tuples D w on the grid of ``roots.grid`` end to
end; ``Weight`` appears only at its inputs and in its report.  What it
reads of a pair, a subgroup grid or a sphere is made once and cached, so
an op makes only its own mu's reads.  It keeps nothing of the size of W_H,
and never reads W_1.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

from .characters import grid_dim, grid_table, weyl_product
from .errors import AdmissibilityError, ConsistencyError, DimensionError
from .lattice import LatticeSpec, Weight
from .roots import Grid, WeylElement, _solve, grid
from .spin import chi_components
from .sympair import SymmetricPair, _admissibility


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
    """<nu + 2*delta, nu>, the Casimir scalar of pi_nu (exact).

    nu is read on G's grid as the admissibility check reads mu
    (``Grid.lift``): y = L nu for L the least common multiple of D =
    grid(pair.root_system).scale and nu's denominators, so the scalar is
    sum y_k (y_k + 2 (L/D) (D delta)_k) / L^2, one ``Fraction``.
    """
    if len(nu) != pair.rank:
        raise DimensionError(f"nu length {len(nu)} vs rank {pair.rank}")
    g = grid(pair.root_system)
    scale, y = g.lift(nu)
    twice = 2 * (scale // g.scale)
    return Fraction(sum(a * (a + twice * d) for a, d in zip(y, g.delta)),
                    scale * scale)


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


def _require_admissible(pair: SymmetricPair, mu: Weight) -> tuple:
    """D mu on G's grid, as the admissibility check read it; an
    inadmissible mu raises AdmissibilityError naming every failed clause."""
    failures, x = _admissibility(pair, mu)
    if failures:
        raise AdmissibilityError(
            f"mu={mu} is not admissible for {pair.name}: "
            + "; ".join(failures))
    return x


def dirac_kernel(pair: SymmetricPair, mu: Weight) -> KernelResult:
    """Classify the kernel of the Dirac operator twisted by mu.

    mu is checked and read onto G's grid once (``_admissibility``, which
    hands back D mu).  On the grid of
    ``roots.grid``, from D (lambda + delta) = D mu + D delta_h, are read
    the Casimir scalar <lambda + 2 delta, lambda> = |lambda + delta|^2 -
    |delta|^2, as one ``Fraction`` over D^2, and Bott's index (-1)^m
    P(lambda + delta) (``characters.weyl_product``), and that point is
    walked into the dominant chamber (``Grid.walk``); sigma is the walk's
    word.  The regularity of lambda + delta is tested on the grid, at the
    walk's end point (``Grid.is_dominant``), so a vanishing kernel builds
    no ``Weight``.  At a regular end point, D nu is formed once on the grid
    as the end point less D delta, and made a ``Weight`` from the cached
    quotients (``Grid.weight``).  nu in F is tested on D nu
    (``Grid.contains``), and nu's Casimir scalar is checked there as the
    integer identity sum D nu_k (D nu_k + 2 (D delta)_k) = |D (lambda +
    delta)|^2 - |D delta|^2.  Only sigma in W_1 and nu dominant are tested
    on ``Weight``s (``RootSystem.is_dominant``), and lambda = mu - delta_p
    is formed only for an error message.  The index must be 0 when lambda
    + delta is singular and have the sign of the side otherwise, else
    ConsistencyError (raised, so it holds under python -O); its absolute
    value is the dimension of pi_nu.
    """
    if type(mu) is not Weight:  # a Weight is used as it is, not rebuilt
        mu = Weight(mu)
    x = _require_admissible(pair, mu)
    rs = pair.root_system
    g = grid(rs)
    shifted = tuple(map(add, x, grid(pair.h_system, g.scale).delta))
    numerator = sum(c * c for c in shifted) - sum(c * c for c in g.delta)
    casimir = Fraction(numerator, g.scale ** 2)
    parity = (-1) ** pair.m
    index = parity * weyl_product(rs, g, shifted)
    steps, end = g.walk(shifted)
    if not g.is_dominant(end, strict=True):
        if index:
            raise ConsistencyError(
                f"Bott's index {index} is not 0 at the singular lambda + "
                f"delta={g.weight(shifted)} for mu={mu}")
        return KernelResult(status=KernelStatus.BOTH_ZERO, casimir=casimir)
    sigma = WeylElement.from_word(rs, steps)
    point = tuple(map(sub, end, g.delta))
    nu = g.weight(point)
    # Automatic consequences of admissibility; treated as runtime
    # assertions, not assumptions.
    if not pair.h_system.is_dominant(sigma.image, strict=True):
        raise ConsistencyError(
            f"computed sigma is not in W_1 for mu={mu} "
            f"(lambda={mu - pair.delta_p})")
    if not g.contains(pair.lattice_F, point) or not rs.is_dominant(nu):
        raise ConsistencyError(
            f"computed nu={nu} is not a dominant lattice point for mu={mu}")
    if sum(p * (p + 2 * d) for p, d in zip(point, g.delta)) != numerator:
        raise ConsistencyError("Casimir mismatch between nu and lambda")
    sign = sigma.sign
    side = sign * parity
    if index * side <= 0:
        raise ConsistencyError(
            f"Bott's index {index} disagrees with the side "
            f"sgn(sigma) (-1)^m = {side} for mu={mu}")
    status = KernelStatus.PLUS if side == 1 else KernelStatus.MINUS
    return KernelResult(status=status, casimir=casimir, nu=nu, sigma=sigma,
                        sigma_sign=sign, dimension=abs(index))


def _squares_summing_to(offsets: tuple, step: int, total: int,
                        checks: list, floors: tuple, prefix: tuple = ()):
    """Integer vectors x after prefix with sum x_k^2 = total and x_k =
    offsets[k] mod step, in lex order; the last coordinate is solved for,
    not searched.  Each (support of a, least) in checks[k], a's coefficient
    c at k, bounds x_k by <x, a> >= least: from below if c > 0, else above;
    x_k >= floors[k] too, unless that is None."""
    k = len(prefix)
    bound = math.isqrt(total)
    low, high = -bound, bound
    if floors[k] is not None:
        low = max(low, floors[k])
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
                                               floors, prefix + (x,))
    elif bound * bound == total:  # the last one: +-bound, in the range
        for x in sorted({-bound, bound}):
            if low <= x <= high and not (x - offsets[k]) % step:
                yield prefix + (x,)


def _shell_rows(pair: SymmetricPair, g: Grid, lam: tuple) -> tuple:
    """The rows of the Casimir shell of lam = D lambda on g =
    grid(pair.root_system) (``_sphere``)."""
    return _sphere(g, pair.lattice_F,
                   sum((a + d) ** 2 for a, d in zip(lam, g.delta)))


@lru_cache(maxsize=None)
def _sphere(g: Grid, lattice: LatticeSpec, total: int) -> tuple:
    """A row (D nu, dim pi_nu, nu) per point D nu of ``_sphere_points``,
    in its order; cached per sphere, so each member's dimension
    (``characters.grid_dim``, which checks that it is positive) and
    ``Weight`` are made once.  It is the shell of every lambda on that
    sphere, as <nu + 2 delta, nu> = |nu + delta|^2 - |delta|^2.  Pairs with
    equal root systems and equal Fs share an entry: the lattice compares
    by its integer key."""
    return tuple((nu, grid_dim(g.rs, g, nu), g.weight(nu))
                 for nu in _sphere_points(g, lattice, total))


def _sphere_points(g: Grid, lattice: LatticeSpec, total: int) -> list:
    """The dominant D nu in D F (F = ``lattice``) with |D (nu + delta)|^2 =
    total, sorted.

    Per residue r of F (``Grid.residues``) the points x = D (nu + delta)
    are the integer vectors with x = r + D delta mod D and sum x_k^2 =
    total.  nu is dominant iff <x, D a> >= <D delta, D a> for each simple
    root a: each coordinate steps by D within the integer square root of
    what remains and the bounds of the a whose support it completes, so
    every end point is dominant (else ConsistencyError).  Where e_k is a
    nonnegative combination of the simple roots, nu_k = <nu, e_k> >= 0 for
    dominant nu, so x_k starts at (D delta)_k (``_coordinate_floors``).
    """
    delta = g.delta
    checks = [[] for _ in delta]
    for support, _ in g.supports:
        checks[support[-1][0]].append(
            (support, sum(delta[k] * c for k, c in support)))
    floors = _coordinate_floors(g)
    found = []
    for residue in g.residues(lattice):
        offsets = tuple(map(add, residue, delta))
        for x in _squares_summing_to(offsets, g.scale, total, checks,
                                     floors):
            nu = tuple(map(sub, x, delta))
            if not g.is_dominant(nu):
                raise ConsistencyError(
                    f"shell point {g.weight(nu)} is not dominant")
            found.append(nu)
    return sorted(found)


@lru_cache(maxsize=None)
def _simple_coordinates(g: Grid) -> tuple:
    """(d, coefficients, span) for g's simple roots: the coordinates of an
    int vector v in their span are numerators over d > 0 of the linear
    forms ``coefficients``, one per simple root, and v is in the span
    exactly when each form of ``span`` vanishes on it (A family, torus
    factors); each form is the nonzero (k, c) of its row.  One elimination
    (``roots._solve``) of the unit vectors over the simple roots followed
    by the unit vectors, whose coordinates on the independent units are
    ``span``; cached per grid."""
    rank = g.rs.rank
    simple = [g.positive[k] for k in g.rs.simple_index]
    units = [tuple(int(j == k) for j in range(rank)) for k in range(rank)]
    d, solved = _solve(simple + units, units)
    if d < 0:
        d, solved = -d, [tuple(-c for c in row) for row in solved]
    n = len(simple)
    forms = [tuple((k, row[j]) for k, row in enumerate(solved) if row[j])
             for j in range(n + rank)]
    return d, tuple(forms[:n]), tuple(form for form in forms[n:] if form)


@lru_cache(maxsize=None)
def _coordinate_floors(g: Grid) -> tuple:
    """Per coordinate k, the least x_k = D (nu + delta)_k over dominant nu:
    (D delta)_k where e_k is a nonnegative combination of the simple roots
    (no form of ``_simple_coordinates``' span reads it, and none of its
    coefficients reads it negatively), since <nu, a> >= 0 for each, else
    None.  That is every coordinate of B and C, all but the last of D, and
    none of A or of a torus factor, which lie outside the span.  Cached per
    grid."""
    _, coefficients, span = _simple_coordinates(g)
    return tuple(
        None if any(j == k for form in span for j, _ in form)
        or any(j == k and c < 0 for form in coefficients for j, c in form)
        else least for k, least in enumerate(g.delta))


def _multiplicity(g: Grid, top: tuple, y: tuple) -> int:
    """mult_nu(y) for pi_nu, top = D nu and y integral on g, read by the
    lemma of ``_extract``.  Outside the ball |y| <= |nu| the read is 0, and
    on its sphere it is 1 when y walks (``Grid.walk``) to nu.  Inside,
    y is walked to y+, a dominant weight of pi_nu exactly when nu - y+ is
    in Q+ (Humphreys, 21.3): it lies in the span of the simple roots, and
    its coordinates over them are nonnegative integers, both read from the
    grid's one elimination (``_simple_coordinates``).  Then the read is the
    cached Freudenthal table's (``grid_table``), else 0."""
    gap = sum(map(mul, top, top)) - sum(map(mul, y, y))
    if gap < 0:
        return 0
    dominant = g.walk(y)[1]
    if not gap:
        return int(dominant == top)
    d, coefficients, span = _simple_coordinates(g)
    v = tuple(map(sub, top, dominant))
    for form in span:
        dot = 0
        for k, c in form:
            dot += v[k] * c
        if dot:
            return 0
    for form in coefficients:
        dot = 0
        for k, c in form:
            dot += v[k] * c
        if dot < 0 or dot % d:
            return 0
    return grid_table(g, top).terms[dominant]


@lru_cache(maxsize=None)
def _longest_word(h: Grid) -> tuple:
    """A reduced word of w0, the longest element of the Weyl group of h:
    the steps of the walk (``Grid.walk``) of -D delta_h to D delta_h,
    as w0 is the one element that sends -delta_h to delta_h.  Its length
    is the number of positive roots; cached per grid."""
    return h.walk(tuple(-c for c in h.delta))[0]


@lru_cache(maxsize=None)
def _longest_map(h: Grid) -> tuple:
    """w0 on h's grid as one exact integer map (d, rows): w0 x = (<row, x>
    / d for each row), each row the nonzero (k, c) of one coordinate's
    numerators over d > 0.  Built once per grid by reflecting each unit
    vector along w0's reduced word (``_longest_word``), as numerators over
    a denominator kept in lowest terms; for a system with no roots it is
    the identity."""
    rank = h.rs.rank
    columns = []  # w0 e_k as (numerators, denominator)
    for k in range(rank):
        v, d = [int(j == k) for j in range(rank)], 1
        for i in _longest_word(h):
            support, norm = h.supports[i]
            twice = 2 * sum(v[j] * c for j, c in support)
            v = [a * norm for a in v]
            for j, c in support:
                v[j] -= twice * c
            common = math.gcd(d * norm, *v)
            v, d = [a // common for a in v], d * norm // common
        columns.append((v, d))
    d = math.lcm(*(e for _, e in columns))
    return d, tuple(
        tuple((k, v[j] * (d // e)) for k, (v, e) in enumerate(columns) if v[j])
        for j in range(rank))


def _longest_image(h: Grid, longest: tuple, x: tuple) -> tuple:
    """w0 x for x on h's grid, read from ``longest`` = ``_longest_map(h)``;
    an image off the grid (a remainder) raises ConsistencyError."""
    d, rows = longest
    image = []
    for row in rows:
        dot = 0
        for k, c in row:
            dot += x[k] * c
        if dot % d:
            raise ConsistencyError(
                f"w0 sends {h.weight(x)} off the grid 1/{h.scale} Z")
        image.append(dot // d)
    return tuple(image)


def _extract(pair: SymmetricPair, g: Grid, top: tuple, start: tuple,
             side: int) -> int:
    """The multiplicity of the subgroup irreducible mu in chi^s tensor pi_nu
    (s = side for m even, -side for m odd), for top = D nu on g =
    grid(pair.root_system) and start = w0 z on the subgroup's grid at g's
    scale, z = D (mu + delta_h) and w0 the longest element of W_H
    (``_longest_image``).

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
    = |Delta_h^+| (the length of w0's word, ``_longest_word``) less the
    level.  Each image pairs with each simple root of Delta_h once,
    inline, and a negative pairing reflects it by that same pairing, which
    must be an integer (else ConsistencyError, ``Grid.coroot_pairing``'s
    message), as ``Grid.walk`` does.  The first level's sign (-1)^l(w0)
    cancels the sum's (-1)^|Delta_h^+|.  Each component's |p|^2 is read
    once per pair and side (``_chi_reads``), and h once per pair
    (``_subgroup``).
    """
    h = _subgroup(pair)[0]
    room = sum(map(mul, top, top)) - sum(map(mul, start, start))
    total = 0
    for p, square, sign in _chi_reads(pair, side):
        bound = room - square  # on 2 <p, u>
        level = [start] if 2 * sum(map(mul, p, start)) <= bound else []
        while level:
            up = set()
            for u in level:
                total += sign * _multiplicity(g, top, tuple(map(add, p, u)))
                for i, (support, norm) in enumerate(h.supports):
                    dot = 0
                    for k, c in support:
                        dot += u[k] * c
                    if dot >= 0:
                        continue
                    pairing, rest = divmod(2 * dot, norm)
                    if rest:
                        h.coroot_pairing(u, i)  # raises ConsistencyError
                    y = list(u)
                    for k, c in support:
                        y[k] -= pairing * c
                    y = tuple(y)
                    if 2 * sum(map(mul, p, y)) <= bound:
                        up.add(y)
            level, sign = up, -sign
    return total


@lru_cache(maxsize=None)
def _subgroup(pair: SymmetricPair) -> tuple:
    """What the oracle reads of pair's subgroup on every call, once per
    pair: its grid h at G's scale, (-1)^m and w0 on h (``_longest_map``)."""
    h = grid(pair.h_system, grid(pair.root_system).scale)
    return h, (-1) ** pair.m, _longest_map(h)


@lru_cache(maxsize=None)
def _chi_reads(pair: SymmetricPair, side: int) -> tuple:
    """The components (p, n) of chi^side (``spin.chi_components``) as
    ``_extract`` reads them, once per pair and side: (p, |p|^2, n)."""
    return tuple((p, sum(map(mul, p, p)), n)
                 for p, n in chi_components(pair, side))


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
    exceed one in total, (b) the signed sum of multiplicities equals
    +[nu0], -[nu0] or 0 according to the kernel result, and (c) the sum of
    (m+ - m-) dim pi_nu equals Bott's index (-1)^m P(z), read from z = D
    (mu + delta_h) with no input from the kernel result.  Failures are
    reported, not raised.  mu is checked once, by ``dirac_kernel``, and
    read onto G's grid twice: once there, by the admissibility check, and
    once here, as the oracle takes nothing but the classification from
    the theorem path.  The shell members, dominant points of F, need no
    checks; each comes with its dimension and its ``Weight``, made once per
    sphere (``_sphere``).  The extraction's start w0 z, z = D (mu +
    delta_h), is read from w0's integer map on the subgroup's grid
    (``_longest_image``); that grid, (-1)^m and the map are read once per
    pair (``_subgroup``).  The signed sum is collected over the shell's
    sorted grid points, so it is in the order of their ``Weight``s; it is
    compared with the classification's as tuples of ``Weight``s, and no
    ``Fraction`` is hashed.
    """
    if type(mu) is not Weight:  # a Weight is used as it is, not rebuilt
        mu = Weight(mu)
    kernel = dirac_kernel(pair, mu)
    g = grid(pair.root_system)
    x = g.point(mu)
    lam = tuple(map(sub, x, pair.delta_p_point))
    h, parity, longest = _subgroup(pair)
    z = tuple(map(add, x, h.delta))
    index = parity * weyl_product(pair.root_system, g, z)
    start = _longest_image(h, longest, z)
    rows = []
    failures = []
    signed = []  # (nu, m+ - m-) where nonzero, in shell order
    signed_dimension = 0
    for point, dimension, nu in _shell_rows(pair, g, lam):
        m_plus = _extract(pair, g, point, start, +1)
        m_minus = _extract(pair, g, point, start, -1)
        rows.append(ShellRow(nu, dimension, m_plus, m_minus))
        if m_plus + m_minus > 1:
            failures.append(
                f"multiplicity bound violated at nu={nu}: "
                f"m+={m_plus}, m-={m_minus}")
        if m_plus != m_minus:
            signed.append((nu, m_plus - m_minus))
            signed_dimension += (m_plus - m_minus) * dimension
    signed_sum = tuple(signed)
    if kernel.status is KernelStatus.PLUS:
        expected = ((kernel.nu, 1),)
    elif kernel.status is KernelStatus.MINUS:
        expected = ((kernel.nu, -1),)
    else:
        expected = ()
    if signed_sum != expected:
        failures.append(
            f"signed sum {signed} does not match classification "
            f"{list(expected)}")
    if signed_dimension != index:
        failures.append(
            f"signed dimension {signed_dimension} does not match Bott's "
            f"index {index}")
    return EulerReport(
        pair_name=pair.name, mu=mu, lam=g.weight(lam), rows=tuple(rows),
        signed_sum=signed_sum, expected=expected,
        kernel=kernel, failures=tuple(failures))
