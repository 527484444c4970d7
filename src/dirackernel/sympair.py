"""Equal-rank symmetric pair structure.

A pair is the ambient root system together with the subset of positive
roots living on the subgroup side, plus two lattice specifications: F for
the common maximal torus of G/H and F1 for the covers on which the spinor
representation exists.  A pair is validated when it is constructed, so an
invalid one never exists; everything downstream (spinor weights, the
kernel classification, the trace oracle) consumes it without re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import ConsistencyError, DimensionError, InvalidPairError
from .lattice import HALF, LatticeSpec, Weight, is_dominant
from .roots import RootSystem, WeylElement, build_classical, weyl_group


@dataclass(frozen=True)
class PairCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class PairReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class W1Element:
    """A coset representative sigma with its sign and delta_p^sigma."""

    element: WeylElement
    sign: int
    delta_p_sigma: Weight


@dataclass(frozen=True, eq=True)
class SymmetricPair:
    root_system: RootSystem
    h_positive: tuple
    lattice_F: LatticeSpec
    lattice_F1: LatticeSpec
    name: str = field(default="pair", compare=False)

    def __init__(self, root_system: RootSystem, h_positive, lattice_F,
                 lattice_F1, name: str = "pair") -> None:
        h_roots = tuple(Weight(r) for r in h_positive)
        pos = set(root_system.positive_roots)
        for r in h_roots:
            if r not in pos:
                raise ValueError(f"h-root {r} is not a positive root")
        if len(set(h_roots)) != len(h_roots):
            raise ValueError("h_positive roots must be distinct")
        if lattice_F.rank != root_system.rank or lattice_F1.rank != root_system.rank:
            raise DimensionError("lattice rank differs from root-system rank")
        for s in lattice_F.coset_shifts:  # F: characters of the torus of G
            if not root_system.is_integral(s):
                raise ValueError(f"F shift {s} is not integral for {root_system}")
        object.__setattr__(self, "root_system", root_system)
        object.__setattr__(self, "h_positive", h_roots)
        object.__setattr__(self, "lattice_F", lattice_F)
        object.__setattr__(self, "lattice_F1", lattice_F1)
        object.__setattr__(self, "name", name)
        report = validate_pair(self)
        if not report.ok:
            bad = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
            raise InvalidPairError(f"pair {name!r} fails validation: {bad}")
        object.__setattr__(self, "validation", report)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # lru_cache keys: hashing every Fraction on each lookup is slow
        return hash((self.root_system, self.h_positive, self.lattice_F,
                     self.lattice_F1))

    # -- derived structure ------------------------------------------------

    @property
    def rank(self) -> int:
        return self.root_system.rank

    @cached_property
    def p_positive(self) -> tuple:
        """Delta_p^+ in the order inherited from the ambient system."""
        h = set(self.h_positive)
        return tuple(a for a in self.root_system.positive_roots if a not in h)

    @property
    def m(self) -> int:
        """Half the dimension of the tangent part: m = |Delta_p^+|."""
        return len(self.p_positive)

    @cached_property
    def delta(self) -> Weight:
        return self.root_system.delta

    @cached_property
    def delta_h(self) -> Weight:
        return sum((a for a in self.h_positive), Weight.zero(self.rank)) * HALF

    @cached_property
    def delta_p(self) -> Weight:
        return sum((a for a in self.p_positive), Weight.zero(self.rank)) * HALF

    @cached_property
    def h_system(self) -> RootSystem:
        """Delta_h^+ as a root system in the full ambient space (possibly
        empty, possibly with free torus directions)."""
        return RootSystem(self.rank, self.h_positive,
                          name=f"{self.name}:h")

    @property
    def weyl_h(self) -> tuple:
        """W_H, as the orbit of the Delta_h-regular weight delta_h."""
        return weyl_group(self.h_system)

    @cached_property
    def w1(self) -> tuple:
        """W_1: each sigma with its sign and delta_p^sigma = sigma(delta) -
        delta_h.  The bijection count |W| = |W_H| * |W_1| and the dominance
        plus distinctness of the delta_p^sigma are verified on the way.
        """
        full = weyl_group(self.root_system)
        h_system = self.h_system
        # Delta_h^+ lies in sigma(Delta^+) iff sigma(delta) is strictly
        # Delta_h-dominant.
        result = tuple(
            W1Element(sigma, sigma.sign, sigma.image - self.delta_h)
            for sigma in full if h_system.is_dominant(sigma.image, strict=True))
        if len(full) != len(self.weyl_h) * len(result):
            raise InvalidPairError(
                f"|W| = {len(full)} != |W_H| * |W_1| = "
                f"{len(self.weyl_h)} * {len(result)}")
        seen = set()
        for w1 in result:
            if not h_system.is_dominant(w1.delta_p_sigma):
                raise InvalidPairError(
                    f"delta_p^sigma = {w1.delta_p_sigma} is not dominant "
                    f"for h")
            if w1.delta_p_sigma in seen:
                raise InvalidPairError(
                    f"duplicate delta_p^sigma = {w1.delta_p_sigma}")
            seen.add(w1.delta_p_sigma)
        return result

    def __repr__(self) -> str:
        return (f"SymmetricPair({self.name}, rank={self.rank}, "
                f"|h+|={len(self.h_positive)}, m={self.m})")


def validate_pair(pair: SymmetricPair) -> PairReport:
    """The structural checks of ``pair``.  ``SymmetricPair`` runs them on
    construction, raises ``InvalidPairError`` if one fails and keeps the
    report as ``pair.validation``."""
    rs = pair.root_system
    checks = []

    p_set = set(pair.p_positive)
    h_set = set(pair.h_positive)
    checks.append(PairCheck(
        "p_nonempty", len(p_set) > 0,
        "" if p_set else "Delta_p^+ is empty (h equals the full algebra)"))

    # Bracket grading, restated on root sums: h+h->h, p+p->h, h+p->p.
    pos = set(rs.positive_roots)
    grading_ok, grading_detail = True, ""
    roots = list(rs.positive_roots)
    for i, a in enumerate(roots):
        for b in roots[i:]:
            s = a + b
            if s not in pos:
                continue
            in_h = (a in h_set, b in h_set)
            expected_h = in_h[0] == in_h[1]
            if (s in h_set) != expected_h:
                grading_ok = False
                side = "h" if expected_h else "p"
                grading_detail = f"{a} + {b} = {s} should lie in Delta_{side}^+"
                break
        if not grading_ok:
            break
    checks.append(PairCheck("bracket_grading", grading_ok, grading_detail))

    # Parity of the p-part of the level of each root.
    parity_ok, parity_detail = True, ""
    try:
        simples = rs.simple_roots
        p_idx = [i for i, b in enumerate(simples) if b in p_set]
        for alpha in rs.positive_roots:
            coeffs = rs.simple_coefficients(alpha)
            n_p = sum(coeffs[i] for i in p_idx)
            want_odd = alpha in p_set
            if (n_p % 2 == 1) != want_odd:
                parity_ok = False
                parity_detail = (f"root {alpha} has p-level {n_p}, expected "
                                 f"{'odd' if want_odd else 'even'}")
                break
    except ValueError as exc:
        parity_ok, parity_detail = False, str(exc)
    checks.append(PairCheck("p_level_parity", parity_ok, parity_detail))

    lat_ok = pair.lattice_F.is_sublattice_of(pair.lattice_F1)
    checks.append(PairCheck(
        "lattice_containment", lat_ok,
        "" if lat_ok else "F is not contained in F1"))

    return PairReport(tuple(checks))


def w1_enumerate(pair: SymmetricPair) -> list:
    """All sigma in W with Delta_h^+ contained in sigma(Delta^+), as a list
    copy of ``pair.w1``."""
    return list(pair.w1)


def deltas(pair: SymmetricPair):
    """(delta, delta_h, delta_p); checks delta = delta_h + delta_p."""
    d, dh, dp = pair.delta, pair.delta_h, pair.delta_p
    if d != dh + dp:
        raise ConsistencyError(
            f"delta = {d} differs from delta_h + delta_p = {dh + dp}")
    return d, dh, dp


def admissibility_failures(pair: SymmetricPair, mu: Weight) -> list:
    """The admissibility clauses mu violates, by name (empty = admissible)."""
    if len(mu) != pair.rank:
        raise DimensionError(f"mu length {len(mu)} vs rank {pair.rank}")
    failures = []
    if mu not in pair.lattice_F1:
        failures.append("mu not in F1")
    if not is_dominant(mu, pair.h_system.simple_roots):
        failures.append("mu not dominant for Delta_h+")
    if (mu - pair.delta_p) not in pair.lattice_F:
        failures.append("mu - delta_p not in F")
    return failures


def admissible_mu(pair: SymmetricPair, mu: Weight) -> bool:
    """mu in F1, dominant for Delta_h^+, with mu - delta_p in F."""
    return not admissibility_failures(pair, mu)


# -- built-in pair registry -----------------------------------------------

def _bd_pair(m: int) -> SymmetricPair:
    rs = build_classical("B", m)
    h_roots = tuple(a for a in rs.positive_roots
                    if sum(1 for c in a if c != 0) == 2)
    return SymmetricPair(
        rs, h_roots,
        lattice_F=LatticeSpec.integers(m),
        lattice_F1=LatticeSpec.integers_and_half_integers(m),
        name=f"so{2 * m + 1}_so{2 * m}")


def _so3_so2() -> SymmetricPair:
    rs = build_classical("B", 1)
    return SymmetricPair(
        rs, (),
        lattice_F=LatticeSpec.integers(1),
        lattice_F1=LatticeSpec.integers_and_half_integers(1),
        name="so3_so2")


def _so5_so2xso3() -> SymmetricPair:
    rs = build_classical("B", 2)
    h_roots = (Weight((0, 1)),)
    # F1 is generated by Z^2 and the spinor weights, whose half-integral
    # part sits in the first coordinate only (delta_p = (3/2, 0)).
    return SymmetricPair(
        rs, h_roots,
        lattice_F=LatticeSpec.integers(2),
        lattice_F1=LatticeSpec(2, [Weight((0, 0)), Weight((HALF, 0))]),
        name="so5_so2xso3")


_REGISTRY = {
    "so3_so2": _so3_so2,
    "so5_so4": lambda: _bd_pair(2),
    "so7_so6": lambda: _bd_pair(3),
    "so9_so8": lambda: _bd_pair(4),
    "so5_so2xso3": _so5_so2xso3,
}


def builtin_pair_names() -> list:
    return list(_REGISTRY)


@lru_cache(maxsize=None)
def builtin_pair(name: str) -> SymmetricPair:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown pair {name!r}; known: "
                       f"{', '.join(_REGISTRY)}") from None
    return factory()
