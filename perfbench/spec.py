"""Independent expectations for the built-in pairs, written without dirackernel.

Every built-in pair is an equal-rank pair inside so(2r+1), whose Weyl group
is the group of signed permutations.  For x = lambda + delta the Dirac
kernel is then decided in closed form: x is regular iff the |x_i| are
distinct and nonzero; the Weyl element w with w(x) dominant sorts |x|
downwards, so nu = sort(|x|) - delta and sgn(w) = sgn(perm) * (-1)^#neg;
ker D+ carries pi_nu iff sgn(w) * (-1)^m = 1, otherwise ker D- does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

HALF = Fraction(1, 2)

Vector = Tuple[Fraction, ...]


@dataclass(frozen=True)
class PairSpec:
    """What the benchmark needs to know about a built-in pair."""

    rank: int
    m: int  # |Delta_p^+|
    delta_p: Vector
    # so(2r+1)/so(2r): h is D_r; so5_so2xso3: h is spanned by e_2 alone.
    h_is_D: bool

    @property
    def delta(self) -> Vector:
        return tuple(Fraction(2 * (self.rank - i) - 1, 2)
                     for i in range(self.rank))

    def admissible(self, mu: Vector) -> bool:
        """mu - delta_p integral (so mu lies in F1 too) and mu dominant for
        Delta_h^+."""
        lam = [a - b for a, b in zip(mu, self.delta_p)]
        if any(c.denominator != 1 for c in lam):
            return False
        if self.h_is_D:
            head = mu[:-1]
            return (all(head[i] >= head[i + 1] for i in range(len(head) - 1))
                    and (not head or head[-1] >= abs(mu[-1])))
        return mu[1] >= 0


PAIRS = {
    "so3_so2": PairSpec(1, 1, (HALF,), True),
    "so5_so4": PairSpec(2, 2, (HALF,) * 2, True),
    "so7_so6": PairSpec(3, 3, (HALF,) * 3, True),
    "so9_so8": PairSpec(4, 4, (HALF,) * 4, True),
    "so5_so2xso3": PairSpec(2, 3, (Fraction(3, 2), Fraction(0)), False),
}


def parse(text: str) -> Vector:
    return tuple(Fraction(p) for p in text.split(","))


def fmt(vector: Vector) -> str:
    return ",".join(str(c) for c in vector)


def mu_from_lambda(pair: str, lam) -> Vector:
    return tuple(Fraction(a) + b for a, b in zip(lam, PAIRS[pair].delta_p))


def kernel_rule(pair: str, mu: Vector) -> Tuple[str, Optional[Vector]]:
    """(status, nu) by the signed-permutation rule; nu is None for
    BOTH_ZERO."""
    spec = PAIRS[pair]
    delta = spec.delta
    x = [a - b + d for a, b, d in zip(mu, spec.delta_p, delta)]
    mags = [abs(c) for c in x]
    if 0 in mags or len(set(mags)) != len(mags):
        return "BOTH_ZERO", None
    inversions = sum(1 for i in range(len(mags)) for j in range(i + 1, len(mags))
                     if mags[i] < mags[j])
    negatives = sum(1 for c in x if c < 0)
    sign = (-1) ** (inversions + negatives)
    nu = tuple(a - d for a, d in zip(sorted(mags, reverse=True), delta))
    status = "PLUS" if sign * (-1) ** spec.m == 1 else "MINUS"
    return status, nu


def expected_signed_sum(pair: str, mu: Vector) -> dict:
    """The alternating sum the Euler oracle must collapse to."""
    status, nu = kernel_rule(pair, mu)
    if status == "BOTH_ZERO":
        return {}
    return {nu: 1 if status == "PLUS" else -1}
