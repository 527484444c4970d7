"""Reference implementations of the oracle's two hot stages, kept as test
support: the extraction kernel as a sum over W_H times the half-spin
weights, and Freudenthal's recursion on ``Fraction`` weights.  The library
computes both on scaled integers (``dirac._extraction_kernel``,
``characters.weight_table``); the differential tests compare the two.
Also ``checked_euler``, the oracle with each shell row's dimension checked
against the product formula.
"""

from fractions import Fraction

from character_reference import side_character
from dirackernel.characters import weyl_dim
from dirackernel.dirac import euler_verify
from dirackernel.errors import ConsistencyError
from dirackernel.lattice import Weight, inner_product
from dirackernel.roots import weyl_group
from support import reference_orbit


def reference_kernel(pair, s):
    """{k: c} with m_mu = sum c * mult_nu(mu + k): over w in W_H and the
    weights e of chi^s with their counts n_e, the shift
    delta_h - w delta_h - e carries sgn(w) n_e; cancelled shifts are
    dropped."""
    dh = pair.delta_h
    chi = side_character(pair, s).terms
    coeffs = {}
    for w in weyl_group(pair.h_system):
        base = dh - w.image
        for e, count in chi.items():
            k = base - e
            coeffs[k] = coeffs.get(k, 0) + w.sign * count
    return {k: c for k, c in coeffs.items() if c}


def reference_character(rs, nu):
    """{weight: multiplicity} of pi_nu by Freudenthal on the dominant
    weights, in exact rationals, each value copied over its W-orbit."""
    nu = Weight(nu)
    found = [nu]
    seen = {nu}
    for w in found:
        for alpha in rs.positive_roots:
            lower = w - alpha
            if lower not in seen and rs.is_dominant(lower):
                seen.add(lower)
                found.append(lower)
    delta = rs.delta
    found.sort(key=lambda w: inner_product(w, delta), reverse=True)
    target = inner_product(nu + delta, nu + delta)
    table = {}
    for w in found:
        value = Fraction(1)
        if w != nu:
            acc = Fraction(0)
            for alpha in rs.positive_roots:
                cur = w + alpha
                while cur in table:
                    acc += table[cur] * inner_product(cur, alpha)
                    cur = cur + alpha
            value = 2 * acc / (target - inner_product(w + delta, w + delta))
            if value.denominator != 1 or value <= 0:
                raise ConsistencyError(f"Freudenthal produced {value} at {w}")
        for image in reference_orbit(rs, w):
            table[image] = int(value)
    return table


def checked_euler(pair, mu):
    """``euler_verify(pair, mu)``, after checking that every shell row's
    dimension (the multiplicity mass of pi_nu) is ``weyl_dim``."""
    report = euler_verify(pair, mu)
    for row in report.rows:  # raised, not asserted: also under python -O
        if row.dimension != weyl_dim(pair.root_system, row.nu):
            raise AssertionError(f"{row} against weyl_dim")
    return report
