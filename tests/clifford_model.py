"""Explicit Clifford matrices over Z[i], the matrix-side cross-check of the
combinatorial spinor weights in ``dirackernel.spin``.

Clifford generators are built from iterated Pauli tensor products, with
entries in the Gaussian integers; relations and spectra are verified by
exact kernel computations over Q(i).  Matrices are stored sparsely as
{(row, col): (re, im)}.  Test support only: imported by the test modules,
not collected as tests itself.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from dirackernel.errors import ConsistencyError
from dirackernel.lattice import Weight

# -- exact complex rational scalars and sparse matrices ---------------------

CNum = Tuple[Fraction, Fraction]  # re + im*i

C_ZERO: CNum = (Fraction(0), Fraction(0))
C_ONE: CNum = (Fraction(1), Fraction(0))
C_I: CNum = (Fraction(0), Fraction(1))


def _c_add(a: CNum, b: CNum) -> CNum:
    return (a[0] + b[0], a[1] + b[1])


def _c_sub(a: CNum, b: CNum) -> CNum:
    return (a[0] - b[0], a[1] - b[1])


def _c_mul(a: CNum, b: CNum) -> CNum:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _c_div(a: CNum, b: CNum) -> CNum:
    d = b[0] * b[0] + b[1] * b[1]
    if d == 0:
        raise ZeroDivisionError("division by complex zero")
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


SparseMat = Dict[Tuple[int, int], CNum]


def _m_scale(m: SparseMat, c: CNum) -> SparseMat:
    return {k: _c_mul(v, c) for k, v in m.items()}


def _m_add(a: SparseMat, b: SparseMat) -> SparseMat:
    out = dict(a)
    for k, v in b.items():
        s = _c_add(out.get(k, C_ZERO), v)
        if s == C_ZERO:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _m_mul(a: SparseMat, b: SparseMat) -> SparseMat:
    b_by_row: Dict[int, List[Tuple[int, CNum]]] = {}
    for (r, c), v in b.items():
        b_by_row.setdefault(r, []).append((c, v))
    out: SparseMat = {}
    for (i, k), av in a.items():
        for j, bv in b_by_row.get(k, ()):
            key = (i, j)
            s = _c_add(out.get(key, C_ZERO), _c_mul(av, bv))
            if s == C_ZERO:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _m_identity(size: int) -> SparseMat:
    return {(i, i): C_ONE for i in range(size)}


def _m_kron(a: SparseMat, a_size: int, b: SparseMat, b_size: int) -> SparseMat:
    out: SparseMat = {}
    for (i, j), av in a.items():
        for (k, l), bv in b.items():
            out[(i * b_size + k, j * b_size + l)] = _c_mul(av, bv)
    return out


def _m_apply(m: SparseMat, vec: Dict[int, CNum]) -> Dict[int, CNum]:
    out: Dict[int, CNum] = {}
    for (i, j), v in m.items():
        if j in vec:
            s = _c_add(out.get(i, C_ZERO), _c_mul(v, vec[j]))
            if s == C_ZERO:
                out.pop(i, None)
            else:
                out[i] = s
    return out


def _kernel_basis(m: SparseMat, size: int) -> List[Dict[int, CNum]]:
    """Basis of the right kernel of an exact complex matrix, by
    Gauss-Jordan elimination over Q(i) on sparse rows."""
    rows: Dict[int, Dict[int, CNum]] = {}
    for (i, j), v in m.items():
        rows.setdefault(i, {})[j] = v
    row_list = [rows[i] for i in sorted(rows)]
    pivots: List[Tuple[int, Dict[int, CNum]]] = []  # (pivot column, row)
    for row in row_list:
        row = dict(row)
        for col, prow in pivots:
            if col in row:
                factor = row[col]
                for c, v in prow.items():
                    s = _c_sub(row.get(c, C_ZERO), _c_mul(factor, v))
                    if s == C_ZERO:
                        row.pop(c, None)
                    else:
                        row[c] = s
        if not row:
            continue
        col = min(row)
        inv = row[col]
        row = {c: _c_div(v, inv) for c, v in row.items()}
        for pcol, prow in pivots:
            if col in prow:
                factor = prow[col]
                for c, v in row.items():
                    s = _c_sub(prow.get(c, C_ZERO), _c_mul(factor, v))
                    if s == C_ZERO:
                        prow.pop(c, None)
                    else:
                        prow[c] = s
        pivots.append((col, row))
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(size):
        if free in pivot_cols:
            continue
        vec = {free: C_ONE}
        for col, prow in pivots:
            coeff = prow.get(free)
            if coeff is not None:
                vec[col] = (-coeff[0], -coeff[1])
        basis.append(vec)
    return basis


# -- Clifford model ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CliffordModel:
    """Generators e_1..e_n of the negative-definite Clifford algebra acting
    on the 2^(n/2)-dimensional spinor space, plus the volume element."""

    n: int
    size: int
    generators: tuple  # of SparseMat, immutably shared
    volume: dict  # SparseMat for the complex volume element

    @property
    def m(self) -> int:
        return self.n // 2


_PAULI_1: SparseMat = {(0, 1): C_ONE, (1, 0): C_ONE}
_PAULI_2: SparseMat = {(0, 1): (Fraction(0), Fraction(-1)),
                       (1, 0): (Fraction(0), Fraction(1))}
_PAULI_3: SparseMat = {(0, 0): C_ONE, (1, 1): (Fraction(-1), Fraction(0))}


def _verify_clifford(model: CliffordModel) -> None:
    n, size = model.n, model.size
    gens = model.generators
    ident = _m_identity(size)
    minus_two = _m_scale(ident, (Fraction(-2), Fraction(0)))
    for j in range(n):
        for k in range(j, n):
            anti = _m_add(_m_mul(gens[j], gens[k]), _m_mul(gens[k], gens[j]))
            expected = minus_two if j == k else {}
            if anti != expected:
                raise ConsistencyError(
                    f"Clifford relation failed at generators {j}, {k}")
    if _m_mul(model.volume, model.volume) != ident:
        raise ConsistencyError("volume element does not square to +1")
    for j in range(n):
        for k in range(n):
            even = _m_mul(gens[j], gens[k])
            if _m_mul(model.volume, even) != _m_mul(even, model.volume):
                raise ConsistencyError(
                    "volume element does not commute with the even part")
    for sign in (C_ONE, (Fraction(-1), Fraction(0))):
        shifted = _m_add(model.volume, _m_scale(ident, sign))
        dim = len(_kernel_basis(shifted, size))
        if dim != size // 2:
            raise ConsistencyError(
                f"volume eigenspace has dimension {dim}, expected {size // 2}")


@lru_cache(maxsize=None)
def build_clifford(n: int) -> CliffordModel:
    """Iterated Pauli tensor construction of Cl_n acting on C^(2^m), n = 2m.

    e_{2k-1} = i * (s3ic x ... x s1 x 1 x ...) and similarly with s2, so all
    entries lie in {0, +-1, +-i}.  Construction-time checks: the Clifford
    relations hold exactly, the complex volume element squares to one and
    commutes with even products, and its eigenspaces are of equal dimension.
    """
    if n % 2 != 0 or not (2 <= n <= 12):
        raise ValueError(f"n must be even with 2 <= n <= 12, got {n}")
    m = n // 2
    size = 2 ** m

    def tensor_chain(position: int, pauli: SparseMat) -> SparseMat:
        mat: SparseMat = {(0, 0): C_ONE}
        cur = 1
        for slot in range(m):
            if slot < position:
                factor = _PAULI_3
            elif slot == position:
                factor = pauli
            else:
                factor = _m_identity(2)
            mat = _m_kron(mat, cur, factor, 2)
            cur *= 2
        return mat

    gens = []
    for k in range(m):
        gens.append(_m_scale(tensor_chain(k, _PAULI_1), C_I))
        gens.append(_m_scale(tensor_chain(k, _PAULI_2), C_I))
    volume = _m_identity(size)
    for g in gens:
        volume = _m_mul(volume, g)
    # Phase chosen so the volume element equals the product of the pair
    # operators omega_1 ... omega_m: its eigenvalue on a joint eigenvector
    # is then the product of the omega_k eigenvalues, which is what ties
    # the matrix model to the parity split of the spinor weights.
    minus_i_power = [C_ONE, (Fraction(0), Fraction(-1)),
                     (Fraction(-1), Fraction(0)), C_I][m % 4]
    volume = _m_scale(volume, minus_i_power)
    model = CliffordModel(n=n, size=size, generators=tuple(gens), volume=volume)
    _verify_clifford(model)
    return model


def pair_operators(c: CliffordModel) -> list:
    """The commuting involutions omega_k = -i e_{2k-1} e_{2k}."""
    minus_i = (Fraction(0), Fraction(-1))
    return [_m_scale(_m_mul(c.generators[2 * k], c.generators[2 * k + 1]),
                     minus_i)
            for k in range(c.m)]


def simultaneous_spin_weights(c: CliffordModel) -> list:
    """Joint spectrum of the omega_k on the spinor space, as vectors of
    half eigenvalues.

    Splits the space progressively by exact kernel computations; each joint
    eigenspace must be one-dimensional, yielding every vector in
    {+-1/2}^m exactly once, and the vectors with eigenvalue product +1
    must span the +1 space of the volume element.
    """
    size = c.size
    omegas = pair_operators(c)
    ident = _m_identity(size)
    spaces = [([{i: C_ONE} for i in range(size)], ())]
    for k in range(c.m):
        new_spaces = []
        for basis, signs in spaces:
            for eps in (1, -1):
                shifted = _m_add(omegas[k],
                                 _m_scale(ident, (Fraction(-eps), Fraction(0))))
                images = [_m_apply(shifted, v) for v in basis]
                mat: SparseMat = {}
                for col, image in enumerate(images):
                    for row, val in image.items():
                        mat[(row, col)] = val
                kernel = _kernel_basis(mat, len(basis))
                sub_basis = []
                for coeffs in kernel:
                    vec: Dict[int, CNum] = {}
                    for col, coeff in coeffs.items():
                        for row, val in basis[col].items():
                            s = _c_add(vec.get(row, C_ZERO), _c_mul(coeff, val))
                            if s == C_ZERO:
                                vec.pop(row, None)
                            else:
                                vec[row] = s
                    sub_basis.append(vec)
                if sub_basis:
                    new_spaces.append((sub_basis, signs + (eps,)))
        spaces = new_spaces
    results = []
    for basis, signs in spaces:
        if len(basis) != 1:
            raise ConsistencyError(
                f"joint eigenspace for {signs} has dimension {len(basis)}")
        product = 1
        for eps in signs:
            product *= eps
        vec = basis[0]
        image = _m_apply(c.volume, vec)
        expected = {i: _c_mul((Fraction(product), Fraction(0)), v)
                    for i, v in vec.items()}
        if image != expected:
            raise ConsistencyError(
                f"volume eigenvalue mismatch on joint eigenvector {signs}")
        results.append(Weight(Fraction(eps, 2) for eps in signs))
    missing = {tuple(Fraction(e, 2) for e in eps)
               for eps in itertools.product((1, -1), repeat=c.m)}
    if set(results) != missing or len(results) != 2 ** c.m:
        raise ConsistencyError("joint spectrum is not {+-1/2}^m")
    return sorted(results)
