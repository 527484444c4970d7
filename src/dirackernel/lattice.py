"""Exact rational weight vectors and coset-shift weight lattices.

All coordinates are `fractions.Fraction` in the orthonormal e-basis of the
Cartan dual; no floating point is ever introduced.  Weights render as
comma-separated rationals ("3/2,-1/2") and parse from the same grammar.
A lattice here is only its description; membership is tested on the
integer grid of a root system (``roots.Grid.contains``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import DimensionError

HALF = Fraction(1, 2)


class Weight(tuple):
    """A fixed-length vector of exact rationals.

    Subclasses ``tuple`` so weights are hashable and usable as dict keys.
    Arithmetic is redefined componentwise: ``+``/``-`` add and subtract,
    ``*`` scales by a rational (tuple repetition/concatenation semantics
    are intentionally replaced).
    """

    __slots__ = ()

    def __new__(cls, coords: Iterable) -> "Weight":
        return super().__new__(
            cls, (c if type(c) is Fraction else Fraction(c) for c in coords))

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls([0] * rank)

    @classmethod
    def basis(cls, rank: int, k: int, value=1) -> "Weight":
        """The vector ``value * e_k`` (k is 0-based)."""
        coords = [Fraction(0)] * rank
        coords[k] = Fraction(value)
        return cls(coords)

    @classmethod
    def parse(cls, text: str) -> "Weight":
        """Parse "p/q,p/q,..." (whitespace tolerated)."""
        if not isinstance(text, str):
            raise ValueError(f"weight must be a string, got {text!r}")
        parts = [p.strip() for p in text.strip().split(",")]
        if not parts or parts == [""]:
            raise ValueError(f"empty weight string: {text!r}")
        try:
            return cls(Fraction(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad weight string {text!r}: {exc}") from None
        except ZeroDivisionError:
            raise ValueError(
                f"bad weight string {text!r}: a denominator is zero") from None

    def _check_len(self, other: Sequence) -> None:
        if len(self) != len(other):
            raise DimensionError(
                f"weight length mismatch: {len(self)} vs {len(other)}")

    def __add__(self, other):
        self._check_len(other)
        return Weight(a + b for a, b in zip(self, other))

    def __radd__(self, other):
        if other == 0:  # allows sum() over weights
            return self
        return self.__add__(other)

    def __sub__(self, other):
        self._check_len(other)
        return Weight(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Weight(-a for a in self)

    def __mul__(self, scalar):
        c = Fraction(scalar)
        return Weight(a * c for a in self)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self)

    def __repr__(self) -> str:
        return f"Weight({self!s})"


class LatticeSpec:
    """A weight lattice given as a finite union of coset shifts of Z^m.

    w lies in the lattice iff w - s is all-integer for some shift s;
    ``roots.Grid.contains`` tests that exactly, on int tuples.  Shifts
    have coordinates in {0, 1/2} and always include the zero shift, which
    covers every integral-form lattice handled here.  Equality and hashing
    read an integer key made once, when the spec is built: the rank and
    the frozenset of the int tuples 2s, so a cache keyed by a lattice
    compares no ``Fraction``.
    """

    def __init__(self, rank: int, coset_shifts: Iterable) -> None:
        shifts = frozenset(Weight(s) for s in coset_shifts)
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        for s in shifts:
            if len(s) != rank:
                raise DimensionError(
                    f"shift {s} has length {len(s)}, lattice rank is {rank}")
            if not all(c in (0, HALF) for c in s):
                raise ValueError(f"shift coordinates must be 0 or 1/2: {s}")
        # every shift has a nonzero coordinate; no rank-long zero is built
        if all(any(s) for s in shifts):
            raise ValueError("the zero shift must be present")
        self.rank = rank
        self.coset_shifts = shifts
        # 2s, as 2c is c's numerator for c in {0, 1/2}
        self._key = (rank, frozenset(tuple(c.numerator for c in s)
                                     for s in shifts))
        self._hash = hash(self._key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def integers(cls, rank: int) -> "LatticeSpec":
        """Z^m."""
        return cls(rank, [Weight.zero(rank)])

    def sorted_shifts(self) -> list:
        return sorted(self.coset_shifts)
