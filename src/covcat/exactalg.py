"""Exact dense linear algebra over the rationals and prime fields.

Scalars over Q are ints, or `fractions.Fraction` values when not integral;
over F_p they are plain ints in ``range(p)``.  Every routine that emits a
basis emits a canonical one (reduced echelon form), so identical inputs
always produce bit-identical outputs.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

__all__ = [
    "FieldSpec",
    "QQ",
    "GF",
    "Matrix",
    "kernel_basis",
    "rank_and_inverse",
    "express_in_echelon",
]


# The first 13 primes as Miller–Rabin bases decide primality of every
# n < 3317044064679887385961981, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015).  Larger moduli are refused, not guessed at.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981

_EXACT = re.compile(r"[+-]?[0-9]+(/[+-]?[0-9]+)?")


@lru_cache(maxsize=32)
def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin; ValueError for n >= PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"modulus {n} is not below the primality bound "
                         f"{PRIME_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _q_scalar(value):
    """A rational as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _q_inv(a):
    """1/a, as an int when integral, so that a pivot of ±1 keeps its row
    of ints integral."""
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    if isinstance(a, int):
        return a if a == 1 or a == -1 else Fraction(1, a)
    # the only `/` on scalars: ``a`` is a Fraction, so no float can appear
    return _q_scalar(1 / a)


def _fp_ops(p: int) -> dict:
    """The arithmetic of GF(p), each operation closed over ``p``."""
    def scalar(value):
        if isinstance(value, Fraction):
            if value.denominator != 1:
                return mul(value.numerator % p, inv(value.denominator % p))
            value = value.numerator
        return value % p

    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def mul(a, b):
        return a * b % p

    def neg(a):
        return -a % p

    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, p - 2, p)

    return {"scalar": scalar, "add": add, "sub": sub, "mul": mul, "neg": neg,
            "inv": inv}


_Q_OPS = {"scalar": _q_scalar, "add": operator.add, "sub": operator.sub,
          "mul": operator.mul, "neg": operator.neg, "inv": _q_inv}


@dataclass(frozen=True)
class FieldSpec:
    """The ground field: ``kind`` is "Q" (rationals) or "Fp" (integers mod p).

    Equality and hashing are on ``(kind, p)``.  ``scalar``, ``add``, ``sub``,
    ``mul``, ``neg`` and ``inv`` are bound once, at construction, to the
    field's own arithmetic; ``zero`` and ``one`` are the ints 0 and 1 in
    both kinds of field.
    """

    kind: str
    p: Optional[int] = None

    zero = 0
    one = 1

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("the rationals take no modulus")
            ops = _Q_OPS
        elif self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"modulus must be a prime, got {self.p!r}")
            ops = _fp_ops(self.p)
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")
        for name, op in ops.items():
            object.__setattr__(self, name, op)

    def __reduce__(self):
        # rebuilt from (kind, p): the closures over p do not pickle
        return FieldSpec, (self.kind, self.p)

    # scalar construction ------------------------------------------------

    def parse(self, text: str):
        """Parse an exact string, "n" or "n/d": each side an optional sign
        and ASCII digits, nothing else (no space, "_" or other digits)."""
        if not _EXACT.fullmatch(text):
            raise ValueError("expected an optional sign and ASCII digits, "
                             "or two such joined by '/'")
        num, slash, den = text.partition("/")
        if not slash:
            return self.scalar(int(num))
        return self.scalar(self.div(self.scalar(int(num)), self.scalar(int(den))))

    def format(self, x) -> str:
        if self.kind == "Fp":
            return str(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    # arithmetic ---------------------------------------------------------

    def div(self, a, b):
        return self.mul(a, self.inv(b))


QQ = FieldSpec("Q")


def GF(p: int) -> FieldSpec:
    return FieldSpec("Fp", p)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with entries in a fixed FieldSpec."""

    field: FieldSpec
    nrows: int
    ncols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("dimensions must be non-negative")
        if len(self.entries) != self.nrows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    # construction -------------------------------------------------------

    @classmethod
    def _trusted(cls, field: FieldSpec, nrows: int, ncols: int,
                 entries: tuple) -> Matrix:
        """A Matrix built without ``__post_init__``, for library code that
        has just derived ``entries`` as ``nrows`` tuples of ``ncols`` field
        scalars.  Each call site argues that shape; the public constructor
        and documents keep every check."""
        m = object.__new__(cls)
        m.__dict__.update(field=field, nrows=nrows, ncols=ncols,
                          entries=entries)
        return m

    @staticmethod
    def from_rows(field: FieldSpec, rows) -> Matrix:
        data = tuple(tuple(field.scalar(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        return Matrix(field, len(data), ncols, data)

    @staticmethod
    def zeros(field: FieldSpec, nrows: int, ncols: int) -> Matrix:
        z = field.zero
        return Matrix(field, nrows, ncols, tuple((z,) * ncols for _ in range(nrows)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> Matrix:
        z, o = field.zero, field.one
        return Matrix(field, n, n,
                      tuple(tuple(o if i == j else z for j in range(n))
                            for i in range(n)))

    @staticmethod
    def from_columns(field: FieldSpec, cols, nrows: int) -> Matrix:
        rows = [[field.scalar(col[i]) for col in cols] for i in range(nrows)]
        return Matrix(field, nrows, len(cols), tuple(tuple(r) for r in rows))

    # basic ops ----------------------------------------------------------

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows or self.field != other.field:
            raise ValueError("matmul shape/field mismatch")
        if other.nrows == 0 or other.ncols == 0:
            return Matrix.zeros(self.field, self.nrows, other.ncols)
        # each column of the product is self applied to a column of other
        columns = [self.apply(c) for c in zip(*other.entries)]
        return Matrix(self.field, self.nrows, other.ncols, tuple(zip(*columns)))

    def apply(self, vec) -> tuple:
        """Multiply by a coordinate column vector, returning a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        k = self.field
        out = []
        for row in self.entries:
            acc = k.zero
            for a, x in zip(row, vec):
                acc = k.add(acc, k.mul(a, x))
            out.append(acc)
        return tuple(out)

    def rank(self) -> int:
        return len(echelon_basis(self.field, self.entries)[1])


def echelon_basis(field: FieldSpec, vectors) -> tuple[list[tuple], tuple[int, ...]]:
    """The reduced echelon basis of the span of ``vectors`` (field scalars,
    one length) and its pivots: their rref without the zero rows.

    This Gauss–Jordan elimination is the library's only one; kernels,
    inverses, ranks and hom-space coordinates are all read off its rows.
    """
    rows = [list(v) for v in vectors]
    zero, inv, mul, sub = field.zero, field.inv, field.mul, field.sub
    pivots = []
    for pc in range(len(rows[0]) if rows else 0):
        pr = len(pivots)
        for i in range(pr, len(rows)):
            if rows[i][pc] != zero:
                break
        else:
            continue
        rows[pr], rows[i] = rows[i], rows[pr]
        s = inv(rows[pr][pc])
        top = rows[pr] = [mul(s, a) for a in rows[pr]]
        for i, row in enumerate(rows):
            f = row[pc]
            if i != pr and f != zero:
                rows[i] = [sub(a, mul(f, b)) for a, b in zip(row, top)]
        pivots.append(pc)
    return [tuple(r) for r in rows[:len(pivots)]], tuple(pivots)


def kernel_basis(m: Matrix) -> tuple[list[tuple], tuple[int, ...]]:
    """The null space of ``m`` as column vectors, in the shape
    ``echelon_basis`` returns: its reduced echelon basis and its pivots.

    One elimination suffices, of ``m`` with its columns reversed.  The null
    vector of a free column j is 1 at j and, at the column of each rref
    row's pivot, minus that row's entry in column j.  A row vanishes before
    its pivot in the reversed order, so that entry is non-zero only for
    pivots right of j in the original order.  Taken by increasing j, the
    vectors lead with a 1 at j and vanish at every other free column: they
    are the unique reduced echelon basis of the kernel, pivoted at the free
    columns.
    """
    k, last = m.field, m.ncols - 1
    rows, pivots = echelon_basis(k, (row[::-1] for row in m.entries))
    pivot_set = {last - pc for pc in pivots}
    free = tuple(j for j in range(m.ncols) if j not in pivot_set)
    vectors = []
    for j in free:
        v = [k.zero] * m.ncols
        v[j] = k.one
        for row, pc in zip(rows, pivots):
            v[last - pc] = k.neg(row[last - j])
        vectors.append(tuple(v))
    return vectors, free


def rank_and_inverse(m: Matrix) -> tuple[int, Optional[Matrix]]:
    """Exact rank, plus the inverse when ``m`` is square of full rank: the
    rref of [m | I] is [R | E] with E·m = R the rref of m, so the pivots
    left of the bar count the rank, and E is m⁻¹ when R = I."""
    k, n, r = m.field, m.ncols, m.nrows
    z, o = (k.zero,), (k.one,)
    rows, pivots = echelon_basis(k, (row + z * i + o + z * (r - 1 - i)
                                     for i, row in enumerate(m.entries)))
    rank = sum(1 for p in pivots if p < n)
    if rank < n or m.nrows != n:
        return rank, None
    return n, Matrix(k, n, n, tuple(row[n:] for row in rows))


def express_in_echelon(basis_rows: list[tuple], pivots: tuple[int, ...],
                       vector: tuple, field: FieldSpec) -> tuple:
    """Coordinates of ``vector`` in an echelon basis (rows of an rref).

    The rows are reduced (each vanishes at the other rows' pivots), so the
    coordinates read straight off the vector; the expansion is verified
    exactly and a vector outside the span raises ValueError.
    """
    coeffs = tuple(vector[p] for p in pivots)
    residue = list(vector)
    for c, row in zip(coeffs, basis_rows):
        if c != field.zero:
            for j, a in enumerate(row):
                residue[j] = field.sub(residue[j], field.mul(c, a))
    if any(x != field.zero for x in residue):
        raise ValueError("vector is not in the span of the echelon basis")
    return coeffs
