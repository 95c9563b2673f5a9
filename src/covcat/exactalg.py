"""Exact dense linear algebra over the rationals and prime fields.

Scalars over Q are ints, or `fractions.Fraction` values when not integral;
over F_p they are plain ints in ``range(p)``.  Every routine that emits a
basis emits a canonical one (reduced echelon form), so identical inputs
always produce bit-identical outputs.
"""

from __future__ import annotations

import operator
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
        """Parse "n" or "n/d" (exact decimal integer strings)."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.scalar(self.div(self.scalar(int(num)),
                                        self.scalar(int(den))))
        return self.scalar(int(text))

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

    @staticmethod
    def hstack(left: Matrix, right: Matrix) -> Matrix:
        if left.nrows != right.nrows or left.field != right.field:
            raise ValueError("hstack shape/field mismatch")
        rows = tuple(l + r for l, r in zip(left.entries, right.entries))
        return Matrix(left.field, left.nrows, left.ncols + right.ncols, rows)

    # basic ops ----------------------------------------------------------

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows or self.field != other.field:
            raise ValueError("matmul shape/field mismatch")
        k = self.field
        ocols = list(zip(*other.entries)) if other.entries else [()] * other.ncols
        if other.nrows == 0:
            return Matrix.zeros(k, self.nrows, other.ncols)
        rows = []
        for r in self.entries:
            row = []
            for c in ocols:
                acc = k.zero
                for a, b in zip(r, c):
                    acc = k.add(acc, k.mul(a, b))
                row.append(acc)
            rows.append(tuple(row))
        return Matrix(k, self.nrows, other.ncols, tuple(rows))

    def neg(self) -> Matrix:
        k = self.field
        return Matrix(k, self.nrows, self.ncols,
                      tuple(tuple(k.neg(a) for a in r) for r in self.entries))

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

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

    # echelon forms ------------------------------------------------------

    def rref(self) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot column indices."""
        k = self.field
        rows = [list(r) for r in self.entries]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            pivot_row = None
            for i in range(pr, self.nrows):
                if rows[i][pc] != k.zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            inv = k.inv(rows[pr][pc])
            rows[pr] = [k.mul(inv, a) for a in rows[pr]]
            for i in range(self.nrows):
                if i != pr and rows[i][pc] != k.zero:
                    f = rows[i][pc]
                    rows[i] = [k.sub(a, k.mul(f, b))
                               for a, b in zip(rows[i], rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.nrows:
                break
        out = Matrix(k, self.nrows, self.ncols, tuple(tuple(r) for r in rows))
        return out, tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])


def kernel_basis(m: Matrix) -> list[tuple]:
    """Canonical basis of the null space of ``m``, as column vectors.

    The returned vectors are in reduced column-echelon form: each has a
    leading 1, leading positions strictly increase, and every other vector
    vanishes at those positions.  Recomputation is bit-identical.
    """
    k = m.field
    red, pivots = m.rref()
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    if not free:
        return []
    vectors = []
    for j in free:
        v = [k.zero] * m.ncols
        v[j] = k.one
        for r, pc in enumerate(pivots):
            v[pc] = k.neg(red.entries[r][j])
        vectors.append(tuple(v))
    # canonicalize: the echelon basis of the spanning set
    return echelon_basis(k, vectors)[0]


def echelon_basis(field: FieldSpec, vectors) -> tuple[list[tuple], tuple[int, ...]]:
    """The reduced echelon basis of the span of ``vectors`` (field scalars,
    one length) and its pivots: their rref without the zero rows."""
    rows = tuple(tuple(v) for v in vectors)
    if not rows:
        return [], ()
    red, pivots = Matrix(field, len(rows), len(rows[0]), rows).rref()
    return list(red.entries[:len(pivots)]), pivots


def rank_and_inverse(m: Matrix) -> tuple[int, Optional[Matrix]]:
    """Exact rank, plus the inverse when ``m`` is square of full rank."""
    if m.nrows != m.ncols:
        return m.rank(), None
    n = m.nrows
    if n == 0:
        return 0, Matrix.zeros(m.field, 0, 0)
    aug = Matrix.hstack(m, Matrix.identity(m.field, n))
    red, pivots = aug.rref()
    rank = sum(1 for p in pivots if p < n)
    if rank < n:
        return rank, None
    inv_rows = tuple(row[n:] for row in red.entries)
    return n, Matrix(m.field, n, n, inv_rows)


def echelon_residue(basis_rows: list[tuple], pivots: tuple[int, ...],
                    vector, field: FieldSpec) -> tuple[tuple, list]:
    """Coefficients ``vector[pivots[i]]`` on a reduced echelon basis, and the
    residue left after subtracting that combination from ``vector``.

    The rows must be reduced (each vanishes at the other rows' pivots), so
    the coefficients read straight off the vector and the residue is zero
    at every pivot.
    """
    coeffs = tuple(vector[p] for p in pivots)
    residue = list(vector)
    for c, row in zip(coeffs, basis_rows):
        if c == field.zero:
            continue
        for j, a in enumerate(row):
            residue[j] = field.sub(residue[j], field.mul(c, a))
    return coeffs, residue


def express_in_echelon(basis_rows: list[tuple], pivots: tuple[int, ...],
                       vector: tuple, field: FieldSpec) -> tuple:
    """Coordinates of ``vector`` in an echelon basis (rows of an rref).

    The expansion is verified exactly and a vector outside the span raises
    ValueError.
    """
    coeffs, residue = echelon_residue(basis_rows, pivots, vector, field)
    if any(x != field.zero for x in residue):
        raise ValueError("vector is not in the span of the echelon basis")
    return coeffs


def echelon_pivots(basis_rows: list[tuple], field: FieldSpec) -> tuple[int, ...]:
    """Leading-entry positions of an echelon basis (rows assumed reduced)."""
    pivots = []
    for row in basis_rows:
        for j, a in enumerate(row):
            if a != field.zero:
                pivots.append(j)
                break
    return tuple(pivots)
