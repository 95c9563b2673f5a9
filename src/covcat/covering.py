"""The fibre-block covering criterion and covering certificates.

A covering is bijective on every star, the morphisms out of and into one
object.  The test runs block-wise: for every base hom space (b, c) and
every lift x of b, the restriction of the functor to the morphisms from x
into the whole fibre of c must be a bijection onto hom(b, c), and dually
for lifts of c.  This is equivalent to the star condition but yields small
matrices and a precise first-failure witness.

A block is decided by its non-zero pattern first.  When every column has
one non-zero entry and no two share a row (a monomial block, as every
block of the standard bases' Z/n covers is), the block is invertible and
its inverse is read off: 1/e at (j, i) for each e at (i, j).  The block
keeps that pattern, so the sparse rows of its inverse are read without a
scan.  Every other block is eliminated as ``[m | I]``, which gives its
rank, its ``block-singular`` witness and its inverse.

``LinearFunctor.covering`` caches ``check_covering``; a certificate holds
no reference to its functor, so that cache makes no reference cycle.
``_transport`` reads block⁻¹·matrix through a block's sparse inverse rows;
deck lifts and the fibre-product hom spaces both read the certificate
through it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Optional, Union

from .errors import NotCoveringError
from .exactalg import Matrix, rank_and_inverse
from .linfun import LinearFunctor

__all__ = [
    "FibreBlock",
    "CoveringCertificate",
    "CoveringFailure",
    "check_covering",
]


@dataclass(frozen=True)
class FibreBlock:
    """One invertible block of a covering: the functor restricted to the
    morphisms between a lift and an entire fibre, against one base hom."""

    base_src: str
    base_dst: str
    lift: str
    direction: str  # "source": lift of base_src; "target": lift of base_dst
    column_layout: tuple[tuple[str, str], ...]  # (fibre object, basis name)
    matrix: Matrix
    inverse: Matrix
    # for a monomial block, the column of each row's one non-zero entry,
    # as check_covering found it; None for an eliminated block
    _pattern: Optional[list[int]] = dataclasses.field(
        default=None, compare=False, repr=False)

    @cached_property
    def _sparse_inverse(self) -> dict[str, tuple]:
        """The inverse's rows as their non-zero (column, entry) pairs, grouped
        by the fibre object that owns each row in ``column_layout``, in
        layout order.  Built on the first read, by a deck element or a
        pullback hom space: a monomial block's rows are read at its
        pattern, and only an eliminated block's inverse is scanned."""
        rows, grouped = self.inverse.entries, {}
        if self._pattern is None:
            zero = self.inverse.field.zero
            pairs = [tuple((j, e) for j, e in enumerate(row) if e != zero)
                     for row in rows]
        else:
            # an entry at (i, j) of the block puts 1/e at (j, i) of the inverse
            pairs = [None] * len(rows)
            for i, j in enumerate(self._pattern):
                pairs[j] = ((i, rows[j][i]),)
        for (w, _), row in zip(self.column_layout, pairs):
            grouped.setdefault(w, []).append(row)
        return {w: tuple(rows) for w, rows in grouped.items()}


@dataclass(frozen=True)
class CoveringCertificate:
    fibres: dict[str, tuple[str, ...]]
    blocks: dict[tuple[str, str, str, str], FibreBlock]

    def block(self, base_src: str, base_dst: str, lift: str,
              direction: str) -> FibreBlock:
        return self.blocks[(base_src, base_dst, lift, direction)]


@dataclass(frozen=True)
class CoveringFailure:
    """Lexicographically first witness that the functor is not a covering."""

    kind: str  # "not-surjective" | "block-dimension" | "block-singular"
    base_src: Optional[str] = None
    base_dst: Optional[str] = None
    lift: Optional[str] = None
    direction: Optional[str] = None
    expected_dim: Optional[int] = None
    actual_dim: Optional[int] = None
    missing_object: Optional[str] = None

    def message(self) -> str:
        if self.kind == "not-surjective":
            return f"no object maps onto {self.missing_object}"
        where = (f"{self.direction} block at lift {self.lift} for base hom "
                 f"({self.base_src},{self.base_dst})")
        if self.kind == "block-dimension":
            return (f"{where} has dimension {self.actual_dim}, "
                    f"expected {self.expected_dim}")
        return f"{where} is singular"


def _fibre_block(fun: LinearFunctor, direction: str, lift: str, far: str):
    """Columns of F on ⊕_{y over far} hom(lift, y) ("source") or
    ⊕_{y over far} hom(y, lift) ("target"), read off the lift's entries in
    the source's ``out_of`` or ``into`` index.  The index is sorted and
    ``fibre()`` is sorted, so the layout, and with it the first-failure
    witness, keeps fibre order."""
    src, om = fun.source, fun.object_map
    index = src.out_of if direction == "source" else src.into
    layout = []
    cols = []
    for _, y in index[lift]:
        if om[y] != far:
            continue
        key = (lift, y) if direction == "source" else (y, lift)
        m = fun.hom_matrices[key]
        for j, name in enumerate(src.hom_basis[key]):
            layout.append((y, name))
            cols.append(m.column(j))
    return layout, cols


def _monomial_block(field, cols, dim: int):
    """The square block with columns ``cols``, its inverse and the column of
    each row's one non-zero entry, when each column has exactly one
    non-zero entry and no two of them share a row; else None.  Entries are
    reduced by ``field.scalar`` before the zero test, as
    ``Matrix.from_columns`` reduces them."""
    scalar, zero, inv = field.scalar, field.zero, field.inv
    rows = [[zero] * dim for _ in range(dim)]
    inverse = [[zero] * dim for _ in range(dim)]
    column = [None] * dim  # row -> the column of its entry
    for j, col in enumerate(cols):
        hit = None
        for i, e in enumerate(col):
            e = scalar(e)
            if e != zero:
                if hit is not None:
                    return None
                hit = i
                rows[i][j] = e
        if hit is None or column[hit] is not None:
            return None
        column[hit] = j
        inverse[j][hit] = inv(rows[hit][j])
    # dim columns of dim entries, so both are dim × dim of field scalars
    return (Matrix._trusted(field, dim, dim, tuple(map(tuple, rows))),
            Matrix._trusted(field, dim, dim, tuple(map(tuple, inverse))),
            column)


def check_covering(fun: LinearFunctor) -> Union[CoveringCertificate, CoveringFailure]:
    """Decide the covering property, returning a certificate or the first
    offending witness (surjectivity, then blocks in lexicographic order)."""
    base = fun.target
    for b in base.objects:
        if not fun.fibre(b):
            return CoveringFailure("not-surjective", missing_object=b)

    blocks: dict[tuple[str, str, str, str], FibreBlock] = {}
    for b in base.objects:
        for c in base.objects:
            dim = base.dim(b, c)
            if dim == 0 and (b, c) not in fun.homs_over:
                # every block over (b, c) is empty, and passes
                continue
            checks = [("source", x, c) for x in fun.fibre(b)] + \
                     [("target", z, b) for z in fun.fibre(c)]
            for direction, lift, far in checks:
                layout, cols = _fibre_block(fun, direction, lift, far)
                if len(cols) != dim:
                    return CoveringFailure("block-dimension", b, c, lift,
                                           direction, dim, len(cols))
                if dim == 0:
                    continue
                read = _monomial_block(base.field, cols, dim)
                pattern = None
                if read is not None:
                    matrix, inverse, pattern = read
                else:
                    matrix = Matrix.from_columns(base.field, cols, dim)
                    rank, inverse = rank_and_inverse(matrix)
                    if inverse is None:
                        return CoveringFailure("block-singular", b, c, lift,
                                               direction, dim, rank)
                blocks[(b, c, lift, direction)] = FibreBlock(
                    b, c, lift, direction, tuple(layout), matrix, inverse,
                    pattern)

    fibres = {b: fun.fibre(b) for b in base.objects}
    return CoveringCertificate(fibres, blocks)



def _ensure_certificate(fun: LinearFunctor) -> CoveringCertificate:
    if isinstance(fun.covering, CoveringFailure):
        raise NotCoveringError(fun.covering.message())
    return fun.covering


def _transport(block: FibreBlock, matrix: Matrix) -> dict[str, tuple]:
    """The rows of block⁻¹·matrix, zero rows included, grouped by the fibre
    object that owns each row, in layout order.

    Each row is the sum of ``matrix``'s rows weighted by the non-zero
    entries of one row of the inverse (``FibreBlock._sparse_inverse``),
    reduced mod p over F_p: the exact values of ``block.inverse @ matrix``.
    A row whose one entry is 1 is ``matrix``'s row itself, whose F_p
    scalars already lie in range(p).
    """
    rows_of, p = matrix.entries, matrix.field.p
    transported = {}
    for w, sparse_rows in block._sparse_inverse.items():
        rows = []
        for pairs in sparse_rows:
            if len(pairs) == 1:
                [(j, e)] = pairs
                if e == 1:
                    rows.append(rows_of[j])
                    continue
                sums = (e * a for a in rows_of[j])
            else:
                coeffs = [e for _, e in pairs]
                sums = (sum(map(mul, coeffs, column))
                        for column in zip(*[rows_of[j] for j, _ in pairs]))
            rows.append(tuple(sums) if p is None else
                        tuple(a % p for a in sums))
        transported[w] = tuple(rows)
    return transported
