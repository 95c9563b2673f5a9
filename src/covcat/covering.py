"""The fibre-block covering criterion and covering certificates.

A covering is bijective on every star, the morphisms out of and into one
object.  The test runs block-wise: for every base hom space (b, c) and
every lift x of b, the restriction of the functor to the morphisms from x
into the whole fibre of c must be a bijection onto hom(b, c), and dually
for lifts of c.  This is equivalent to the star condition but yields small
matrices and a precise first-failure witness.

Blocks are read off ``LinearFunctor.homs_over`` and the functor's image
columns (``LinearFunctor._columns``, shared with ``validate_functor``):
the source homs over (b, c), grouped by their source and by their target
lift, are each lift's block, in fibre order.  Every block is held in one
sparse form: its layout, its columns' non-zero (row, entry) pairs and its
inverse's rows as non-zero (column, entry) pairs, grouped by the fibre
object that owns each row.  A block of one column with one entry e, as
81–82% of the benchmark workloads' blocks are, is read off in place: its
one inverse row holds 1/e.  Every other block goes through ``_invert``,
which decides it by its non-zero pattern first.  When every column has
one non-zero entry and no two share a row (a monomial block, as every
block of the standard bases' Z/n covers is), the block is invertible and
its inverse's rows are read off: 1/e at (j, i) for each e at (i, j).
Every other block is eliminated as ``[m | I]``, which gives its rank and
its ``block-singular`` witness, and its inverse is scanned once, straight
after.  The dense ``matrix`` and
``inverse`` are views built on their first read, which only the tests and
``galois.structure_iso`` make; the certificate writer reads the columns
(``_row_major``).

``LinearFunctor.covering`` caches ``check_covering``; a certificate holds
no reference to its functor, so that cache makes no reference cycle.
``_transport`` reads block⁻¹·matrix through a block's inverse rows; deck
lifts and the fibre-product hom spaces both read the certificate through
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Optional, Union

from .errors import NotCoveringError
from .exactalg import FieldSpec, Matrix, rank_and_inverse
from .linfun import LinearFunctor

__all__ = [
    "FibreBlock",
    "CoveringCertificate",
    "CoveringFailure",
    "check_covering",
]


# not frozen: a frozen __init__ sets each field through object.__setattr__,
# which costs check_covering a fifth of its time on a cyclic cover
@dataclass
class FibreBlock:
    """One invertible block of a covering: the functor restricted to the
    morphisms between a lift and an entire fibre, against one base hom.

    It is held sparse: each column's non-zero (row, entry) pairs, and the
    inverse's rows as their non-zero (column, entry) pairs, grouped by the
    fibre object that owns each row in ``column_layout``, in layout order.
    ``matrix`` and ``inverse`` are dense views, built on their first read."""

    base_src: str
    base_dst: str
    lift: str
    direction: str  # "source": lift of base_src; "target": lift of base_dst
    column_layout: tuple[tuple[str, str], ...]  # (fibre object, basis name)
    field: FieldSpec
    columns: tuple[tuple[tuple[int, object], ...], ...]
    inverse_rows: dict[str, tuple[tuple[tuple[int, object], ...], ...]]

    @cached_property
    def matrix(self) -> Matrix:
        return _square(self.field, self.columns, columns=True)

    @cached_property
    def inverse(self) -> Matrix:
        owned = {w: iter(rows) for w, rows in self.inverse_rows.items()}
        return _square(self.field, [next(owned[w])
                                    for w, _ in self.column_layout])

    def _row_major(self) -> list[str]:
        """The block's matrix in row-major order, each entry as its field
        writes it, written from its columns: zero but for e at i·dim + j
        for each pair (i, e) of column j."""
        fmt, dim = self.field.format, len(self.columns)
        flat = [fmt(self.field.zero)] * (dim * dim)
        for j, col in enumerate(self.columns):
            for i, e in col:
                flat[i * dim + j] = fmt(e)
        return flat


def _square(field: FieldSpec, lines, columns: bool = False) -> Matrix:
    """The square matrix with the sparse rows, or else ``columns``,
    ``lines``: each line's non-zero (index, entry) pairs, reduced."""
    dense = []
    for pairs in lines:
        line = [field.zero] * len(lines)
        for k, e in pairs:
            line[k] = e
        dense.append(tuple(line))
    rows = tuple(zip(*dense)) if columns else tuple(dense)
    return Matrix._trusted(field, len(rows), len(rows), rows)


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


def _invert(field: FieldSpec, cols: list) -> tuple[int, Optional[list]]:
    """The rank of the square block with sparse columns ``cols`` (each
    column's non-zero (row, entry) pairs, reduced), and its inverse's rows
    in layout order, each as its non-zero (column, entry) pairs; None for
    the rows of a singular block.  When each column has one entry and no
    two share a row (a monomial block) the inverse is read off: an entry e
    at (i, j) puts 1/e at (j, i), the one entry of row j.  Every other
    block is eliminated as ``[m | I]`` and its inverse scanned once."""
    inv, rows, taken = field.inv, [], set()
    for col in cols:
        if len(col) != 1 or col[0][0] in taken:
            break
        [(i, e)] = col
        taken.add(i)
        # 1, every entry of a plain cyclic cover, is its own inverse
        rows.append(((i, e if e == 1 else inv(e)),))
    else:
        return len(cols), rows
    rank, inverse = rank_and_inverse(_square(field, cols, columns=True))
    if inverse is None:
        return rank, None
    zero = field.zero
    return rank, [tuple((j, e) for j, e in enumerate(row) if e != zero)
                  for row in inverse.entries]


def check_covering(fun: LinearFunctor) -> Union[CoveringCertificate, CoveringFailure]:
    """Decide the covering property, returning a certificate or the first
    offending witness (surjectivity, then blocks in lexicographic order)."""
    base = fun.target
    for b in base.objects:
        if not fun.fibre(b):
            return CoveringFailure("not-surjective", missing_object=b)

    field = base.field
    hom, columns, inv = fun.source.hom_basis, fun._columns, field.inv
    blocks: dict[tuple[str, str, str, str], FibreBlock] = {}
    for b in base.objects:
        for c in base.objects:
            dim = base.dim(b, c)
            homs = fun.homs_over.get((b, c), ())
            if dim == 0 and not homs:
                # every block over (b, c) is empty, and passes
                continue
            # homs is sorted by (x, y), so each x's pairs come in out_of[x]'s
            # order and each y's in into[y]'s: the layouts keep fibre order.
            # Each lift's layout and columns are extended hom by hom; each
            # column is owned by its pair's end in the far fibre.
            out_of: dict[str, tuple[list, list]] = {}
            into: dict[str, tuple[list, list]] = {}
            for x, y in homs:
                if x not in out_of:
                    out_of[x] = ([], [])
                if y not in into:
                    into[y] = ([], [])
                (x_layout, x_cols), (y_layout, y_cols) = out_of[x], into[y]
                for name in hom[(x, y)]:
                    col = columns[name]
                    x_layout.append((y, name))
                    x_cols.append(col)
                    y_layout.append((x, name))
                    y_cols.append(col)
            empty = ((), ())
            checks = [("source", x, out_of.get(x, empty)) for x in fun.fibre(b)] \
                + [("target", z, into.get(z, empty)) for z in fun.fibre(c)]
            for direction, lift, (layout, cols) in checks:
                if len(layout) != dim:
                    return CoveringFailure("block-dimension", b, c, lift,
                                           direction, dim, len(layout))
                if dim == 0:
                    continue
                if dim == 1 and len(cols[0]) == 1:
                    # _invert's monomial read-off for one column: its entry
                    # e at (i, 0) puts 1/e at (0, i), the one inverse row,
                    # owned by the column's far end; 1 is its own inverse
                    [[(i, e)]] = cols
                    owned = {layout[0][0]: (((i, e if e == 1 else inv(e)),),)}
                else:
                    rank, rows = _invert(field, cols)
                    if rows is None:
                        return CoveringFailure("block-singular", b, c, lift,
                                               direction, dim, rank)
                    grouped: dict[str, list] = {}
                    for (w, _), row in zip(layout, rows):
                        grouped.setdefault(w, []).append(row)
                    owned = {w: tuple(rs) for w, rs in grouped.items()}
                blocks[(b, c, lift, direction)] = FibreBlock(
                    b, c, lift, direction, tuple(layout), field, tuple(cols),
                    owned)

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
    entries of one row of the inverse (``FibreBlock.inverse_rows``),
    reduced mod p over F_p: the exact values of ``block.inverse @ matrix``.
    A row whose one entry is 1 is ``matrix``'s row itself, whose F_p
    scalars already lie in range(p).
    """
    rows_of, p = matrix.entries, matrix.field.p
    transported = {}
    for w, sparse_rows in block.inverse_rows.items():
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
