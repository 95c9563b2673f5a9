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
lift, are each lift's block, in fibre order.  A block is decided by its
non-zero pattern first.  When every column has one non-zero entry and no
two share a row (a monomial block, as every block of the standard bases'
Z/n covers is), the block is invertible and its inverse is read off: 1/e
at (j, i) for each e at (i, j).  Such a block stores its layout, its one
(row, entry) pair per column and the sparse rows of its inverse, written
as the block is read, so no reader scans them.  Its dense ``matrix`` and
``inverse`` are built on their first read, which only equality and the
tests make; the certificate writer reads the pairs (``_row_major``).
Every other block is eliminated as ``[m | I]``, which gives its rank, its
``block-singular`` witness and its dense matrix and inverse, stored at
once.

``LinearFunctor.covering`` caches ``check_covering``; a certificate holds
no reference to its functor, so that cache makes no reference cycle.
``_transport`` reads block⁻¹·matrix through a block's sparse inverse rows;
deck lifts and the fibre-product hom spaces both read the certificate
through it.
"""

from __future__ import annotations

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

    @classmethod
    def _monomial(cls, base_src: str, base_dst: str, lift: str,
                  direction: str, column_layout: tuple, field,
                  pairs: tuple, sparse_inverse: dict) -> FibreBlock:
        """A monomial block, built without the dataclass ``__init__`` for
        ``check_covering``, which has just read it: its one (row, entry)
        pair per column, and its inverse's rows as ``_sparse_inverse`` holds
        them, stored so that they are never scanned.  Its ``matrix`` and
        ``inverse`` are built on their first read."""
        block = object.__new__(cls)
        block.__dict__.update(base_src=base_src, base_dst=base_dst, lift=lift,
                              direction=direction, column_layout=column_layout,
                              _field=field, _pairs=pairs,
                              _sparse_inverse=sparse_inverse)
        return block

    def __getattr__(self, name: str):
        """A monomial block's ``matrix`` or ``inverse``, the only attributes
        that an instance can lack, built on its first read: an entry e at
        (i, j) of the block puts 1/e at (j, i) of its inverse."""
        parts = self.__dict__
        if name not in ("matrix", "inverse") or "_pairs" not in parts:
            raise AttributeError(name)
        field, pairs = parts["_field"], parts["_pairs"]
        unit = (field.zero,) * len(pairs)
        dense = [unit] * len(pairs)
        for j, (i, e) in enumerate(pairs):
            if name == "matrix":
                dense[i] = unit[:j] + (e,) + unit[j + 1:]
            else:
                dense[j] = unit[:i] + (field.inv(e),) + unit[i + 1:]
        # a row per column, each with one reduced entry: 1/e is reduced
        parts[name] = Matrix._trusted(field, len(pairs), len(pairs),
                                      tuple(dense))
        return parts[name]

    def _row_major(self) -> list[str]:
        """The block's matrix in row-major order, each entry as its field
        writes it; a monomial block's is written from its pairs, zero but
        for e at i·dim + j for the pair (i, e) of column j, without
        building its matrix."""
        parts = self.__dict__
        if "_pairs" not in parts:
            fmt = self.matrix.field.format
            return [fmt(c) for row in self.matrix.entries for c in row]
        field, pairs = parts["_field"], parts["_pairs"]
        dim = len(pairs)
        flat = [field.format(field.zero)] * (dim * dim)
        for j, (i, e) in enumerate(pairs):
            flat[i * dim + j] = field.format(e)
        return flat

    @cached_property
    def _sparse_inverse(self) -> dict[str, tuple]:
        """The inverse's rows as their non-zero (column, entry) pairs, grouped
        by the fibre object that owns each row in ``column_layout``, in
        layout order.  ``check_covering`` stores a monomial block's rows as
        it reads the block; an eliminated block's inverse is scanned on the
        first read, by a deck element or a pullback hom space."""
        zero, grouped = self.inverse.field.zero, {}
        for (w, _), row in zip(self.column_layout, self.inverse.entries):
            grouped.setdefault(w, []).append(
                tuple((j, e) for j, e in enumerate(row) if e != zero))
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


def _monomial_parts(field, layout, cols) -> Optional[tuple]:
    """Each column's one (row, entry) pair, and the rows of the inverse as
    ``FibreBlock._sparse_inverse`` holds them, for the square block with
    sparse columns ``cols`` (each column's non-zero (row, entry) pairs,
    reduced) when each column has exactly one entry and no two columns
    share a row; else None.  An entry e at (i, j) puts 1/e at (j, i) of the
    inverse, the one entry of its row j."""
    inv, sparse, taken, pairs = field.inv, {}, set(), []
    for (w, _), col in zip(layout, cols):
        if len(col) != 1 or col[0][0] in taken:
            return None
        [(i, e)] = col
        taken.add(i)
        pairs.append(col[0])
        # 1, every entry of a plain cyclic cover, is its own inverse
        sparse.setdefault(w, []).append(((i, e if e == 1 else inv(e)),))
    return tuple(pairs), {w: tuple(rs) for w, rs in sparse.items()}


def check_covering(fun: LinearFunctor) -> Union[CoveringCertificate, CoveringFailure]:
    """Decide the covering property, returning a certificate or the first
    offending witness (surjectivity, then blocks in lexicographic order)."""
    base = fun.target
    for b in base.objects:
        if not fun.fibre(b):
            return CoveringFailure("not-surjective", missing_object=b)

    field, zero = base.field, base.field.zero
    hom, columns = fun.source.hom_basis, fun._columns
    blocks: dict[tuple[str, str, str, str], FibreBlock] = {}
    for b in base.objects:
        for c in base.objects:
            dim = base.dim(b, c)
            homs = fun.homs_over.get((b, c), ())
            if dim == 0 and not homs:
                # every block over (b, c) is empty, and passes
                continue
            # homs is sorted by (x, y), so each x's pairs come in out_of[x]'s
            # order and each y's in into[y]'s: the layouts keep fibre order
            out_of: dict[str, list] = {}
            into: dict[str, list] = {}
            for pair in homs:
                out_of.setdefault(pair[0], []).append(pair)
                into.setdefault(pair[1], []).append(pair)
            checks = [("source", x, out_of.get(x, ()), 1) for x in fun.fibre(b)] \
                + [("target", z, into.get(z, ()), 0) for z in fun.fibre(c)]
            for direction, lift, pairs, far in checks:
                # each column is owned by its pair's end in the far fibre
                layout = tuple((pair[far], name) for pair in pairs
                               for name in hom[pair])
                if len(layout) != dim:
                    return CoveringFailure("block-dimension", b, c, lift,
                                           direction, dim, len(layout))
                if dim == 0:
                    continue
                cols = [columns[name] for _, name in layout]
                read = _monomial_parts(field, layout, cols)
                if read is not None:
                    blocks[(b, c, lift, direction)] = FibreBlock._monomial(
                        b, c, lift, direction, layout, field, *read)
                    continue
                dense = [[zero] * dim for _ in range(dim)]
                for j, col in enumerate(cols):
                    for i, e in col:
                        dense[i][j] = e
                # dim rows of dim reduced entries, as from_columns gives
                matrix = Matrix._trusted(field, dim, dim,
                                         tuple(map(tuple, dense)))
                rank, inverse = rank_and_inverse(matrix)
                if inverse is None:
                    return CoveringFailure("block-singular", b, c, lift,
                                           direction, dim, rank)
                blocks[(b, c, lift, direction)] = FibreBlock(
                    b, c, lift, direction, layout, matrix, inverse)

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
