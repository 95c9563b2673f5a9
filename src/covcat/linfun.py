"""k-linear functors between linear categories.

A functor stores its object map and one matrix per non-zero source hom
space, written in the chosen bases (columns index the source basis, rows
the target basis).  When the target hom space is zero the matrix has zero
rows, i.e. the functor kills that hom space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import ConstructionError
from .exactalg import Matrix, echelon_basis, rank_and_inverse
from .lincat import LinearCategory, ValidationReport, Violation, _sparse_sum

__all__ = [
    "LinearFunctor",
    "identity_functor",
    "validate_functor",
    "compose",
    "functor_equal",
    "is_isomorphism",
]


@dataclass(frozen=True)
class LinearFunctor:
    source: LinearCategory
    target: LinearCategory
    object_map: dict[str, str]
    hom_matrices: dict[tuple[str, str], Matrix]

    def __post_init__(self):
        _check_maps(self.source, self.target, self.object_map,
                    self.hom_matrices)
        for (x, y), m in self.hom_matrices.items():
            if m.field != self.source.field:
                raise ConstructionError("matrix field mismatch")
            want_cols = self.source.dim(x, y)
            want_rows = self.target.dim(self.object_map[x], self.object_map[y])
            if (m.nrows, m.ncols) != (want_rows, want_cols):
                raise ConstructionError(
                    f"matrix at ({x},{y}) has shape {m.nrows}x{m.ncols}, "
                    f"expected {want_rows}x{want_cols}")

    @classmethod
    def _trusted(cls, source: LinearCategory, target: LinearCategory,
                 object_map: dict[str, str],
                 hom_matrices: dict[tuple[str, str], Matrix]) -> LinearFunctor:
        """A LinearFunctor built without ``__post_init__``, for library code
        that has just derived an object map of every source object and one
        matrix of the right shape per non-zero source hom.  Each call site
        argues that, or checks it: ``documents.functor_from_json`` makes
        the constructor's checks through ``_check_maps`` and builds each
        matrix in the source's field at the categories' shape."""
        fun = object.__new__(cls)
        fun.__dict__.update(source=source, target=target,
                            object_map=object_map, hom_matrices=hom_matrices)
        return fun

    @cached_property
    def _fibres(self) -> dict[str, tuple[str, ...]]:
        fib: dict[str, list[str]] = {b: [] for b in self.target.objects}
        for x in self.source.objects:
            fib[self.object_map[x]].append(x)
        return {b: tuple(sorted(xs)) for b, xs in fib.items()}

    def fibre(self, b: str) -> tuple[str, ...]:
        return self._fibres[b]

    @cached_property
    def homs_over(self) -> dict[tuple[str, str], list[tuple[str, str]]]:
        """The non-zero source hom pairs (x, y), sorted, grouped by (Fx, Fy)."""
        om, over = self.object_map, {}
        for pairs in self.source.out_of.values():
            for x, y in pairs:
                over.setdefault((om[x], om[y]), []).append((x, y))
        return over

    @cached_property
    def _columns(self) -> dict[str, tuple]:
        """Each source basis morphism's image column as its non-zero
        (row, entry) pairs, in row order, each entry reduced by
        ``field.scalar``: the one reading of the matrices that
        ``validate_functor`` and ``check_covering`` share.  A killed hom's
        columns are empty."""
        scalar, zero = self.source.field.scalar, self.source.field.zero
        columns = {}
        for pair, m in self.hom_matrices.items():
            for name, col in zip(self.source.hom_basis[pair],
                                 zip(*m.entries) if m.nrows else
                                 [()] * m.ncols):
                # a raw zero reduces to zero, so only the rest are reduced
                columns[name] = tuple(
                    (i, e) for i, a in enumerate(col)
                    if a != zero and (e := scalar(a)) != zero)
        return columns

    @cached_property
    def covering(self):
        """``check_covering(self)``, looked up in its module at call time."""
        from . import covering  # covering imports this module
        return covering.check_covering(self)

    @cached_property
    def _deck(self):
        """``deck_group(self)``, generated once: its elements' object maps,
        and their matrices as they are read.  The group holds this functor's
        parts and not the functor, so the cache makes no reference cycle."""
        from . import galois  # galois imports this module
        return galois._deck_table(self)

    def apply(self, x: str, y: str, coords) -> tuple:
        """Image coordinates of a morphism given by coordinates in hom(x, y)."""
        m = self.hom_matrices.get((x, y))
        if m is None:
            return self.target.zero_vector(self.object_map[x], self.object_map[y])
        return m.apply(coords)


def _check_maps(source: LinearCategory, target: LinearCategory,
                object_map: dict[str, str], hom_matrices: dict) -> None:
    """``LinearFunctor``'s checks of its fields, its object map and the
    keys of its hom matrices, in its order; the constructor and
    ``documents.functor_from_json`` both make them here.  Membership is
    tested on the target's tuple of objects, so an unhashable image is
    refused as outside the target."""
    if source.field != target.field:
        raise ConstructionError("source and target live over different fields")
    if set(object_map) != set(source.objects):
        raise ConstructionError("object map does not cover the source objects")
    for x, fx in object_map.items():
        if fx not in target.objects:
            raise ConstructionError(f"object map sends {x} outside the target")
    if set(hom_matrices) != set(source.hom_basis):
        raise ConstructionError("hom matrices must match the non-zero source homs")


def identity_functor(cat: LinearCategory) -> LinearFunctor:
    return LinearFunctor(cat, cat, {x: x for x in cat.objects},
                         {pair: Matrix.identity(cat.field, len(basis))
                          for pair, basis in cat.hom_basis.items()})


def validate_functor(fun: LinearFunctor) -> ValidationReport:
    """Check the two functor axioms: units map to units, composition is preserved.

    Every composable pair is checked, g∘f = 0 included: F(g)∘F(f) may still
    be non-zero.  F(g∘f) is summed over the source's non-zero structure
    constants and the sparse image columns (``LinearFunctor._columns``, their
    entries reduced as ``apply`` reduces them), F(g)∘F(f) over the
    target's.
    """
    problems = []
    src, dst = fun.source, fun.target
    k, om = src.field, fun.object_map

    for x in src.objects:
        fx = om[x]
        image = fun.apply(x, x, src.identity[x])
        if image != dst.identity[fx]:
            problems.append(Violation("unit", (x,),
                                      f"image of 1_{x} is not 1_{fx}"))

    column = fun._columns
    src_after, dst_after, no_composites = src._after, dst._after, {}
    out_of, hom = src.out_of, src.hom_basis
    for x in src.objects:
        for (_, y) in out_of[x]:
            for (_, z) in out_of[y]:
                fx, fy, fz = om[x], om[y], om[z]
                xz, fxfy, fyfz = hom.get((x, z), ()), dst.hom(fx, fy), dst.hom(fy, fz)
                for f in hom[(x, y)]:
                    frow = src_after.get(f, no_composites)
                    # (entry, composites) for each non-zero entry of F(f)
                    image_rows = [(u, dst_after.get(fxfy[a], no_composites))
                                  for a, u in column[f]]
                    for g in hom[(y, z)]:
                        gf = frow.get(g, ())
                        lhs = _sparse_sum(k, [(c, column[xz[t]]) for t, c in gf])
                        rhs = _sparse_sum(k, [(k.mul(u, v), row.get(fyfz[b]))
                                              for u, row in image_rows
                                              for b, v in column[g]])
                        if lhs != rhs:
                            problems.append(Violation(
                                "composition", (f, g),
                                f"F({g}∘{f}) differs from F({g})∘F({f})"))
    return ValidationReport(not problems, tuple(problems))


def _monomial(columns) -> bool:
    """Whether sparse columns (each column's non-zero (row, entry) pairs)
    have one entry each and no two in one row: a matrix of that pattern is
    injective."""
    return len({col[0][0] for col in columns if len(col) == 1}) \
        == len(columns)


def _faithful(fun: LinearFunctor) -> bool:
    """Whether ``fun`` is injective on every non-zero source hom space,
    read off its reduced image columns (``LinearFunctor._columns``).

    A faithful functor F: C → B that passes ``validate_functor`` reflects
    the category axioms from a B that passes ``validate_category``.  F
    preserves composites and units on basis pairs, so by bilinearity on
    all vectors, and for basis f, g, h:

        F((h∘g)∘f) = (F(h)F(g))F(f) = F(h)(F(g)F(f)) = F(h∘(g∘f)),
        F(1_y∘f) = 1_{Fy}F(f) = F(f) = F(f)1_{Fx} = F(f∘1_x).

    Each pair of sides lies in one hom space of C, where F is injective,
    so they are equal in C: associativity and both unit laws hold, and
    centrality, 1_x∘e = e = e∘1_x, follows from the two.

    A hom passes at once when its columns are ``_monomial``; otherwise
    when their rank is their count.  A killed hom (no rows) does not pass.
    """
    field, columns = fun.source.field, fun._columns
    for pair, basis in fun.source.hom_basis.items():
        cols = [columns[name] for name in basis]
        if _monomial(cols):
            continue
        rows = fun.hom_matrices[pair].nrows
        dense = []
        for col in cols:
            vector = [field.zero] * rows
            for i, e in col:
                vector[i] = e
            dense.append(vector)
        if len(echelon_basis(field, dense)[1]) < len(cols):
            return False
    return True


def compose(g: LinearFunctor, f: LinearFunctor) -> LinearFunctor:
    """The composite g∘f; requires target of f = source of g."""
    if f.target != g.source:
        raise ConstructionError("functors are not composable")
    object_map = {x: g.object_map[fx] for x, fx in f.object_map.items()}
    hom_matrices = {}
    for (x, y), mf in f.hom_matrices.items():
        mid = (f.object_map[x], f.object_map[y])
        mg = g.hom_matrices.get(mid)
        if mg is None:
            rows = g.target.dim(object_map[x], object_map[y])
            hom_matrices[(x, y)] = Matrix.zeros(f.source.field, rows, mf.ncols)
        else:
            hom_matrices[(x, y)] = mg @ mf
    return LinearFunctor(f.source, g.target, object_map, hom_matrices)


def functor_equal(f: LinearFunctor, g: LinearFunctor) -> bool:
    """Exact coordinate equality, including sources and targets."""
    return (f.source == g.source and f.target == g.target
            and f.object_map == g.object_map
            and f.hom_matrices == g.hom_matrices)


def hom_inverses(fun: LinearFunctor) -> Optional[dict]:
    """The inverse of each hom matrix, keyed by source pair, when ``fun`` is
    bijective on every hom space (an absent hom must map to an absent hom);
    None otherwise."""
    src, dst = fun.source, fun.target
    # Equivalent to src.dim(x, y) == dst.dim(Fx, Fy) over all object pairs.
    # A LinearCategory has no empty hom entries, so hom_basis lists exactly
    # the non-zero homs.  The loop puts every non-zero source hom over a
    # non-zero target hom of its own dimension; those lie among the
    # Σ |F⁻¹b|·|F⁻¹c| preimage pairs of the non-zero target homs (b, c), and
    # the count says that every one of those pairs has a hom.  Every other
    # pair lies over a zero target hom and has none.  The count, the cheaper
    # test, goes first.
    if len(src.hom_basis) != sum(len(fun.fibre(b)) * len(fun.fibre(c))
                                 for b, c in dst.hom_basis):
        return None
    om = fun.object_map
    for (x, y), basis in src.hom_basis.items():
        if len(basis) != dst.dim(om[x], om[y]):
            return None
    inverses = {}
    for pair, m in fun.hom_matrices.items():
        _, inv = rank_and_inverse(m)
        if inv is None:
            return None
        inverses[pair] = inv
    return inverses


def is_isomorphism(fun: LinearFunctor) -> Optional[LinearFunctor]:
    """The inverse functor when ``fun`` is an isomorphism of categories, else None.

    Requires a bijective object map and a functor bijective on every hom
    space.
    """
    src, dst = fun.source, fun.target
    images = set(fun.object_map.values())
    if len(images) != len(src.objects) or images != set(dst.objects):
        return None
    inverses = hom_inverses(fun)
    if inverses is None:
        return None
    inverse_objects = {fx: x for x, fx in fun.object_map.items()}
    inverse_matrices = {(fun.object_map[x], fun.object_map[y]): inv
                        for (x, y), inv in inverses.items()}
    return LinearFunctor(dst, src, inverse_objects, inverse_matrices)
