"""Fibre products of functors over a common base, with projection functors.

Objects are the pairs agreeing in the base; the hom space between two pairs
is the canonical kernel basis of (φ, ψ) ↦ Fφ − Gψ on the direct sum of the
two hom spaces, so every basis morphism satisfies Fφ = Gψ exactly and
composition is componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError, NotCoveringError, CovcatError
from .exactalg import Matrix, echelon_pivots, kernel_basis
from .lincat import LinearCategory, category_from_model, echelon_coords
from .linfun import LinearFunctor, hom_inverses, validate_functor
from .covering import CoveringFailure, check_covering

__all__ = [
    "FibreProduct",
    "fibre_product",
    "is_fully_faithful",
    "fullyfaithful_pullback",
]


def _pair_name(x: str, y: str) -> str:
    return f"({x},{y})"


@dataclass(frozen=True)
class FibreProduct:
    """The fibre product category together with its two projections.

    ``pr1`` projects onto the source of the first functor, ``pr2`` onto the
    source of the second.  Neither projection is assumed to be a covering;
    that is always decided by ``check_covering``.
    """

    category: LinearCategory
    pr1: LinearFunctor
    pr2: LinearFunctor


def fibre_product(f: LinearFunctor, g: LinearFunctor) -> FibreProduct:
    """Construct C ×_B D for f: C → B and g: D → B."""
    if f.target != g.target:
        raise ConstructionError("functors do not share a base category")
    base = f.target
    cat_c, cat_d = f.source, g.source
    field = base.field

    pairs = sorted((x, y) for x in cat_c.objects for y in cat_d.objects
                   if f.object_map[x] == g.object_map[y])
    if not pairs:
        raise ConstructionError("fibre product has no objects")

    # per ordered pair of pair-objects: kernel rows over (C-basis ++ D-basis)
    # and their pivots
    pair_of = {_pair_name(x, y): (x, y) for x, y in pairs}
    kernels: dict[tuple[str, str], tuple] = {}
    for p, (x, y) in pair_of.items():
        for p2, (x2, y2) in pair_of.items():
            dim_c = cat_c.dim(x, x2)
            dim_d = cat_d.dim(y, y2)
            if dim_c + dim_d == 0:
                continue
            b, b2 = f.object_map[x], f.object_map[x2]
            rows = base.dim(b, b2)
            mc = f.hom_matrices.get((x, x2), Matrix.zeros(field, rows, dim_c))
            md = g.hom_matrices.get((y, y2), Matrix.zeros(field, rows, dim_d))
            diff = Matrix.hstack(mc, md.neg())
            kernel = kernel_basis(diff)
            if kernel:
                kernels[(p, p2)] = (kernel, echelon_pivots(kernel, field))

    def product(p, p2, p3, v1, v2) -> tuple:
        # componentwise: the C part in front, the D part behind
        (x, y), (x2, y2), (x3, y3) = pair_of[p], pair_of[p2], pair_of[p3]
        dc1, dc2 = cat_c.dim(x, x2), cat_c.dim(x2, x3)
        return (cat_c.compose_vectors(x, x2, x3, v1[:dc1], v2[:dc2])
                + cat_d.compose_vectors(y, y2, y3, v1[dc1:], v2[dc2:]))

    coords = echelon_coords(field, kernels, CovcatError(
        "componentwise composite escaped its hom space"))
    spaces = {(p, p2): tuple((f"{p}>{p2}#{i}", v) for i, v in enumerate(rows))
              for (p, p2), (rows, _) in kernels.items()}
    identity = {p: coords(p, p, tuple(cat_c.identity[x]) + tuple(cat_d.identity[y]))
                for p, (x, y) in pair_of.items()}
    # every pair, so that two pairs sharing a name are rejected
    objects = [_pair_name(x, y) for x, y in pairs]
    category = category_from_model(field, objects, spaces, identity, product,
                                   coords)

    om1 = {p: x for p, (x, _) in pair_of.items()}
    om2 = {p: y for p, (_, y) in pair_of.items()}
    hm1, hm2 = {}, {}
    for (p, p2), (rows, _) in kernels.items():
        dim_c = cat_c.dim(pair_of[p][0], pair_of[p2][0])
        hm1[(p, p2)] = Matrix.from_columns(field, [v[:dim_c] for v in rows], dim_c)
        hm2[(p, p2)] = Matrix.from_columns(field, [v[dim_c:] for v in rows],
                                           len(rows[0]) - dim_c)
    pr1 = LinearFunctor(category, cat_c, om1, hm1)
    pr2 = LinearFunctor(category, cat_d, om2, hm2)
    for name, pr in (("pr1", pr1), ("pr2", pr2)):
        report = validate_functor(pr)
        if not report.ok:
            raise CovcatError(f"fibre product projection {name} failed validation")
    return FibreProduct(category, pr1, pr2)


def is_fully_faithful(g: LinearFunctor) -> bool:
    """True iff g is bijective on every hom space (zero onto zero allowed)."""
    return hom_inverses(g) is not None


def fullyfaithful_pullback(f: LinearFunctor, g: LinearFunctor):
    """Pull a covering f back along a fully faithful g; the second projection
    of the fibre product is then itself a covering, certificate included."""
    cert = check_covering(f)
    if isinstance(cert, CoveringFailure):
        raise NotCoveringError(f"first functor is not a covering: {cert.message()}")
    if not is_fully_faithful(g):
        raise ConstructionError("second functor is not fully faithful")
    fp = fibre_product(f, g)
    cert2 = check_covering(fp.pr2)
    if isinstance(cert2, CoveringFailure):
        raise CovcatError(
            f"pullback projection unexpectedly fails to cover: {cert2.message()}")
    return fp, cert2
