"""Fibre products of functors over a common base, with projection functors.

Objects are the pairs agreeing in the base; the hom space between two pairs
is the canonical kernel basis of (φ, ψ) ↦ Fφ − Gψ on the direct sum of the
two hom spaces, so every basis morphism satisfies Fφ = Gψ exactly and
composition is componentwise.

The hom spaces are found by a join of the non-zero homs of C and of D,
grouped by the base hom pair they lie over (``LinearFunctor.homs_over``).
Where both sides have a hom the kernel of [F | −G] is solved; where one
side has a zero hom the kernel is that of the other side's matrix alone,
solved once per hom and shared by every such partner pair.  Pairs with two
zero homs have none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError, CovcatError
from .exactalg import Matrix, kernel_basis
from .lincat import LinearCategory, category_from_model, echelon_coords
from .linfun import LinearFunctor

__all__ = [
    "FibreProduct",
    "fibre_product",
]


def _pair_name(x: str, y: str) -> str:
    return f"({x},{y})"


def _zero_homs(fun: LinearFunctor, b: str, b2: str, homs: list) -> list:
    """The pairs in fibre(b) × fibre(b2) of ``fun`` that are not in ``homs``,
    the non-zero source homs over (b, b2)."""
    present = set(homs)
    return [(x, x2) for x in fun.fibre(b) for x2 in fun.fibre(b2)
            if (x, x2) not in present]


@dataclass(frozen=True)
class FibreProduct:
    """The fibre product category together with its two projections.

    ``pr1`` projects onto the source of the first functor, ``pr2`` onto the
    source of the second; both are functors by construction.  Neither
    projection is assumed to be a covering; that is always decided by
    ``check_covering``.
    """

    category: LinearCategory
    pr1: LinearFunctor
    pr2: LinearFunctor


def fibre_product(f: LinearFunctor, g: LinearFunctor) -> FibreProduct:
    """Construct C ×_B D for f: C → B and g: D → B."""
    if f.target != g.target:
        raise ConstructionError("functors do not share a base category")
    cat_c, cat_d = f.source, g.source
    field = f.target.field

    pairs = sorted((x, y) for x in cat_c.objects for y in cat_d.objects
                   if f.object_map[x] == g.object_map[y])
    if not pairs:
        raise ConstructionError("fibre product has no objects")
    pair_of = {_pair_name(x, y): (x, y) for x, y in pairs}
    if len(pair_of) != len(pairs):
        raise ConstructionError("duplicate object names")

    # kernel rows over (C-basis ++ D-basis) and their pivots, per ordered
    # pair of pair-objects with a non-zero hom: a join of the non-zero homs
    # of C and of D over the base hom pair they lie over
    found: dict[tuple, tuple] = {}
    over_c, over_d = f.homs_over, g.homs_over
    for (b, b2) in over_c.keys() | over_d.keys():
        c_homs, d_homs = over_c.get((b, b2), []), over_d.get((b, b2), [])
        for (x, x2) in c_homs:
            mc = f.hom_matrices[(x, x2)]
            for (y, y2) in d_homs:
                kernel = kernel_basis(Matrix.hstack(mc, g.hom_matrices[(y, y2)].neg()))
                if kernel[0]:
                    found[((x, y), (x2, y2))] = kernel
        # opposite a zero hom the kernel is that of the one matrix present
        # (ker(−md) = ker md), the same for every such partner pair
        d_zero = _zero_homs(g, b, b2, d_homs)
        for (x, x2) in c_homs if d_zero else ():
            kernel = kernel_basis(f.hom_matrices[(x, x2)])
            for (y, y2) in d_zero if kernel[0] else ():
                found[((x, y), (x2, y2))] = kernel
        c_zero = _zero_homs(f, b, b2, c_homs)
        for (y, y2) in d_homs if c_zero else ():
            kernel = kernel_basis(g.hom_matrices[(y, y2)])
            for (x, x2) in c_zero if kernel[0] else ():
                found[((x, y), (x2, y2))] = kernel
    # in pair-object order, so that basis names and every output byte are
    # those of a scan over all pairs of pair-objects
    index = {pair: i for i, pair in enumerate(pairs)}
    kernels = {(_pair_name(*q), _pair_name(*q2)): found[(q, q2)]
               for q, q2 in sorted(found, key=lambda k: (index[k[0]], index[k[1]]))}

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
    category = category_from_model(field, tuple(pair_of), spaces, identity, product,
                                   coords)

    om1 = {p: x for p, (x, _) in pair_of.items()}
    om2 = {p: y for p, (_, y) in pair_of.items()}
    hm1, hm2 = {}, {}
    for (p, p2), (rows, _) in kernels.items():
        dim_c = cat_c.dim(pair_of[p][0], pair_of[p2][0])
        hm1[(p, p2)] = Matrix.from_columns(field, [v[:dim_c] for v in rows], dim_c)
        hm2[(p, p2)] = Matrix.from_columns(field, [v[dim_c:] for v in rows],
                                           len(rows[0]) - dim_c)
    # The projections are functors by construction.  A hom row lies in
    # hom_C ⊕ hom_D and pr1, pr2 read off its parts.  ``coords`` writes the
    # componentwise composite of two rows, and (1_x, 1_y), back exactly as
    # combinations of rows, or raises; so by bilinearity each pr_i
    # preserves composites and identities.
    return FibreProduct(category, LinearFunctor(category, cat_c, om1, hm1),
                        LinearFunctor(category, cat_d, om2, hm2))

