"""Fibre products of functors over a common base, with projection functors.

Objects are the pairs agreeing in the base; the hom space between two pairs
is the canonical kernel basis of (φ, ψ) ↦ Fφ − Gψ on the direct sum of the
two hom spaces, so every basis morphism satisfies Fφ = Gψ exactly and
composition is componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError, NotCoveringError, CovcatError
from .exactalg import Matrix, echelon_pivots, express_in_echelon, kernel_basis, \
    rank_and_inverse
from .lincat import LinearCategory, by_source
from .linfun import LinearFunctor, validate_functor
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
    kernels: dict[tuple[tuple[str, str], tuple[str, str]], tuple] = {}
    hom_basis: dict[tuple[str, str], tuple[str, ...]] = {}
    for (x, y) in pairs:
        for (x2, y2) in pairs:
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
            if not kernel:
                continue
            kernels[((x, y), (x2, y2))] = (kernel, echelon_pivots(kernel, field))
            src, dst = _pair_name(x, y), _pair_name(x2, y2)
            hom_basis[(src, dst)] = tuple(
                f"{src}>{dst}#{i}" for i in range(len(kernel)))

    identity = {}
    for (x, y) in pairs:
        rows, pivots = kernels[((x, y), (x, y))]
        concat = tuple(cat_c.identity[x]) + tuple(cat_d.identity[y])
        identity[_pair_name(x, y)] = express_in_echelon(rows, pivots, concat, field)

    composition = {}
    out_of = by_source(kernels)
    for (p, p2), (rows1, _) in kernels.items():
        for (_, q2) in out_of.get(p2, ()):
            rows2 = kernels[(p2, q2)][0]
            target_rows, target_pivots = kernels.get((p, q2), (None, ()))
            (x, y), (x2, y2), (x3, y3) = p, p2, q2
            dc1, dc2 = cat_c.dim(x, x2), cat_c.dim(x2, x3)
            names1 = hom_basis[(_pair_name(x, y), _pair_name(x2, y2))]
            names2 = hom_basis[(_pair_name(x2, y2), _pair_name(x3, y3))]
            for i, v1 in enumerate(rows1):
                phi1, psi1 = v1[:dc1], v1[dc1:]
                for j, v2 in enumerate(rows2):
                    phi2, psi2 = v2[:dc2], v2[dc2:]
                    phi = cat_c.compose_vectors(x, x2, x3, phi1, phi2)
                    psi = cat_d.compose_vectors(y, y2, y3, psi1, psi2)
                    concat = tuple(phi) + tuple(psi)
                    if all(c == field.zero for c in concat):
                        continue
                    if target_rows is None:
                        raise CovcatError("componentwise composite escaped its hom space")
                    coords = express_in_echelon(target_rows, target_pivots,
                                                concat, field)
                    composition[(names1[i], names2[j])] = coords

    category = LinearCategory(field, tuple(_pair_name(x, y) for x, y in pairs),
                              hom_basis, identity, composition)

    om1 = {_pair_name(x, y): x for x, y in pairs}
    om2 = {_pair_name(x, y): y for x, y in pairs}
    hm1, hm2 = {}, {}
    for (p, p2), (rows, _) in kernels.items():
        (x, y), (x2, y2) = p, p2
        dim_c = cat_c.dim(x, x2)
        key = (_pair_name(x, y), _pair_name(x2, y2))
        hm1[key] = Matrix.from_columns(field, [v[:dim_c] for v in rows], dim_c)
        hm2[key] = Matrix.from_columns(field, [v[dim_c:] for v in rows],
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
    src, dst = g.source, g.target
    for x in src.objects:
        for y in src.objects:
            d1 = src.dim(x, y)
            d2 = dst.dim(g.object_map[x], g.object_map[y])
            if d1 != d2:
                return False
            if d1 == 0:
                continue
            _, inverse = rank_and_inverse(g.hom_matrices[(x, y)])
            if inverse is None:
                return False
    return True


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
