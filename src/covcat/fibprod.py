"""Fibre products of functors over a common base, with projection functors.

Objects are the pairs agreeing in the base, named "(x,y)"; the hom space
between two pairs is the canonical kernel basis of (φ, ψ) ↦ Fφ − Gψ on the
direct sum of the two hom spaces, so every basis morphism satisfies
Fφ = Gψ exactly and composition is componentwise.  ``_pair_objects`` makes
the pairs, in name order, for ``fibre_product`` and for the fibre-product
decisions of ``galois``, and refuses two pairs of one name.  P is built by
``category_from_model``, which makes the constructor's table checks.

P's hom spaces come from one routine, ``_pullback_spaces``, whenever G is
a covering: it reads them through G's covering certificate, and both the
fibre-product decisions of ``galois`` and ``fibre_product`` consume it.  A
covering is injective on every hom space, so the first projection embeds
each hom space of P in one of C; the routine yields that image V and the
matrix T with ψ = Tφ, and the basis is the graph of T over V's reduced
echelon rows.  No kernel of [F | −G] is solved.  The kernel of each F(x, x2)
is solved once, unless it is zero by F's cached covering check, as both
decisions make it first (every column of F(x, x2) then lies in an
invertible block), or by F(x, x2)'s column pattern: one entry per column,
no two in one row.  Only a space of several owners then needs a kernel.

Only for a G that is not a covering are the hom spaces found by a join of
the non-zero homs of C and of D, grouped by the base hom pair they lie over
(``LinearFunctor.homs_over``).  Where both sides have a hom the kernel of
[F | −G] is solved; where one side has a zero hom the kernel is that of the
other side's matrix alone, solved once per hom and shared by every such
partner pair.  Pairs with two zero homs have none.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .covering import CoveringCertificate, CoveringFailure, \
    _ensure_certificate, _transport
from .errors import ConstructionError, CovcatError
from .exactalg import Matrix, express_in_echelon, kernel_basis
from .lincat import LinearCategory, category_from_model, echelon_coords
from .linfun import LinearFunctor, _monomial

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


# The space of _pullback_spaces that is all of C(x, x2)
_WHOLE = "whole"

_ESCAPED = "componentwise composite escaped its hom space"


def _pullback_spaces(u: LinearFunctor, g: LinearFunctor):
    """The non-zero hom spaces of P = source(u) ×_B source(g), for a covering
    g, read through g's certificate.  Walks u's non-zero homs in sorted
    order and yields, for each P-hom ((x, y), (x2, y2)):

    - V_y2, the image of P((x, y), (x2, y2)) under the first projection, as
      (reduced echelon rows, pivots) in C(x, x2), or ``_WHOLE`` for all of
      C(x, x2);
    - y2's rows of T = M⁻¹·u(x, x2), M being g's source block at y, which
      send each φ in V_y2 to the ψ with u(φ) = g(ψ).
    """
    if u.target != g.target:
        raise ConstructionError("functors do not share a base category")
    gcert = _ensure_certificate(g)
    field, fibres = u.target.field, gcert.fibres
    # Whether u covers is read off u's cached covering check when a caller
    # has made it, as both decisions (is_galois's fibre method and
    # check_universal_against) have.  It is not made here: fibre_product's
    # u need not be a covering.
    u_covers = isinstance(u.__dict__.get("covering"), CoveringCertificate)
    # A zero C-hom gives no P-hom: u(0) = 0 = g(ψ) forces ψ = 0, as g is
    # injective on each hom space (its columns sit in an invertible block).
    # So only the non-zero C-homs, those in u.hom_matrices, are scanned.
    for x, x2 in sorted(u.hom_matrices):
        m = u.hom_matrices[(x, x2)]
        b, b2, d = u.object_map[x], u.object_map[x2], m.ncols
        # (φ, ψ) in C(x, x2) ⊕ D(y, y2) is a P-hom iff u(φ) = g(ψ).  g on
        # ⊕_{y2 over b2} D(y, y2) is the invertible source block M at y, so
        # with T = M⁻¹·u(x, x2) (read by _transport, as a deck lift reads
        # it) this says that Tφ is ψ in y2's rows and vanishes in every
        # other row.
        # So the first projection maps P((x, y), (x2, y2)) isomorphically
        # onto V_y2 = {φ : Tφ vanishes outside y2's rows}, ψ being the y2
        # part of Tφ.
        # - ker T = ker u(x, x2) for every y, and it is V_y2 for each y2
        #   that owns no non-zero row of T: one kernel per C-hom.
        # - When B(b, b2) = 0, u(x, x2) has no rows, so that kernel is all of
        #   C(x, x2); and it is every V_y2, because the covering g has
        #   D(y, y2) = 0 (its blocks over a zero base hom are empty), so ψ = 0
        #   and there is no block to transport through.
        # - For a covering u that kernel is zero, as each column of u(x, x2)
        #   lies in u's invertible source block at x; so it is when u(x, x2)
        #   has a _monomial column pattern.  Then it is not solved, and only
        #   the y2 that own rows of T are walked.
        injective = u_covers or _monomial(
            [u._columns[name] for name in u.source.hom_basis[(x, x2)]])
        kernel = ((), ()) if injective else kernel_basis(m)
        for y in fibres[b]:
            transported, owned = {}, {}  # owned: y2 -> its non-zero rows of T
            if m.nrows:
                transported = _transport(gcert.block(b, b2, y, "source"), m)
                for w, rows in transported.items():
                    nonzero = [row for row in rows if any(row)]
                    if nonzero:
                        owned[w] = nonzero
            for y2 in fibres[b2] if kernel[0] else owned:
                if y2 not in owned:
                    space = kernel
                elif len(owned) == 1:
                    # T's non-zero rows belong to y2 alone: V_y2 = C(x, x2)
                    space = _WHOLE
                else:
                    # several owners: V_y2 is the kernel of T's other rows
                    rest = tuple(row for w, rows in owned.items() if w != y2
                                 for row in rows)
                    space = kernel_basis(
                        Matrix._trusted(field, len(rest), d, rest))
                if space is _WHOLE or space[0]:
                    yield ((x, y), (x2, y2)), space, transported.get(y2, ())


def _pair_objects(f: LinearFunctor, g: LinearFunctor) -> dict:
    """P's objects, name -> (x, y), in name order; refuses functors over
    different bases, an empty P and two pairs of one name."""
    if f.target != g.target:
        raise ConstructionError("functors do not share a base category")
    over = {}  # base object -> the objects of D over it
    for y in g.source.objects:
        over.setdefault(g.object_map[y], []).append(y)
    named = sorted((_pair_name(x, y), (x, y)) for x in f.source.objects
                   for y in over.get(f.object_map[x], ()))
    if not named:
        raise ConstructionError("fibre product has no objects")
    pair_of = dict(named)
    if len(pair_of) != len(named):
        raise ConstructionError("duplicate object names")
    return pair_of


def fibre_product(f: LinearFunctor, g: LinearFunctor) -> FibreProduct:
    """Construct C ×_B D for f: C → B and g: D → B: from
    ``_pullback_spaces`` when g is a covering, else by ``_kernel_join``."""
    if isinstance(g.covering, CoveringFailure):
        return _kernel_join(f, g)
    pair_of = _pair_objects(f, g)
    field, p = f.target.field, f.target.field.p

    def apply(t_rows, phi) -> tuple:
        # T·φ, reduced mod p as _transport reduces
        sums = (sum(map(mul, row, phi)) for row in t_rows)
        return tuple(sums) if p is None else tuple(a % p for a in sums)

    # The rows (φ, Tφ) over V's reduced echelon rows φ are those of
    # _kernel_join, kernel_basis([f | −g]), byte for byte.  kernel_basis
    # gives the unique reduced echelon basis of the kernel.  The first
    # projection is injective on it (g is injective on D(y, y2)), so a row
    # with its pivot in the D part would have a zero C part: every pivot
    # lies in the C part.  The C parts are then reduced echelon rows of V
    # with the same pivots, V's unique reduced echelon basis, and the D
    # parts are fixed by ψ = Tφ.  A _WHOLE V has the identity rows, so pr1
    # is the identity there and pr2 is T itself.
    homs, graphs, identities = {}, {}, {}
    for (q, q2), space, t_rows in _pullback_spaces(f, g):
        key = (_pair_name(*q), _pair_name(*q2))
        graphs[key] = (space, t_rows)
        if space is _WHOLE:
            d = f.source.dim(q[0], q2[0])
            eye = identities.get(d)
            if eye is None:
                eye = identities[d] = Matrix._trusted(field, d, d, tuple(
                    tuple(field.one if i == j else field.zero
                          for j in range(d)) for i in range(d)))
            columns = tuple(zip(*t_rows)) if t_rows else ((),) * d
            homs[key] = (tuple(zip(eye.entries, columns)), eye,
                         Matrix._trusted(field, len(t_rows), d, t_rows))
        else:
            rows = space[0]
            psis = [apply(t_rows, phi) for phi in rows]
            homs[key] = (tuple(zip(rows, psis)),
                         Matrix._trusted(field, len(rows[0]), len(rows),
                                         tuple(zip(*rows))),
                         Matrix._trusted(field, len(t_rows), len(rows),
                                         tuple(zip(*psis))))

    # The componentwise composite (φ, ψ) lies in P(p1, p3) iff φ lies in V
    # and ψ = Tφ, because every pivot of P's rows lies in the C part: this
    # is _kernel_join's residue test, read part by part.  For functors f
    # and g the test on ψ always holds, as g(ψ'∘ψ) = f(φ'∘φ) and g is
    # injective on D(y, y3); it is kept for inputs that are not functors.
    def read(graph, phi, psi) -> tuple:
        space, t_rows = graph
        if psi != apply(t_rows, phi):
            raise ValueError("the D part is not T times the C part")
        if space is _WHOLE:
            return phi
        return express_in_echelon(space[0], space[1], phi, field)

    def coords(p1, p3, w) -> tuple:
        graph = graphs.get((p1, p3))
        if graph is None:
            if any(w[0]) or any(w[1]):
                raise CovcatError(_ESCAPED)
            return ()
        try:
            return read(graph, *w)
        except ValueError as exc:
            raise CovcatError(_ESCAPED) from exc

    return _built(f, g, pair_of, homs, coords)


def _kernel_join(f: LinearFunctor, g: LinearFunctor) -> FibreProduct:
    """``fibre_product(f, g)`` by kernels of [f | −g], for a g that is not
    a covering."""
    pair_of = _pair_objects(f, g)
    # kernel rows over (C-basis ++ D-basis) and their pivots, per ordered
    # pair of pair-objects with a non-zero hom: a join of the non-zero homs
    # of C and of D over the base hom pair they lie over
    found: dict[tuple, tuple] = {}
    field, over_c, over_d = f.target.field, f.homs_over, g.homs_over
    for (b, b2) in over_c.keys() | over_d.keys():
        c_homs, d_homs = over_c.get((b, b2), []), over_d.get((b, b2), [])
        for (x, x2) in c_homs:
            mc = f.hom_matrices[(x, x2)]
            for (y, y2) in d_homs:
                # [mc | −md]: both have a row per basis morphism of B(b, b2),
                # and field.neg keeps F_p entries in range(p)
                md = g.hom_matrices[(y, y2)]
                rows = tuple(row + tuple(map(field.neg, drow))
                             for row, drow in zip(mc.entries, md.entries))
                kernel = kernel_basis(Matrix._trusted(
                    field, mc.nrows, mc.ncols + md.ncols, rows))
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

    homs, kernels = {}, {}
    for (q, q2), (rows, pivots) in found.items():
        dim_c = f.source.dim(q[0], q2[0])
        key = (_pair_name(*q), _pair_name(*q2))
        kernels[key] = (rows, pivots)
        homs[key] = (tuple((v[:dim_c], v[dim_c:]) for v in rows),
                     Matrix.from_columns(field, [v[:dim_c] for v in rows], dim_c),
                     Matrix.from_columns(field, [v[dim_c:] for v in rows],
                                         len(rows[0]) - dim_c))
    echelon = echelon_coords(field, kernels, CovcatError(_ESCAPED))
    return _built(f, g, pair_of, homs,
                  lambda p, p3, w: echelon(p, p3, w[0] + w[1]))


def _built(f: LinearFunctor, g: LinearFunctor, pair_of: dict, homs: dict,
           coords) -> FibreProduct:
    """P and its projections from its non-zero hom spaces: ``homs[(p, p2)]``
    holds the basis as (φ, ψ) pairs and pr1's and pr2's matrices there.
    ``coords(p, p3, (φ, ψ))`` gives a pair's coordinates in P(p, p3), or
    raises when the pair is not in it."""
    cat_c, cat_d, field = f.source, g.source, f.target.field

    # componentwise: the C part in front, the D part behind.  A part's
    # composite depends only on its own objects and vectors, which recur
    # for every object of the other side, so each is composed once.
    c_composed, d_composed = {}, {}

    def product(p, p2, p3, v1, v2) -> tuple:
        (x, y), (x2, y2), (x3, y3) = pair_of[p], pair_of[p2], pair_of[p3]
        c_key, d_key = (x, x2, x3, v1[0], v2[0]), (y, y2, y3, v1[1], v2[1])
        c_part, d_part = c_composed.get(c_key), d_composed.get(d_key)
        if c_part is None:
            c_part = c_composed[c_key] = cat_c.compose_vectors(*c_key)
        if d_part is None:
            d_part = d_composed[d_key] = cat_d.compose_vectors(*d_key)
        return c_part, d_part

    # in pair-object order, so that basis names and every output byte are
    # those of a scan over all pairs of pair-objects
    order = {p: i for i, p in enumerate(pair_of)}
    keys = sorted(homs, key=lambda k: (order[k[0]], order[k[1]]))
    spaces = {(p, p2): tuple((f"{p}>{p2}#{i}", v)
                             for i, v in enumerate(homs[(p, p2)][0]))
              for p, p2 in keys}
    identity = {p: coords(p, p, (tuple(cat_c.identity[x]),
                                 tuple(cat_d.identity[y])))
                for p, (x, y) in pair_of.items()}
    category = category_from_model(field, tuple(pair_of), spaces, identity,
                                   product, coords)

    om1 = {p: x for p, (x, _) in pair_of.items()}
    om2 = {p: y for p, (_, y) in pair_of.items()}
    # The projections are functors by construction.  A hom row lies in
    # hom_C ⊕ hom_D and pr1, pr2 read off its parts.  ``coords`` writes the
    # componentwise composite of two rows, and (1_x, 1_y), back exactly as
    # combinations of rows, or raises; so by bilinearity each pr_i
    # preserves composites and identities.  Nor are their shapes checked
    # again: each object map sends every pair to its part, and each
    # non-zero hom space of P has one matrix per projection, with a column
    # per basis row and a row per basis morphism of C(x, x2) or D(y, y2).
    return FibreProduct(
        category,
        LinearFunctor._trusted(category, cat_c, om1,
                               {k: homs[k][1] for k in keys}),
        LinearFunctor._trusted(category, cat_d, om2,
                               {k: homs[k][2] for k in keys}))
