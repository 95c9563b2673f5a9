"""Named example categories and coverings.

The central family: weighted acyclic quivers whose cyclic Z/n covers stay
connected, built so that the covering functor simply forgets the sheet
index.  On top of that sit two twisted variants used throughout the test
corpus: the triangle cover whose long arrow maps to a + c*b, and the
Kronecker double cover whose second sheet is twisted by a + b (the standard
witness of a covering that is not Galois).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError
from .exactalg import QQ, FieldSpec, Matrix
from .lincat import LinearCategory, Quiver, _path_category_data
from .linfun import LinearFunctor

__all__ = [
    "WeightedQuiver",
    "triangle",
    "kronecker",
    "free_square",
    "rel_square",
    "double_arrows",
    "standard_bases",
    "cyclic_cover",
    "triangle_base",
    "triangle_cover",
    "triangle_cover_twisted",
    "kronecker_cover_twisted",
]


@dataclass(frozen=True)
class WeightedQuiver:
    """An acyclic quiver with integer arrow weights and optional relations.

    The weight of an arrow is the sheet shift of its lift in the Z/n cover;
    relations must give equal total weight to all their terms, otherwise no
    parallel lift exists.
    """

    name: str
    quiver: Quiver
    weights: dict[str, int]
    relations: tuple = ()


def triangle() -> WeightedQuiver:
    """Three objects t, u, s; hom(t, s) is spanned by a and c*b."""
    q = Quiver(("t", "u", "s"),
               (("a", "t", "s"), ("b", "t", "u"), ("c", "u", "s")))
    return WeightedQuiver("triangle", q, {"a": 1, "b": 0, "c": 0})


def kronecker() -> WeightedQuiver:
    """Two objects joined by a two-dimensional hom space."""
    q = Quiver(("x", "y"), (("al", "x", "y"), ("be", "x", "y")))
    return WeightedQuiver("kronecker", q, {"al": 0, "be": 1})


def free_square() -> WeightedQuiver:
    """Commutative-square shape with no relation: hom(p, s) has dimension 2."""
    q = Quiver(("p", "q", "r", "s"),
               (("f", "p", "q"), ("g", "q", "s"), ("h", "p", "r"),
                ("k", "r", "s")))
    return WeightedQuiver("free_square", q, {"f": 1, "g": 0, "h": 0, "k": 0})


def rel_square() -> WeightedQuiver:
    """A commuting square (g∘f = k∘h) plus an extra diagonal arrow m that
    keeps the cyclic covers connected."""
    q = Quiver(("p", "q", "r", "s"),
               (("f", "p", "q"), ("g", "q", "s"), ("h", "p", "r"),
                ("k", "r", "s"), ("m", "p", "s")))
    rel = ((1, ("g", "f")), (-1, ("k", "h")))
    return WeightedQuiver("rel_square", q,
                          {"f": 0, "g": 0, "h": 0, "k": 0, "m": 1}, (rel,))


def double_arrows() -> WeightedQuiver:
    """t with two parallel arrows into u, then one arrow into s."""
    q = Quiver(("t", "u", "s"),
               (("b1", "t", "u"), ("b2", "t", "u"), ("c", "u", "s")))
    return WeightedQuiver("double_arrows", q, {"b1": 0, "b2": 1, "c": 0})


def standard_bases() -> list[WeightedQuiver]:
    return [triangle(), kronecker(), free_square(), rel_square(),
            double_arrows()]


def base_category(wq: WeightedQuiver, field: FieldSpec = QQ) -> LinearCategory:
    return _path_category_data(wq.quiver, wq.relations, field).category


def _lift_term(weights: dict[str, int], n: int, start: int,
               path: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
    """Lift a base path (composition order) starting on sheet ``start``;
    returns the lifted path and the sheet it ends on."""
    sheet = start
    lifted = []
    for arrow in reversed(path):
        lifted.append(f"{arrow}{sheet}")
        sheet = (sheet + weights[arrow]) % n
    return tuple(reversed(lifted)), sheet


def cyclic_cover(wq: WeightedQuiver, n: int,
                 field: FieldSpec = QQ) -> LinearFunctor:
    """The Z/n cover of a weighted quiver's path category.

    Vertex v gets sheets v0..v(n-1); an arrow of weight w runs from sheet i
    to sheet i+w.  The functor forgets sheet indices.
    """
    if n < 1:
        raise ConstructionError("cover degree must be positive")
    for name, _, _ in wq.quiver.arrows:
        if type(wq.weights.get(name)) is not int:
            raise ConstructionError(f"arrow {name} has no integer weight")
    base = _path_category_data(wq.quiver, wq.relations, field)

    vertices = tuple(f"{v}{i}" for v in wq.quiver.vertices for i in range(n))
    vertex_to_base = {f"{v}{i}": v for v in wq.quiver.vertices for i in range(n)}
    arrow_to_base = {}
    arrows = []
    for name, src, dst in wq.quiver.arrows:
        w = wq.weights[name]
        for i in range(n):
            lifted = f"{name}{i}"
            arrows.append((lifted, f"{src}{i}", f"{dst}{(i + w) % n}"))
            arrow_to_base[lifted] = name
    lifted_relations = []
    for rel in wq.relations:
        for i in range(n):
            terms = []
            end_sheets = set()
            for coeff, path in rel:
                lifted, sheet = _lift_term(wq.weights, n, i, tuple(path))
                end_sheets.add(sheet)
                terms.append((coeff, lifted))
            if len(end_sheets) != 1:
                raise ConstructionError(
                    f"weights of {wq.name} are inconsistent with its relations")
            lifted_relations.append(terms)

    cover = _path_category_data(Quiver(vertices, tuple(arrows)),
                                lifted_relations, field)

    def strip(path: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(arrow_to_base[a] for a in path)

    object_map = {v: vertex_to_base[v] for v in cover.category.objects}
    hom_matrices = {}
    for (x, y), _ in cover.category.hom_basis.items():
        bx, by = object_map[x], object_map[y]
        cols = [base.class_of_path(bx, by, strip(p))
                for p in cover.survivors[(x, y)]]
        hom_matrices[(x, y)] = Matrix.from_columns(
            field, cols, base.category.dim(bx, by))
    return LinearFunctor(cover.category, base.category, object_map, hom_matrices)


# the triangle family ---------------------------------------------------------


def triangle_base(field: FieldSpec = QQ) -> LinearCategory:
    return base_category(triangle(), field)


def triangle_cover(n: int, field: FieldSpec = QQ) -> LinearFunctor:
    """The plain Z/n cover of the triangle: a_i ↦ a, b_i ↦ b, c_i ↦ c."""
    return cyclic_cover(triangle(), n, field)


def _replace_column(m: Matrix, j: int, column) -> Matrix:
    rows = [list(r) for r in m.entries]
    for i, c in enumerate(column):
        rows[i][j] = c
    return Matrix(m.field, m.nrows, m.ncols, tuple(tuple(r) for r in rows))


def triangle_cover_twisted(n: int, field: FieldSpec = QQ) -> LinearFunctor:
    """The triangle cover sending each long arrow a_i to a + c*b."""
    plain = triangle_cover(n, field)
    base = plain.target
    # coordinates of a + c*b in hom(t, s), whose basis is (a, c*b)
    twist = tuple(field.one for _ in range(base.dim("t", "s")))
    hom_matrices = dict(plain.hom_matrices)
    for i in range(n):
        key = (f"t{i}", f"s{(i + 1) % n}")
        basis = plain.source.hom(*key)
        j = basis.index(f"a{i}")
        hom_matrices[key] = _replace_column(hom_matrices[key], j, twist)
    return LinearFunctor(plain.source, base, plain.object_map, hom_matrices)


def kronecker_cover_twisted(field: FieldSpec = QQ) -> LinearFunctor:
    """The Kronecker double cover with the second sheet twisted: be1 maps to
    al + be.  A covering whose deck group is trivial, hence not Galois."""
    plain = cyclic_cover(kronecker(), 2, field)
    base = plain.target
    twist = (field.one, field.one)  # al + be in the (al, be) basis
    hom_matrices = dict(plain.hom_matrices)
    key = ("x1", "y0")
    j = plain.source.hom(*key).index("be1")
    hom_matrices[key] = _replace_column(hom_matrices[key], j, twist)
    return LinearFunctor(plain.source, base, plain.object_map, hom_matrices)
