"""Named example categories and coverings.

The central family: weighted acyclic quivers whose cyclic Z/n covers stay
connected, each read off its base as a smash product whose covering functor
forgets the sheet index.  On top of that sit two twisted variants used
throughout the test corpus: the triangle cover whose long arrow maps to
a + c*b, and the Kronecker double cover whose second sheet is twisted by
a + b (the standard witness of a covering that is not Galois)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConstructionError
from .exactalg import QQ, FieldSpec, Matrix
from .lincat import LinearCategory, Quiver, _path_category_data, _path_name, \
    category_from_model
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
    """The Z/n cover of a weighted quiver's path category B: the smash
    product B#Z/n, read off B.  Vertex v gets sheets v0..v(n-1); an arrow of
    weight w runs from sheet i to sheet i+w.  hom(b_i, c_j) is spanned by
    the lifts from sheet i of B(b, c)'s basis paths that end on sheet j, in
    B's order, and the functor sends each lift to its path."""
    if n < 1:
        raise ConstructionError("cover degree must be positive")
    for name, _, _ in wq.quiver.arrows:
        if type(wq.weights.get(name)) is not int:
            raise ConstructionError(f"arrow {name} has no integer weight")
    base = _path_category_data(wq.quiver, wq.relations, field)
    for rel in wq.relations:  # sheet 0 decides: from sheet i all ends move by i
        if len({_lift_term(wq.weights, n, 0, tuple(p))[1] for _, p in rel}) != 1:
            raise ConstructionError(
                f"weights of {wq.name} are inconsistent with its relations")
    # the lifted quiver, built for its checks of the sheets' names alone
    Quiver(tuple(f"{v}{i}" for v in wq.quiver.vertices for i in range(n)),
           tuple((f"{a}{i}", f"{s}{i}", f"{d}{(i + wq.weights[a]) % n}")
                 for a, s, d in wq.quiver.arrows for i in range(n)))

    # Each relation's terms end on one sheet, so B's ideal splits by weight
    # mod n, and so do its unique reduced echelon rows.  With B's order, the
    # lifted path category's survivors are exactly the lifts of B's
    # survivors, and a composite of lifts is the lift of B's composite: a
    # lift is modelled by its index in B(b, c), and a composite from sheet i
    # has B's structure constants at the lifts that end on its sheet.
    cat = base.category
    object_map = {f"{v}{i}": v for v in wq.quiver.vertices for i in range(n)}
    spaces: dict[tuple[str, str], list] = {}
    for (b, c), paths in base.survivors.items():
        for i in range(n):
            for k, path in enumerate(paths):
                lifted, j = _lift_term(wq.weights, n, i, path)
                spaces.setdefault((f"{b}{i}", f"{c}{j}"), []).append(
                    (_path_name(lifted, f"{b}{i}"), k))
    spaces = dict(sorted(spaces.items()))

    def product(x, y, z, u, v) -> tuple:
        b, c, d = object_map[x], object_map[y], object_map[z]
        f, g = cat.hom_basis[b, c][u], cat.hom_basis[c, d][v]
        return cat.composition.get((f, g)) or cat.zero_vector(b, d)

    def coords(x, z, w) -> tuple:
        got = tuple(w[k] for _, k in spaces.get((x, z), ()))
        if sum(map(bool, got)) != sum(map(bool, w)):  # zero exactly when falsy
            raise ConstructionError("a composite of lifts leaves its sheet")
        return got

    # B(b, b) is spanned by 1_b, as the quiver is acyclic; 1_(b_i) lifts it
    cover = category_from_model(field, object_map, spaces, {
        x: cat.identity[b] for x, b in object_map.items()}, product, coords)
    # F is built trusted: it sends each sheet b_i to b, and hom(b_i, c_j)'s
    # matrix has B(b, c)'s rows and, per lift, the unit column at its path.
    hom_matrices = {}
    for (x, y), basis in spaces.items():
        rows = cat.dim(object_map[x], object_map[y])
        hom_matrices[(x, y)] = Matrix._trusted(field, rows, len(basis), tuple(
            tuple(field.one if k == t else field.zero for _, k in basis)
            for t in range(rows)))
    return LinearFunctor._trusted(cover, cat, object_map, hom_matrices)


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


def _twisted(plain: LinearFunctor, lifts) -> LinearFunctor:
    """``plain`` with each lift in ``lifts`` sent to (1, 1) in its base hom."""
    one, hom_matrices = plain.source.field.one, dict(plain.hom_matrices)
    for lift in lifts:
        x, y, j = plain.source.basis_location[lift]
        hom_matrices[(x, y)] = _replace_column(hom_matrices[(x, y)], j, (one, one))
    return replace(plain, hom_matrices=hom_matrices)


def triangle_cover_twisted(n: int, field: FieldSpec = QQ) -> LinearFunctor:
    """The triangle cover sending each long arrow a_i to a + c*b."""
    return _twisted(triangle_cover(n, field), [f"a{i}" for i in range(n)])


def kronecker_cover_twisted(field: FieldSpec = QQ) -> LinearFunctor:
    """The Kronecker double cover with the second sheet twisted: be1 maps to
    al + be.  A covering whose deck group is trivial, hence not Galois."""
    return _twisted(cyclic_cover(kronecker(), 2, field), ["be1"])
