"""Finite k-linear categories: data model, builders, validation, components.

A category is stored by its ordered hom bases and composition structure
constants.  Zero hom spaces are represented by absence; the graph of
non-zero homs is indexed once per category (``out_of``, ``into``), and every
walk over composable pairs, connectivity pass and fibre block reads it there.
Its connected components are walked once per category (``_components``).
The non-zero structure constants are indexed once too (``_after``): every
composite, the validators included, is summed over that table.
Object identifiers are strings and every enumeration is in lexicographic
order, which keeps all downstream outputs deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConstructionError
from .exactalg import FieldSpec, Matrix, echelon_basis, express_in_echelon

__all__ = [
    "LinearCategory",
    "Quiver",
    "Violation",
    "ValidationReport",
    "validate_category",
    "path_category",
    "category_from_algebra",
    "connected_components",
    "product_with_set",
]


@dataclass(frozen=True)
class LinearCategory:
    """A finite k-linear category with chosen ordered hom bases.

    ``hom_basis`` maps (src, dst) to the ordered tuple of basis-morphism
    names; a missing pair is the zero hom space.  ``identity[x]`` holds the
    coordinates of 1_x in hom_basis[(x, x)].  ``composition[(f, g)]`` holds
    the coordinates of g∘f in hom_basis[(src f, dst g)]; missing entries are
    zero.  Basis names are unique across the whole category so that the
    composition table is unambiguous.
    """

    field: FieldSpec
    objects: tuple[str, ...]
    hom_basis: dict[tuple[str, str], tuple[str, ...]]
    identity: dict[str, tuple]
    composition: dict[tuple[str, str], tuple]

    def __post_init__(self):
        objs = tuple(sorted(self.objects))
        seen = _check_tables(self.field, objs, self.hom_basis, self.identity)
        object.__setattr__(self, "objects", objs)
        hom, zero, cleaned = self.hom_basis, self.field.zero, {}
        for (f, g), coords in self.composition.items():
            if f not in seen or g not in seen:
                raise ConstructionError(f"composition ({f},{g}) references unknown morphism")
            (xf, yf), (xg, yg) = seen[f], seen[g]
            if yf != xg:
                raise _not_composable(f, g)
            dim = len(hom.get((xf, yg), ()))
            if dim == 0:
                if any(c != zero for c in coords):
                    raise ConstructionError(
                        f"composition ({f},{g}) lands in the zero hom ({xf},{yg})")
                continue
            if len(coords) != dim:
                raise ConstructionError(f"composition ({f},{g}) has wrong length")
            if any(c != zero for c in coords):
                cleaned[(f, g)] = tuple(coords)
        object.__setattr__(self, "composition", cleaned)

    @classmethod
    def _trusted(cls, field: FieldSpec, objects: Iterable[str],
                 hom_basis: dict[tuple[str, str], tuple[str, ...]],
                 identity: dict[str, tuple],
                 composition: dict[tuple[str, str], tuple]) -> LinearCategory:
        """A LinearCategory built without ``__post_init__``: its objects
        sorted, its tables neither checked nor copied.  For
        ``category_from_model`` and ``documents.category_from_json``, which
        make the table checks through ``_check_tables``; the one argues its
        composition table, the other checks it."""
        cat = object.__new__(cls)
        cat.__dict__.update(field=field, objects=tuple(sorted(objects)),
                            hom_basis=hom_basis, identity=identity,
                            composition=composition)
        return cat

    @cached_property
    def basis_location(self) -> dict[str, tuple[str, str, int]]:
        out = {}
        for (x, y), basis in self.hom_basis.items():
            for i, name in enumerate(basis):
                out[name] = (x, y, i)
        return out

    @cached_property
    def out_of(self) -> dict[str, list[tuple[str, str]]]:
        """The non-zero hom pairs (x, y), sorted, grouped by x."""
        return by_source(sorted(self.hom_basis))

    @cached_property
    def into(self) -> dict[str, list[tuple[str, str]]]:
        """The non-zero hom pairs (x, y) as (y, x), sorted, grouped by y."""
        return by_source((y, x) for x, y in sorted(self.hom_basis))

    @cached_property
    def _components(self) -> tuple[tuple[str, ...], ...]:
        """``connected_components(self)``'s partition, walked once."""
        out_of, into = self.out_of, self.into
        return _walk_components(self.objects, lambda v: [
            w for _, w in out_of[v] + into[v]])

    @cached_property
    def _after(self) -> dict[str, dict[str, tuple]]:
        """The non-zero structure constants: ``_after[f][g]`` holds the
        non-zero coordinates of g∘f as (index, coefficient) pairs, for each
        g with g∘f ≠ 0; an f with no such g is absent."""
        zero = self.field.zero
        table: dict[str, dict[str, tuple]] = {}
        for (f, g), coords in self.composition.items():
            table.setdefault(f, {})[g] = tuple(
                (t, c) for t, c in enumerate(coords) if c != zero)
        return table

    # queries --------------------------------------------------------------

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self.hom_basis.get((x, y), ())

    def dim(self, x: str, y: str) -> int:
        return len(self.hom_basis.get((x, y), ()))

    def total_dim(self) -> int:
        return sum(len(b) for b in self.hom_basis.values())

    def zero_vector(self, x: str, y: str) -> tuple:
        return (self.field.zero,) * self.dim(x, y)

    def basis_vector(self, name: str) -> tuple:
        x, y, i = self.basis_location[name]
        return tuple(self.field.one if j == i else self.field.zero
                     for j in range(self.dim(x, y)))

    # composition ----------------------------------------------------------

    def compose_vectors(self, x: str, y: str, z: str, fvec, gvec) -> tuple:
        """Bilinear composite of f: x→y and g: y→z given by coordinates."""
        k = self.field
        zero, add, mul = k.zero, k.add, k.mul
        out = [zero] * self.dim(x, z)
        after = self._after
        gterms = [(g, gc) for g, gc in zip(self.hom(y, z), gvec) if gc != zero]
        for f, fc in zip(self.hom(x, y), fvec):
            row = after.get(f)
            if row is None or fc == zero:
                continue
            for g, gc in gterms:
                coords = row.get(g)
                if coords is None:
                    continue
                s = mul(fc, gc)
                for t, c in coords:
                    out[t] = add(out[t], mul(s, c))
        return tuple(out)


def _check_tables(field: FieldSpec, objects: tuple[str, ...],
                  hom_basis: Mapping[tuple[str, str], tuple[str, ...]],
                  identity: Mapping[str, tuple]) -> dict[str, tuple[str, str]]:
    """``LinearCategory``'s checks of its sorted ``objects``, hom bases and
    identities, in its order; the constructor, ``category_from_model`` and
    ``documents.category_from_json`` all make them here.  Returns the hom
    (x, y) of each basis name."""
    oset = set(objects)
    if len(oset) != len(objects):
        raise ConstructionError("duplicate object names")
    seen = {}
    for (x, y), basis in hom_basis.items():
        if x not in oset or y not in oset:
            raise ConstructionError(f"hom ({x},{y}) references unknown object")
        if not basis:
            raise ConstructionError(f"hom ({x},{y}) present but empty; omit it")
        for name in basis:
            if name in seen:
                raise ConstructionError(
                    f"basis name {name!r} reused in ({x},{y}) and {seen[name]}")
            seen[name] = (x, y)
    for x in objects:
        basis = hom_basis.get((x, x))
        if basis is None:
            raise ConstructionError(f"object {x} has no endomorphism space")
        coords = identity.get(x)
        if coords is None or len(coords) != len(basis):
            raise ConstructionError(f"identity coordinates missing or wrong size at {x}")
        if coords.count(field.zero) == len(coords):
            raise ConstructionError(f"identity at {x} is zero")
    return seen


def _not_composable(f: str, g: str) -> ConstructionError:
    return ConstructionError(f"composition ({f},{g}) is not composable")


def by_source(keys: Iterable[tuple]) -> dict:
    """Index (src, dst, ...) keys by src, keeping their order within each src.

    Walking ``for key in keys: for nxt in index.get(key[1], ())`` visits the
    composable pairs in the order of a quadratic scan of ``keys`` that skips
    pairs with ``nxt[0] != key[1]``.
    """
    index: dict = {}
    for key in keys:
        index.setdefault(key[0], []).append(key)
    return index


def category_from_model(field: FieldSpec, objects: Iterable[str],
                        spaces: Mapping[tuple[str, str], tuple],
                        identity: dict[str, tuple],
                        product: Callable, coords: Callable) -> LinearCategory:
    """The category whose hom spaces are spanned by elements of a model.

    ``spaces[(x, y)]`` lists (basis name, model element) for each non-zero
    hom space, in basis order, and ``identity[x]`` holds the coordinates of
    1_x.  ``product(x, y, z, u, v)`` is the model element of v∘u for u in
    hom(x, y) and v in hom(y, z); ``coords(x, z, w)`` gives the coordinates
    of a model element w in hom(x, z), one per basis element, ``()`` when
    that hom space is absent and w is zero, and raises when it is absent
    and w is not.  The composition table keeps the non-zero composites of
    basis pairs.

    The category is built trusted (``LinearCategory._trusted``).  The
    constructor's checks of objects, hom bases and identities are made
    here, after the walk, by ``_check_tables``.  The composition table
    needs none: the walk composes only composable basis pairs, ``coords``
    gives each composite at its hom space's length or raises for one in an
    absent hom, and zeros are dropped.
    """
    composition = {}
    out_of = by_source(spaces)
    for (x, y), fbasis in spaces.items():
        for (_, z) in out_of.get(y, ()):
            gbasis = spaces[(y, z)]
            for fname, u in fbasis:
                for gname, v in gbasis:
                    got = coords(x, z, product(x, y, z, u, v))
                    # scalars are ints and Fractions: zero exactly when falsy
                    if any(got):
                        composition[(fname, gname)] = got
    hom_basis = {pair: tuple(name for name, _ in basis)
                 for pair, basis in spaces.items()}
    objects = tuple(sorted(objects))
    _check_tables(field, objects, hom_basis, identity)
    return LinearCategory._trusted(field, objects, hom_basis, identity,
                                   composition)


def echelon_coords(field: FieldSpec, echelons: Mapping[tuple[str, str], tuple],
                   escaped: Exception) -> Callable:
    """A ``coords`` map for ``category_from_model`` over hom spaces given as
    (reduced echelon rows, pivots); ``escaped`` is raised for a non-zero
    element of an absent hom space, or one outside a present hom space."""
    def coords(x: str, z: str, w) -> tuple:
        target = echelons.get((x, z))
        if target is not None:
            try:
                return express_in_echelon(target[0], target[1], w, field)
            except ValueError as exc:
                raise escaped from exc
        if any(c != field.zero for c in w):
            raise escaped
        return ()
    return coords


# validation ---------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def _sparse_sum(field: FieldSpec, terms: list) -> tuple:
    """Σ s·v over (s, v) in ``terms``, each s non-zero and each v given by
    its non-zero (index, coefficient) pairs in index order, or None for
    zero.  The sum is given the same way, so two sums are equal exactly
    when their vectors are.  A product of non-zero scalars is non-zero, so
    a single term needs no check for zeros."""
    if len(terms) == 1:
        s, coords = terms[0]
        if not coords:
            return ()
        if s == field.one:
            return coords
        return tuple((t, field.mul(s, c)) for t, c in coords)
    zero, add, mul = field.zero, field.add, field.mul
    acc: dict = {}
    for s, coords in terms:
        if coords:
            for t, c in coords:
                acc[t] = add(acc.get(t, zero), mul(s, c))
    return tuple(sorted((t, c) for t, c in acc.items() if c != zero))


def validate_category(cat: LinearCategory) -> ValidationReport:
    """Check associativity, two-sided units and centrality of identities.

    Structural problems are rejected at construction time; this reports the
    semantic axioms, listing every violation with its witnessing basis tuple.
    Units come first, in sorted hom order, then centrality per object, then
    associativity in (x, y, z, w, f, g, h) order.  Every composite is summed
    over the table of non-zero structure constants.
    """
    problems = []
    k = cat.field
    after = cat._after
    no_composites: dict = {}
    units = {x: [(e, c) for e, c in zip(cat.hom(x, x), coords) if c != k.zero]
             for x, coords in cat.identity.items()}

    # 1_y∘f and f∘1_x, summed over the non-zero coordinates of the identities
    left, right = {}, {}
    for (x, y), basis in sorted(cat.hom_basis.items()):
        for i, f in enumerate(basis):
            frow = after.get(f, no_composites)
            left[f] = _sparse_sum(k, [(c, frow.get(e)) for e, c in units[y]])
            right[f] = _sparse_sum(k, [(c, after.get(e, no_composites).get(f))
                                       for e, c in units[x]])
            unit = ((i, k.one),)
            if left[f] != unit:
                problems.append(Violation("left-unit", (f,),
                                          f"1_{y}∘{f} differs from {f}"))
            if right[f] != unit:
                problems.append(Violation("right-unit", (f,),
                                          f"{f}∘1_{x} differs from {f}"))

    # For e in hom(x, x), 1_x∘e is e's left-unit value and e∘1_x its
    # right-unit value, so centrality compares the two; it needs no product.
    for x in cat.objects:
        for e in cat.hom(x, x):
            if left[e] != right[e]:
                problems.append(Violation("centrality", (e,),
                                          f"1_{x} does not commute with {e}"))

    # A triple (f, g, h) with g∘f = 0 and h∘g = 0 has h∘(g∘f) = 0 and
    # (h∘g)∘f = 0, so it cannot break associativity.  The walk over the
    # composable pairs (f, g) checks every h out of z when g∘f ≠ 0, and
    # otherwise only the h with h∘g ≠ 0.  Violations are sorted back into
    # the order of a scan over (x, y, z, w, f, g, h).
    out_of, hom, location = cat.out_of, cat.hom_basis, cat.basis_location
    leaving = {z: [h for pair in out_of[z] for h in hom[pair]]
               for z in cat.objects}
    broken = []
    for (x, y), fbasis in hom.items():
        for _, z in out_of[y]:
            gbasis, xz = hom[(y, z)], hom.get((x, z), ())
            for f in fbasis:
                frow = after.get(f, no_composites)
                for g in gbasis:
                    grow = after.get(g, no_composites)
                    gf = frow.get(g)
                    for h in (grow if gf is None else leaving[z]):
                        hg = grow.get(h)
                        lhs = () if gf is None else _sparse_sum(k, [
                            (c, after.get(xz[t], no_composites).get(h))
                            for t, c in gf])
                        rhs = () if hg is None else _sparse_sum(k, [
                            (c, frow.get(hom[(y, location[h][1])][s]))
                            for s, c in hg])
                        if lhs != rhs:
                            key = (x, y, z, location[h][1], location[f][2],
                                   location[g][2], location[h][2])
                            broken.append((key, Violation(
                                "associativity", (f, g, h),
                                f"(h∘g)∘f ≠ h∘(g∘f) for ({f},{g},{h})")))
    broken.sort(key=lambda item: item[0])
    problems.extend(v for _, v in broken)
    return ValidationReport(not problems, tuple(problems))


# quivers and path categories ----------------------------------------------


@dataclass(frozen=True)
class Quiver:
    """A finite acyclic quiver: arrows are (name, src, dst) triples."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple(tuple(a) for a in self.arrows))
        if len(set(self.vertices)) != len(self.vertices):
            raise ConstructionError("duplicate vertex names")
        vset = set(self.vertices)
        names = set()
        for name, src, dst in self.arrows:
            if src not in vset or dst not in vset:
                raise ConstructionError(f"arrow {name} has endpoints outside the quiver")
            if name in names:
                raise ConstructionError(f"duplicate arrow name {name}")
            names.add(name)
        if self._has_cycle():
            raise ConstructionError("quiver has a directed cycle")

    def _has_cycle(self) -> bool:
        indeg = {v: 0 for v in self.vertices}
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for _, src, dst in self.arrows:
            indeg[dst] += 1
            out[src].append(dst)
        queue = deque(v for v in self.vertices if indeg[v] == 0)
        seen = 0
        while queue:
            v = queue.popleft()
            seen += 1
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return seen != len(self.vertices)

    def arrow_map(self) -> dict[str, tuple[str, str]]:
        return {name: (src, dst) for name, src, dst in self.arrows}


# Most paths a quiver may have: path categories are built from dense path
# coordinates, and a chain or a row of diamonds would otherwise make the
# enumeration run out of memory or time.
PATH_BUDGET = 5_000


def _path_name(arrows: tuple[str, ...], vertex: str) -> str:
    return f"1_{vertex}" if not arrows else "*".join(arrows)


def _enumerate_paths(q: Quiver) -> dict[tuple[str, str], list[tuple[str, ...]]]:
    """All directed paths, keyed by (src, dst), as arrow tuples in composition
    order (last arrow first); the empty tuple is the trivial path.  More
    than PATH_BUDGET paths in all is a ConstructionError."""
    ends = q.arrow_map()
    out_arrows: dict[str, list[str]] = {v: [] for v in q.vertices}
    for name, src, _ in q.arrows:
        out_arrows[src].append(name)
    for v in out_arrows:
        out_arrows[v].sort(reverse=True)  # popped from a stack in name order

    paths: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    total = 0
    for v in q.vertices:
        stack = [(v, ())]
        while stack:
            current, arrows = stack.pop()
            total += 1
            if total > PATH_BUDGET:
                raise ConstructionError(
                    f"quiver has more than {PATH_BUDGET} paths")
            paths.setdefault((v, current), []).append(arrows)
            stack.extend((ends[a][1], (a,) + arrows) for a in out_arrows[current])
    for key in paths:
        x, _ = key
        paths[key].sort(key=lambda p: (len(p), _path_name(p, x)))
    return paths


def path_category(q: Quiver, relations: Sequence[Sequence[tuple]],
                  field: FieldSpec) -> LinearCategory:
    """The path category of an acyclic quiver modulo linear relations.

    Each relation is a sequence of (coefficient, path) terms, a path being a
    list of arrow names in composition order (["c", "b"] is c∘b).  All terms
    of one relation must be parallel paths.  Hom bases are the canonical
    echelon complements of the two-sided ideal the relations generate.
    """
    return _path_category_data(q, relations, field).category


@dataclass(frozen=True)
class PathCategoryData:
    """A path category plus the surviving (basis) paths per hom pair, which
    its covers lift, and ``class_of_path(x, y, arrows)``, the quotient
    coordinates of a path from x to y."""

    category: LinearCategory
    survivors: dict
    class_of_path: Callable


def _path_category_data(q: Quiver, relations: Sequence[Sequence[tuple]],
                        field: FieldSpec) -> PathCategoryData:
    ends = q.arrow_map()
    paths = _enumerate_paths(q)

    def path_endpoints(arrows: Sequence[str]) -> tuple[str, str]:
        if not arrows:
            raise ConstructionError("relation terms must name at least one arrow")
        for a in arrows:
            if a not in ends:
                raise ConstructionError(f"relation references unknown arrow {a}")
        src = ends[arrows[-1]][0]
        cur = src
        for a in reversed(arrows):
            if ends[a][0] != cur:
                raise ConstructionError(f"relation path {list(arrows)} is not composable")
            cur = ends[a][1]
        return src, cur

    # relation vectors in path coordinates, keyed by hom pair
    rel_vectors: dict[tuple[str, str], list[list]] = {}
    parsed_relations = []
    for rel in relations:
        if not rel:
            continue
        terms = []
        span = None
        for coeff, arrow_list in rel:
            arrows = tuple(arrow_list)
            endpoints = path_endpoints(arrows)
            if span is None:
                span = endpoints
            elif endpoints != span:
                raise ConstructionError("relation mixes non-parallel paths")
            terms.append((field.scalar(coeff), arrows))
        parsed_relations.append((span, terms))

    # path -> position, per hom pair, for vector_of and class_of_path
    index = {span: {p: i for i, p in enumerate(plist)}
             for span, plist in paths.items()}

    def vector_of(span, terms) -> list:
        at = index[span]
        v = [field.zero] * len(at)
        for coeff, arrows in terms:
            v[at[arrows]] = field.add(v[at[arrows]], coeff)
        return v

    # close the relations under pre/post composition by all paths
    paths_from = by_source(paths)
    paths_into = by_source((y, x) for (x, y) in paths)
    for (x, y), terms in parsed_relations:
        for (_, u) in paths_into[x]:
            for pre in paths[(u, x)]:
                for (_, v) in paths_from[y]:
                    for post in paths[(y, v)]:
                        shifted = [(c, post + arrows + pre) for c, arrows in terms]
                        rel_vectors.setdefault((u, v), []).append(
                            vector_of((u, v), shifted))

    # per hom pair: the surviving paths, and the class of every path, read
    # off the reduced ideal rows.  A survivor is a unit vector.  A row is 1
    # at its pivot and 0 at every other pivot, so the path at its pivot,
    # less the row, lies on the survivors: its class is minus the row there.
    survivors: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    classes: dict[tuple[str, str], list[tuple]] = {}
    for (x, y), plist in sorted(paths.items()):
        rows, pivots = echelon_basis(field, rel_vectors.get((x, y), ()))
        pivot_set = set(pivots)
        free = [i for i in range(len(plist)) if i not in pivot_set]
        if not free:
            continue
        survivors[(x, y)] = [plist[i] for i in free]
        cls = [None] * len(plist)
        for k, i in enumerate(free):
            cls[i] = tuple(field.one if j == k else field.zero
                           for j in range(len(free)))
        for row, pc in zip(rows, pivots):
            cls[pc] = tuple(field.neg(row[i]) for i in free)
        classes[(x, y)] = cls

    def class_of_path(x: str, y: str, arrows: tuple[str, ...]) -> tuple:
        cls = classes.get((x, y))
        # () when the relations kill every path from x to y
        return () if cls is None else cls[index[(x, y)][arrows]]

    identity: dict[str, tuple] = {}
    for x in q.vertices:
        coords = class_of_path(x, x, ())
        if all(c == field.zero for c in coords):
            raise ConstructionError(f"relations annihilate the identity at {x}")
        identity[x] = coords

    spaces = {(x, y): tuple((_path_name(p, x), p) for p in keep)
              for (x, y), keep in survivors.items()}
    category = category_from_model(field, q.vertices, spaces, identity,
                                   lambda x, y, z, fp, gp: gp + fp,
                                   class_of_path)
    return PathCategoryData(category, survivors, class_of_path)


# categories from algebras ---------------------------------------------------


def category_from_algebra(field: FieldSpec, basis: Sequence[str],
                          mult: Mapping[tuple[str, str], Mapping[str, object]],
                          idempotents: Sequence[tuple[str, Sequence]],
                          ) -> LinearCategory:
    """The category with objects a complete orthogonal idempotent set E of a
    finite-dimensional algebra A and hom spaces f·A·e.

    ``mult[(a, b)]`` gives the product a·b as a sparse {basis name: coeff}
    mapping.  Idempotency, orthogonality and summing to the unit of A are
    verified exactly before anything is built.
    """
    basis = list(basis)
    if len(set(basis)) != len(basis):
        raise ConstructionError("duplicate algebra basis names")
    n = len(basis)
    index = {b: i for i, b in enumerate(basis)}

    table = {}
    for (a, b), result in mult.items():
        if a not in index or b not in index or not result.keys() <= index.keys():
            raise ConstructionError(f"multiplication ({a},{b}) references unknown basis")
        vec = [field.zero] * n
        for name, coeff in result.items():
            vec[index[name]] = field.add(vec[index[name]], field.scalar(coeff))
        table[(index[a], index[b])] = tuple(vec)

    zero = (field.zero,) * n

    def mul_basis(i: int, j: int) -> tuple:
        return table.get((i, j), zero)

    def mul_vec(u, v) -> tuple:
        # product u·v in A coordinates
        out = [field.zero] * n
        for i, uc in enumerate(u):
            if uc == field.zero:
                continue
            for j, vc in enumerate(v):
                if vc == field.zero:
                    continue
                s = field.mul(uc, vc)
                for t, c in enumerate(mul_basis(i, j)):
                    out[t] = field.add(out[t], field.mul(s, c))

        return tuple(out)

    idems = [(name, tuple(field.scalar(c) for c in coords))
             for name, coords in idempotents]
    if len(set(name for name, _ in idems)) != len(idems):
        raise ConstructionError("duplicate idempotent names")
    for name, e in idems:
        if len(e) != n:
            raise ConstructionError(f"idempotent {name} has wrong length")
        if mul_vec(e, e) != e:
            raise ConstructionError(f"{name} is not idempotent")
    for i, (na, ea) in enumerate(idems):
        for nb, eb in idems[i + 1:]:
            if any(c != field.zero for c in mul_vec(ea, eb)) or \
               any(c != field.zero for c in mul_vec(eb, ea)):
                raise ConstructionError(f"idempotents {na} and {nb} are not orthogonal")
    unit = [field.zero] * n
    for _, e in idems:
        unit = [field.add(a, b) for a, b in zip(unit, e)]
    unit = tuple(unit)
    for i, b in enumerate(basis):
        bvec = tuple(field.one if j == i else field.zero for j in range(n))
        if mul_vec(unit, bvec) != bvec or mul_vec(bvec, unit) != bvec:
            raise ConstructionError("idempotents do not sum to the unit of A")

    # per hom pair: echelon rows (vectors in A coordinates) and their pivots
    echelons: dict[tuple[str, str], tuple] = {}
    for ne, e in idems:
        for nf, f in idems:
            spanning = []
            for i in range(n):
                bvec = tuple(field.one if j == i else field.zero for j in range(n))
                spanning.append(mul_vec(f, mul_vec(bvec, e)))
            rows, pivots = echelon_basis(field, spanning)
            if rows:
                echelons[(ne, nf)] = (rows, pivots)

    coords = echelon_coords(field, echelons, ConstructionError(
        "algebra product escapes its computed hom space"))
    spaces = {(ne, nf): tuple((f"{ne}>{nf}:{i}", row) for i, row in enumerate(rows))
              for (ne, nf), (rows, _) in echelons.items()}
    identity = {ne: coords(ne, ne, e) for ne, e in idems}
    # v∘u is the algebra product v·u
    return category_from_model(field, (name for name, _ in idems), spaces,
                               identity, lambda x, y, z, u, v: mul_vec(v, u),
                               coords)


# connectedness --------------------------------------------------------------


def connected_components(cat: LinearCategory) -> tuple[tuple[tuple[str, ...], ...], bool]:
    """Partition of objects by non-zero-walk reachability, plus a connected
    flag; read off the category's cached walk."""
    parts = cat._components
    return parts, len(parts) == 1


def _walk_components(objects: Iterable[str],
                     neighbours: Callable[[str], Iterable[str]],
                     ) -> tuple[tuple[str, ...], ...]:
    """The classes of ``objects`` under reachability along ``neighbours``,
    each sorted, ordered by their least members."""
    seen = set()
    parts = []
    for start in objects:
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in neighbours(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        parts.append(tuple(sorted(comp)))
    parts.sort(key=lambda part: part[0])
    return tuple(parts)


# product with a set ---------------------------------------------------------


def product_with_set(cat: LinearCategory, labels: Iterable[str]):
    """The product category B×E together with its projection onto B.

    Objects are (x, e) pairs; homs copy B within one label and vanish across
    labels.  Returns (category, projection functor).
    """
    labels = sorted(str(l) for l in labels)
    if not labels:
        raise ConstructionError("the label set must be non-empty")
    if len(set(labels)) != len(labels):
        raise ConstructionError("duplicate labels")

    def obj(x: str, l: str) -> str:
        return f"({x},{l})"

    def mor(name: str, l: str) -> str:
        return f"({name},{l})"

    hom_basis = {}
    identity = {}
    composition = {}
    for l in labels:
        for (x, y), basis in cat.hom_basis.items():
            hom_basis[(obj(x, l), obj(y, l))] = tuple(mor(b, l) for b in basis)
        for x in cat.objects:
            identity[obj(x, l)] = cat.identity[x]
        for (f, g), coords in cat.composition.items():
            composition[(mor(f, l), mor(g, l))] = coords

    product = LinearCategory(cat.field,
                             tuple(obj(x, l) for x in cat.objects for l in labels),
                             hom_basis, identity, composition)

    from .linfun import LinearFunctor  # local import to avoid a module cycle
    object_map = {obj(x, l): x for x in cat.objects for l in labels}
    hom_matrices = {}
    for l in labels:
        for (x, y), basis in cat.hom_basis.items():
            hom_matrices[(obj(x, l), obj(y, l))] = Matrix.identity(cat.field, len(basis))
    projection = LinearFunctor(product, cat, object_map, hom_matrices)
    return product, projection
