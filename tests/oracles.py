"""Independent oracles for the test suite.

Nothing here calls the echelon/kernel routines, the covering checker, or
the lift construction being tested: row reduction is a separate textbook
implementation, connectivity is a fresh BFS, star dimensions are summed
straight off the hom bases, fibre blocks are found by a scan of every
source hom, path classes are checked against the relation
ideal closed over a fresh path walk, lifts are found by exhaustive
backtracking over fibre-constrained object maps with per-hom linear solves
(and by the deck-lift rule, with dense products through fibre blocks
inverted by textbook solves), and mediating functors are found by
brute-force coordinate solving.  Deck groups are closed over every pair of
their object maps; that oracle is of the closure alone, so it takes its
lifts from ``lift_endofunctor``, which the lift oracles check.  The
quotient by a deck group is composed in the source, each element's matrix
applied to coordinates, and not in the base through the covering's blocks.
The structure isomorphism is built by applying F to each quotient basis
vector and re-proved with ``compose``, ``functor_equal`` and
``is_isomorphism``, not read off the covering's blocks.
Category and functor axioms are checked by a dense scan over every basis
tuple, composing straight from the composition table, never through
``compose_vectors`` or the validators' own index of non-zero composites.
Sections of a trivial covering are built per component from the full
subcategory and ``is_isomorphism``, not from the object count that
``is_trivial_covering`` decides by.  Group-graded covers, whose deck groups
are known from group theory, are built over permutation tuples.  Functors
from free quivers onto Kronecker bases, with a chosen matrix on hom(x, y),
feed the fibre-product suites.  Cyclic covers are also built the long way,
as the path category of the lifted quiver modulo the lifted relations, with
F read back through the base's path classes, not off the base's tables.
A valid functor onto a valid category that kills the one hom space where
its source breaks associativity shows when the source must still be
scanned.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from covcat.errors import ConstructionError, CovcatError
from covcat.exactalg import GF, QQ, FieldSpec, Matrix
from covcat.examples import WeightedQuiver, _lift_term, cyclic_cover, kronecker
from covcat.galois import is_galois, lift_endofunctor, quotient_by_group
from covcat.lincat import LinearCategory, Quiver, _path_category_data, \
    category_from_model, path_category, product_with_set
from covcat.linfun import LinearFunctor, compose, functor_equal, \
    is_isomorphism


# textbook row reduction (forward elimination, no normalization) --------------


def naive_echelon(rows, field: FieldSpec):
    """Plain Gaussian elimination to row echelon form; returns (rows, rank)."""
    m = [list(r) for r in rows]
    if not m:
        return [], 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col] == field.zero:
                continue
            factor = field.div(m[i][col], m[rank][col])
            m[i] = [field.sub(a, field.mul(factor, b))
                    for a, b in zip(m[i], m[rank])]
        rank += 1
    return m[:rank], rank


def naive_rank(rows, field: FieldSpec) -> int:
    return naive_echelon(rows, field)[1]


def matrix_sum(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise sum of two matrices of one shape over one field."""
    assert (a.field, a.nrows, a.ncols) == (b.field, b.nrows, b.ncols)
    k = a.field
    return Matrix(k, a.nrows, a.ncols,
                  tuple(tuple(k.add(x, y) for x, y in zip(r, s))
                        for r, s in zip(a.entries, b.entries)))


def naive_solve_unique(a_rows, b, field: FieldSpec):
    """Solve A·x = b when A has full column rank; None if inconsistent.

    Raises if the system is underdetermined, because then a unique answer
    cannot honestly be reported.
    """
    if not a_rows:
        return ()
    ncols = len(a_rows[0])
    aug = [list(row) + [bb] for row, bb in zip(a_rows, b)]
    reduced, _ = naive_echelon(aug, field)
    # locate pivots
    pivots = []
    for row in reduced:
        for j, v in enumerate(row):
            if v != field.zero:
                pivots.append(j)
                break
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    if len(pivots) < ncols:
        raise ValueError("underdetermined system; oracle demands injectivity")
    x = [field.zero] * ncols
    for i in reversed(range(len(pivots))):
        col = pivots[i]
        row = reduced[i]
        acc = row[ncols]
        for j in range(col + 1, ncols):
            acc = field.sub(acc, field.mul(row[j], x[j]))
        x[col] = field.div(acc, row[col])
    return tuple(x)


# path counting ----------------------------------------------------------------


def count_paths(q: Quiver) -> dict:
    """Number of directed paths between each ordered vertex pair, trivial
    paths included on the diagonal."""
    outgoing = {v: [] for v in q.vertices}
    for name, src, dst in q.arrows:
        outgoing[src].append(dst)
    counts = {}

    def walk(start, current):
        counts[(start, current)] = counts.get((start, current), 0) + 1
        for nxt in outgoing[current]:
            walk(start, nxt)

    for v in q.vertices:
        walk(v, v)
    return counts


def quiver_paths(q: Quiver) -> dict:
    """Every directed path, as its arrows in composition order (last arrow
    first), keyed by its (src, dst); the empty tuple is the trivial path."""
    outgoing = {v: [] for v in q.vertices}
    for name, src, dst in q.arrows:
        outgoing[src].append((name, dst))
    paths = {}

    def walk(start, current, arrows):
        paths.setdefault((start, current), []).append(arrows)
        for name, nxt in outgoing[current]:
            walk(start, nxt, (name,) + arrows)

    for v in q.vertices:
        walk(v, v, ())
    return paths


def relation_ideal(q: Quiver, relations, field: FieldSpec) -> dict:
    """The two-sided ideal the relations generate, per hom pair (x, y): a
    spanning list of {path: coefficient} maps, each a relation composed
    with a path before it and a path after it."""
    ends = {name: (src, dst) for name, src, dst in q.arrows}
    paths = quiver_paths(q)
    ideal = {}
    for rel in relations:
        first = tuple(rel[0][1])
        x, y = ends[first[-1]][0], ends[first[0]][1]
        for (u, x2), pres in paths.items():
            for (y2, v), posts in paths.items():
                if x2 != x or y2 != y:
                    continue
                for pre in pres:
                    for post in posts:
                        vec = {}
                        for coeff, path in rel:
                            key = post + tuple(path) + pre
                            vec[key] = field.add(vec.get(key, field.zero),
                                                 field.scalar(coeff))
                        ideal.setdefault((u, v), []).append(vec)
    return ideal


# connectivity ------------------------------------------------------------------


def bfs_components(cat: LinearCategory):
    """Connected components via a fresh breadth-first search."""
    neighbours = {x: set() for x in cat.objects}
    for (x, y) in cat.hom_basis:
        neighbours[x].add(y)
        neighbours[y].add(x)
    remaining = set(cat.objects)
    parts = []
    while remaining:
        start = min(remaining)
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(neighbours[v] - comp)
        parts.append(tuple(sorted(comp)))
        remaining -= comp
    return tuple(sorted(parts, key=lambda p: p[0]))


# full subcategories ------------------------------------------------------------


def full_subcategory(cat: LinearCategory, objects: Iterable[str]):
    """The full subcategory on a subset of objects, with its inclusion functor:
    what coverings are pulled back along, and a covering's restriction to
    one component."""
    objs = sorted(set(objects))
    for x in objs:
        if x not in cat.objects:
            raise ConstructionError(f"unknown object {x}")
    keep = set(objs)
    hom_basis = {pair: basis for pair, basis in cat.hom_basis.items()
                 if pair[0] in keep and pair[1] in keep}
    names = {name for basis in hom_basis.values() for name in basis}
    identity = {x: cat.identity[x] for x in objs}
    composition = {(f, g): coords for (f, g), coords in cat.composition.items()
                   if f in names and g in names}
    sub = LinearCategory(cat.field, tuple(objs), hom_basis, identity, composition)
    hom_matrices = {pair: Matrix.identity(cat.field, len(basis))
                    for pair, basis in hom_basis.items()}
    return sub, LinearFunctor(sub, cat, {x: x for x in objs}, hom_matrices)


# sections of a covering ----------------------------------------------------------


def sections_by_restriction(fun: LinearFunctor):
    """(components, sections, failing component) for a covering: F on the
    full subcategory of each connected component (fresh BFS) is inverted
    by ``is_isomorphism``, and the section through the component is the
    inclusion after that inverse.  ``sections`` is None, and the failing
    component the first whose restriction is not an isomorphism, when some
    restriction fails."""
    parts = bfs_components(fun.source)
    sections = []
    for component in parts:
        _, incl = full_subcategory(fun.source, component)
        inv = is_isomorphism(compose(fun, incl))
        if inv is None:
            return parts, None, component
        sections.append(compose(incl, inv))
    return parts, tuple(sections), None


def product_iso(fun: LinearFunctor, labels, sections) -> LinearFunctor:
    """The functor B×E → C, E = ``labels``, that is ``sections[i]`` on the
    sheet ``labels[i]`` (labels in sorted order)."""
    base = fun.target
    product, _ = product_with_set(base, labels)
    object_map, hom_matrices = {}, {}
    for label, section in zip(labels, sections):
        for b in base.objects:
            object_map[f"({b},{label})"] = section.object_map[b]
        for (b, b2) in base.hom_basis:
            hom_matrices[(f"({b},{label})", f"({b2},{label})")] = \
                section.hom_matrices[(b, b2)]
    return LinearFunctor(product, fun.source, object_map, hom_matrices)


# stars ------------------------------------------------------------------------------


def star_dim(cat: LinearCategory, b: str) -> int:
    """Dimension of the star at b: the homs out of b plus the homs into b,
    so the endomorphisms at b count twice."""
    out_of = sum(len(basis) for (x, _), basis in cat.hom_basis.items() if x == b)
    into = sum(len(basis) for (_, y), basis in cat.hom_basis.items() if y == b)
    return out_of + into


# category and functor axioms, checked directly against the structure constants


def _unit_vector(cat: LinearCategory, x: str, y: str, i: int) -> tuple:
    return tuple(cat.field.one if j == i else cat.field.zero
                 for j in range(cat.dim(x, y)))


def _dense_compose(cat: LinearCategory, x, y, z, fvec, gvec) -> tuple:
    """g∘f for f in hom(x, y) and g in hom(y, z), summed over every pair of
    basis coordinates straight from the composition table."""
    field = cat.field
    out = [field.zero] * cat.dim(x, z)
    for fname, fc in zip(cat.hom(x, y), fvec):
        for gname, gc in zip(cat.hom(y, z), gvec):
            for t, c in enumerate(cat.composition.get((fname, gname), ())):
                out[t] = field.add(out[t], field.mul(field.mul(fc, gc), c))
    return tuple(out)


def _hom_pairs_by_source(cat: LinearCategory) -> dict:
    outgoing = {}
    for (x, y) in sorted(cat.hom_basis):
        outgoing.setdefault(x, []).append(y)
    return outgoing


def category_axiom_violations(cat: LinearCategory) -> list:
    """(kind, witness, message) for every unit, centrality and associativity
    failure of ``cat``, by a dense scan over every basis tuple: units per
    hom pair (x, y) in sorted order, centrality per object, then
    associativity per (x, y, z, w, f, g, h)."""
    found = []
    outgoing = _hom_pairs_by_source(cat)
    for (x, y) in sorted(cat.hom_basis):
        for i, f in enumerate(cat.hom(x, y)):
            fvec = _unit_vector(cat, x, y, i)
            if _dense_compose(cat, x, y, y, fvec, cat.identity[y]) != fvec:
                found.append(("left-unit", (f,), f"1_{y}∘{f} differs from {f}"))
            if _dense_compose(cat, x, x, y, cat.identity[x], fvec) != fvec:
                found.append(("right-unit", (f,), f"{f}∘1_{x} differs from {f}"))
    for x in sorted(cat.objects):
        idx = cat.identity[x]
        for i, e in enumerate(cat.hom(x, x)):
            evec = _unit_vector(cat, x, x, i)
            if _dense_compose(cat, x, x, x, evec, idx) != \
                    _dense_compose(cat, x, x, x, idx, evec):
                found.append(("centrality", (e,),
                              f"1_{x} does not commute with {e}"))
    for (x, y) in sorted(cat.hom_basis):
        for z in outgoing[y]:
            for w in outgoing[z]:
                for i, f in enumerate(cat.hom(x, y)):
                    fvec = _unit_vector(cat, x, y, i)
                    for j, g in enumerate(cat.hom(y, z)):
                        gvec = _unit_vector(cat, y, z, j)
                        gf = _dense_compose(cat, x, y, z, fvec, gvec)
                        for l, h in enumerate(cat.hom(z, w)):
                            hvec = _unit_vector(cat, z, w, l)
                            hg = _dense_compose(cat, y, z, w, gvec, hvec)
                            if _dense_compose(cat, x, z, w, gf, hvec) != \
                                    _dense_compose(cat, x, y, w, fvec, hg):
                                found.append((
                                    "associativity", (f, g, h),
                                    f"(h∘g)∘f ≠ h∘(g∘f) for ({f},{g},{h})"))
    return found


def _functor_violations(source: LinearCategory, target: LinearCategory,
                        object_map, matrices):
    """Yield (kind, witness, message) for each failed functor axiom of the
    functor given by ``object_map`` and ``matrices`` (row tuples per
    non-zero source hom): units per object, then composition per
    (x, y, z, f, g), all in sorted order."""
    field = source.field

    def image(x, y, vec):
        m = matrices.get((x, y))
        if m is None:
            return target.zero_vector(object_map[x], object_map[y])
        out = [field.zero] * len(m)
        for row_idx, row in enumerate(m):
            acc = field.zero
            for a, v in zip(row, vec):
                acc = field.add(acc, field.mul(a, v))
            out[row_idx] = acc
        return tuple(out)

    for x in sorted(source.objects):
        fx = object_map[x]
        if image(x, x, source.identity[x]) != target.identity[fx]:
            yield ("unit", (x,), f"image of 1_{x} is not 1_{fx}")
    outgoing = _hom_pairs_by_source(source)
    for (x, y) in sorted(source.hom_basis):
        for z in outgoing[y]:
            fx, fy, fz = object_map[x], object_map[y], object_map[z]
            for i, f in enumerate(source.hom(x, y)):
                fvec = _unit_vector(source, x, y, i)
                ff = image(x, y, fvec)
                for j, g in enumerate(source.hom(y, z)):
                    gvec = _unit_vector(source, y, z, j)
                    lhs = image(x, z, _dense_compose(source, x, y, z, fvec, gvec))
                    rhs = _dense_compose(target, fx, fy, fz, ff,
                                         image(y, z, gvec))
                    if lhs != rhs:
                        yield ("composition", (f, g),
                               f"F({g}∘{f}) differs from F({g})∘F({f})")


def functor_axiom_violations(fun: LinearFunctor) -> list:
    """(kind, witness, message) for every failed functor axiom of ``fun``."""
    return list(_functor_violations(
        fun.source, fun.target, fun.object_map,
        {pair: m.entries for pair, m in fun.hom_matrices.items()}))


def functor_axioms_hold(source: LinearCategory, target: LinearCategory,
                        object_map, matrices) -> bool:
    return next(_functor_violations(source, target, object_map, matrices),
                None) is None


# exhaustive lift search ----------------------------------------------------------


def exhaustive_lifts(fun: LinearFunctor, x: str, x_prime: str):
    """All endofunctors H with FH = F and Hx = x', by backtracking over all
    fibre-constrained object maps and solving each hom equation exactly.

    Pruned branches fail a linear solve that any completion would also have
    to satisfy, so the enumeration is exhaustive over functor candidates.
    """
    src = fun.source
    field = src.field
    fibre_of = {}
    for obj in src.objects:
        fibre_of[obj] = tuple(sorted(
            o for o in src.objects
            if fun.object_map[o] == fun.object_map[obj]))

    # order objects so each new one touches an already placed one if possible
    order = [x]
    placed = {x}
    frontier = True
    while frontier:
        frontier = False
        for (a, b) in sorted(src.hom_basis):
            for u, v in ((a, b), (b, a)):
                if u in placed and v not in placed:
                    order.append(v)
                    placed.add(v)
                    frontier = True
    for obj in src.objects:
        if obj not in placed:
            order.append(obj)
            placed.add(obj)

    results = []

    def matrices_for(assign, pairs):
        out = {}
        for (u, v) in pairs:
            hu, hv = assign[u], assign[v]
            target_rows = [list(r) for r in _matrix_rows(fun, hu, hv)]
            if target_rows and naive_rank(target_rows, field) < len(target_rows[0]):
                raise ValueError("covering matrix is not injective on this hom")
            cols = []
            for name in src.hom(u, v):
                want = fun.apply(u, v, src.basis_vector(name))
                if not target_rows:
                    if any(c != field.zero for c in want):
                        return None
                    cols.append(())
                    continue
                sol = naive_solve_unique(target_rows, want, field)
                if sol is None:
                    return None
                cols.append(sol)
            height = src.dim(hu, hv)
            out[(u, v)] = tuple(tuple(col[i] for col in cols)
                                for i in range(height))
        return out

    def extend(idx, assign):
        if idx == len(order):
            pairs = sorted(src.hom_basis)
            mats = matrices_for(assign, pairs)
            if mats is None:
                return
            if functor_axioms_hold(src, src, assign, mats):
                results.append((dict(assign),
                                {k: v for k, v in mats.items()}))
            return
        obj = order[idx]
        candidates = [x_prime] if obj == x else fibre_of[obj]
        for cand in candidates:
            assign[obj] = cand
            # prune: homs between already assigned objects must be solvable
            pairs = [(u, v) for (u, v) in src.hom_basis
                     if u in assign and v in assign
                     and (u == obj or v == obj)]
            if matrices_for(assign, pairs) is not None:
                extend(idx + 1, assign)
            del assign[obj]

    extend(0, {x: x_prime})
    return results


def _matrix_rows(fun: LinearFunctor, hu: str, hv: str):
    m = fun.hom_matrices.get((hu, hv))
    return m.entries if m is not None else ()


# fibre blocks ----------------------------------------------------------------------


def fibre_block(fun: LinearFunctor, direction: str, lift: str, far: str):
    """Columns of F on ⊕_{y over far} hom(lift, y) ("source") or
    ⊕_{y over far} hom(y, lift) ("target"), found by a scan of every source
    hom in sorted order: the (fibre object, basis name) of each column, and
    the columns as the matrices hold them, unreduced."""
    src, om = fun.source, fun.object_map
    layout, cols = [], []
    for (x, y) in sorted(src.hom_basis):
        near, other = (x, y) if direction == "source" else (y, x)
        if near != lift or om[other] != far:
            continue
        m = fun.hom_matrices[(x, y)]
        for j, name in enumerate(src.hom_basis[(x, y)]):
            layout.append((other, name))
            cols.append(tuple(row[j] for row in m.entries))
    return layout, cols


# dense lift transport ---------------------------------------------------------------


def _dense_inverse_block(fun: LinearFunctor, lift: str, far: str,
                         direction: str):
    """F's fibre block at ``lift`` over the base object ``far``, F on
    ⊕ hom(lift, w) ("source") or ⊕ hom(w, lift) ("target") over the w above
    ``far`` in sorted order: the object owning each column, and the
    block's inverse as rows, each column solved against a unit vector."""
    field = fun.source.field
    owners, columns = [], []
    for w in sorted(o for o in fun.source.objects if fun.object_map[o] == far):
        key = (lift, w) if direction == "source" else (w, lift)
        for j in range(fun.source.dim(*key)):
            owners.append(w)
            columns.append([row[j] for row in _matrix_rows(fun, *key)])
    block = [list(row) for row in zip(*columns)]
    unit = [[field.one if i == j else field.zero for j in range(len(owners))]
            for i in range(len(owners))]
    solved = [naive_solve_unique(block, e, field) for e in unit]
    return owners, [[col[i] for col in solved] for i in range(len(owners))]


def _dense_transport(fun: LinearFunctor, lift: str, far: str, direction: str,
                     rows):
    """The inverse block times ``rows`` by a dense sum over every entry; the
    one object owning every non-zero row, with its rows, else None."""
    field = fun.source.field
    owners, inverse = _dense_inverse_block(fun, lift, far, direction)
    columns = list(zip(*rows))
    product = []
    for inv_row in inverse:
        out = []
        for col in columns:
            acc = field.zero
            for a, b in zip(inv_row, col):
                acc = field.add(acc, field.mul(a, b))
            out.append(acc)
        product.append(tuple(out))
    nonzero = {w for w, row in zip(owners, product)
               if any(a != field.zero for a in row)}
    if len(nonzero) != 1:
        return None
    [w] = nonzero
    return w, tuple(row for o, row in zip(owners, product) if o == w)


def dense_lift(fun: LinearFunctor, x: str, x_prime: str):
    """The deck lift rule with dense products: breadth-first from x with
    H(x) = x', each hom(u, v) out of a reached u is F's matrix times the
    inverse source block at H(u), whose non-zero rows must belong to one
    object, H(v), and are H's matrix; a hom(v, u) into a reached u from an
    unreached v names H(v) through the inverse target block at H(u).
    Returns (object map, {hom pair: rows}), or None.  ``fun`` must be a
    covering with a connected source."""
    src, om = fun.source, fun.object_map
    assign, matrices, queue = {x: x_prime}, {}, [x]
    while queue:
        u = queue.pop(0)
        for (a, v) in sorted(src.hom_basis):
            if a != u:
                continue
            lifted = _dense_transport(fun, assign[u], om[v], "source",
                                      _matrix_rows(fun, u, v))
            if lifted is None:
                return None
            w, matrices[(u, v)] = lifted
            if v not in assign:
                assign[v] = w
                queue.append(v)
            elif assign[v] != w:
                return None
        for (v, b) in sorted(src.hom_basis):
            if b != u or v in assign:
                continue
            lifted = _dense_transport(fun, assign[u], om[v], "target",
                                      _matrix_rows(fun, v, u))
            if lifted is None:
                return None
            assign[v] = lifted[0]
            queue.append(v)
    return assign, matrices


# fibre product dimensions ----------------------------------------------------------


def naive_fibre_dims(f: LinearFunctor, g: LinearFunctor) -> dict:
    """dim hom(p, p2) in C ×_B D for every ordered pair of pair-objects,
    zero homs included: dim_c + dim_d − rank [mc | −md], the kernel
    dimension of (φ, ψ) ↦ fφ − gψ, by textbook elimination."""
    base = f.target
    field = base.field
    pairs = [(x, y) for x in f.source.objects for y in g.source.objects
             if f.object_map[x] == g.object_map[y]]
    dims = {}
    for (x, y) in pairs:
        for (x2, y2) in pairs:
            dim_c, dim_d = f.source.dim(x, x2), g.source.dim(y, y2)
            nrows = base.dim(f.object_map[x], f.object_map[x2])
            mc = _matrix_rows(f, x, x2) or [()] * nrows
            md = _matrix_rows(g, y, y2) or [()] * nrows
            rows = [list(rc) + [field.sub(field.zero, a) for a in rd]
                    for rc, rd in zip(mc, md)]
            dims[(f"({x},{y})", f"({x2},{y2})")] = \
                dim_c + dim_d - naive_rank(rows, field)
    return dims


# mediating functor for fibre products ---------------------------------------------


def solve_mediating(fp, p: LinearFunctor, q: LinearFunctor):
    """All functors m into the fibre product with pr1∘m = p and pr2∘m = q,
    found by stacking the projection matrices and solving coordinates."""
    cat = fp.category
    field = cat.field
    t = p.source
    if q.source != t:
        raise ValueError("cone legs must share their source")

    object_map = {}
    for obj in t.objects:
        name = f"({p.object_map[obj]},{q.object_map[obj]})"
        if name not in cat.objects:
            return []
        object_map[obj] = name

    matrices = {}
    for (u, v) in t.hom_basis:
        mu, mv = object_map[u], object_map[v]
        dim = cat.dim(mu, mv)
        pr1 = fp.pr1.hom_matrices.get((mu, mv))
        pr2 = fp.pr2.hom_matrices.get((mu, mv))
        stacked = []
        if pr1 is not None:
            stacked.extend([list(r) for r in pr1.entries])
        if pr2 is not None:
            stacked.extend([list(r) for r in pr2.entries])
        cols = []
        for name in t.hom(u, v):
            want = tuple(p.apply(u, v, t.basis_vector(name))) + \
                tuple(q.apply(u, v, t.basis_vector(name)))
            if dim == 0:
                if any(c != field.zero for c in want):
                    return []
                cols.append(())
                continue
            sol = naive_solve_unique(stacked, want, field)
            if sol is None:
                return []
            cols.append(sol)
        matrices[(u, v)] = tuple(tuple(col[i] for col in cols)
                                 for i in range(dim))

    if not functor_axioms_hold(t, cat, object_map, matrices):
        return []
    built = {key: Matrix(field, len(m), t.dim(*key), m)
             for key, m in matrices.items()}
    return [LinearFunctor(t, cat, object_map, built)]


# all-pairs deck closure ------------------------------------------------------


def all_pairs_deck_maps(fun: LinearFunctor) -> list[dict]:
    """The deck group's object maps by closing over every pair: the least
    object of the least-named base fibre is lifted (``lift_endofunctor``)
    to each object of its fibre that no map found so far reaches, and
    after each lift every two maps are composed both ways, |G|² products in
    all, until no new map appears.  Each product is compared with the map
    found at its anchor image, and one that reaches a refused lift raises
    ``CovcatError``, as ``deck_group`` does.  The maps are sorted by the
    anchor's image, in fibre order."""
    objects = fun.source.objects
    index = {x: i for i, x in enumerate(objects)}
    fibre = fun.fibre(fun.target.objects[0])
    a = index[fibre[0]]
    unit = tuple(range(len(objects)))
    maps, by_anchor, refused = [unit], {a: unit}, set()

    def after(g):
        # h ↦ h∘g on index tuples; a one-object source has only the identity
        return itemgetter(*g) if len(g) > 1 else tuple

    def include(p) -> None:
        q = by_anchor.get(p[a])
        if q is None and p[a] not in refused:
            maps.append(p)
            by_anchor[p[a]] = p
        elif q != p:
            raise CovcatError("deck lifts are not closed under composition")

    checked = 0  # the products of every two of maps[:checked] are compared
    for y in fibre:
        if index[y] in by_anchor:
            continue
        h = lift_endofunctor(fun, fibre[0], y)
        if h is None:
            refused.add(index[y])
            continue
        include(tuple(index[h.object_map[x]] for x in objects))
        while checked < len(maps):
            k = maps[checked]
            for g in maps[:checked + 1]:
                include(after(g)(k))
                include(after(k)(g))
            checked += 1
    position = {index[y]: i for i, y in enumerate(fibre)}
    return [{x: objects[i] for x, i in zip(objects, m)}
            for m in sorted(maps, key=lambda m: position[m[a]])]


# deck quotient composed in the source ----------------------------------------


def source_composed_quotient(cat: LinearCategory, group):
    """The quotient of ``cat`` by a deck group, with its projection, composed
    in ``cat`` itself: an orbit is named by its least member, the hom space
    from one orbit to another is the direct sum of the homs from the
    representative to every member of the other, and v∘u, for u ending at
    y = h(r2), is h(v)∘u, h's matrix applied to v's coordinates.  The
    projection applies the element carrying x to its representative to each
    basis vector of hom(x, y) and places the image at its end's offset.
    The group is read through ``act``, ``orbit`` and ``matrix`` alone."""
    field, order = cat.field, range(group.order)
    orbit_of = {x: group.orbit(x) for x in cat.objects}
    reps = sorted({orbit[0] for orbit in orbit_of.values()})
    aligner = {}  # (x, h(x)) -> the index of the element h, unique by freeness
    for i in order:
        for x in cat.objects:
            aligner.setdefault((x, group.act(i, x)), i)

    def apply(i, x, y, vec) -> tuple:
        m = group.matrix(i, x, y)
        if m is None:
            return cat.zero_vector(group.act(i, x), group.act(i, y))
        return m.apply(vec)

    spaces, offsets = {}, {}
    for r in reps:
        for r2 in reps:
            basis = []
            for y in orbit_of[r2]:
                offsets[(r, r2, y)] = len(basis)
                basis.extend((name, (y, cat.basis_vector(name)))
                             for name in cat.hom(r, y))
            if basis:
                spaces[(r, r2)] = tuple(basis)

    def product(r, r2, r3, u, v) -> tuple:
        (y, phi), (z, psi) = u, v
        i = aligner[(r2, y)]
        hz = group.act(i, z)
        return hz, cat.compose_vectors(r, y, hz, phi, apply(i, r2, z, psi))

    def coords(r, r3, member) -> tuple:
        y, vec = member
        if not vec:
            return ()
        out = [field.zero] * len(spaces[(r, r3)])
        start = offsets[(r, r3, y)]
        out[start:start + len(vec)] = vec
        return tuple(out)

    identity = {r: coords(r, r, (r, cat.identity[r])) for r in reps}
    quotient = category_from_model(field, reps, spaces, identity, product,
                                   coords)
    object_map = {x: orbit_of[x][0] for x in cat.objects}
    hom_matrices = {}
    for (x, y) in cat.hom_basis:
        r, r2 = object_map[x], object_map[y]
        i = aligner[(x, r)]
        gy = group.act(i, y)
        cols = [coords(r, r2, (gy, apply(i, x, y, cat.basis_vector(name))))
                for name in cat.hom(x, y)]
        hom_matrices[(x, y)] = Matrix.from_columns(field, cols,
                                                   len(spaces[(r, r2)]))
    return quotient, LinearFunctor(cat, quotient, object_map, hom_matrices)


# structure isomorphism by composition ----------------------------------------


def composed_structure_iso(fun: LinearFunctor) -> LinearFunctor:
    """The unique isomorphism F' from the quotient by the deck group to the
    base with F'∘P = F, for a Galois covering: F applied to each quotient
    basis vector, built by the public constructor, with F'∘P = F and
    invertibility re-proved."""
    verdict = is_galois(fun, "direct")
    if not verdict.is_galois:
        raise ConstructionError("functor is not a Galois covering")
    quotient, projection = quotient_by_group(fun.source, verdict.deck)

    object_map = {r: fun.object_map[r] for r in quotient.objects}
    hom_matrices = {}
    for (r, r2), names in quotient.hom_basis.items():
        cols = []
        for name in names:
            x, y, i = fun.source.basis_location[name]
            cols.append(fun.apply(x, y, fun.source.basis_vector(name)))
        hom_matrices[(r, r2)] = Matrix.from_columns(
            fun.source.field, cols, fun.target.dim(object_map[r], object_map[r2]))
    prime = LinearFunctor(quotient, fun.target, object_map, hom_matrices)
    if not functor_equal(compose(prime, projection), fun):
        raise CovcatError("structure isomorphism does not factor the covering")
    if is_isomorphism(prime) is None:
        raise CovcatError("structure functor is not an isomorphism")
    return prime


# group-graded covers ---------------------------------------------------------

# S₃ as image tuples of range(3): the identity, (0 1) and (0 1 2)
S3_UNIT, S3_SWAP, S3_CYCLE = (0, 1, 2), (1, 0, 2), (1, 2, 0)


def perm_product(g: tuple, h: tuple) -> tuple:
    """g∘h for permutations given as image tuples: h acts first."""
    return tuple(g[i] for i in h)


def perm_group(generators) -> set:
    """The group of permutation tuples that ``generators`` generate."""
    unit = tuple(range(len(generators[0])))
    group, frontier = {unit}, [unit]
    while frontier:
        g = frontier.pop()
        for s in generators:
            gs = perm_product(g, s)
            if gs not in group:
                group.add(gs)
                frontier.append(gs)
    return group


def graded_cover(q: Quiver, weights: dict, subgroup,
                 field: FieldSpec = QQ) -> LinearFunctor:
    """The cover of the path category of ``q`` (no relations) for arrow
    weights in the permutation group G they generate, and a subgroup H of
    G given as a set of tuples holding the identity.

    Vertex v gets one sheet v{k} per right coset Hg, the k-th in the order
    of the cosets' least members; an arrow a of weight w runs from the sheet
    of Hg to that of Hgw as a{k}.  The functor forgets the sheet.  H = 1
    gives the smash-product Galois cover, whose deck group is G; in general
    the deck group is N_G(H)/H, and the cover is Galois iff H is normal.
    """
    group = perm_group(list(weights.values()))
    least = {g: min(perm_product(h, g) for h in subgroup) for g in group}
    reps = sorted(set(least.values()))
    sheet = {g: reps.index(least[g]) for g in group}
    vertices = tuple(f"{v}{k}" for v in q.vertices for k in range(len(reps)))
    arrows, to_base = [], {}
    for a, src, dst in q.arrows:
        for k, g in enumerate(reps):
            arrows.append((f"{a}{k}", f"{src}{k}",
                           f"{dst}{sheet[perm_product(g, weights[a])]}"))
            to_base[f"{a}{k}"] = a
    base = _path_category_data(q, (), field)
    cover = _path_category_data(Quiver(vertices, tuple(arrows)), (), field)
    object_map = {f"{v}{k}": v for v in q.vertices for k in range(len(reps))}
    hom_matrices = {}
    for (x, y), paths in cover.survivors.items():
        bx, by = object_map[x], object_map[y]
        cols = [base.class_of_path(bx, by, tuple(to_base[a] for a in p))
                for p in paths]
        hom_matrices[(x, y)] = Matrix.from_columns(
            field, cols, base.category.dim(bx, by))
    return LinearFunctor(cover.category, base.category, object_map,
                         hom_matrices)


def s3_kronecker_cover(subgroup, field: FieldSpec = QQ) -> LinearFunctor:
    """``graded_cover`` of the three-arrow Kronecker quiver x ⇉ y with
    weights e, (0 1) and (0 1 2) in S₃, for the subgroup ``subgroup``."""
    q = Quiver(("x", "y"), (("al", "x", "y"), ("be", "x", "y"),
                            ("ga", "x", "y")))
    return graded_cover(q, {"al": S3_UNIT, "be": S3_SWAP, "ga": S3_CYCLE},
                        subgroup, field)


# cyclic covers through the lifted quiver ---------------------------------------


def lifted_cyclic_cover(wq: WeightedQuiver, n: int,
                        field: FieldSpec = QQ) -> LinearFunctor:
    """The Z/n cover of a weighted quiver's path category, built as a second
    path category: every arrow and relation is lifted to the n-fold quiver,
    whose paths are enumerated and whose lifted relations are closed and
    eliminated; F's columns are the base classes of the surviving paths.

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


# functors onto Kronecker bases -------------------------------------------------


def kronecker_quiver(arrows: int) -> WeightedQuiver:
    """x ⇉ y with ``arrows`` arrows, the last two of weight 1."""
    names = [f"k{i}" for i in range(arrows)]
    return WeightedQuiver(
        f"kronecker{arrows}", Quiver(("x", "y"), tuple((a, "x", "y")
                                                       for a in names)),
        {a: int(i >= arrows - 2) for i, a in enumerate(names)})


def onto_kronecker(g: LinearFunctor, rows) -> LinearFunctor:
    """The functor from the free quiver x ⇉ y, with one arrow per column of
    ``rows``, onto g's Kronecker base that is ``rows`` on hom(x, y)."""
    field, (b, c) = g.target.field, g.target.objects
    arrows = tuple((f"a{i}", "x", "y") for i in range(len(rows[0])))
    one = Matrix.identity(field, 1)
    return LinearFunctor(path_category(Quiver(("x", "y"), arrows), [], field),
                         g.target, {"x": b, "y": c},
                         {("x", "x"): one, ("y", "y"): one,
                          ("x", "y"): Matrix.from_rows(field, rows)})


def kronecker_covers() -> list[LinearFunctor]:
    """The Z/d covers, d = 1, 2, 3, of the two- and three-arrow Kronecker
    bases, over Q and over GF(7)."""
    return [cyclic_cover(wq, d, field) for field in (QQ, GF(7))
            for wq in (kronecker(), kronecker_quiver(3)) for d in (1, 2, 3)]


# a functor that kills a failure of associativity ---------------------------------


def killed_nonassociative_functor(field: FieldSpec = QQ) -> LinearFunctor:
    """A functor F: C → B that passes the functor axioms onto a B that
    passes the category axioms, while C breaks associativity: B is the
    chain 0 → 1 → 2 → 3 of arrows a, b, c with composites ba and cb and
    cba = 0; C adds hom(0, 3) with basis p, q, where c∘(ba) = p but
    (cb)∘a = q.  F is the identity on B's part and kills hom(0, 3), so it
    is not faithful."""
    objects = ("0", "1", "2", "3")
    chain = {("0", "1"): ("a",), ("1", "2"): ("b",), ("2", "3"): ("c",),
             ("0", "2"): ("ba",), ("1", "3"): ("cb",)}

    def category(extra: dict, products: dict) -> LinearCategory:
        hom = {**{(x, x): (f"1_{x}",) for x in objects}, **chain, **extra}
        coords = {f: tuple(field.one if j == i else field.zero
                           for j in range(len(basis)))
                  for basis in hom.values() for i, f in enumerate(basis)}
        composition = {}
        for (x, y), basis in hom.items():
            for f in basis:
                composition[(f"1_{x}", f)] = composition[(f, f"1_{y}")] = coords[f]
        for pair, gf in products.items():
            composition[pair] = coords[gf]
        return LinearCategory(field, objects, hom,
                              {x: (field.one,) for x in objects}, composition)

    chain_products = {("a", "b"): "ba", ("b", "c"): "cb"}
    base = category({}, chain_products)
    source = category({("0", "3"): ("p", "q")},
                      {**chain_products, ("ba", "c"): "p", ("a", "cb"): "q"})
    matrices = {pair: Matrix.identity(field, 1) for pair in base.hom_basis}
    matrices[("0", "3")] = Matrix.zeros(field, 0, 2)
    return LinearFunctor(source, base, {x: x for x in objects}, matrices)
