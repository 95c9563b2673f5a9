"""Deck transformations and the Galois / trivial / universal decision procedures.

Every decision reads a functor's covering certificate off its one cached
check, ``LinearFunctor.covering``, and none takes a certificate or a verdict.
A lift of one object to an endofunctor H with FH = F is read off the
inverse fibre blocks of that certificate in one breadth-first pass.  Each
block's inverse is read once, as the non-zero entries of its rows grouped
by fibre object, and every non-zero hom is transported once through those
sparse rows (``covering._transport``); the lifts are built without
re-checking the shapes that the transport fixes.

A deck group is generated once per functor and cached on it
(``LinearFunctor._deck``): ``deck_group`` returns that one ``DeckGroup``.
Uniqueness of lifts fixes a deck transformation by the image of one anchor
object, and a product of deck transformations is the lift to wherever it
sends the anchor.  So only the anchor's fibre objects that no element found
so far reaches are lifted, and after each lift the object maps are closed
under composition; a refused lift that a product later reaches is an
error, and the group is checked to act freely.  An element's matrices are
read only when something asks for them, by the same transport through the
source block at its image, whose non-zero rows must all be the image's
(the lifts' sole-owner test).  ``quotient_by_group`` reads the group's
object maps as they are.

The fibre method and universality decide whether the first projection of
P = u ×_B g is a trivial covering, on a table of P's hom spaces read
through g's certificate by the same sparse transport as the lifts: each
entry is a hom space's image under the projection.  The table comes from
``fibprod._pullback_spaces``, the one routine that also gives
``fibre_product`` P's hom spaces when g is a covering.  The projection's
blocks and P's components are decided on that table; neither is built.

Every procedure here takes functors as input; the CLI validates each
functor document before it decides.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from operator import itemgetter
from typing import Optional, Sequence, Union

from .errors import ConstructionError, CovcatError, NotConnectedError
from .exactalg import Matrix, echelon_basis
from .lincat import LinearCategory, _walk_components, category_from_model, \
    connected_components
from .linfun import LinearFunctor, compose, functor_equal, is_isomorphism
from .covering import CoveringCertificate, CoveringFailure, \
    _ensure_certificate, _transport
from .fibprod import _WHOLE, _pair_name, _pullback_spaces, fibre_product

__all__ = [
    "DeckGroup",
    "TrivialityWitness",
    "TrivialityResult",
    "GaloisStatus",
    "GaloisVerdict",
    "lift_endofunctor",
    "deck_group",
    "is_trivial_covering",
    "is_galois",
    "is_galois_both",
    "quotient_by_group",
    "structure_iso",
    "check_universal_against",
    "UniversalityCheck",
    "UniversalityReport",
]


def _ensure_connected(cat: LinearCategory, which: str) -> None:
    _, connected = connected_components(cat)
    if not connected:
        raise NotConnectedError(f"{which} category is not connected")


# deck transformations -------------------------------------------------------


def lift_endofunctor(fun: LinearFunctor, x: str,
                     x_prime: str) -> Optional[LinearFunctor]:
    """The unique endofunctor H with FH = F and H(x) = x', if one exists.

    Breadth-first from x: F's matrix on each hom(u, v) at a reached u,
    transported through the inverse source block at H(u), must have its
    non-zero rows in one fibre object, H(v); those rows are H's matrix.  A
    hom(v, u) from an unreached v is transported through the target block
    at H(u) instead, which names H(v) and gives H's matrix on it.  None
    when this fails, as at most one H exists.  ``fun`` must be a functor.
    """
    for name in (x, x_prime):
        if name not in fun.object_map:
            raise ConstructionError(f"{name} is not an object of the source")
    cert = _ensure_certificate(fun)
    _ensure_connected(fun.source, "source")
    if fun.object_map[x] != fun.object_map[x_prime]:
        raise ConstructionError(f"{x} and {x_prime} are not in the same fibre")
    return _lift(fun, x, x_prime, cert)


def _lift(fun: LinearFunctor, x: str, x_prime: str,
          cert: CoveringCertificate) -> Optional[LinearFunctor]:
    """``lift_endofunctor`` without its checks: ``cert`` certifies ``fun``,
    whose source is connected, and x, x' lie in one fibre."""
    # The visiting order does not change the result: at most one H exists,
    # every step is forced by assign[u], and a pass that ends has built an H
    # (see below).
    src, om, field = fun.source, fun.object_map, fun.source.field
    assign, matrices = {x: x_prime}, {}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for _, v in src.out_of[u]:
            if (u, v) in matrices:
                # read through the target block at H(v), which reached u
                continue
            m = fun.hom_matrices[(u, v)]
            lifted = _sole_owner(_transport(
                cert.block(om[u], om[v], assign[u], "source"), m))
            if lifted is None:
                return None
            w, rows = lifted
            # w's rows of the source block at H(u) are a basis of
            # hom(H(u), w), one row each, and m has dim hom(u, v) columns
            matrices[(u, v)] = Matrix._trusted(field, len(rows), m.ncols, rows)
            if v not in assign:
                assign[v] = w
                queue.append(v)
            elif assign[v] != w:
                return None
        for _, v in src.into[u]:
            if v in assign:
                continue
            m = fun.hom_matrices[(v, u)]
            lifted = _sole_owner(_transport(
                cert.block(om[v], om[u], assign[u], "target"), m))
            if lifted is None:
                return None
            w, rows = lifted
            # w's rows of the target block at H(u) are a basis of
            # hom(w, H(u)), one row each
            matrices[(v, u)] = Matrix._trusted(field, len(rows), m.ncols, rows)
            assign[v] = w
            queue.append(v)

    # H is not re-proved: _transport's zero test implies all of it.
    # - FH = F: with M the invertible source block at H(u), M·T = F(u, v)
    #   for the transported T, so T vanishes outside H(v)'s rows exactly
    #   when F(Hf) = F(f) on hom(u, v).  A hom(v, u) from an unreached v is
    #   read through the target block M at H(u) instead, and M·T = F(v, u)
    #   proves FH = F on hom(v, u) the same way; F is injective on
    #   hom(H(v), H(u)), whose columns lie in M, so H(v)'s rows are H's
    #   matrix there, and the hom is not transported again from v.  The
    #   source is connected, so every hom was transported, once.
    # - Functor axioms: F is injective on each hom(x', z'), whose columns
    #   lie in the invertible source block at x'.  As F is a functor,
    #   F(H(g∘f)) = F(g∘f) = F(Hg∘Hf) in hom(Hx, Hz) gives H(g∘f) = Hg∘Hf;
    #   likewise F(H(1_x)) = F(1_{Hx}) gives H(1_x) = 1_{Hx}.
    # - Invertibility: FH = F writes the source block at u over (Fu, c) as
    #   the one at H(u) times H on ⊕_{v over c} hom(u, v), so H maps that
    #   sum bijectively onto ⊕_{w over c} hom(Hu, w); dually for target
    #   blocks.  So the image of H is closed under non-zero homs, hence is
    #   the whole connected, finite source: H is bijective on objects, then
    #   on each hom(u, v) → hom(Hu, Hv), and so an isomorphism.
    # Nor are its shapes re-checked: the pass over the connected source
    # reaches every object and transports every non-zero hom, each into a
    # matrix of the shape argued above.
    return LinearFunctor._trusted(src, src, assign, matrices)


def _sole_owner(transported: dict[str, tuple]) -> Optional[tuple[str, tuple]]:
    """The one object owning every non-zero transported row, with all of its
    rows; None when zero objects or several own one."""
    owners = [(w, rows) for w, rows in transported.items()
              if any(map(any, rows))]
    return owners[0] if len(owners) == 1 else None


class DeckGroup:
    """Aut_1(F) for a connected covering F: the invertible endofunctors H of
    the source with FH = F, read by element index.  ``act`` gives an
    element's action on objects, ``orbit`` an object's orbit, ``matrix`` an
    element's matrix on one hom and ``elements`` the elements as functors.

    ``deck_group`` generates it once per functor, and each element's
    matrices are read only when something asks for them.
    ``LinearFunctor._deck`` caches it, so it holds the functor's parts and
    not the functor: the cache makes no reference cycle.
    """

    def __init__(self, fun: LinearFunctor, cert: CoveringCertificate,
                 maps: tuple[dict[str, str], ...], read: list[dict]):
        self.source = fun.source  # the category the group acts on
        self._maps, self._cert = maps, cert
        self._object_map, self._homs = fun.object_map, fun.hom_matrices
        self._read = read  # per element: (x, y) -> its matrix, once read

    @property
    def order(self) -> int:
        return len(self._maps)

    def act(self, i: int, x: str) -> str:
        return self._maps[i][x]

    def orbit(self, x: str) -> tuple[str, ...]:
        return tuple(sorted({h[x] for h in self._maps}))

    def matrix(self, i: int, x: str, y: str) -> Optional[Matrix]:
        """Element i's matrix on hom(x, y); None when that hom is zero."""
        read = self._read[i]
        m = read.get((x, y))
        if m is not None:
            return m
        f = self._homs.get((x, y))
        if f is None:
            return None
        # With M the invertible source block at h(x) over (Fx, Fy), FH = F
        # on hom(x, y) says M·T = F(x, y) for T = H(x, y) in h(y)'s rows and
        # zero in every other row; so T is M⁻¹·F(x, y), read by _transport
        # as _lift reads it.  An element composed from lifts is not re-proved
        # to satisfy FH = F: the sole-owner test checks it here.  It asks
        # for one object's rows to hold every non-zero row, which is the
        # same test: F is injective on each hom of a covering, so T ≠ 0 for
        # the non-zero hom(x, y), and some object owns a non-zero row.
        h, om = self._maps[i], self._object_map
        owner = _sole_owner(_transport(
            self._cert.block(om[x], om[y], h[x], "source"), f))
        if owner is None or owner[0] != h[y]:
            raise CovcatError(
                f"deck element {i} does not lie over the covering "
                f"on hom({x}, {y})")
        # h(y)'s rows of that block are a basis of hom(h(x), h(y)), one row
        # each, and F(x, y) has dim hom(x, y) columns
        rows = owner[1]
        m = read[(x, y)] = Matrix._trusted(self.source.field, len(rows),
                                           f.ncols, rows)
        return m

    @cached_property
    def elements(self) -> tuple[LinearFunctor, ...]:
        # each map sends every source object, and each element gets one
        # matrix, of the shape argued in matrix(), per non-zero source hom
        src = self.source
        return tuple(LinearFunctor._trusted(
            src, src, h,
            {pair: self.matrix(i, *pair) for pair in src.hom_basis})
            for i, h in enumerate(self._maps))

    def _apply(self, i: int, x: str, y: str, coords) -> tuple:
        """Element i on the morphism of hom(x, y) with coordinates
        ``coords``."""
        m = self.matrix(i, x, y)
        if m is None:
            h = self._maps[i]
            return self.source.zero_vector(h[x], h[y])
        return m.apply(coords)


def _check_free(maps: Sequence[tuple[int, ...]]) -> None:
    """Raise unless each object map (as index tuples) fixes either every
    object or none."""
    for m in maps:
        moved = sum(1 for i, j in enumerate(m) if i != j)
        if moved and moved != len(m):
            raise ConstructionError("group action is not free on objects")


def deck_group(fun: LinearFunctor) -> DeckGroup:
    """Aut_1(F) for a connected covering, generated by lifts of the least
    object of the least-named base fibre; verified to be a group acting
    freely.  Built once per functor and cached on it, so every call
    returns the same group."""
    return fun._deck


def _after(g: tuple[int, ...]):
    """h ↦ h∘g on index tuples: the images of g's entries under h.  A
    one-object source has one map, the identity, and then h∘g is h."""
    return itemgetter(*g) if len(g) > 1 else tuple


def _deck_table(fun: LinearFunctor) -> DeckGroup:
    """``deck_group(fun)``, generated and checked; read it through the
    cache, ``LinearFunctor._deck``."""
    cert = _ensure_certificate(fun)
    _ensure_connected(fun.source, "source")

    # Each lift is an invertible functor with FH = F (see lift_endofunctor).
    # Over a connected source such a functor is fixed by the image of one
    # object (uniqueness of lifts, acceptance criterion 07), so the elements
    # are indexed by where they send the anchor.  h∘g is again an invertible
    # functor with F(hg) = F, so it is the element sending the anchor to
    # h(g(anchor)): a fibre object that a product reaches needs no lift, and
    # a refused lift that a product reaches is an error.  The identity needs
    # no lift either.  A finite set of invertible maps that is closed under
    # composition contains the inverse of each member, so with the identity
    # it is a group.  The maps are index tuples into the source's objects.
    objects = fun.source.objects
    index = {x: i for i, x in enumerate(objects)}
    fibre = cert.fibres[fun.target.objects[0]]
    anchor, a = fibre[0], index[fibre[0]]
    unit = tuple(range(len(objects)))
    maps, after, by_anchor = [unit], [_after(unit)], {a: unit}
    lifted = {}  # anchor image -> the matrices its lift read
    refused = set()
    checked = 0  # the products of every two of maps[:checked] are compared

    def include(p: tuple[int, ...]) -> None:
        # The identity stays by_anchor[a]: a map is added only at an anchor
        # image that none has yet, and every later product at a is compared
        # with it, so no check for a lost identity is needed.
        q = by_anchor.get(p[a])
        if q is None and p[a] not in refused:
            maps.append(p)
            after.append(_after(p))
            by_anchor[p[a]] = p
        elif q != p:
            raise CovcatError("deck lifts are not closed under composition")

    def close() -> None:
        # every pair of maps is composed both ways once, when the later of
        # the two is checked: |G|² products in all
        nonlocal checked
        while checked < len(maps):
            k, after_k = maps[checked], after[checked]
            for g, after_g in zip(maps[:checked + 1], after):
                include(after_g(k))
                include(after_k(g))
            checked += 1

    close()
    for y in fibre:
        if index[y] in by_anchor:
            continue
        # the source is connected (checked once above) and y shares the
        # anchor's fibre, so the lift skips lift_endofunctor's checks
        h = _lift(fun, anchor, y, cert)
        if h is None:
            refused.add(index[y])
            continue
        m = tuple(index[h.object_map[x]] for x in objects)
        include(m)
        lifted[m[a]] = h.hom_matrices
        close()

    position = {index[y]: i for i, y in enumerate(fibre)}
    maps.sort(key=lambda m: position[m[a]])
    _check_free(maps)
    return DeckGroup(fun, cert,
                     tuple(dict(zip(objects, map(objects.__getitem__, m)))
                           for m in maps),
                     [lifted.get(m[a], {}) for m in maps])


# trivial coverings ----------------------------------------------------------


@dataclass(frozen=True)
class TrivialityWitness:
    """Exhibits B×E ≅ C over B: E labels the connected components of the
    source by their least objects, and F maps each isomorphically onto B."""

    labels: tuple[str, ...]
    components: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class TrivialityResult:
    trivial: bool
    witness: Optional[TrivialityWitness] = None
    failing_component: Optional[tuple[str, ...]] = None


def is_trivial_covering(fun: LinearFunctor) -> TrivialityResult:
    """True iff every connected component of the source maps isomorphically
    onto the (connected) base; ``fun`` must be a functor.  The failing
    component is the first with more objects than the base."""
    _ensure_certificate(fun)
    return _component_triviality(connected_components(fun.source)[0],
                                 fun.target)


def _component_triviality(parts: tuple[tuple[str, ...], ...],
                          base: LinearCategory) -> TrivialityResult:
    """Triviality of a covering onto ``base`` from its source's components."""
    _ensure_connected(base, "target")
    # For a covering, K maps isomorphically onto B iff |K| = |B|.  K maps
    # onto B: a non-zero base hom into or out of Fx has a non-empty block at
    # x, so a neighbour of x in K lies over its far end, and B is connected.
    # Then for x, y in K every other y' over Fy lies outside K, so
    # hom(x, y') = 0 and the invertible (or empty) source block at x over
    # (Fx, Fy) is F on hom(x, y) alone.
    for component in parts:
        if len(component) != len(base.objects):
            return TrivialityResult(False, failing_component=component)
    return TrivialityResult(True, TrivialityWitness(
        tuple(p[0] for p in parts), parts))


# Galois verdicts -------------------------------------------------------------


class GaloisStatus(Enum):
    NOT_CONNECTED = "NotConnected"
    NOT_COVERING = "NotCovering"
    NON_GALOIS = "NonGalois"
    GALOIS = "Galois"


@dataclass(frozen=True)
class GaloisVerdict:
    status: GaloisStatus
    method: str
    components: Optional[tuple[tuple[str, ...], ...]] = None
    covering_failure: Optional[CoveringFailure] = None
    deck: Optional[DeckGroup] = None
    fibre: Optional[tuple[str, ...]] = None
    unreachable: Optional[tuple[str, ...]] = None
    triviality: Optional[TrivialityResult] = None

    @property
    def is_galois(self) -> bool:
        return self.status is GaloisStatus.GALOIS


def _pullback_triviality(u: LinearFunctor, g: LinearFunctor,
                         ) -> Union[TrivialityResult, CoveringFailure]:
    """Whether the first projection pr1: u ×_B g → source(u) is a trivial
    covering; the covering failure when it is not a covering at all.  This
    is the fibre-product criterion of both the Galois fibre method and
    universality, for a covering g, decided on ``_pullback_spaces``."""
    # The result, and every byte of the reports written from it, is that of
    # the pr1 of fibre_product(u, g).  Those reports hold object names, block
    # dimensions, ranks and components (covering_failure_to_json,
    # triviality_to_json), and none depends on a basis: the objects and
    # their fibres are the same, and each V_y2 is the image of
    # fibre_product's P-hom under its injective pr1, so every block has the
    # same column count and rank and the same homs are non-zero.  P is a
    # category and pr1 a functor: the componentwise composite of two P-homs
    # is a P-hom, as u(φ'∘φ) = u(φ')u(φ) = g(ψ')g(ψ) = g(ψ'∘ψ), and so is
    # (1_x, 1_y).
    over = {}  # (x, x2) -> (y, y2, V_y2's rows or _WHOLE) per P-hom over it
    homs = []  # the P-homs ((x, y), (x2, y2)); T is not read
    for (q, q2), space, _ in _pullback_spaces(u, g):
        over.setdefault((q[0], q2[0]), []).append(
            (q[1], q2[1], space if space is _WHOLE else space[0]))
        homs.append((q, q2))
    cat_c, fibres = u.source, g.covering.fibres
    names = {(x, y): _pair_name(x, y)
             for x in cat_c.objects for y in fibres[u.object_map[x]]}
    # P's constructor is not run, so what it checks is argued or checked
    # here.  Each (x, y) has a non-zero endomorphism space holding 1_x:
    # u(1_x) = 1_b = g(1_y), so T·1_x is 1_y's coordinates, which vanish
    # outside y's rows.  Its names must be distinct, and its basis names,
    # "{p}>{p2}#{i}" for P(p, p2), are unless a name holds ")>(": every p
    # is "(x,y)", so in p>p2 = q>q2 with q shorter, the ")>(" at q's end
    # lies inside p.  Then fibre_product(u, g) raises as P's constructor
    # would, if they clash.
    if len(set(names.values())) != len(names):
        raise ConstructionError("duplicate object names")
    if any(")>(" in p for p in names.values()):
        fibre_product(u, g)
    # pr1's fibre over x: its lifts (x, y), in name order
    lifts = {x: sorted((names[(x, y)], y) for y in fibres[u.object_map[x]])
             for x in cat_c.objects}

    # This is check_covering(pr1), then is_trivial_covering(pr1), without
    # the inverses that only a certificate holds.
    # - No object of C is missed: g covers, so the fibre of u(x) is not
    #   empty and (x, y) lies over x for each y in it.
    # - Base pairs and lifts run in check_covering's order.  It skips a zero
    #   C(b, c) with no P-hom over it, and no P-hom lies over a zero C(b, c)
    #   (each is a subspace of it).
    # - pr1 includes each P-hom into C(b, c) as V_y2, so a block's columns
    #   are the bases of the V_y2 it stacks.  With as many columns as
    #   dim C(b, c), a block of one space has full rank: a whole C(b, c)
    #   (one owner and a zero kernel) is included by the identity.  A whole
    #   C(b, c) beside another non-zero space makes too many columns, so
    #   only a block stacking several echelon bases needs a rank, which
    #   equals the check's, as the column order does not change it.
    for b, c in sorted(cat_c.hom_basis):
        dim = cat_c.dim(b, c)
        stacked = {}  # (direction, lift's D-object) -> the V_y2 of its block
        for y, y2, space in over.get((b, c), ()):
            stacked.setdefault(("source", y), []).append(space)
            stacked.setdefault(("target", y2), []).append(space)
        for direction, x in (("source", b), ("target", c)):
            for lift, y in lifts[x]:
                block = stacked.get((direction, y), ())
                ncols = sum(dim if space is _WHOLE else len(space)
                            for space in block)
                if ncols != dim:
                    return CoveringFailure("block-dimension", b, c, lift,
                                           direction, dim, ncols)
                if len(block) < 2:
                    continue
                rank = len(echelon_basis(
                    cat_c.field, [row for space in block for row in space])[1])
                if rank < dim:
                    return CoveringFailure("block-singular", b, c, lift,
                                           direction, dim, rank)

    adjacent = {p: [] for p in names.values()}
    for q, q2 in homs:
        adjacent[names[q]].append(names[q2])
        adjacent[names[q2]].append(names[q])
    return _component_triviality(
        _walk_components(names.values(), adjacent.__getitem__), cat_c)


def is_galois(fun: LinearFunctor, method: str = "direct") -> GaloisVerdict:
    """Decide the Galois property.

    "direct" checks that the deck group is transitive on the fibre of the
    least base object; "fibre" checks that the first projection of the fibre
    product of the covering with itself is a trivial covering.  The two
    always agree.
    """
    if method not in ("direct", "fibre"):
        raise ConstructionError(f"unknown method {method!r}")
    parts, connected = connected_components(fun.source)
    if not connected:
        return GaloisVerdict(GaloisStatus.NOT_CONNECTED, method, components=parts)
    cert = fun.covering
    if isinstance(cert, CoveringFailure):
        return GaloisVerdict(GaloisStatus.NOT_COVERING, method,
                             covering_failure=cert)

    if method == "direct":
        deck = deck_group(fun)
        fibre = cert.fibres[fun.target.objects[0]]
        orbit = deck.orbit(fibre[0])
        unreachable = tuple(x for x in fibre if x not in orbit)
        status = GaloisStatus.GALOIS if not unreachable else GaloisStatus.NON_GALOIS
        return GaloisVerdict(status, method, deck=deck, fibre=fibre,
                             unreachable=unreachable)

    triviality = _pullback_triviality(fun, fun)
    if isinstance(triviality, CoveringFailure):
        return GaloisVerdict(GaloisStatus.NON_GALOIS, method,
                             covering_failure=triviality)
    status = GaloisStatus.GALOIS if triviality.trivial else GaloisStatus.NON_GALOIS
    return GaloisVerdict(status, method, triviality=triviality)


def is_galois_both(fun: LinearFunctor) -> GaloisVerdict:
    """Run both methods and assert they agree; returns the direct verdict."""
    direct = is_galois(fun, "direct")
    fibre = is_galois(fun, "fibre")
    if direct.status is not fibre.status:
        raise CovcatError(
            f"method disagreement: direct={direct.status.value}, "
            f"fibre={fibre.status.value}")
    return direct


# quotients and the structure theorem -----------------------------------------


def quotient_by_group(cat: LinearCategory, group: DeckGroup):
    """The categorical quotient of ``cat`` by a deck group acting on it, with
    the projection functor; ``cat`` must be the group's source.

    Orbits are named by their least member; the hom space from one orbit to
    another is the direct sum of the homs from the representative to every
    member of the other orbit, and composition is transported through the
    unique aligning group element.  It reads the group by element index, so
    an element's matrix is read only where a hom is transported by it.
    """
    if cat != group.source:
        raise ConstructionError("the group does not act on this category")
    # deck_group checked the action free (_deck_table)
    maps = group._maps

    orbit_of = {x: group.orbit(x) for x in cat.objects}
    reps = sorted({orbit[0] for orbit in orbit_of.values()})

    # the index of the group element carrying x to h(x), unique by freeness
    aligner: dict[tuple[str, str], int] = {}
    for i, h in enumerate(maps):
        for x in cat.objects:
            aligner.setdefault((x, h[x]), i)

    # quotient hom bases reuse the names of morphisms out of representatives;
    # a morphism is modelled by (orbit member it ends at, its coordinates)
    spaces: dict[tuple[str, str], tuple] = {}
    offsets: dict[tuple[str, str, str], int] = {}
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
        hz = maps[i][z]
        return hz, cat.compose_vectors(r, y, hz, phi,
                                       group._apply(i, r2, z, psi))

    def coords(r, r3, member) -> tuple:
        # an empty vector is the zero of hom(r, y), which may be absent
        y, vec = member
        if not vec:
            return ()
        out = [cat.field.zero] * len(spaces[(r, r3)])
        start = offsets[(r, r3, y)]
        out[start:start + len(vec)] = vec
        return tuple(out)

    identity = {r: coords(r, r, (r, cat.identity[r])) for r in reps}
    quotient = category_from_model(cat.field, reps, spaces, identity,
                                   product, coords)

    object_map = {x: orbit_of[x][0] for x in cat.objects}
    hom_matrices = {}
    for (x, y) in cat.hom_basis:
        r, r2 = object_map[x], object_map[y]
        i = aligner[(x, r)]
        gy = maps[i][y]
        cols = [coords(r, r2,
                       (gy, group._apply(i, x, y, cat.basis_vector(name))))
                for name in cat.hom(x, y)]
        hom_matrices[(x, y)] = Matrix.from_columns(
            cat.field, cols, len(spaces[(r, r2)]))
    projection = LinearFunctor(cat, quotient, object_map, hom_matrices)
    return quotient, projection


def structure_iso(fun: LinearFunctor) -> LinearFunctor:
    """The unique isomorphism F' from the quotient by the deck group to the
    base with F'∘P = F, for a Galois covering."""
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


# universality relative to a family -------------------------------------------


@dataclass(frozen=True)
class UniversalityCheck:
    index: int
    passed: bool
    reason: str
    covering_failure: Optional[CoveringFailure] = None
    failing_component: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class UniversalityReport:
    checks: tuple[UniversalityCheck, ...]
    universal_relative_to_family: bool


def check_universal_against(u: LinearFunctor,
                            family: Sequence[LinearFunctor],
                            ) -> UniversalityReport:
    """PASS for a family member F iff the fibre product of u with F projects
    onto the source of u as a trivial covering.  Certifies universality only
    relative to the supplied family."""
    _ensure_certificate(u)
    _ensure_connected(u.source, "source")
    checks = []
    for idx, member in enumerate(family):
        verdict = is_galois(member, "direct")
        if not verdict.is_galois:
            raise ConstructionError(
                f"family member {idx} is not a Galois covering "
                f"({verdict.status.value})")
        triviality = _pullback_triviality(u, member)
        if isinstance(triviality, CoveringFailure):
            checks.append(UniversalityCheck(
                idx, False,
                f"projection is not a covering: {triviality.message()}",
                covering_failure=triviality))
            continue
        if not triviality.trivial:
            checks.append(UniversalityCheck(
                idx, False, "projection covering is not trivial",
                failing_component=triviality.failing_component))
            continue
        checks.append(UniversalityCheck(idx, True, "fibre product is trivial"))
    return UniversalityReport(tuple(checks),
                              all(c.passed for c in checks))
