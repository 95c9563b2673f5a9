"""Deck transformations and the Galois / trivial / universal decision procedures.

Every decision reads a functor's covering certificate off its one cached
check, ``LinearFunctor.covering``, and none takes a certificate or a verdict.
A lift of one object to an endofunctor H with FH = F is read off the
inverse fibre blocks of that certificate in one breadth-first pass.  Each
block's inverse is read once, as the non-zero entries of its rows grouped
by fibre object, and every non-zero hom is transported once through those
sparse rows by ``_lifted``: it takes the one fibre object owning every
non-zero transported row, and argues once the shape of the matrix it reads
off, so the lifts are built without re-checking it.

A deck group is generated once per functor and cached on it
(``LinearFunctor._deck``): ``deck_group`` returns that one ``DeckGroup``.
Uniqueness of lifts fixes a deck transformation by the image of one anchor
object, and a product of deck transformations is the lift to wherever it
sends the anchor.  So only the anchor's fibre objects that no element found
so far reaches are lifted, and after each lift the object maps are closed
by walking s∘e for each lift s and each element e: every element is a word
in the lifts, so that closes them under composition.  A refused lift that
a product later reaches is an error, and the group is checked to act
freely.  An element's matrices are read only when something asks for
them, by ``_lifted`` through the source block at its image, whose
non-zero rows must all be the image's.
``quotient_by_group`` reads the group's object maps as they are, and
composes in the base through the covering's source blocks at the orbit
representatives: it reads one element's matrix per hom it projects.

The fibre method and universality decide whether the first projection of
P = u ×_B g is a trivial covering, on a table of P's hom spaces read
through g's certificate by the same sparse transport as the lifts: each
entry is a hom space's image under the projection.  The table comes from
``fibprod._pullback_spaces``, the one routine that also gives
``fibre_product`` P's hom spaces when g is a covering, and P's objects
come from ``fibprod._pair_objects``, as ``fibre_product``'s do.  The
projection's blocks and P's components are decided on that table; neither
is built.

Every procedure here takes functors as input; the CLI validates each
functor document before it decides.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Optional, Sequence, Union

from .errors import ConstructionError, CovcatError, NotConnectedError
from .exactalg import Matrix, echelon_basis
from .lincat import LinearCategory, _walk_components, category_from_model, \
    connected_components
from .linfun import LinearFunctor
from .covering import CoveringCertificate, CoveringFailure, FibreBlock, \
    _ensure_certificate, _transport
from .fibprod import _WHOLE, _pair_name, _pair_objects, _pullback_spaces, \
    fibre_product

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
    src, om = fun.source, fun.object_map
    assign, matrices = {x: x_prime}, {}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for _, v in src.out_of[u]:
            if (u, v) in matrices:
                # read through the target block at H(v), which reached u
                continue
            lifted = _lifted(cert.block(om[u], om[v], assign[u], "source"),
                             fun.hom_matrices[(u, v)])
            if lifted is None:
                return None
            w, matrices[(u, v)] = lifted
            if v not in assign:
                assign[v] = w
                queue.append(v)
            elif assign[v] != w:
                return None
        for _, v in src.into[u]:
            if v in assign:
                continue
            lifted = _lifted(cert.block(om[v], om[u], assign[u], "target"),
                             fun.hom_matrices[(v, u)])
            if lifted is None:
                return None
            w, matrices[(v, u)] = lifted
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
    # matrix of the shape _lifted argues.
    return LinearFunctor._trusted(src, src, assign, matrices)


def _lifted(block: FibreBlock, m: Matrix) -> Optional[tuple[str, Matrix]]:
    """The one fibre object owning every non-zero row of block⁻¹·m, with
    its rows as a matrix; None when no object or several own one.

    The matrix is built trusted.  The owner w's rows of a block at z are a
    basis of hom(z, w) for a source block, or of hom(w, z) for a target
    block, one row each, and m has a column per basis morphism of the hom
    it maps: so they are H's matrix on that hom, in its shape.
    """
    owners = [(w, rows) for w, rows in _transport(block, m).items()
              if any(map(any, rows))]
    if len(owners) != 1:
        return None
    w, rows = owners[0]
    return w, Matrix._trusted(m.field, len(rows), m.ncols, rows)


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

    def __init__(self, *args, **kwargs):
        raise TypeError("a DeckGroup comes only from deck_group(f)")

    @classmethod
    def _trusted(cls, fun: LinearFunctor, cert: CoveringCertificate,
                 maps: tuple[dict[str, str], ...], read: list) -> DeckGroup:
        """The group of the object maps ``_deck_table`` has closed and checked
        free, with each element's matrices read so far by (x, y) in ``read``;
        ``source`` is the category it acts on, ``_base`` the one F covers."""
        group = object.__new__(cls)
        group.__dict__.update(source=fun.source, _maps=maps, _cert=cert,
                              _object_map=fun.object_map, _read=read,
                              _homs=fun.hom_matrices, _base=fun.target)
        return group

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
        # zero in every other row; so T is M⁻¹·F(x, y), read by _lifted
        # as _lift reads it.  An element composed from lifts is not re-proved
        # to satisfy FH = F: _lifted's sole-owner test checks it here.  It asks
        # for one object's rows to hold every non-zero row, which is the
        # same test: F is injective on each hom of a covering, so T ≠ 0 for
        # the non-zero hom(x, y), and some object owns a non-zero row.
        h, om = self._maps[i], self._object_map
        lifted = _lifted(self._cert.block(om[x], om[y], h[x], "source"), f)
        if lifted is None or lifted[0] != h[y]:
            raise CovcatError(
                f"deck element {i} does not lie over the covering "
                f"on hom({x}, {y})")
        m = read[(x, y)] = lifted[1]
        return m

    @cached_property
    def elements(self) -> tuple[LinearFunctor, ...]:
        # each map sends every source object, and each element gets one
        # matrix, of the shape _lifted argues, per non-zero source hom
        src = self.source
        return tuple(LinearFunctor._trusted(
            src, src, h,
            {pair: self.matrix(i, *pair) for pair in src.hom_basis})
            for i, h in enumerate(self._maps))


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
    maps, by_anchor, lifts = [unit], {a: unit}, []
    lifted = {}  # anchor image -> the matrices its lift read
    refused = set()

    def include(p: tuple[int, ...]) -> None:
        # The identity stays by_anchor[a]: a map is added only at an anchor
        # image that none has yet, and every later product at a is compared
        # with it, so no check for a lost identity is needed.
        q = by_anchor.get(p[a])
        if q is None and p[a] not in refused:
            maps.append(p)
            by_anchor[p[a]] = p
        elif q != p:
            raise CovcatError("deck lifts are not closed under composition")

    for y in fibre:
        if index[y] in by_anchor:
            continue
        # the source is connected (checked once above) and y shares the
        # anchor's fibre, so the lift skips lift_endofunctor's checks
        h = _lift(fun, anchor, y, cert)
        if h is None:
            refused.add(index[y])
            continue
        lifts.append(tuple(index[h.object_map[x]] for x in objects))
        lifted[index[y]] = h.hom_matrices
        # Every element is a word in the lifts and composition is
        # associative, so the set is closed under composition iff it is
        # closed under left composition by each lift: s∘(w∘e) = (s∘w)∘e
        # puts every product w∘e of two elements in the set, by induction
        # on the length of the word w.  So s∘e is walked for each lift s
        # and each element e, re-reading maps as it grows (s∘1 adds the new
        # lift): |G|·k products for k lifts.
        for e in maps:
            for s in lifts:
                include(tuple(map(s.__getitem__, e)))

    position = {index[y]: i for i, y in enumerate(fibre)}
    maps.sort(key=lambda m: position[m[a]])
    _check_free(maps)
    return DeckGroup._trusted(
        fun, cert,
        tuple(dict(zip(objects, map(objects.__getitem__, m))) for m in maps),
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
    cat_c = u.source
    # P is not built, so what its build checks is argued or checked here.
    # _pair_objects gives P's objects, and refuses them as fibre_product
    # does.  Each (x, y) has a non-zero endomorphism space holding 1_x:
    # u(1_x) = 1_b = g(1_y), so T·1_x is 1_y's coordinates, which vanish
    # outside y's rows.  P's basis names, "{p}>{p2}#{i}" for P(p, p2), are
    # distinct unless an object name holds ")>(": every p is "(x,y)", so in
    # p>p2 = q>q2 with q shorter, the ")>(" at q's end lies inside p.  Then
    # fibre_product(u, g) raises as P's build does, if they clash.
    pair_of = _pair_objects(u, g)
    if any(")>(" in p for p in pair_of):
        fibre_product(u, g)
    # pr1's fibre over x: its lifts (x, y), in name order
    lifts = {x: [] for x in cat_c.objects}
    for p, (x, y) in pair_of.items():
        lifts[x].append((p, y))

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

    adjacent = {p: [] for p in pair_of}
    for q, q2 in homs:
        p, p2 = _pair_name(*q), _pair_name(*q2)
        adjacent[p].append(p2)
        adjacent[p2].append(p)
    return _component_triviality(
        _walk_components(pair_of, adjacent.__getitem__), cat_c)


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


_ESCAPED_ORBIT = "quotient composite escaped its hom space"


def quotient_by_group(cat: LinearCategory, group: DeckGroup):
    """The categorical quotient of ``cat`` by a deck group acting on it, with
    the projection functor; ``cat`` must be the group's source.

    Orbits are named by their least member; the hom space from one orbit to
    another is the direct sum of the homs from the representative to every
    member of the other orbit, in orbit order.  The quotient is built
    through the covering F the group lies over (C/Aut₁(F) ≅ B for a Galois
    F): F·h = F for each element h, and F is invertible on each fibre block.
    It reads the group by element index, so an element's matrix is read
    only where it projects a hom.

    Let h be the element with h(x) = r, the representative of x's orbit.
    - Projection: P(φ) = h(φ) lies in hom(r, h(y)) and F(hφ) = F(φ), so
      P(x, y) is ``DeckGroup.matrix``'s read of h on hom(x, y), which asks
      h(y) to own every non-zero row of the transport through F's source
      block at r; its rows go at h(y)'s offset.
    - Composition: for u in hom(r, y), y in orbit(r2), and v in hom(r2, z),
      the composite is g(v)∘u for the element g with g(r2) = y, and
      F(g(v)∘u) = F(v)·F(u) is a composite in B.  So a basis morphism is
      modelled by its image column in B(Fr, Fr2), the product is taken in
      B, and the coordinates of w in B(Fr, Fr3) are M⁻¹·w for F's source
      block M at r over (Fr, Fr3), read by ``_transport``, in orbit(r3)'s
      rows.  The block's rows run in fibre order, and orbits and fibres
      are sorted, so those rows are the quotient basis in its order.  A non-zero row
      outside orbit(r3), or a non-zero w where the quotient hom is absent,
      is a composite escaping its hom space, and raises.
    """
    if cat != group.source:
        raise ConstructionError("the group does not act on this category")
    # deck_group checked the action free (_deck_table)
    maps, om, cert = group._maps, group._object_map, group._cert
    base, field, zero = group._base, cat.field, cat.field.zero

    # each orbit walked once, at its least member: the objects are sorted
    orbits, rep_of = {}, {}
    for x in cat.objects:
        if x not in rep_of:
            orbits[x] = sorted({h[x] for h in maps})
            rep_of.update(dict.fromkeys(orbits[x], x))
    reps = list(orbits)

    # aligner[x]: the index of the element carrying x to rep_of[x], unique
    # by freeness.  Element i carries h_i⁻¹(r) to each representative r, and
    # h_i⁻¹ is the element j with h_j(r0) = z for the z of r0's orbit that
    # h_i sends to r0.  So each element scans r0's orbit, and no element
    # is applied to every object.
    r0 = reps[0]
    carrying = {h[r0]: j for j, h in enumerate(maps)}  # h_j(r0) -> j
    aligner = {}
    for i, h in enumerate(maps):
        inverse = maps[carrying[next(z for z in carrying if h[z] == r0)]]
        for r in reps:
            aligner[inverse[r]] = i

    # A basis morphism out of r is modelled by its image column under F.
    # F covers, so each non-zero hom(r, y) lies in a block of dimension
    # dim B(Fr, Fy) and its matrix has a row per basis morphism there.
    spaces, offsets = {}, {}
    for r in reps:
        for r2, orbit in orbits.items():
            basis = []
            for y in orbit:
                names = cat.hom(r, y)
                if names:
                    offsets[(r, y)] = len(basis)
                    basis.extend(zip(names, zip(*group._homs[(r, y)].entries)))
            if basis:
                spaces[(r, r2)] = tuple(basis)

    def product(r, r2, r3, u, v) -> tuple:
        return base.compose_vectors(om[r], om[r2], om[r3], u, v)

    def coords(r, r3, w) -> tuple:
        if (r, r3) not in spaces:
            if any(w):
                raise CovcatError(_ESCAPED_ORBIT)
            return ()
        column = Matrix._trusted(field, len(w), 1, tuple((a,) for a in w))
        out = []
        for y, rows in _transport(cert.block(om[r], om[r3], r, "source"),
                                  column).items():
            if rep_of[y] == r3:
                out.extend(row[0] for row in rows)
            elif any(row[0] for row in rows):
                raise CovcatError(_ESCAPED_ORBIT)
        return tuple(out)

    # r leads its orbit, so 1_r's coordinates lead the basis of (r, r)
    identity = {r: tuple(cat.identity[r])
                + (zero,) * (len(spaces[(r, r)]) - cat.dim(r, r))
                for r in reps}
    quotient = category_from_model(field, reps, spaces, identity,
                                   product, coords)

    hom_matrices = {}
    for (x, y) in cat.hom_basis:
        r, i = rep_of[x], aligner[x]
        m = group.matrix(i, x, y)
        start = offsets[(r, maps[i][y])]
        size, pad = len(spaces[(r, rep_of[y])]), (zero,) * m.ncols
        hom_matrices[(x, y)] = Matrix._trusted(
            field, size, m.ncols, (pad,) * start + m.entries
            + (pad,) * (size - start - m.nrows))
    # The projection is built trusted: it sends every object to its orbit's
    # representative and has one matrix per non-zero hom of cat, with a
    # column per basis morphism of hom(x, y) and a row per basis morphism
    # of the quotient's (r, r2), which holds hom(r, h(y)) at its offset.
    projection = LinearFunctor._trusted(
        cat, quotient, {x: rep_of[x] for x in cat.objects}, hom_matrices)
    return quotient, projection


def structure_iso(fun: LinearFunctor) -> LinearFunctor:
    """The unique isomorphism F' from the quotient by the deck group to the
    base with F'∘P = F, for a Galois covering."""
    verdict = is_galois(fun, "direct")
    if not verdict.is_galois:
        raise ConstructionError("functor is not a Galois covering")
    quotient, _ = quotient_by_group(fun.source, verdict.deck)
    om, cert = fun.object_map, fun.covering
    object_map = {r: om[r] for r in quotient.objects}
    if sorted(object_map.values()) != list(fun.target.objects):
        raise CovcatError("structure functor is not an isomorphism")
    # F' on (r, r2) is F's source block M at r over (Fr, Fr2), not
    # re-proved.  F is Galois, so the orbits are the fibres, and the
    # quotient's basis of (r, r2) is M's column layout.  Each M is
    # certified invertible, so F' is an isomorphism.  F'∘P = F exactly:
    # for the element h with h(x) = r, DeckGroup.matrix's sole-owner read
    # checked that P(x, y) puts M⁻¹·F(x, y) at h(y)'s rows and nothing
    # elsewhere.  P is onto each quotient hom, so F' is a functor as F is.
    hom_matrices = {(r, r2): cert.block(om[r], om[r2], r, "source").matrix
                    for r, r2 in quotient.hom_basis}
    return LinearFunctor._trusted(quotient, fun.target, object_map,
                                  hom_matrices)


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
