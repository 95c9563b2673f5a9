"""Deck groups, sections, triviality, Galois verdicts, quotients, universality."""

import gc
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covcat import fibprod, galois, lincat
from covcat.errors import ConstructionError, CovcatError, NotConnectedError
from covcat.exactalg import GF, QQ, Matrix, rank_and_inverse
from covcat.lincat import LinearCategory, Quiver, connected_components, \
    path_category, product_with_set, validate_category
from covcat.linfun import LinearFunctor, compose, functor_equal, \
    identity_functor, is_isomorphism, validate_functor
from covcat.covering import CoveringCertificate, check_covering
from covcat.fibprod import fibre_product
from covcat.galois import (
    DeckGroup,
    GaloisStatus,
    check_universal_against,
    deck_group,
    is_galois,
    is_galois_both,
    is_trivial_covering,
    lift_endofunctor,
    quotient_by_group,
    structure_iso,
)
from covcat.examples import base_category, cyclic_cover, \
    kronecker, kronecker_cover_twisted, rel_square, standard_bases, \
    triangle, triangle_base, triangle_cover, triangle_cover_twisted

from oracles import S3_SWAP, S3_UNIT, dense_lift, exhaustive_lifts, \
    full_subcategory, functor_axioms_hold, kronecker_covers, \
    kronecker_quiver, naive_fibre_dims, naive_rank, onto_kronecker, \
    product_iso, s3_kronecker_cover, sections_by_restriction


# lifts -----------------------------------------------------------------------


def test_lift_to_itself_is_identity(f1):
    h = lift_endofunctor(f1, "t0", "t0")
    assert h is not None
    assert functor_equal(h, identity_functor(f1.source))


def _explicit_shift(f1):
    """The sheet-swap automorphism of the double cover, built by hand."""
    src = f1.source
    swap = {}
    for x in src.objects:
        letter, index = x[:-1], int(x[-1])
        swap[x] = f"{letter}{(index + 1) % 2}"
    matrices = {pair: Matrix.identity(QQ, 1) for pair in src.hom_basis}
    return LinearFunctor(src, src, swap, matrices)


def test_lift_to_other_sheet_is_the_shift(f1):
    sigma = _explicit_shift(f1)
    # independent sanity: the explicit functor is valid and commutes with F
    assert validate_functor(sigma).ok
    assert functor_equal(compose(f1, sigma), f1)
    h = lift_endofunctor(f1, "t0", "t1")
    assert h is not None
    assert functor_equal(h, sigma)


def test_twisted_kronecker_has_no_cross_lift(kron_twisted):
    assert lift_endofunctor(kron_twisted, "x0", "x1") is None
    h = lift_endofunctor(kron_twisted, "x0", "x0")
    assert h is not None
    assert functor_equal(h, identity_functor(kron_twisted.source))


def test_exhaustive_search_agrees_on_twisted_kronecker(kron_twisted):
    assert exhaustive_lifts(kron_twisted, "x0", "x1") == []
    found = exhaustive_lifts(kron_twisted, "x0", "x0")
    assert len(found) == 1
    object_map, _ = found[0]
    assert all(object_map[x] == x for x in kron_twisted.source.objects)


def test_exhaustive_search_agrees_on_double_cover(f1):
    for target in ("t0", "t1"):
        found = exhaustive_lifts(f1, "t0", target)
        assert len(found) == 1
        lift = lift_endofunctor(f1, "t0", target)
        assert found[0][0] == lift.object_map


def test_lift_whose_transport_spans_two_sheets_is_rejected(
        triangle_half_twisted):
    # F(a0) = a is a1 - c1*b1 through the block at t1: no H with H(t0) = t1
    # has FH = F on hom(t0, s1), and the exhaustive search agrees
    fun = triangle_half_twisted
    assert validate_functor(fun).ok
    assert isinstance(check_covering(fun), CoveringCertificate)
    assert lift_endofunctor(fun, "t0", "t1") is None
    assert exhaustive_lifts(fun, "t0", "t1") == []
    h = lift_endofunctor(fun, "t0", "t0")
    assert functor_equal(h, identity_functor(fun.source))


def test_lift_precondition_errors(f1):
    with pytest.raises(ConstructionError):
        lift_endofunctor(f1, "t0", "u0")  # different fibres
    _, projection = product_with_set(triangle_base(), ["0", "1"])
    with pytest.raises(NotConnectedError):
        lift_endofunctor(projection, "(t,0)", "(t,1)")


@pytest.mark.parametrize("x, x_prime", [("nope", "t0"), ("t0", "nope")])
def test_lift_of_an_unknown_object_names_it(f1, x, x_prime):
    with pytest.raises(ConstructionError, match="nope is not an object"):
        lift_endofunctor(f1, x, x_prime)


# deck groups -------------------------------------------------------------------


def test_deck_group_orders(f1, f2, kron_twisted):
    assert deck_group(f1).order == 2
    assert deck_group(f2).order == 2
    assert deck_group(kron_twisted).order == 1
    ident = identity_functor(triangle_base())
    assert deck_group(ident).order == 1


def test_deck_group_is_a_group_acting_freely(galois_corpus, gf7_corpus):
    # the functor-level group laws that deck_group checks on object maps,
    # and the functor axioms, FH = F and invertibility that lift_endofunctor
    # reads off the covering certificate without re-proving them
    for name, fun in galois_corpus + gf7_corpus:
        deck = deck_group(fun)

        def index_of(h):
            found = [i for i, e in enumerate(deck.elements) if functor_equal(e, h)]
            assert len(found) == 1, name
            return found[0]

        idx = index_of(identity_functor(fun.source))
        for i, h in enumerate(deck.elements):
            assert validate_functor(h).ok, name
            rows = {pair: m.entries for pair, m in h.hom_matrices.items()}
            assert functor_axioms_hold(h.source, h.target, h.object_map,
                                       rows), name
            inv = is_isomorphism(h)
            assert inv is not None, name
            index_of(inv)
            assert functor_equal(compose(fun, h), fun), name
            for g in deck.elements:
                index_of(compose(h, g))
            if i != idx:
                for x in fun.source.objects:
                    assert deck.act(i, x) != x, name


def test_deck_group_of_a_one_object_source():
    point = path_category(Quiver(("v",), ()), [], QQ)
    assert deck_group(identity_functor(point)).order == 1


def test_deck_group_rejects_lifts_that_are_not_closed(monkeypatch):
    cover = triangle_cover(3)
    # without the lift to one sheet of the anchor's fibre, the other lifts
    # of the Z/3 cover are not closed under composition
    missing = check_covering(cover).fibres[cover.target.objects[0]][1]
    real_lift = galois._lift

    def lift_missing_one_sheet(fun, x, x_prime, cert):
        if x_prime == missing:
            return None
        return real_lift(fun, x, x_prime, cert)

    monkeypatch.setattr(galois, "_lift", lift_missing_one_sheet)
    with pytest.raises(CovcatError):
        deck_group(cover)


def test_deck_group_checks_connectivity_once(monkeypatch):
    cover = triangle_cover(4)
    calls = []
    real = galois.connected_components

    def counting(cat):
        calls.append(cat)
        return real(cat)

    monkeypatch.setattr(galois, "connected_components", counting)
    assert deck_group(cover).order == 4
    assert len(calls) == 1


def test_structure_iso_after_a_galois_check_lifts_once_per_sheet(monkeypatch):
    """One deck group per functor: is_galois then structure_iso lift the
    generator of the Z/4 cover once between them, one lift and not two."""
    cover = triangle_cover(4)
    lifted = []
    real_lift = galois._lift

    def counting(fun, x, x_prime, cert):
        lifted.append(x_prime)
        return real_lift(fun, x, x_prime, cert)

    monkeypatch.setattr(galois, "_lift", counting)
    assert is_galois(cover, "direct").is_galois
    assert is_isomorphism(structure_iso(cover)) is not None
    assert deck_group(cover).order == 4
    assert lifted == [cover.fibre(cover.target.objects[0])[1]]


def _assert_deck_group_is_all_lifts(fun, name=""):
    """deck_group against an all-lifts oracle: lift_endofunctor to every
    object of the anchor's fibre gives the same object maps, in the same
    order, and each element's matrices are dense_lift's.  ``fun`` is
    rebuilt, so its deck group is generated afresh and every matrix of an
    element that was not lifted is read on demand."""
    fun = LinearFunctor(fun.source, fun.target, fun.object_map,
                        fun.hom_matrices)
    fibre = fun.fibre(fun.target.objects[0])
    lifts = [h for h in (lift_endofunctor(fun, fibre[0], y) for y in fibre)
             if h is not None]
    deck = deck_group(fun)
    assert [{x: deck.act(i, x) for x in fun.source.objects}
            for i in range(deck.order)] == [h.object_map for h in lifts], name
    for h in deck.elements:
        got = (h.object_map,
               {pair: m.entries for pair, m in h.hom_matrices.items()})
        assert got == dense_lift(fun, fibre[0], h.object_map[fibre[0]]), name


def test_generated_deck_groups_are_the_groups_of_all_lifts(
        galois_corpus, gf7_corpus, f2, kron_twisted):
    # at n = 12 the products of the generator reach x2 .. x11 in that
    # order, and name order puts x10 and x11 first
    for name, fun in galois_corpus + gf7_corpus + [
            ("triangle/twisted", f2), ("kronecker/twisted", kron_twisted),
            ("kronecker/twisted/GF7", kronecker_cover_twisted(GF(7))),
            ("triangle/twisted/n3", triangle_cover_twisted(3)),
            ("kronecker/n12", cyclic_cover(kronecker(), 12))]:
        _assert_deck_group_is_all_lifts(fun, name)


def _lifted_sheets(monkeypatch, fun) -> list:
    """The fibre objects deck_group(fun) lifts the anchor to."""
    lifted = []
    real_lift = galois._lift

    def counting(fun, x, x_prime, cert):
        lifted.append(x_prime)
        return real_lift(fun, x, x_prime, cert)

    monkeypatch.setattr(galois, "_lift", counting)
    deck_group(fun)
    monkeypatch.setattr(galois, "_lift", real_lift)
    return lifted


def test_a_cyclic_cover_is_generated_by_one_lift(monkeypatch, cyclic_corpus,
                                                 gf7_corpus):
    for name, plain in cyclic_corpus + gf7_corpus:
        fun = LinearFunctor(plain.source, plain.target, plain.object_map,
                            plain.hom_matrices)
        n = len(fun.fibre(fun.target.objects[0]))
        assert len(_lifted_sheets(monkeypatch, fun)) == min(n - 1, 1), name
        assert deck_group(fun).order == n, name


@pytest.mark.parametrize("wq, transports", [
    pytest.param(triangle, 56, id="triangle"),
    pytest.param(kronecker, 32, id="kronecker"),
    pytest.param(rel_square, 80, id="rel_square")])
def test_a_lift_transports_each_nonzero_hom_once(monkeypatch, wq, transports):
    """A hom into a reached object from an unreached one is read through
    the target block, and that matrix is kept: the one generator lift of a
    Z/8 cover transports each non-zero source hom once, not twice."""
    fun = cyclic_cover(wq(), 8)
    blocks = _record_calls(monkeypatch, galois._transport)
    deck_group(fun)
    assert len(blocks) == len(fun.source.hom_basis) == transports
    assert {block.direction for block in blocks} == {"source", "target"}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_one_sheet_twisted_kronecker_cover_tries_every_other_sheet(
        monkeypatch, field, n):
    """be on one sheet sent to al + be: every lift but the identity is
    refused, so all n − 1 sheets besides the anchor's are tried."""
    plain = cyclic_cover(kronecker(), n, field)
    unit, twist = [(1, 0), (0, 1)], [(1, 0), (1, 1)]
    for s in range(n):
        fun = _with_arrow_images(plain, [twist if t == s else unit
                                         for t in range(n)])
        assert len(_lifted_sheets(monkeypatch, fun)) == n - 1, s
        assert deck_group(fun).order == 1, s


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_the_s3_graded_cover_has_deck_group_s3(monkeypatch, field):
    """The smash-product cover of the Kronecker quiver graded by S₃: two
    lifts generate all six elements, which do not commute."""
    cover = s3_kronecker_cover({S3_UNIT}, field)
    assert _lifted_sheets(monkeypatch, cover) == ["x1", "x2"]
    deck = deck_group(cover)
    assert deck.order == 6
    assert is_galois_both(cover).is_galois
    _assert_deck_group_is_all_lifts(cover)
    test_deck_group_is_a_group_acting_freely([("S3", cover)], [])
    assert any(not functor_equal(compose(h, g), compose(g, h))
               for h in deck.elements for g in deck.elements)
    quotient, projection = quotient_by_group(cover.source, deck)
    assert len(quotient.objects) == 2
    assert validate_category(quotient).ok
    assert validate_functor(projection).ok
    assert isinstance(check_covering(projection), CoveringCertificate)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_the_s3_coset_cover_of_a_non_normal_subgroup_is_not_galois(field):
    """H = ⟨(0 1)⟩ is its own normaliser in S₃, so the deck group of the
    cover by its three right cosets is N(H)/H = 1."""
    cover = s3_kronecker_cover({S3_UNIT, S3_SWAP}, field)
    assert deck_group(cover).order == 1
    assert is_galois_both(cover).status is GaloisStatus.NON_GALOIS
    fibre = cover.fibre("x")
    assert [len(exhaustive_lifts(cover, fibre[0], y)) for y in fibre] == \
        [1, 0, 0]
    _assert_deck_group_is_all_lifts(cover)


def test_deck_matrices_are_read_only_when_asked_for():
    """The direct method reads no matrix beyond the generator lift's, and
    the quotient reads some of the others but builds no element."""
    cover = triangle_cover(4)
    homs = len(cover.source.hom_basis)
    assert is_galois(cover, "direct").is_galois
    table = cover._deck
    assert sorted(map(len, table._read)) == [0, 0, 0, homs]
    quotient_by_group(cover.source, deck_group(cover))
    assert "elements" not in vars(table)
    assert homs < sum(map(len, table._read)) < 2 * homs


def test_a_deck_element_that_does_not_lie_over_the_covering_is_refused(
        kron_twisted):
    """The sheet swap of the twisted Kronecker cover is no deck element: its
    matrix on the twisted hom is refused when it is read."""
    swap = {"x0": "x1", "x1": "x0", "y0": "y1", "y1": "y0"}
    group = DeckGroup(kron_twisted, kron_twisted.covering, (swap,), [{}])
    assert group.matrix(0, "x0", "x0").entries == ((1,),)
    with pytest.raises(CovcatError, match="does not lie over the covering"):
        group.elements


def test_deck_group_is_generated_once_per_functor(kron_twisted):
    cover = triangle_cover(3)
    assert deck_group(cover) is deck_group(cover) is cover._deck
    assert deck_group(kron_twisted) is deck_group(kron_twisted)


def test_the_cached_deck_group_makes_no_reference_cycle():
    cover = triangle_cover(3)
    assert deck_group(cover).order == 3
    gone = weakref.ref(cover)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del cover
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


def test_trusted_lifts_rebuild_through_the_public_constructors(
        galois_corpus, gf7_corpus):
    """Deck elements and their matrices skip the constructors' checks; each
    passes them, and the functor axioms, when rebuilt."""
    for name, fun in galois_corpus + gf7_corpus:
        for h in deck_group(fun).elements:
            matrices = {pair: Matrix(m.field, m.nrows, m.ncols, m.entries)
                        for pair, m in h.hom_matrices.items()}
            rebuilt = LinearFunctor(h.source, h.target, dict(h.object_map),
                                    matrices)
            assert functor_equal(rebuilt, h), name
            assert validate_functor(h).ok, name
            assert all(type(row) is tuple for m in h.hom_matrices.values()
                       for row in m.entries), name


def test_galois_stability(f1, f2):
    for fun in (f1, f2):
        for h in deck_group(fun).elements:
            assert functor_equal(compose(fun, h), fun)


def test_transitivity_propagates_to_every_fibre(f1):
    deck = deck_group(f1)
    cert = check_covering(f1)
    for b in f1.target.objects:
        fibre = set(cert.fibres[b])
        for x in fibre:
            assert set(deck.orbit(x)) == fibre


# sections ------------------------------------------------------------------------


def _assert_sections(fun):
    """The triviality witness of ``fun`` lists every connected component of
    the source, and each has a section S: F∘S = 1, S's image is exactly its
    component, and that image's full subcategory has the base's total
    dimension.  Returns the sections keyed by the objects of their images."""
    result = is_trivial_covering(fun)
    assert result.trivial and result.failing_component is None
    witness = result.witness
    parts, _ = connected_components(fun.source)
    assert witness.components == parts
    _, sections, _ = sections_by_restriction(fun)
    assert len(sections) == len(parts)
    through = {}
    for component, s in zip(witness.components, sections):
        assert functor_equal(compose(fun, s), identity_functor(fun.target))
        assert tuple(sorted(s.object_map.values())) == component
        sub, _ = full_subcategory(fun.source, component)
        assert sub.total_dim() == fun.target.total_dim()
        for x in component:
            assert s.object_map[fun.object_map[x]] == x
            through[x] = s
    return through


def test_section_through_product_sheet():
    base = triangle_base()
    _, projection = product_with_set(base, ["0", "1"])
    through = _assert_sections(projection)
    assert through["(t,1)"].object_map["t"] == "(t,1)"


def test_no_section_through_connected_double_cover(f1):
    result = is_trivial_covering(f1)
    assert not result.trivial and result.witness is None
    assert result.failing_component == f1.source.objects


def test_sections_exist_through_every_object_of_the_square(f1):
    fp = fibre_product(f1, f1)
    through = _assert_sections(fp.pr1)
    assert set(through) == set(fp.category.objects)


# triviality ------------------------------------------------------------------------


def test_product_projection_is_trivial():
    base = triangle_base()
    product, projection = product_with_set(base, ["0", "1"])
    result = is_trivial_covering(projection)
    assert result.trivial
    assert len(result.witness.labels) == 2
    _, sections, _ = sections_by_restriction(projection)
    iso = product_iso(projection, result.witness.labels, sections)
    assert is_isomorphism(iso) is not None
    assert functor_equal(compose(projection, iso),
                         product_with_set(base, result.witness.labels)[1])


def test_connected_double_cover_is_not_trivial(f1):
    result = is_trivial_covering(f1)
    assert not result.trivial
    assert result.failing_component == tuple(sorted(f1.source.objects))


def test_square_of_galois_cover_is_trivial(f1):
    fp = fibre_product(f1, f1)
    result = is_trivial_covering(fp.pr1)
    assert result.trivial
    assert len(result.witness.labels) == 2


def _assert_triviality_agrees(fun, name=""):
    """is_trivial_covering, deciding by objects, agrees with the sections
    oracle on verdict, components and failing component."""
    result = is_trivial_covering(fun)
    parts, sections, failing = sections_by_restriction(fun)
    assert result.trivial == (sections is not None), name
    assert result.failing_component == failing, name
    if result.trivial:
        assert result.witness.components == parts, name
        assert result.witness.labels == tuple(p[0] for p in parts), name
    else:
        assert result.witness is None, name


def _sum_of_covers(*covers):
    """The coproduct of coverings of one base: the i-th cover's names get
    the prefix "i:", so its component sorts after those of the earlier
    covers."""
    base = covers[0].target
    objects, hom_basis, identity, composition = [], {}, {}, {}
    object_map, matrices = {}, {}
    for i, cover in enumerate(covers):
        src = cover.source

        def tag(name):
            return f"{i}:{name}"

        for x in src.objects:
            objects.append(tag(x))
            identity[tag(x)] = src.identity[x]
            object_map[tag(x)] = cover.object_map[x]
        for (x, y), basis in src.hom_basis.items():
            hom_basis[(tag(x), tag(y))] = tuple(map(tag, basis))
            matrices[(tag(x), tag(y))] = cover.hom_matrices[(x, y)]
        for (f, g), coords in src.composition.items():
            composition[(tag(f), tag(g))] = coords
    total = LinearCategory(base.field, tuple(objects), hom_basis, identity,
                           composition)
    return LinearFunctor(total, base, object_map, matrices)


def test_triviality_agrees_with_sections_oracle(galois_corpus, f1):
    """Connected coverings, sums of one-sheeted and two-sheeted coverings,
    products of every standard base with a set, and Z/n covers and
    products over GF(7)."""
    for name, fun in galois_corpus:
        _assert_triviality_agrees(fun, name)
    one = identity_functor(f1.target)
    for covers in ((one, f1), (f1, one), (one, one), (one, f1, f1)):
        _assert_triviality_agrees(_sum_of_covers(*covers))
    mixed = is_trivial_covering(_sum_of_covers(one, f1, f1))
    assert mixed.failing_component == tuple(f"1:{x}" for x in f1.source.objects)
    for field in (QQ, GF(7)):
        for wq in standard_bases():
            for labels in (["0"], ["0", "1"], ["a", "b", "c"]):
                _, projection = product_with_set(base_category(wq, field), labels)
                _assert_triviality_agrees(projection, f"{wq.name}x{len(labels)}")
            cover = cyclic_cover(wq, 3, field)
            _assert_triviality_agrees(cover, f"{wq.name}/n3")


def test_triviality_agrees_on_fibre_product_projections(fibre_product_corpus):
    """Every projection that is a covering of a connected category."""
    checked = 0
    for name, fp in fibre_product_corpus:
        for pr in (fp.pr1, fp.pr2):
            if (connected_components(pr.target)[1]
                    and isinstance(check_covering(pr), CoveringCertificate)):
                _assert_triviality_agrees(pr, name)
                checked += 1
    assert checked > len(fibre_product_corpus)


def test_triviality_rejects_disconnected_target():
    base = triangle_base()
    product, _ = product_with_set(base, ["0", "1"])
    with pytest.raises(NotConnectedError):
        is_trivial_covering(identity_functor(product))


# Galois verdicts ----------------------------------------------------------------------


def test_galois_verdicts_for_the_running_examples(f1, f2, kron_twisted,
                                                  triangle_half_twisted):
    v1 = is_galois_both(f1)
    assert v1.status is GaloisStatus.GALOIS and v1.deck.order == 2
    v2 = is_galois_both(f2)
    assert v2.status is GaloisStatus.GALOIS and v2.deck.order == 2
    vk = is_galois_both(kron_twisted)
    assert vk.status is GaloisStatus.NON_GALOIS
    assert vk.deck.order == 1
    assert vk.unreachable == ("x1",)
    vh = is_galois_both(triangle_half_twisted)
    assert vh.status is GaloisStatus.NON_GALOIS
    assert vh.unreachable == ("s1",)


def test_galois_gating_verdicts():
    base = triangle_base()
    _, projection = product_with_set(base, ["0", "1"])
    assert is_galois(projection, "direct").status is GaloisStatus.NOT_CONNECTED
    _, incl = full_subcategory(base, ("t", "u"))
    verdict = is_galois(incl, "direct")
    assert verdict.status is GaloisStatus.NOT_COVERING
    assert verdict.covering_failure.kind == "not-surjective"


def _record_calls(monkeypatch, real) -> list:
    """The first argument of every call of ``real``, whatever covcat name
    it is called through."""
    calls = []

    def recording(first, *args):
        calls.append(first)
        return real(first, *args)

    for name, module in list(sys.modules.items()):
        if name == "covcat" or name.startswith("covcat."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, recording)
    return calls


@pytest.mark.parametrize("make, galois_status", [
    pytest.param(lambda: triangle_cover(3), GaloisStatus.GALOIS, id="galois"),
    pytest.param(kronecker_cover_twisted, GaloisStatus.NON_GALOIS,
                 id="non-galois")])
def test_both_methods_share_one_covering_check(monkeypatch, make,
                                               galois_status):
    """Every decision reads F.covering, the one cached check_covering(F):
    is_galois_both checks F once, whatever name it is called through."""
    fun = make()
    checked = _record_calls(monkeypatch, check_covering)
    assert is_galois_both(fun).status is galois_status
    assert sum(f is fun for f in checked) == 1
    assert fun.covering is fun.covering
    assert fun.covering == check_covering(fun)


def _is_monomial(m: Matrix) -> bool:
    """Each column has one non-zero entry, and no two share a row."""
    hits = [[i for i, e in enumerate(col) if e != m.field.zero]
            for col in zip(*m.entries)]
    return all(len(h) == 1 for h in hits) and \
        len({h[0] for h in hits}) == len(hits)


@pytest.mark.parametrize("make, galois", [
    pytest.param(lambda: cyclic_cover(rel_square(), 8, QQ), True, id="Q"),
    pytest.param(lambda: cyclic_cover(rel_square(), 8, GF(7)), True, id="GF7"),
    pytest.param(kronecker_cover_twisted, False, id="kronecker-twisted")])
def test_fibre_method_inverts_only_the_covering_blocks(monkeypatch, make,
                                                       galois):
    """The fibre method checks F once, and decides the pullback projection
    without a covering check or an inverse of its own.  F's monomial
    blocks are read off; only the others are eliminated."""
    fun = make()
    checked = _record_calls(monkeypatch, check_covering)
    inverted = _record_calls(monkeypatch, rank_and_inverse)
    assert is_galois(fun, "fibre").is_galois is galois
    assert [f is fun for f in checked] == [True]
    assert inverted == [block.matrix for block in fun.covering.blocks.values()
                        if not _is_monomial(block.matrix)]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_universality_checks_each_functor_once(monkeypatch, field):
    u = cyclic_cover(rel_square(), 4, field)
    g = cyclic_cover(rel_square(), 2, field)
    checked = _record_calls(monkeypatch, check_covering)
    assert check_universal_against(u, [g]).universal_relative_to_family
    assert sorted(map(id, checked)) == sorted([id(u), id(g)])


def _assert_pullback_dims_match_oracle(u, g, name):
    dims = naive_fibre_dims(u, g)
    field = u.target.field
    rows_of = {}
    for (q, q2), space, _ in fibprod._pullback_spaces(u, g):
        d = u.source.dim(q[0], q2[0])
        if space == fibprod._WHOLE:
            space = [tuple(field.one if i == j else field.zero
                           for j in range(d)) for i in range(d)]
        else:
            space = space[0]
        # each V is a subspace of C(x, x2), given by independent rows
        assert all(len(row) == d for row in space), name
        assert naive_rank([list(r) for r in space], field) == len(space), name
        rows_of[(fibprod._pair_name(*q), fibprod._pair_name(*q2))] = space
    # every object of P has a non-zero endomorphism space
    assert {p for p, p2 in rows_of if p == p2} == {p for p, _ in dims}, name
    for (p, p2), dim in dims.items():
        assert len(rows_of.get((p, p2), ())) == dim, (name, p, p2)


def test_pullback_hom_dims_match_oracle(galois_corpus, gf7_corpus,
                                        pullback_pairs):
    """The hom spaces the fibre method reads through the covering
    certificate, against textbook elimination of [u | −g]."""
    for name, fun in galois_corpus + gf7_corpus:
        _assert_pullback_dims_match_oracle(fun, fun, name)
    for name, cover, incl in pullback_pairs:
        _assert_pullback_dims_match_oracle(incl, cover, name)


def test_fibre_method_agrees_with_exhaustive_lifts(small_corpus):
    """Galois by the fibre method iff every object of the anchor's fibre is
    reached by a lift that the backtracking search finds."""
    for name, fun in small_corpus:
        fibre = check_covering(fun).fibres[fun.target.objects[0]]
        lifted = all(exhaustive_lifts(fun, fibre[0], x) for x in fibre)
        assert is_galois(fun, "fibre").is_galois == lifted, name


def _built_pullback_decision(u, g):
    """check_covering, then is_trivial_covering, of the pr1 of the fibre
    product built by the kernel join, which does not read the table the
    decision is made on."""
    pr1 = fibprod._kernel_join(u, g).pr1
    built = check_covering(pr1)
    if isinstance(built, CoveringCertificate):
        built = is_trivial_covering(pr1)
    return built


def test_pullback_decision_matches_fibre_product(
        f1, f2, kron_twisted, triangle_half_twisted, galois_corpus, gf7_corpus,
        pullback_pairs):
    """The fibre-product criterion read through g's certificate gives the
    witness, or the triviality result, of the built fibre product's pr1:
    on a singular block, a block with a column too many, several owners
    of one transported matrix, and trivial and non-trivial projections;
    on the square of every corpus covering and on every pullback pair."""
    # over the double cover of the Kronecker base, [[1, 0], [1, 0]] gives
    # a source block of the right size but rank 1, and [[1, 0], [0, 0]] one
    # with a column too many; over the double cover of x ⇉ y with arrows of
    # weights 0, 0, 1, 1, the last matrix gives a source block stacking
    # ker u twice, of size 4 and rank 2
    kronecker_cover = cyclic_cover(kronecker(), 2)
    pairs = [(onto_kronecker(kronecker_cover, rows), kronecker_cover)
             for rows in ([[1, 0], [1, 0]], [[1, 0], [0, 0]], [[0, 1], [1, 0]])]
    four_arrows = cyclic_cover(kronecker_quiver(4), 2)
    rank_two = (onto_kronecker(four_arrows, [[1, 0, 0, 0], [0, 1, 0, 0],
                                             [1, 0, 0, 0], [0, 1, 0, 0]]),
                four_arrows)
    pairs.append(rank_two)
    pairs += [(f1, f2), (f2, f1), (f1, f1), (kron_twisted, kron_twisted),
              (triangle_half_twisted, f1), (f1, triangle_half_twisted),
              (triangle_half_twisted, triangle_half_twisted)]
    pairs += [(fun, fun) for _, fun in galois_corpus + gf7_corpus]
    pairs += [(incl, cover) for _, cover, incl in pullback_pairs]
    kinds = set()
    for u, g in pairs:
        got = galois._pullback_triviality(u, g)
        assert got == _built_pullback_decision(u, g)
        kinds.add(getattr(got, "kind", None) or got.trivial)
    assert kinds == {"block-singular", "block-dimension", True, False}
    assert galois._pullback_triviality(*rank_two).actual_dim == 2


_KRONECKER_COVERS = kronecker_covers()


# derandomized, so that the suite's verdict depends only on the code
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_pullback_decision_matches_fibre_product_on_random_functors(data):
    """Functors from a free quiver x ⇉ y onto the two- or three-arrow
    Kronecker base, with a random matrix on hom(x, y), against Z/d covers
    of the base: their pullbacks reach blocks of several P-homs, blocks
    with too few or too many columns, and singular blocks."""
    g = data.draw(st.sampled_from(_KRONECKER_COVERS))
    field, k = g.target.field, g.target.dim(*g.target.objects)
    entries = st.integers(-1, 2) if field is QQ else st.integers(0, 6)
    m = data.draw(st.integers(1, k + 1))
    rows = data.draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                              min_size=k, max_size=k))
    u = onto_kronecker(g, rows)
    assert galois._pullback_triviality(u, g) == _built_pullback_decision(u, g)


def _renamed(fun: LinearFunctor, rename: dict) -> LinearFunctor:
    """``fun`` with its source objects renamed; basis names are kept."""
    src, r = fun.source, (lambda x: rename.get(x, x))
    cat = LinearCategory(
        src.field, tuple(map(r, src.objects)),
        {(r(x), r(y)): basis for (x, y), basis in src.hom_basis.items()},
        {r(x): coords for x, coords in src.identity.items()}, src.composition)
    return LinearFunctor(
        cat, fun.target, {r(x): b for x, b in fun.object_map.items()},
        {(r(x), r(y)): m for (x, y), m in fun.hom_matrices.items()})


def _name_clash_cover() -> LinearFunctor:
    """The Kronecker double cover with x0, x1 renamed "a", "a,a": its square
    has the pairs (a, a,a) and (a,a, a), both named "(a,a,a)"."""
    return _renamed(cyclic_cover(kronecker(), 2), {"x0": "a", "x1": "a,a"})


def test_clashing_pair_names_are_refused_before_deciding():
    f = _name_clash_cover()
    assert is_galois(f, "direct").is_galois
    for decide in (lambda: is_galois(f, "fibre"),
                   lambda: check_universal_against(f, [f]),
                   lambda: fibre_product(f, f)):
        with pytest.raises(ConstructionError, match="^duplicate object names$"):
            decide()


def test_clashing_pullback_basis_names_are_refused_as_fibre_product_does():
    """P-homs ((s,t), (u,v)>(u,v)) and ((s,t)>(u,v), (u,v)) would both name
    their basis "(s,t)>(u,v)>(u,v)#0"; the object names are all distinct."""
    plain = cyclic_cover(kronecker(), 2)
    u = _renamed(plain, {"x0": "s", "x1": "s1", "y0": "u", "y1": "u1"})
    g = _renamed(plain, {"x0": "t", "x1": "t)>(u,v", "y0": "v)>(u,v",
                         "y1": "v"})
    with pytest.raises(ConstructionError) as built:
        fibre_product(u, g)
    assert str(built.value).startswith("basis name '(s,t)>(u,v)>(u,v)#0'")
    for decide in (lambda: galois._pullback_triviality(u, g),
                   lambda: check_universal_against(u, [g])):
        with pytest.raises(ConstructionError) as decided:
            decide()
        assert str(decided.value) == str(built.value)


def test_pullback_decision_builds_no_category_or_functor(monkeypatch):
    """The fibre-product criterion decides on the table of hom spaces."""
    def refuse(*args, **kwargs):
        raise AssertionError("a category or functor was built")

    for fun in (cyclic_cover(rel_square(), 4), kronecker_cover_twisted()):
        with monkeypatch.context() as patch:
            patch.setattr(LinearCategory, "__init__", refuse)
            patch.setattr(LinearFunctor, "__init__", refuse)
            patch.setattr(LinearFunctor, "_trusted", refuse)
            result = galois._pullback_triviality(fun, fun)
        assert result == _built_pullback_decision(fun, fun)


def _record_walks(monkeypatch) -> list:
    """The objects of every category whose components are walked."""
    walked = []
    real = lincat._walk_components

    def recording(objects, neighbours):
        walked.append(objects)
        return real(objects, neighbours)

    monkeypatch.setattr(lincat, "_walk_components", recording)
    return walked


def test_the_direct_method_walks_the_source_once(monkeypatch):
    fun = cyclic_cover(triangle(), 8)
    walked = _record_walks(monkeypatch)
    assert is_galois(fun, "direct").is_galois
    assert walked == [fun.source.objects]
    assert is_galois(fun, "fibre").is_galois
    assert walked == [fun.source.objects]


def test_universality_walks_each_source_once(monkeypatch):
    u = cyclic_cover(rel_square(), 4)
    family = [cyclic_cover(rel_square(), 2), cyclic_cover(rel_square(), 4)]
    walked = _record_walks(monkeypatch)
    assert check_universal_against(u, family).universal_relative_to_family
    assert [[o is f.source.objects for f in [u] + family] for o in walked] == [
        [True, False, False], [False, True, False], [False, False, True]]


# the dense transport oracle --------------------------------------------------------


def _assert_lifts_match_dense(fun, name=""):
    """lift_endofunctor against the dense lift rule, for every x' in the
    anchor's fibre: the same object map and matrices, or both None."""
    fibre = fun.fibre(fun.target.objects[0])
    for x_prime in fibre:
        h = lift_endofunctor(fun, fibre[0], x_prime)
        dense = dense_lift(fun, fibre[0], x_prime)
        got = None if h is None else (
            h.object_map, {pair: m.entries for pair, m in h.hom_matrices.items()})
        assert got == dense, (name, x_prime)


def test_deck_lifts_match_the_dense_transport(galois_corpus, gf7_corpus):
    for name, fun in galois_corpus + gf7_corpus:
        _assert_lifts_match_dense(fun, name)


def _with_arrow_images(plain: LinearFunctor, images) -> LinearFunctor:
    """A Kronecker cover ``plain`` with each arrow out of sheet s sent to
    images[s][i], where e_i is the base basis vector it went to."""
    (x, _), field = plain.target.objects, plain.target.field
    sheet = {u: s for s, u in enumerate(plain.fibre(x))}
    matrices = dict(plain.hom_matrices)
    for (u, v), m in plain.hom_matrices.items():
        if u != v:
            cols = [images[sheet[u]][m.column(j).index(1)]
                    for j in range(m.ncols)]
            matrices[(u, v)] = Matrix.from_columns(field, cols, m.nrows)
    return LinearFunctor(plain.source, plain.target, plain.object_map, matrices)


def _inverse_entries(fun) -> set:
    return {a for block in fun.covering.blocks.values()
            for row in block.inverse.entries for a in row}


def test_deck_lifts_match_the_dense_transport_through_non_unit_inverses():
    """Fibre blocks whose inverses hold a Fraction over Q and entries other
    than 0 and 1 over GF(7): on one image for every sheet (Galois), and
    with one sheet twisted (not)."""
    for field, shared in ((QQ, [(2, 0), (1, Fraction(1, 2))]),
                          (GF(7), [(3, 0), (1, 2)])):
        plain = cyclic_cover(kronecker(), 2, field)
        galois_cover = _with_arrow_images(plain, [shared, shared])
        twisted = _with_arrow_images(plain, [shared, [(1, 0), (0, 1)]])
        entries = _inverse_entries(galois_cover)
        if field == QQ:
            assert any(isinstance(a, Fraction) for a in entries)
        else:
            assert entries - {0, 1}
        assert deck_group(galois_cover).order == 2
        assert deck_group(twisted).order == 1
        for fun in (galois_cover, twisted):
            _assert_lifts_match_dense(fun, field.kind)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_deck_lifts_match_the_dense_transport_on_random_covers(data):
    """Z/d covers of the two- or three-arrow Kronecker quiver onto its base,
    each arrow sent to λ·e_i plus a combination of the e_j before e_i
    (λ ≠ 0), where e_i is its unit image: every fibre block is triangular
    up to its column order, so the functor covers.  One image per arrow is
    shared by every sheet but a drawn set of twisted sheets."""
    plain = data.draw(st.sampled_from(_KRONECKER_COVERS))
    field, (x, y) = plain.target.field, plain.target.objects
    k = plain.target.dim(x, y)
    if field == QQ:
        units = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
        scalars = st.sampled_from([0, 1, -1, Fraction(1, 3)])
    else:
        units, scalars = st.integers(1, 6), st.integers(0, 6)

    def images():
        return [tuple(data.draw(units) if j == i else
                      data.draw(scalars) if j < i else 0 for j in range(k))
                for i in range(k)]

    sheets = len(plain.fibre(x))
    shared = images()
    twisted = data.draw(st.sets(st.integers(0, sheets - 1)))
    fun = _with_arrow_images(plain, [images() if s in twisted else shared
                                     for s in range(sheets)])
    assert isinstance(fun.covering, CoveringCertificate)
    _assert_lifts_match_dense(fun)


def test_fibre_decisions_build_no_fibre_product(monkeypatch, f1, f2,
                                                kron_twisted):
    def refuse(*args, **kwargs):
        raise AssertionError("the decision built a fibre product")

    for module, attr in ((fibprod, "fibre_product"),
                         (fibprod, "category_from_model"),
                         (lincat, "category_from_model"),
                         (galois, "category_from_model"),
                         (galois, "fibre_product")):
        monkeypatch.setattr(module, attr, refuse, raising=False)
    assert is_galois(f1, "fibre").is_galois
    assert not is_galois(kron_twisted, "fibre").is_galois
    report = check_universal_against(f1, [f1, f2])
    assert [c.passed for c in report.checks] == [True, False]


def test_twisted_kronecker_square_has_an_alien_component(kron_twisted):
    fp = fibre_product(kron_twisted, kron_twisted)
    _, sections, failing = sections_by_restriction(fp.pr1)
    assert sections is None and failing, \
        "some component must fail to project isomorphically"


# quotients -------------------------------------------------------------------------


def test_quotient_of_double_cover(f1):
    deck = deck_group(f1)
    quotient, projection = quotient_by_group(f1.source, deck)
    assert validate_category(quotient).ok
    assert quotient.objects == ("s0", "t0", "u0")
    assert quotient.dim("t0", "s0") == 2  # c0*b0 into s0 plus a0 into s1
    assert validate_functor(projection).ok
    cert = check_covering(projection)
    assert isinstance(cert, CoveringCertificate)


def test_quotient_by_trivial_group(kron_twisted):
    group = deck_group(kron_twisted)
    assert group.order == 1
    quotient, projection = quotient_by_group(kron_twisted.source, group)
    assert is_isomorphism(projection) is not None
    assert quotient.total_dim() == kron_twisted.source.total_dim()


def test_quotient_rejects_non_free_action():
    """The freeness check deck_group runs refuses the identity with the
    flip of b and c on three objects a, b, c: the flip fixes a alone."""
    with pytest.raises(ConstructionError, match="not free"):
        galois._check_free([(0, 1, 2), (0, 2, 1)])


def test_quotient_refuses_a_category_the_group_does_not_act_on(
        kron_twisted):
    """A deck group acts on its source, and on a category equal to it."""
    group = deck_group(triangle_cover(2))
    for cat in (triangle_base(), kron_twisted.source):
        with pytest.raises(ConstructionError, match="does not act on"):
            quotient_by_group(cat, group)
    quotient, _ = quotient_by_group(triangle_cover(2).source, group)
    assert len(quotient.objects) == 3


# structure theorem -------------------------------------------------------------------


def test_structure_iso_for_double_cover(f1):
    prime = structure_iso(f1)
    assert is_isomorphism(prime) is not None
    verdict = is_galois(f1, "direct")
    quotient, projection = quotient_by_group(f1.source, verdict.deck)
    assert functor_equal(compose(prime, projection), f1)


def test_structure_iso_for_twisted_cover(f2):
    prime = structure_iso(f2)
    assert is_isomorphism(prime) is not None
    verdict = is_galois(f2, "direct")
    _, projection = quotient_by_group(f2.source, verdict.deck)
    assert functor_equal(compose(prime, projection), f2)


def test_structure_iso_identity_covering():
    ident = identity_functor(triangle_base())
    prime = structure_iso(ident)
    assert is_isomorphism(prime) is not None


def test_structure_iso_rejects_non_galois(kron_twisted):
    with pytest.raises(ConstructionError):
        structure_iso(kron_twisted)


def test_structure_iso_is_deterministic(f1):
    a = structure_iso(f1)
    b = structure_iso(f1)
    assert functor_equal(a, b)


# universality -------------------------------------------------------------------------


def test_universal_against_itself_passes(f1):
    report = check_universal_against(f1, [f1])
    assert report.universal_relative_to_family
    assert report.checks[0].passed


def test_universal_against_twisted_fails(f1, f2):
    report = check_universal_against(f1, [f2])
    assert not report.universal_relative_to_family
    check = report.checks[0]
    assert not check.passed
    assert check.covering_failure is not None
    assert check.covering_failure.kind == "block-dimension"


def test_identity_cover_is_not_universal(f1):
    ident = identity_functor(f1.target)
    report = check_universal_against(ident, [f1])
    assert not report.universal_relative_to_family
    assert report.checks[0].reason == "projection covering is not trivial"


def test_universality_rejects_non_galois_family(f1, kron_twisted):
    with pytest.raises(ConstructionError):
        check_universal_against(f1, [kron_twisted])
