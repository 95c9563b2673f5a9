"""Fibre products: construction, projections, pullbacks, universal property."""

import pytest
from hypothesis import given, settings, strategies as st

from covcat import documents as docs
from covcat.errors import ConstructionError, CovcatError
from covcat.exactalg import GF, QQ, Matrix, echelon_basis, express_in_echelon
from covcat.lincat import LinearCategory, validate_category
from covcat.linfun import LinearFunctor, compose, functor_equal, \
    hom_inverses, identity_functor, is_isomorphism, validate_functor
from covcat.covering import CoveringCertificate, CoveringFailure, \
    check_covering
from covcat.fibprod import fibre_product
from covcat import fibprod
from covcat.examples import cyclic_cover, kronecker, kronecker_cover_twisted, \
    standard_bases, triangle_base, triangle_cover
from covcat.galois import check_universal_against, is_galois

from oracles import S3_SWAP, S3_UNIT, full_subcategory, kronecker_covers, \
    kronecker_quiver, naive_fibre_dims, onto_kronecker, s3_kronecker_cover, \
    solve_mediating


def test_square_of_plain_cover(f1):
    fp = fibre_product(f1, f1)
    assert len(fp.category.objects) == 12
    assert validate_category(fp.category).ok
    for i in (0, 1):
        for j in (0, 1):
            src = f"(t{i},t{j})"
            dst = f"(s{(i + 1) % 2},s{(j + 1) % 2})"
            assert fp.category.dim(src, dst) == 1


def test_mixed_square_has_zero_diagonal_homs(f1, f2):
    fp = fibre_product(f1, f2)
    assert len(fp.category.objects) == 12
    for i in (0, 1):
        for j in (0, 1):
            src = f"(t{i},t{j})"
            dst = f"(s{(i + 1) % 2},s{(j + 1) % 2})"
            assert fp.category.dim(src, dst) == 0


def test_commuting_square_exact(f1, f2):
    for f, g in ((f1, f1), (f1, f2)):
        fp = fibre_product(f, g)
        assert functor_equal(compose(f, fp.pr1), compose(g, fp.pr2))
        assert validate_functor(fp.pr1).ok
        assert validate_functor(fp.pr2).ok


def test_pullback_along_identity_is_isomorphic_to_source(f1):
    fp = fibre_product(f1, identity_functor(f1.target))
    assert is_isomorphism(fp.pr1) is not None
    assert len(fp.category.objects) == len(f1.source.objects)


def test_fibre_product_rejects_mismatched_base(f1):
    other = identity_functor(f1.source)
    with pytest.raises(ConstructionError):
        fibre_product(f1, other)


def _objects_renamed(fun: LinearFunctor, rename: dict) -> LinearFunctor:
    """``fun`` with its source's objects renamed; basis names stay."""
    cat = fun.source

    def pairs(table):
        return {(rename[x], rename[y]): v for (x, y), v in table.items()}

    source = LinearCategory(cat.field, [rename[x] for x in cat.objects],
                            pairs(cat.hom_basis),
                            {rename[x]: v for x, v in cat.identity.items()},
                            cat.composition)
    return LinearFunctor(source, fun.target,
                         {rename[x]: b for x, b in fun.object_map.items()},
                         pairs(fun.hom_matrices))


def test_pair_objects_are_in_name_order():
    """With x0, x1, y0, y1 named a, a(, b, b(, the pairs' name order is not
    the order of the (x, y) tuples: "(" sorts before ","."""
    cover = _objects_renamed(cyclic_cover(kronecker(), 2),
                             {"x0": "a", "x1": "a(", "y0": "b", "y1": "b("})
    pair_of = fibprod._pair_objects(cover, cover)
    names = list(pair_of)
    assert names == sorted(names)
    assert list(pair_of.values()) != sorted(pair_of.values())
    fp = fibre_product(cover, cover)
    assert list(fp.category.objects) == names
    fibre, direct = is_galois(cover, "fibre"), is_galois(cover, "direct")
    assert fibre.status is direct.status


def test_composite_outside_a_present_hom_space_is_a_covcat_error(f1):
    # FX: F1 with b0 sent to 2·b, not a functor; the composite c∘(2·b0)
    # lands in a present hom space of F1 ×_B FX but outside its span
    hom_matrices = dict(f1.hom_matrices)
    hom_matrices[("t0", "u0")] = Matrix.from_rows(f1.source.field, [[2]])
    fx = LinearFunctor(f1.source, f1.target, f1.object_map, hom_matrices)
    with pytest.raises(CovcatError) as info:
        fibre_product(f1, fx)
    assert isinstance(info.value.__cause__, ValueError)


def test_is_fully_faithful():
    base = triangle_base()
    _, incl = full_subcategory(base, ("t", "u"))
    assert hom_inverses(incl) is not None
    assert hom_inverses(identity_functor(base)) is not None
    f1 = triangle_cover(2)
    # dim hom(t0, s1) = 1 < dim hom(t, s) = 2
    assert hom_inverses(f1) is None


def test_functor_killing_an_arrow_is_not_bijective_on_homs(arrow_functors):
    """Identity on the objects of x -a-> y with a sent to 0: every hom
    dimension matches, but the matrix on hom(x, y) is singular."""
    kill, _, _ = arrow_functors
    assert hom_inverses(kill) is None
    assert is_isomorphism(kill) is None
    witness = check_covering(kill)
    assert isinstance(witness, CoveringFailure)
    assert witness.kind == "block-singular"


def test_identity_on_objects_into_an_arrow_is_not_bijective_on_homs(
        arrow_functors):
    """Discrete {x, y} into x -a-> y: every source hom keeps its dimension,
    but hom(x, y) is never hit."""
    _, include, _ = arrow_functors
    assert hom_inverses(include) is None
    assert is_isomorphism(include) is None


def test_functor_onto_a_zero_hom_fails_its_block(arrow_functors):
    """x -a-> y onto discrete {x, y}: the base hom (x, y) is zero, but a
    lies over it, so its source block has one column too many."""
    _, _, collapse = arrow_functors
    witness = check_covering(collapse)
    assert witness == CoveringFailure("block-dimension", "x", "y", "x",
                                      "source", 0, 1)


def _assert_fibre_dims_match_oracle(f, g, name=""):
    fp = fibre_product(f, g)
    dims = naive_fibre_dims(f, g)
    assert set(fp.category.objects) == {p for p, _ in dims}, name
    for (p, p2), dim in dims.items():
        assert fp.category.dim(p, p2) == dim, (name, p, p2)
    return fp


def test_fibre_dims_match_oracle(galois_corpus, pullback_pairs, f1, f2):
    for name, fun in galois_corpus:
        _assert_fibre_dims_match_oracle(fun, fun, name)
    for name, cover, incl in pullback_pairs:
        _assert_fibre_dims_match_oracle(cover, incl, name)
    _assert_fibre_dims_match_oracle(f1, f2)


def test_fibre_dims_match_oracle_on_non_coverings(arrow_functors):
    """The arrow-killing functor against the identity, both ways; then pairs
    where a hom with a non-zero kernel has a zero hom opposite it, once on
    each side, so that the fibre product keeps that kernel as a hom."""
    kill, include, collapse = arrow_functors
    arrow, discrete = kill.source, collapse.target
    for f, g in ((kill, identity_functor(arrow)), (identity_functor(arrow), kill)):
        _assert_fibre_dims_match_oracle(f, g)
    for f, g in ((kill, include), (include, kill),
                 (collapse, identity_functor(discrete)),
                 (identity_functor(discrete), collapse)):
        fp = _assert_fibre_dims_match_oracle(f, g)
        assert fp.category.dim("(x,x)", "(y,y)") == 1


def test_projections_are_functors(fibre_product_corpus):
    # fibre_product builds both projections as functors and does not check
    # their axioms; check them here
    for name, fp in fibre_product_corpus:
        assert validate_functor(fp.pr1).ok, name
        assert validate_functor(fp.pr2).ok, name


def test_fibre_product_solves_kernels_only_over_nonzero_homs(monkeypatch):
    """One kernel per pair of homs over a common base hom, plus one per hom
    that has a zero hom opposite it; not one per pair of pair-objects."""
    calls = []
    solve = fibprod.kernel_basis
    monkeypatch.setattr(fibprod, "kernel_basis",
                        lambda m: calls.append(m) or solve(m))
    f = triangle_cover(8)
    fibre_product(f, f)
    over = {}
    for x, x2 in f.source.hom_basis:
        over.setdefault((f.object_map[x], f.object_map[x2]), []).append((x, x2))
    joined = sum(len(homs) ** 2 for homs in over.values())
    one_sided = sum(len(homs) for (b, b2), homs in over.items()
                    if len(homs) < len(f.fibre(b)) * len(f.fibre(b2)))
    assert len(calls) <= joined + 2 * one_sided


def test_decisions_on_a_covering_solve_no_kernel_of_it(monkeypatch):
    """The fibre method and universality hold u's covering certificate, so
    they solve no kernel of a hom matrix u(x, x2): each is zero.  Only
    spaces of several owners are solved for, and on the square of a Z/n
    cover there are none; fibre_product(f, f) reads f's certificate too,
    as f is g.  fibre_product(f, g) solves none of f's either while f's
    covering check has not been made: each hom of a Z/n cover has one
    entry per column, no two in one row, so its kernel is zero."""
    calls = []
    solve = fibprod.kernel_basis
    monkeypatch.setattr(fibprod, "kernel_basis",
                        lambda m: calls.append(id(m)) or solve(m))
    for wq in standard_bases():
        for field in (QQ, GF(7)):
            member = cyclic_cover(wq, 2, field)
            for n in (1, 2, 3, 4):
                name, f = f"{wq.name}/n{n}/{field}", cyclic_cover(wq, n, field)
                own = sorted(map(id, f.hom_matrices.values()))
                fibre_product(f, member)
                assert not set(calls) & set(own), name
                calls.clear()
                assert is_galois(f, "fibre").is_galois, name
                fibre_product(f, f)
                assert calls == [], name
                check_universal_against(f, [f, member])
                assert not set(calls) & set(own), name
                calls.clear()


def test_zero_kernels_are_read_off_the_column_pattern(monkeypatch):
    """Without u's covering check, fibre_product(u, g) reads the kernel of
    each hom u(x, x2) with one entry per column, no two in one row, as
    zero: none is solved for the Z/4 covers of the standard bases.  The
    twisted Kronecker cover's hom (x1, y0), whose column al + be has two
    entries, is the one of its homs solved."""
    calls = []
    solve = fibprod.kernel_basis
    monkeypatch.setattr(fibprod, "kernel_basis",
                        lambda m: calls.append(m) or solve(m))
    for wq in standard_bases():
        u = cyclic_cover(wq, 4)
        fibre_product(u, cyclic_cover(wq, 2))
        assert "covering" not in vars(u), wq.name
        assert calls == [], wq.name
    u = kronecker_cover_twisted()
    fibre_product(u, cyclic_cover(kronecker(), 2))
    assert "covering" not in vars(u)
    own = {id(m): pair for pair, m in u.hom_matrices.items()}
    assert [own[id(m)] for m in calls if id(m) in own] == [("x1", "y0")]


def _serialized(fp) -> tuple[str, str, str]:
    """The bytes of P, pr1 and pr2 as ``build fibre-product`` writes them."""
    return (docs.dumps(docs.category_to_json(fp.category, "P")),
            docs.dumps(docs.functor_to_json(fp.pr1, "P-pr1", "P", "C")),
            docs.dumps(docs.functor_to_json(fp.pr2, "P-pr2", "P", "D")))


def _assert_matches_the_kernel_join(f, g, name=""):
    """fibre_product over a covering g, read through g's certificate, gives
    the bytes of the kernel join of [f | −g]."""
    assert isinstance(g.covering, CoveringCertificate), name
    assert _serialized(fibre_product(f, g)) == \
        _serialized(fibprod._kernel_join(f, g)), name


def test_fibre_product_over_a_covering_matches_the_kernel_join(
        galois_corpus, gf7_corpus, pullback_pairs, f1, f2, kron_twisted,
        triangle_half_twisted):
    """Squares of every corpus covering, the running examples and the
    non-Galois covers against each other, the S₃-graded covers, and the
    pullbacks along full-subcategory inclusions; then functors onto the
    Kronecker double covers whose pullbacks hold kernel spaces, spaces of
    several owners and stacked kernels."""
    pairs = [(f"{name}^2", fun, fun) for name, fun in galois_corpus + gf7_corpus]
    pairs += [("f1*f2", f1, f2), ("f2*f1", f2, f1),
              ("kron_twisted^2", kron_twisted, kron_twisted),
              ("half*f1", triangle_half_twisted, f1),
              ("f1*half", f1, triangle_half_twisted),
              ("half^2", triangle_half_twisted, triangle_half_twisted)]
    for field in (QQ, GF(7)):
        galois_s3 = s3_kronecker_cover({S3_UNIT}, field)
        cosets = s3_kronecker_cover({S3_UNIT, S3_SWAP}, field)
        pairs += [(f"s3^2/{field.kind}", galois_s3, galois_s3),
                  (f"s3-cosets^2/{field.kind}", cosets, cosets),
                  (f"s3*cosets/{field.kind}", galois_s3, cosets)]
    pairs += [(name, incl, cover) for name, cover, incl in pullback_pairs]
    kronecker_cover = cyclic_cover(kronecker(), 2)
    pairs += [(str(rows), onto_kronecker(kronecker_cover, rows), kronecker_cover)
              for rows in ([[1, 0], [1, 0]], [[1, 0], [0, 0]], [[0, 1], [1, 0]])]
    four_arrows = cyclic_cover(kronecker_quiver(4), 2)
    pairs.append(("rank-two", onto_kronecker(
        four_arrows, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]),
        four_arrows))
    for name, f, g in pairs:
        _assert_matches_the_kernel_join(f, g, name)


_KRONECKER_COVERS = kronecker_covers()


# derandomized, so that the suite's verdict depends only on the code
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_fibre_product_matches_the_kernel_join_on_random_functors(data):
    """Functors from a free quiver x ⇉ y onto the two- or three-arrow
    Kronecker base, with a random matrix on hom(x, y), against Z/d covers
    of the base."""
    g = data.draw(st.sampled_from(_KRONECKER_COVERS))
    field, k = g.target.field, g.target.dim(*g.target.objects)
    entries = st.integers(-1, 2) if field is QQ else st.integers(0, 6)
    m = data.draw(st.integers(1, k + 1))
    rows = data.draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                              min_size=k, max_size=k))
    _assert_matches_the_kernel_join(onto_kronecker(g, rows), g)


def test_only_a_g_that_is_not_a_covering_reaches_the_kernel_join(
        monkeypatch, pullback_pairs, arrow_functors, f1):
    """The inclusions of proper full subcategories and the functors around
    one arrow are not coverings, and are joined; the covers, and the
    inclusion of a full subcategory on every object, are read through
    their certificates."""
    joined = []
    join = fibprod._kernel_join
    monkeypatch.setattr(fibprod, "_kernel_join",
                        lambda f, g: joined.append(g) or join(f, g))
    kill, include, collapse = arrow_functors
    arrow, discrete = kill.source, collapse.target
    pairs = [(f1, f1), (identity_functor(arrow), kill), (include, kill),
             (kill, include), (identity_functor(discrete), collapse)]
    for _, cover, incl in pullback_pairs:
        pairs += [(cover, incl), (incl, cover)]
    not_covering = [g for _, g in pairs
                    if isinstance(g.covering, CoveringFailure)]
    assert len(not_covering) > len(pullback_pairs)
    for f, g in pairs:
        fibre_product(f, g)
    assert list(map(id, joined)) == list(map(id, not_covering))


def _pullback_certificate(cover, fully_faithful):
    """The covering certificate of the second projection of the pullback of
    ``cover`` along a fully faithful functor."""
    assert isinstance(check_covering(cover), CoveringCertificate)
    assert hom_inverses(fully_faithful) is not None
    cert = check_covering(fibre_product(cover, fully_faithful).pr2)
    assert isinstance(cert, CoveringCertificate)
    return cert


def test_pullback_along_subcategory_inclusion(f1):
    _, incl = full_subcategory(f1.target, ("t", "u"))
    cert = _pullback_certificate(f1, incl)
    for d in incl.source.objects:
        assert len(cert.fibres[d]) == 2


def test_pullback_along_identity_matches_original(f1):
    cert = _pullback_certificate(f1, identity_functor(f1.target))
    original = check_covering(f1)
    for b in f1.target.objects:
        assert len(cert.fibres[b]) == len(original.fibres[b])
    assert len(cert.blocks) == len(original.blocks)


def test_pullback_of_twisted_cover(f2):
    _, incl = full_subcategory(f2.target, ("s", "u"))
    cert = _pullback_certificate(f2, incl)
    for d in incl.source.objects:
        assert len(cert.fibres[d]) == 2


def _swap_functor(fp_fg, fp_gf):
    """The canonical isomorphism C×_B D → D×_B C, built coordinate-wise."""
    cat, swapped = fp_fg.category, fp_gf.category
    field = cat.field

    def swap_name(name):
        inner = name[1:-1]
        x, y = inner.split(",", 1)
        return f"({y},{x})"

    object_map = {o: swap_name(o) for o in cat.objects}
    matrices = {}
    for (p, p2), basis in cat.hom_basis.items():
        sp, sp2 = swap_name(p), swap_name(p2)
        # kernel rows of the swapped hom, recovered through the pr matrices
        m1 = fp_gf.pr1.hom_matrices.get((sp, sp2))
        m2 = fp_gf.pr2.hom_matrices.get((sp, sp2))
        dim = swapped.dim(sp, sp2)
        target_rows = []
        for k in range(dim):
            unit = tuple(field.one if i == k else field.zero for i in range(dim))
            first = m1.apply(unit) if m1 is not None else ()
            second = m2.apply(unit) if m2 is not None else ()
            target_rows.append(tuple(first) + tuple(second))
        pivots = echelon_basis(field, target_rows)[1]
        cols = []
        for name in basis:
            vec = cat.basis_vector(name)
            a1 = fp_fg.pr1.hom_matrices[(p, p2)].apply(vec)
            a2 = fp_fg.pr2.hom_matrices[(p, p2)].apply(vec)
            swapped_concat = tuple(a2) + tuple(a1)
            cols.append(express_in_echelon(target_rows, pivots,
                                           swapped_concat, field))
        matrices[(p, p2)] = Matrix.from_columns(field, cols, dim)
    return LinearFunctor(cat, swapped, object_map, matrices)


def test_swap_symmetry(f1, f2):
    fp_fg = fibre_product(f1, f2)
    fp_gf = fibre_product(f2, f1)
    swap = _swap_functor(fp_fg, fp_gf)
    assert validate_functor(swap).ok
    assert is_isomorphism(swap) is not None
    assert functor_equal(compose(fp_gf.pr2, swap), fp_fg.pr1)
    assert functor_equal(compose(fp_gf.pr1, swap), fp_fg.pr2)


def test_corpus_squares_commute_and_cover(galois_corpus):
    """Every self fibre product has an exactly commuting square, and the
    first projection of a Galois covering's square is itself a covering."""
    from covcat.galois import GaloisStatus, is_galois
    for name, fun in galois_corpus:
        fp = fibre_product(fun, fun)
        assert functor_equal(compose(fun, fp.pr1), compose(fun, fp.pr2)), name
        if is_galois(fun, "direct").status is GaloisStatus.GALOIS:
            assert isinstance(check_covering(fp.pr1), CoveringCertificate), name


def test_mediating_functor_for_deck_graph(f1):
    """Cones (id, h) over the square of a Galois cover have unique mediators."""
    from covcat.galois import deck_group
    fp = fibre_product(f1, f1)
    deck = deck_group(f1)
    assert deck.order == 2
    for h in deck.elements:
        solutions = solve_mediating(fp, identity_functor(f1.source), h)
        assert len(solutions) == 1
        m = solutions[0]
        assert functor_equal(compose(fp.pr1, m), identity_functor(f1.source))
        assert functor_equal(compose(fp.pr2, m), h)
