"""Categories: builders, validation, components, products."""

from dataclasses import replace
from fractions import Fraction

import pytest

from covcat.covering import CoveringCertificate, check_covering
from covcat.errors import ConstructionError
from covcat.exactalg import GF, QQ
from covcat.lincat import (
    LinearCategory,
    Quiver,
    by_source,
    category_from_algebra,
    connected_components,
    _path_category_data,
    path_category,
    product_with_set,
    validate_category,
)
from covcat.linfun import functor_equal, is_isomorphism, validate_functor
from covcat.examples import WeightedQuiver, base_category, cyclic_cover, \
    kronecker, rel_square, standard_bases, triangle, triangle_base, \
    triangle_cover

from oracles import bfs_components, count_paths, full_subcategory, \
    kronecker_quiver, lifted_cyclic_cover, naive_rank, quiver_paths, \
    relation_ideal


# quivers ----------------------------------------------------------------------


def test_quiver_rejects_cycles_and_bad_endpoints():
    with pytest.raises(ConstructionError):
        Quiver(("a", "b"), (("f", "a", "b"), ("g", "b", "a")))
    with pytest.raises(ConstructionError):
        Quiver(("a",), (("f", "a", "zz"),))
    with pytest.raises(ConstructionError):
        Quiver(("a", "a"), ())


def test_by_source_walks_composable_pairs_in_quadratic_scan_order():
    keys = list(triangle_cover(3).source.hom_basis)
    index = by_source(keys)
    walked = [(k, n) for k in keys for n in index.get(k[1], ())]
    scanned = [(k, n) for k in keys for n in keys if n[0] == k[1]]
    assert walked == scanned
    assert walked


# path categories ----------------------------------------------------------------


def test_one_arrow_path_category():
    q = Quiver(("x", "y"), (("f", "x", "y"),))
    cat = path_category(q, [], QQ)
    assert validate_category(cat).ok
    assert cat.dim("x", "x") == 1
    assert cat.dim("y", "y") == 1
    assert cat.dim("x", "y") == 1
    assert cat.dim("y", "x") == 0


def test_triangle_path_category_dimensions_match_path_count():
    wq = triangle()
    cat = path_category(wq.quiver, [], QQ)
    assert validate_category(cat).ok
    counts = count_paths(wq.quiver)
    assert cat.total_dim() == sum(counts.values()) == 7
    for (x, y), expected in counts.items():
        assert cat.dim(x, y) == expected
    assert cat.hom("t", "s") == ("a", "c*b")


@pytest.mark.parametrize("wq", standard_bases(), ids=lambda w: w.name)
def test_relation_free_dims_equal_path_counts(wq):
    cat = path_category(wq.quiver, [], QQ)
    counts = count_paths(wq.quiver)
    for x in wq.quiver.vertices:
        for y in wq.quiver.vertices:
            assert cat.dim(x, y) == counts.get((x, y), 0)


def test_triangle_with_killed_arrow():
    wq = triangle()
    cat = path_category(wq.quiver, [[(1, ["a"])]], QQ)
    assert validate_category(cat).ok
    assert cat.dim("t", "s") == 1
    assert cat.hom("t", "s") == ("c*b",)


def test_commutative_square_relation():
    q = Quiver(("p", "q", "r", "s"),
               (("f", "p", "q"), ("g", "q", "s"),
                ("h", "p", "r"), ("k", "r", "s")))
    rel = [(1, ["g", "f"]), (-1, ["k", "h"])]
    free = path_category(q, [], QQ)
    assert free.dim("p", "s") == 2  # two independent paths before the relation
    cat = path_category(q, [rel], QQ)
    assert validate_category(cat).ok
    assert cat.dim("p", "s") == 1
    # the two paths became equal in the quotient
    gf = cat.composition[("f", "g")]
    kh = cat.composition[("h", "k")]
    assert gf == kh and any(c != 0 for c in gf)


def test_relation_killing_a_whole_hom_space():
    """b∘a = 0 on x -a-> y -b-> z leaves hom(x, z) zero, not an error."""
    q = Quiver(("x", "y", "z"), (("a", "x", "y"), ("b", "y", "z")))
    cat = path_category(q, [[(1, ["b", "a"])]], QQ)
    assert validate_category(cat).ok
    assert (cat.dim("x", "y"), cat.dim("y", "z"), cat.dim("x", "z")) == (1, 1, 0)
    assert ("a", "b") not in cat.composition


def test_path_category_rejects_bad_relations():
    wq = triangle()
    with pytest.raises(ConstructionError):
        path_category(wq.quiver, [[(1, ["a"]), (1, ["b"])]], QQ)  # not parallel
    with pytest.raises(ConstructionError):
        path_category(wq.quiver, [[(1, ["a", "c"])]], QQ)  # not composable
    with pytest.raises(ConstructionError):
        path_category(wq.quiver, [[(1, ["zz"])]], QQ)


@pytest.mark.parametrize("weights, message", [
    pytest.param({"al": 0}, "arrow be has no integer weight", id="missing"),
    pytest.param({"al": 0, "be": 0.5}, "arrow be has no integer weight",
                 id="not-an-int")])
def test_cyclic_cover_refuses_a_bad_weight_naming_its_arrow(weights, message):
    wq = replace(kronecker(), weights=weights)
    with pytest.raises(ConstructionError, match=message):
        cyclic_cover(wq, 2)


def test_cyclic_cover_refuses_degree_zero_and_weights_against_its_relations():
    with pytest.raises(ConstructionError, match="degree must be positive"):
        cyclic_cover(triangle(), 0)
    wq = rel_square()
    wq = replace(wq, weights={**wq.weights, "f": 1})
    with pytest.raises(ConstructionError,
                       match="inconsistent with its relations"):
        cyclic_cover(wq, 2)


def _cover_or_refusal(build, wq, n, field):
    try:
        return build(wq, n, field)
    except ConstructionError as exc:
        return str(exc)


def _reweighted(wq, weight):
    """``wq`` with its first arrow of weight 1, its shift arrow, at
    ``weight``."""
    shift = next(a for a, w in wq.weights.items() if w == 1)
    return replace(wq, weights={**wq.weights, shift: weight})


def _refused(wq, n, name):
    return pytest.param(wq, (n,), True, id=f"refused-{name}")


def _clash(vertices, arrows, weights) -> WeightedQuiver:
    return WeightedQuiver("clash", Quiver(vertices, arrows), weights)


# (weighted quiver, degrees, refused): the five standard bases and
# kronecker_quiver(3), each also with its shift arrow reweighted to 2 and
# to -1; then one pair of quiver and degree per refusal
_COVER_CASES = [
    *(pytest.param(v, (*range(1, 9), 16), False, id=f"{wq.name}{suffix}")
      for wq in (*standard_bases(), kronecker_quiver(3))
      for v, suffix in ((wq, ""), (_reweighted(wq, 2), "-shift-2"),
                        (_reweighted(wq, -1), "-shift--1"))),
    _refused(triangle(), 0, "degree-0"),
    _refused(triangle(), -1, "degree-negative"),
    _refused(replace(kronecker(), weights={"al": 0}), 2, "weight-missing"),
    _refused(replace(kronecker(), weights={"al": 0, "be": 0.5}), 2,
             "weight-not-an-int"),
    _refused(replace(kronecker(), weights={"al": 0, "be": True}), 2,
             "weight-bool"),
    _refused(replace(rel_square(), weights={**rel_square().weights, "f": 1}),
             2, "weights-against-a-relation"),
    _refused(replace(kronecker(), relations=((),)), 3, "empty-relation"),
    _refused(_clash(("v", "v1", "w"), (("a", "v", "w"), ("c", "v1", "w")),
                    {"a": 1, "c": 0}), 11, "vertex-names-clash"),
    _refused(_clash(("x", "y"), (("b", "x", "y"), ("b1", "x", "y")),
                    {"b": 1, "b1": 0}), 11, "arrow-names-clash"),
    _refused(_clash(("u", "v", "w"), (("1_v1", "v", "w"),), {"1_v1": 0}),
             11, "basis-names-clash")]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("wq, degrees, refused", _COVER_CASES)
def test_cyclic_cover_equals_the_lifted_path_category(wq, degrees, refused,
                                                      field):
    """The cover read off the base is the path category of the lifted
    quiver modulo the lifted relations, with the same functor onto the
    base; each refusal is the lifted builder's, message for message."""
    for n in degrees:
        got = _cover_or_refusal(cyclic_cover, wq, n, field)
        want = _cover_or_refusal(lifted_cyclic_cover, wq, n, field)
        if refused:
            assert isinstance(want, str) and got == want, (got, want)
        else:
            assert functor_equal(got, want), n


@pytest.mark.parametrize("wq, n", [pytest.param(rel_square(), 455,
                                                id="rel_square"),
                                   pytest.param(kronecker(), 1251,
                                                id="kronecker")])
def test_cyclic_cover_is_built_past_the_lifted_path_budget(wq, n):
    """The lifted quiver has 11n and 4n paths: more than the path budget,
    which bounds only the base's quiver."""
    with pytest.raises(ConstructionError, match="paths"):
        lifted_cyclic_cover(wq, n)
    cert = check_covering(cyclic_cover(wq, n))
    assert isinstance(cert, CoveringCertificate)
    assert {len(xs) for xs in cert.fibres.values()} == {n}


def test_cyclic_cover_orders_lifts_as_the_base_orders_paths():
    """Lifted names can sort otherwise than the base's: x < x0, but x01
    (x0 from sheet 1) < x1.  The cover keeps the base's order, so hom(t1,
    u1) is spanned by the lift of x0, the base's survivor of x = x0; the
    lifted path category eliminates x01 and keeps x1."""
    wq = WeightedQuiver("x_x0", Quiver(("t", "u"), (("x", "t", "u"),
                                                    ("x0", "t", "u"))),
                        {"x": 0, "x0": 0}, (((1, ("x",)), (-1, ("x0",))),))
    assert base_category(wq).hom("t", "u") == ("x0",)
    assert cyclic_cover(wq, 2).source.hom("t1", "u1") == ("x01",)
    assert lifted_cyclic_cover(wq, 2).source.hom("t1", "u1") == ("x1",)


def _cover_quiver(wq, n):
    """The quiver and relations of ``cyclic_cover(wq, n)``, lifted sheet by
    sheet: arrow a of weight w runs from sheet i to sheet i + w."""
    weights = wq.weights
    vertices = tuple(f"{v}{i}" for v in wq.quiver.vertices for i in range(n))
    arrows = tuple((f"{a}{i}", f"{s}{i}", f"{d}{(i + weights[a]) % n}")
                   for a, s, d in wq.quiver.arrows for i in range(n))
    relations = []
    for rel in wq.relations:
        for i in range(n):
            terms = []
            for coeff, path in rel:
                sheet, lifted = i, []
                for a in reversed(path):
                    lifted.insert(0, f"{a}{sheet}")
                    sheet = (sheet + weights[a]) % n
                terms.append((coeff, lifted))
            relations.append(terms)
    return Quiver(vertices, arrows), relations


def _relation_cases():
    square = Quiver(("p", "q", "r", "s"),
                    (("f", "p", "q"), ("g", "q", "s"),
                     ("h", "p", "r"), ("k", "r", "s")))
    chain = Quiver(("x", "y", "z"), (("a", "x", "y"), ("b", "y", "z")))
    cases = [pytest.param(triangle().quiver, [[(1, ["a"])]], None,
                          id="killed_arrow"),
             pytest.param(square, [[(1, ["g", "f"]), (-1, ["k", "h"])]], None,
                          id="commutative_square"),
             pytest.param(chain, [[(1, ["b", "a"])]], None, id="killed_hom"),
             pytest.param(rel_square().quiver, list(rel_square().relations), None,
                          id="rel_square")]
    return cases + [pytest.param(*_cover_quiver(rel_square(), n), n,
                                 id=f"rel_square_cover{n}") for n in range(1, 5)]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("q, relations, degree", _relation_cases())
def test_path_classes_agree_with_relation_ideal_oracle(q, relations, degree,
                                                       field):
    """Each path minus the combination of surviving paths its class names
    lies in the span of the closed relations, and the survivors number the
    paths less the rank of that span."""
    if degree is not None:  # the quiver is that of a cyclic cover
        assert path_category(q, relations, field) == \
            cyclic_cover(rel_square(), degree, field).source
    data = _path_category_data(q, relations, field)
    ideal = relation_ideal(q, relations, field)
    zero = field.zero
    for (x, y), plist in quiver_paths(q).items():
        rows = [[vec.get(p, zero) for p in plist] for vec in ideal.get((x, y), ())]
        rank = naive_rank(rows, field)
        survivors = data.survivors.get((x, y), [])
        assert len(survivors) == len(plist) - rank
        for path in plist:
            cls = data.class_of_path(x, y, path)
            assert len(cls) == len(survivors)
            diff = {path: field.one}
            for c, s in zip(cls, survivors):
                diff[s] = field.sub(diff.get(s, zero), c)
            assert naive_rank(rows + [[diff.get(p, zero) for p in plist]],
                              field) == rank, (x, y, path)


def test_path_category_over_prime_field():
    wq = triangle()
    cat = path_category(wq.quiver, [], GF(2))
    assert validate_category(cat).ok
    assert cat.total_dim() == 7


# manual categories and validation ----------------------------------------------


def _broken_unit_category():
    oneq = Fraction(1)
    return LinearCategory(
        QQ,
        ("x", "y"),
        {("x", "x"): ("1_x",), ("y", "y"): ("1_y",), ("x", "y"): ("f",)},
        {"x": (oneq,), "y": (oneq,)},
        {
            ("1_x", "1_x"): (oneq,),
            ("1_y", "1_y"): (oneq,),
            ("1_x", "f"): (oneq,),
            # ("f", "1_y") omitted: 1_y∘f = 0, a broken left unit
        },
    )


def test_validate_reports_broken_unit():
    report = validate_category(_broken_unit_category())
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "left-unit" in kinds
    witnesses = {v.witness for v in report.violations}
    assert ("f",) in witnesses


def test_validate_reports_associativity_break():
    # chain w→x→y→z where hg∘f is declared zero but h∘gf is not
    one = Fraction(1)
    objects = ("w", "x", "y", "z")
    homs = {("w", "w"): ("1_w",), ("x", "x"): ("1_x",), ("y", "y"): ("1_y",),
            ("z", "z"): ("1_z",), ("w", "x"): ("f",), ("x", "y"): ("g",),
            ("y", "z"): ("h",), ("w", "y"): ("gf",), ("x", "z"): ("hg",),
            ("w", "z"): ("hgf",)}
    comp = {("1_w", "1_w"): (one,), ("1_x", "1_x"): (one,),
            ("1_y", "1_y"): (one,), ("1_z", "1_z"): (one,)}
    for name, (src, dst) in (("f", ("w", "x")), ("g", ("x", "y")),
                             ("h", ("y", "z")), ("gf", ("w", "y")),
                             ("hg", ("x", "z")), ("hgf", ("w", "z"))):
        comp[(f"1_{src}", name)] = (one,)
        comp[(name, f"1_{dst}")] = (one,)
    comp[("f", "g")] = (one,)    # g∘f = gf
    comp[("g", "h")] = (one,)    # h∘g = hg
    comp[("gf", "h")] = (one,)   # h∘gf = hgf
    # (f, hg) omitted: hg∘f = 0, so (h∘g)∘f = 0 ≠ hgf = h∘(g∘f)
    broken = LinearCategory(QQ, objects, homs,
                            {o: (one,) for o in objects}, comp)
    report = validate_category(broken)
    assert not report.ok
    assert any(v.kind == "associativity" and v.witness == ("f", "g", "h")
               for v in report.violations)


def test_construction_rejects_structural_garbage():
    one = Fraction(1)
    with pytest.raises(ConstructionError):  # no endomorphism space
        LinearCategory(QQ, ("x",), {}, {}, {})
    with pytest.raises(ConstructionError):  # zero identity
        LinearCategory(QQ, ("x",), {("x", "x"): ("e",)}, {"x": (Fraction(0),)}, {})
    with pytest.raises(ConstructionError):  # duplicate basis names
        LinearCategory(QQ, ("x", "y"),
                       {("x", "x"): ("e",), ("y", "y"): ("e",)},
                       {"x": (one,), "y": (one,)}, {})
    with pytest.raises(ConstructionError):  # non-composable structure constant
        LinearCategory(QQ, ("x", "y"),
                       {("x", "x"): ("1_x",), ("y", "y"): ("1_y",)},
                       {"x": (one,), "y": (one,)},
                       {("1_x", "1_y"): (one,)})


# categories from algebras ---------------------------------------------------------


def test_diagonal_algebra_category():
    mult = {("e1", "e1"): {"e1": 1}, ("e2", "e2"): {"e2": 1}}
    cat = category_from_algebra(QQ, ["e1", "e2"], mult,
                                [("e1", [1, 0]), ("e2", [0, 1])])
    assert validate_category(cat).ok
    assert cat.objects == ("e1", "e2")
    assert cat.dim("e1", "e1") == 1
    assert cat.dim("e2", "e2") == 1
    assert cat.dim("e1", "e2") == 0
    assert cat.dim("e2", "e1") == 0


def _matrix_unit_mult():
    # E_ij E_kl = delta_jk E_il on the basis E11, E12, E21, E22
    names = {(1, 1): "E11", (1, 2): "E12", (2, 1): "E21", (2, 2): "E22"}
    mult = {}
    for (i, j), a in names.items():
        for (k, l), b in names.items():
            if j == k:
                mult[(a, b)] = {names[(i, l)]: 1}
    return ["E11", "E12", "E21", "E22"], mult, names


def test_two_by_two_matrix_algebra_category():
    basis, mult, names = _matrix_unit_mult()
    cat = category_from_algebra(QQ, basis, mult,
                                [("E11", [1, 0, 0, 0]), ("E22", [0, 0, 0, 1])])
    assert validate_category(cat).ok
    # oracle: dim of E_jj·A·E_ii by ranking the spanning vectors f·b·e
    def unit_vec(name):
        return [Fraction(int(name == b)) for b in basis]

    def mul(u, v):
        out = [Fraction(0)] * 4
        for i, uc in enumerate(u):
            for j, vc in enumerate(v):
                entry = mult.get((basis[i], basis[j]))
                if entry:
                    for bname, c in entry.items():
                        out[basis.index(bname)] += uc * vc * c
        return out

    for e in ("E11", "E22"):
        for f in ("E11", "E22"):
            spanning = [mul(unit_vec(f), mul(unit_vec(b), unit_vec(e)))
                        for b in basis]
            assert cat.dim(e, f) == naive_rank(spanning, QQ) == 1


def test_single_idempotent_gives_endomorphism_algebra():
    # k[x]/(x^2): the whole algebra as a one-object category
    mult = {("one", "one"): {"one": 1}, ("one", "x"): {"x": 1},
            ("x", "one"): {"x": 1}}
    cat = category_from_algebra(QQ, ["one", "x"], mult, [("star", [1, 0])])
    assert validate_category(cat).ok
    assert cat.objects == ("star",)
    assert cat.dim("star", "star") == 2


def test_category_from_algebra_rejects_bad_idempotents():
    mult = {("e1", "e1"): {"e1": 1}, ("e2", "e2"): {"e2": 1}}
    with pytest.raises(ConstructionError):  # not idempotent
        category_from_algebra(QQ, ["e1", "e2"], mult, [("u", [1, 2])])
    with pytest.raises(ConstructionError):  # not orthogonal
        category_from_algebra(QQ, ["e1", "e2"], mult,
                              [("a", [1, 0]), ("b", [1, 1])])
    with pytest.raises(ConstructionError):  # does not sum to the unit
        category_from_algebra(QQ, ["e1", "e2"], mult, [("a", [1, 0])])


# connectivity ---------------------------------------------------------------------


def test_triangle_is_connected():
    parts, connected = connected_components(triangle_base())
    assert connected and len(parts) == 1


def test_two_sheets_disconnect():
    product, _ = product_with_set(triangle_base(), ["0", "1"])
    parts, connected = connected_components(product)
    assert not connected
    assert parts == bfs_components(product)
    assert len(parts) == 2


def test_double_cover_is_connected_bfs_oracle():
    cover = triangle_cover(2).source
    parts, connected = connected_components(cover)
    assert connected
    assert parts == bfs_components(cover)


def test_components_invariant_under_relabelling():
    product, _ = product_with_set(triangle_base(), ["0", "1"])
    rename = {x: f"zz{i}_{x}" for i, x in enumerate(product.objects)}
    renamed = LinearCategory(
        product.field,
        tuple(rename[x] for x in product.objects),
        {(rename[x], rename[y]): basis
         for (x, y), basis in product.hom_basis.items()},
        {rename[x]: coords for x, coords in product.identity.items()},
        dict(product.composition),
    )
    parts, _ = connected_components(product)
    renamed_parts, _ = connected_components(renamed)
    transported = {frozenset(rename[x] for x in part) for part in parts}
    assert transported == {frozenset(part) for part in renamed_parts}


# products -------------------------------------------------------------------------


def test_product_with_single_label_is_isomorphic_copy():
    base = triangle_base()
    product, projection = product_with_set(base, ["only"])
    assert validate_category(product).ok
    assert validate_functor(projection).ok
    assert product.total_dim() == base.total_dim()
    assert is_isomorphism(projection) is not None


def test_product_with_two_labels():
    base = triangle_base()
    product, projection = product_with_set(base, ["0", "1"])
    assert validate_category(product).ok
    assert validate_functor(projection).ok
    assert len(product.objects) == 6
    assert product.total_dim() == 14
    parts, _ = connected_components(product)
    assert len(parts) == 2
    assert is_isomorphism(projection) is None  # object map is 2:1


def test_product_of_point_with_three_labels():
    q = Quiver(("pt",), ())
    point = path_category(q, [], QQ)
    product, _ = product_with_set(point, ["0", "1", "2"])
    parts, _ = connected_components(product)
    assert len(parts) == 3


def test_product_rejects_empty_label_set():
    with pytest.raises(ConstructionError):
        product_with_set(triangle_base(), [])


def test_components_of_product_map_isomorphically():
    base = triangle_base()
    product, projection = product_with_set(base, ["0", "1", "2"])
    parts, _ = connected_components(product)
    assert len(parts) == 3
    from covcat.linfun import compose
    for part in parts:
        sub, incl = full_subcategory(product, part)
        assert is_isomorphism(compose(projection, incl)) is not None


# builders all validate --------------------------------------------------------------


@pytest.mark.parametrize("wq", standard_bases(), ids=lambda w: w.name)
def test_builder_outputs_validate(wq):
    cat = path_category(wq.quiver, wq.relations, QQ)
    assert validate_category(cat).ok
    product, _ = product_with_set(cat, ["0", "1"])
    assert validate_category(product).ok
    sub, _ = full_subcategory(cat, cat.objects[:2])
    assert validate_category(sub).ok
