"""Functors: validation, composition, equality, isomorphism testing."""

import pytest

from covcat.errors import ConstructionError
from covcat.covering import CoveringCertificate, check_covering
from covcat.exactalg import GF, Matrix, QQ
from covcat.lincat import LinearCategory, Quiver, path_category, product_with_set
from covcat.linfun import (
    LinearFunctor,
    compose,
    functor_equal,
    identity_functor,
    is_isomorphism,
    validate_functor,
)
from covcat.examples import base_category, kronecker, triangle_base, \
    triangle_cover


def test_identity_functor_is_valid(f1):
    ident = identity_functor(triangle_base())
    assert validate_functor(ident).ok
    assert validate_functor(identity_functor(f1.source)).ok


def test_unreduced_prime_field_entries_are_validated_as_residues():
    """Every 1 of the Kronecker category's identity functor over GF(7),
    written as 8 through the public constructors: the same functor, valid,
    and a covering."""
    ident = identity_functor(base_category(kronecker(), GF(7)))
    eights = {pair: Matrix(m.field, m.nrows, m.ncols, tuple(
        tuple(8 if a == 1 else a for a in row) for row in m.entries))
        for pair, m in ident.hom_matrices.items()}
    fun = LinearFunctor(ident.source, ident.target, ident.object_map, eights)
    assert validate_functor(fun).ok
    assert isinstance(check_covering(fun), CoveringCertificate)


def test_double_cover_functor_is_valid_and_respects_composites(f1):
    assert validate_functor(f1).ok
    # the composite c0∘b0 is forced onto c*b
    src, dst = f1.source, f1.target
    composite = src.composition[("b0", "c0")]
    image = f1.apply("t0", "s0", composite)
    assert image == dst.basis_vector("c*b")
    assert dst.hom("t", "s") == ("a", "c*b")
    assert f1.apply("t0", "s1", src.basis_vector("a0")) == dst.basis_vector("a")


def test_redirected_composite_is_reported(f1):
    # send c_i*b_i to a instead of c*b: a composition violation
    matrices = dict(f1.hom_matrices)
    for i in (0, 1):
        key = (f"t{i}", f"s{i}")
        matrices[key] = Matrix.from_rows(QQ, [[1], [0]])
    broken = LinearFunctor(f1.source, f1.target, dict(f1.object_map), matrices)
    report = validate_functor(broken)
    assert not report.ok
    assert any(v.kind == "composition" and v.witness == ("b0", "c0")
               for v in report.violations)


def test_functor_construction_rejects_shape_garbage(f1):
    matrices = dict(f1.hom_matrices)
    matrices[("t0", "s0")] = Matrix.from_rows(QQ, [[1]])
    with pytest.raises(ConstructionError):
        LinearFunctor(f1.source, f1.target, dict(f1.object_map), matrices)
    with pytest.raises(ConstructionError):
        LinearFunctor(f1.source, f1.target,
                      {x: "t" for x in f1.source.objects}, f1.hom_matrices)


def test_every_source_structure_constant_mutation_is_rejected(f1):
    """Perturbing any single structure constant of the source of a valid
    covering functor breaks functoriality."""
    src = f1.source
    count = 0
    for key in sorted(src.composition):
        coords = src.composition[key]
        for i in range(len(coords)):
            mutated = dict(src.composition)
            mutated[key] = tuple(
                c + 1 if j == i else c for j, c in enumerate(coords))
            cat = LinearCategory(src.field, src.objects, src.hom_basis,
                                 src.identity, mutated)
            fun = LinearFunctor(cat, f1.target, dict(f1.object_map),
                                dict(f1.hom_matrices))
            assert not validate_functor(fun).ok
            count += 1
    assert count >= 20


def test_identity_coordinate_mutations_are_rejected(f1):
    src = f1.source
    for x in src.objects:
        coords = src.identity[x]
        mutated = dict(src.identity)
        mutated[x] = tuple(c + 1 for c in coords)
        cat = LinearCategory(src.field, src.objects, src.hom_basis,
                             mutated, src.composition)
        fun = LinearFunctor(cat, f1.target, dict(f1.object_map),
                            dict(f1.hom_matrices))
        assert not validate_functor(fun).ok


def test_compose_identity_is_neutral(f1):
    left = compose(identity_functor(f1.target), f1)
    right = compose(f1, identity_functor(f1.source))
    assert functor_equal(left, f1)
    assert functor_equal(right, f1)


def test_compose_is_associative(f1):
    from oracles import full_subcategory
    sub, incl = full_subcategory(f1.source, ("s0", "t0", "u0"))
    ident = identity_functor(f1.target)
    lhs = compose(ident, compose(f1, incl))
    rhs = compose(compose(ident, f1), incl)
    assert functor_equal(lhs, rhs)


def test_compose_through_a_killed_hom_space():
    arrow = path_category(Quiver(("x", "y"), (("f", "x", "y"),)), [], QQ)
    points = path_category(Quiver(("x", "y"), ()), [], QQ)
    kill = LinearFunctor(
        arrow, points, {"x": "x", "y": "y"},
        {("x", "x"): Matrix.identity(QQ, 1),
         ("y", "y"): Matrix.identity(QQ, 1),
         ("x", "y"): Matrix.zeros(QQ, 0, 1)})
    assert validate_functor(kill).ok
    incl_target = triangle_base()
    embed = LinearFunctor(
        points, incl_target, {"x": "t", "y": "u"},
        {("x", "x"): Matrix.identity(QQ, 1),
         ("y", "y"): Matrix.identity(QQ, 1)})
    assert validate_functor(embed).ok
    comp = compose(embed, kill)
    assert validate_functor(comp).ok
    assert comp.hom_matrices[("x", "y")] == Matrix.zeros(QQ, 1, 1)


def test_functor_equal_is_exact(f1):
    same = LinearFunctor(f1.source, f1.target, dict(f1.object_map),
                         dict(f1.hom_matrices))
    assert functor_equal(f1, same)
    tweaked = dict(f1.hom_matrices)
    tweaked[("t0", "s0")] = Matrix.from_rows(QQ, [[0], [2]])
    assert not functor_equal(
        f1, LinearFunctor(f1.source, f1.target, dict(f1.object_map), tweaked))


def test_identity_is_isomorphism_and_self_inverse():
    base = triangle_base()
    ident = identity_functor(base)
    inv = is_isomorphism(ident)
    assert inv is not None
    assert functor_equal(inv, ident)


def test_projection_of_product_is_not_isomorphism():
    base = triangle_base()
    _, projection = product_with_set(base, ["0", "1"])
    assert is_isomorphism(projection) is None


def test_cover_functor_is_not_isomorphism(f1):
    assert is_isomorphism(f1) is None


def test_isomorphism_inverse_composes_to_identity():
    base = triangle_base()
    product, projection = product_with_set(base, ["only"])
    inv = is_isomorphism(projection)
    assert inv is not None
    assert functor_equal(compose(inv, projection), identity_functor(product))
    assert functor_equal(compose(projection, inv), identity_functor(base))


def test_degree_one_cover_is_isomorphism():
    one = triangle_cover(1)
    inv = is_isomorphism(one)
    assert inv is not None
    assert functor_equal(compose(one, inv), identity_functor(one.target))


def test_isomorphism_cross_check_over_corpus(cyclic_corpus):
    """Whenever an inverse is reported, both composites are identities;
    degree-one covers are exactly the corpus isomorphisms."""
    for name, fun in cyclic_corpus:
        inv = is_isomorphism(fun)
        degree = len(fun.source.objects) // len(fun.target.objects)
        if inv is None:
            assert degree > 1, name
        else:
            assert degree == 1, name
            assert functor_equal(compose(inv, fun),
                                 identity_functor(fun.source)), name
            assert functor_equal(compose(fun, inv),
                                 identity_functor(fun.target)), name
