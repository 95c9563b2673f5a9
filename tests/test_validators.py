"""validate_category and validate_functor against the dense oracles.

Every violation tuple (kind, witness, message), in report order, must equal
the oracle's on the corpora, on their fibre products, on the one-object
group algebras of Z/d, and on categories and functors with one to three
structure constants, composites or identity coordinates mutated.  Under
the same mutations, a valid functor that ``_faithful`` accepts, onto a
valid category, leaves its source no violation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from covcat.exactalg import GF, QQ, Matrix
from covcat.examples import cyclic_cover, kronecker_cover_twisted, rel_square, \
    triangle_cover
from covcat.lincat import LinearCategory, category_from_algebra, validate_category
from covcat.linfun import LinearFunctor, _faithful, identity_functor, \
    validate_functor

from oracles import category_axiom_violations, functor_axiom_violations, \
    killed_nonassociative_functor, naive_rank


def _tuples(report) -> list:
    return [(v.kind, v.witness, v.message) for v in report.violations]


def _assert_category_matches(cat: LinearCategory) -> None:
    report = validate_category(cat)
    expected = category_axiom_violations(cat)
    assert _tuples(report) == expected
    assert report.ok == (not expected)


def _assert_functor_matches(fun: LinearFunctor) -> None:
    report = validate_functor(fun)
    expected = functor_axiom_violations(fun)
    assert _tuples(report) == expected
    assert report.ok == (not expected)


def _assert_all_match(fun: LinearFunctor) -> None:
    _assert_category_matches(fun.source)
    _assert_category_matches(fun.target)
    _assert_functor_matches(fun)


def group_algebra(d: int, field=QQ) -> LinearCategory:
    """The group algebra of Z/d as a one-object category: every composite
    of two basis elements is a basis element, never zero."""
    basis = [f"g{i}" for i in range(d)]
    mult = {(f"g{i}", f"g{j}"): {f"g{(i + j) % d}": 1}
            for i in range(d) for j in range(d)}
    unit = [1] + [0] * (d - 1)
    return category_from_algebra(field, basis, mult, [("o", unit)])


def test_validators_match_the_oracles_on_the_galois_corpus(galois_corpus):
    for _, fun in galois_corpus:
        _assert_all_match(fun)


def test_validators_match_the_oracles_over_gf7(gf7_corpus):
    for _, fun in gf7_corpus:
        _assert_all_match(fun)


def test_validators_match_the_oracles_on_pullbacks(pullback_pairs):
    for _, _, incl in pullback_pairs:
        _assert_all_match(incl)


def test_validators_match_the_oracles_on_fibre_products(fibre_product_corpus):
    for _, fp in fibre_product_corpus:
        _assert_category_matches(fp.category)
        _assert_functor_matches(fp.pr1)
        _assert_functor_matches(fp.pr2)


@pytest.mark.parametrize("d", range(1, 13))
def test_validators_match_the_oracles_on_cyclic_group_algebras(d):
    _assert_category_matches(group_algebra(d))


# mutations ---------------------------------------------------------------------

# small valid functors whose categories and matrices get mutated
_BASES = [
    triangle_cover(2),
    cyclic_cover(rel_square(), 2, GF(7)),
    kronecker_cover_twisted(),
    cyclic_cover(rel_square(), 1, GF(2)),
]
_ALGEBRAS = [group_algebra(d, field) for d, field in ((3, QQ), (4, GF(7)))]
_COEFFS = st.sampled_from([0, 1, 2, -1, 3])


def _mutate_category(data, cat: LinearCategory) -> LinearCategory:
    """``cat`` with one to three changes, each a coefficient of a recorded
    composite, a composite recorded where there was none, or an identity
    coordinate."""
    field = cat.field
    composition = dict(cat.composition)
    identity = dict(cat.identity)
    location = cat.basis_location
    composable = sorted((f, g) for f in location for g in location
                        if location[f][1] == location[g][0]
                        and cat.dim(location[f][0], location[g][1]))
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["coefficient", "composite", "identity"]))
        if kind == "identity":
            x = data.draw(st.sampled_from(cat.objects))
            coords = list(identity[x])
            t = data.draw(st.integers(0, len(coords) - 1))
            coords[t] = field.scalar(data.draw(_COEFFS))
            if any(c != field.zero for c in coords):
                identity[x] = tuple(coords)
            continue
        if kind == "coefficient" and composition:
            key = data.draw(st.sampled_from(sorted(composition)))
        else:
            key = data.draw(st.sampled_from(composable))
        f, g = key
        dim = cat.dim(location[f][0], location[g][1])
        coords = list(composition.get(key, (field.zero,) * dim))
        t = data.draw(st.integers(0, dim - 1))
        coords[t] = field.scalar(data.draw(_COEFFS))
        composition[key] = tuple(coords)
    return LinearCategory(field, cat.objects, cat.hom_basis, identity, composition)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_validate_category_matches_the_oracle_under_mutation(data):
    fun = data.draw(st.sampled_from(_BASES))
    cat = data.draw(st.sampled_from([fun.source, fun.target, *_ALGEBRAS]))
    _assert_category_matches(_mutate_category(data, cat))


def _mutated_functor(data) -> LinearFunctor:
    """A functor of ``_BASES`` with its source, its target or one to three
    matrix entries mutated."""
    fun = data.draw(st.sampled_from(_BASES))
    source, target = fun.source, fun.target
    matrices = dict(fun.hom_matrices)
    which = data.draw(st.sampled_from(["matrices", "source", "target"]))
    if which == "source":
        source = _mutate_category(data, source)
    elif which == "target":
        target = _mutate_category(data, target)
    else:
        field = source.field
        for _ in range(data.draw(st.integers(1, 3))):
            pair = data.draw(st.sampled_from(sorted(
                p for p, m in matrices.items() if m.nrows)))
            m = matrices[pair]
            i = data.draw(st.integers(0, m.nrows - 1))
            j = data.draw(st.integers(0, m.ncols - 1))
            rows = [list(r) for r in m.entries]
            rows[i][j] = field.scalar(data.draw(_COEFFS))
            matrices[pair] = Matrix(field, m.nrows, m.ncols,
                                  tuple(tuple(r) for r in rows))
    return LinearFunctor(source, target, fun.object_map, matrices)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_validate_functor_matches_the_oracle_under_mutation(data):
    _assert_functor_matches(_mutated_functor(data))


def _injective_by_rank(fun: LinearFunctor) -> bool:
    """Every hom matrix has rank equal to its column count, by the
    textbook row reduction."""
    return all(naive_rank(m.entries, fun.source.field) == m.ncols
               for m in fun.hom_matrices.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_valid_faithful_functor_onto_a_valid_category_reflects_its_axioms(
        data):
    """The argument that lets ``check`` and ``validate`` skip a source
    scan: when the target passes, the functor passes and ``_faithful``
    holds, the source has no violation by the oracle's dense scan."""
    fun = _mutated_functor(data)
    assert _faithful(fun) == _injective_by_rank(fun)
    if validate_category(fun.target).ok and validate_functor(fun).ok \
            and _faithful(fun):
        assert category_axiom_violations(fun.source) == []


def test_faithful_refuses_a_killed_or_rank_deficient_hom():
    killed = killed_nonassociative_functor()
    assert not _faithful(killed) and not _injective_by_rank(killed)
    # hom(x0, y0) goes to a column with two entries, injective by its rank
    assert _faithful(kronecker_cover_twisted())
    fun = identity_functor(kronecker_cover_twisted().target)
    assert _faithful(fun) and _injective_by_rank(fun)
    field, matrices = fun.source.field, dict(fun.hom_matrices)
    [pair] = [p for p, m in matrices.items() if m.ncols == 2]
    # two equal non-zero columns: neither monomial nor of full rank
    matrices[pair] = Matrix(field, 2, 2, ((1, 1), (1, 1)))
    singular = LinearFunctor(fun.source, fun.target, fun.object_map, matrices)
    assert not _faithful(singular) and not _injective_by_rank(singular)
    # a dense invertible block passes by its rank
    matrices[pair] = Matrix(field, 2, 2, ((1, 1), (0, 1)))
    dense = LinearFunctor(fun.source, fun.target, fun.object_map, matrices)
    assert _faithful(dense) and _injective_by_rank(dense)


# work guard --------------------------------------------------------------------


def test_validators_compose_no_vectors(monkeypatch):
    """The validators read the table of non-zero composites; they build no
    basis vector and call no dense bilinear composite."""
    fun = cyclic_cover(rel_square(), 4)

    def refuse(*args, **kwargs):
        raise AssertionError("validators must not call this")

    monkeypatch.setattr(LinearCategory, "compose_vectors", refuse)
    monkeypatch.setattr(LinearCategory, "basis_vector", refuse)
    assert validate_category(fun.source).ok
    assert validate_category(fun.target).ok
    assert validate_functor(fun).ok
