"""Stars, fibre blocks, covering certificates and their witnesses."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covcat import covering
from covcat.exactalg import GF, QQ, Matrix, rank_and_inverse
from covcat.lincat import Quiver, connected_components, path_category, \
    product_with_set
from covcat.linfun import LinearFunctor, identity_functor
from covcat.covering import CoveringCertificate, CoveringFailure, \
    check_covering
from covcat.fibprod import fibre_product
from covcat.examples import base_category, cyclic_cover, kronecker, \
    kronecker_cover_twisted, triangle_base

from oracles import count_paths, fibre_block, full_subcategory, naive_rank, \
    star_dim


def test_star_at_u():
    # u -c-> s and t -b-> u, plus 1_u counted once out of u and once into u
    assert star_dim(triangle_base(), "u") == 4


def test_star_at_t_matches_path_enumeration():
    from covcat.examples import triangle
    counts = count_paths(triangle().quiver)
    out_dim = sum(n for (x, y), n in counts.items() if x == "t")
    in_dim = sum(n for (x, y), n in counts.items() if y == "t")
    assert (out_dim, in_dim) == (4, 1)
    assert star_dim(triangle_base(), "t") == out_dim + in_dim == 5


def test_star_counts_endomorphisms_twice():
    point = path_category(Quiver(("pt",), ()), [], QQ)
    assert star_dim(point, "pt") == 2


def test_certificate_for_double_cover(f1):
    cert = check_covering(f1)
    assert isinstance(cert, CoveringCertificate)
    assert cert.fibres == {"s": ("s0", "s1"), "t": ("t0", "t1"),
                           "u": ("u0", "u1")}
    block = cert.block("t", "s", "t0", "source")
    assert block.column_layout == (("s0", "c0*b0"), ("s1", "a0"))
    assert block.matrix == Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert block.matrix @ block.inverse == Matrix.identity(QQ, 2)


def test_certificate_for_twisted_cover_block(f2):
    cert = check_covering(f2)
    assert isinstance(cert, CoveringCertificate)
    block = cert.block("t", "s", "t0", "source")
    # in the (a, c*b) basis the twisted block is [[0,1],[1,1]]
    assert block.matrix == Matrix.from_rows(QQ, [[0, 1], [1, 1]])
    assert naive_rank([list(r) for r in block.matrix.entries], QQ) == 2


def test_fibre_product_projection_failure_witness(f1, f2):
    fp = fibre_product(f1, f2)
    failure = check_covering(fp.pr1)
    assert isinstance(failure, CoveringFailure)
    assert failure.kind == "block-dimension"
    assert (failure.base_src, failure.base_dst) == ("t0", "s1")
    assert failure.lift == "(t0,t0)"
    assert failure.direction == "source"
    assert failure.expected_dim == 1
    assert failure.actual_dim == 0
    assert "dimension 0, expected 1" in failure.message()


def test_not_surjective_witness():
    base = triangle_base()
    _, incl = full_subcategory(base, ("t", "u"))
    failure = check_covering(incl)
    assert isinstance(failure, CoveringFailure)
    assert failure.kind == "not-surjective"
    assert failure.missing_object == "s"


def test_product_projection_certificate_has_full_fibres():
    base = triangle_base()
    for labels in (["0"], ["0", "1"], ["0", "1", "2"]):
        _, projection = product_with_set(base, labels)
        cert = check_covering(projection)
        assert isinstance(cert, CoveringCertificate)
        for b in base.objects:
            assert len(cert.fibres[b]) == len(labels)


def test_star_dimensions_match_under_certificates(f1, f2, kron_twisted):
    for fun in (f1, f2, kron_twisted):
        cert = check_covering(fun)
        assert isinstance(cert, CoveringCertificate)
        for b in fun.target.objects:
            for x in cert.fibres[b]:
                assert star_dim(fun.source, x) == star_dim(fun.target, b)


def test_fibre_cardinality_constant_when_source_connected(f1, f2, kron_twisted):
    for fun in (f1, f2, kron_twisted):
        cert = check_covering(fun)
        sizes = {len(cert.fibres[b]) for b in fun.target.objects}
        assert len(sizes) == 1


def test_covering_with_connected_source_has_connected_target(f1):
    assert isinstance(check_covering(f1), CoveringCertificate)
    assert connected_components(f1.source)[1]
    assert connected_components(f1.target)[1]


def test_corpus_coverings_all_certify(galois_corpus):
    for name, fun in galois_corpus:
        cert = check_covering(fun)
        assert isinstance(cert, CoveringCertificate), name
        # every corpus source is connected, so every target is
        assert connected_components(fun.source)[1], name
        assert connected_components(fun.target)[1], name
        # stars match dimension for every lift, and fibres have constant size
        sizes = set()
        for b in fun.target.objects:
            sizes.add(len(cert.fibres[b]))
            base_star = star_dim(fun.target, b)
            for x in cert.fibres[b]:
                assert star_dim(fun.source, x) == base_star, name
        assert len(sizes) == 1, name


def test_product_projections_certify_for_all_bases():
    from covcat.examples import standard_bases, base_category
    for wq in standard_bases():
        base = base_category(wq)
        _, projection = product_with_set(base, ["0", "1", "2"])
        cert = check_covering(projection)
        assert isinstance(cert, CoveringCertificate)
        assert all(len(cert.fibres[b]) == 3 for b in base.objects)


# monomial read-off against elimination ----------------------------------------


def _by_elimination(fun):
    """``check_covering`` with every block eliminated, as dense views: each
    non-empty block is ``Matrix.from_columns`` of its columns, found by the
    oracle's own scan (``fibre_block``), and ``rank_and_inverse`` of that
    gives its verdict, its rank and its inverse.  A certificate is its
    fibres and each block's layout, matrix and inverse."""
    base = fun.target
    for b in base.objects:
        if not fun.fibre(b):
            return CoveringFailure("not-surjective", missing_object=b)
    blocks = {}
    for b in base.objects:
        for c in base.objects:
            dim = base.dim(b, c)
            for direction, lift, far in (
                    [("source", x, c) for x in fun.fibre(b)]
                    + [("target", z, b) for z in fun.fibre(c)]):
                layout, cols = fibre_block(fun, direction, lift, far)
                if len(cols) != dim:
                    return CoveringFailure("block-dimension", b, c, lift,
                                           direction, dim, len(cols))
                if dim == 0:
                    continue
                matrix = Matrix.from_columns(base.field, cols, dim)
                rank, inverse = rank_and_inverse(matrix)
                if inverse is None:
                    return CoveringFailure("block-singular", b, c, lift,
                                           direction, dim, rank)
                blocks[(b, c, lift, direction)] = (tuple(layout), matrix,
                                                   inverse)
    return {b: fun.fibre(b) for b in base.objects}, blocks


def _dense_views(result):
    """A certificate as ``_by_elimination`` gives one; a failure as is."""
    if isinstance(result, CoveringFailure):
        return result
    return result.fibres, {key: (block.column_layout, block.matrix,
                                 block.inverse)
                           for key, block in result.blocks.items()}


def _assert_read_off_agrees(fun, name=None):
    """Same verdict; for a certificate the same blocks, each with the same
    layout, matrix and inverse; for a failure the same witness, kind and
    rank."""
    assert _dense_views(check_covering(fun)) == _by_elimination(fun), name


def test_read_off_agrees_with_elimination_on_the_corpora(
        galois_corpus, gf7_corpus, fibre_product_corpus):
    for name, fun in galois_corpus + gf7_corpus:
        _assert_read_off_agrees(fun, name)
    # projections of fibre products: certificates and failure witnesses
    for name, fp in fibre_product_corpus:
        _assert_read_off_agrees(fp.pr1, name)
        _assert_read_off_agrees(fp.pr2, name)


def _scanned_sparse_rows(block):
    """The non-zero (column, entry) pairs of each row of the inverse of
    ``block.matrix``, eliminated afresh and found by a scan of every entry,
    grouped by the fibre object owning the row."""
    grouped = {}
    _, inverse = rank_and_inverse(block.matrix)
    for (w, _), row in zip(block.column_layout, inverse.entries):
        grouped.setdefault(w, []).append(
            tuple((j, e) for j, e in enumerate(row) if e != 0))
    return {w: tuple(rows) for w, rows in grouped.items()}


def _is_monomial(block) -> bool:
    """Each column of the block has one non-zero entry, no two in one row."""
    rows = [[i for i, a in enumerate(col) if a != 0]
            for col in zip(*block.matrix.entries)]
    return all(len(r) == 1 for r in rows) and \
        len({r[0] for r in rows}) == len(rows)


def test_sparse_inverse_rows_equal_a_scan_of_the_inverse(galois_corpus,
                                                         gf7_corpus):
    """A monomial block's inverse rows are read off as check_covering reads
    it; an eliminated block's come from a scan.  Both equal a scan of the
    inverse of the block's matrix, eliminated afresh: the ``inverse`` view
    is built from those rows, so it is not what they are compared with."""
    kinds = set()
    for name, fun in galois_corpus + gf7_corpus + [
            ("kronecker/twisted/GF7", kronecker_cover_twisted(GF(7)))]:
        for key, block in check_covering(fun).blocks.items():
            kinds.add(_is_monomial(block))
            assert block.inverse_rows == _scanned_sparse_rows(block), \
                (name, key)
    # the twisted Kronecker covers have blocks of both kinds
    assert kinds == {True, False}


def test_monomial_blocks_hold_their_sparse_inverse_when_read(galois_corpus,
                                                             gf7_corpus):
    """Straight after check_covering every block, monomial or eliminated
    (the twisted Kronecker covers' two), holds its inverse rows and neither
    dense view: _transport reads those rows, and builds no view."""
    kinds = set()
    for name, fun in galois_corpus + gf7_corpus + [
            ("kronecker/twisted/GF7", kronecker_cover_twisted(GF(7)))]:
        for key, block in check_covering(fun).blocks.items():
            dim = len(block.column_layout)
            transported = covering._transport(
                block, Matrix.identity(block.field, dim))
            assert not {"matrix", "inverse"} & vars(block).keys(), (name, key)
            assert [row for rows in transported.values() for row in rows] \
                == list(block.inverse.entries), (name, key)
            kinds.add(_is_monomial(block))
    assert kinds == {True, False}


def test_monomial_blocks_build_their_matrices_when_read(
        monkeypatch, cyclic_corpus, gf7_corpus):
    """Every block of a cyclic cover is monomial: check_covering builds no
    matrix for it, and its matrix and inverse are each built on their
    first read, once."""
    built = []
    trusted = Matrix._trusted.__func__
    monkeypatch.setattr(Matrix, "_trusted", classmethod(
        lambda cls, *parts: built.append(parts) or trusted(cls, *parts)))
    for name, fun in cyclic_corpus + gf7_corpus:
        built.clear()
        cert = check_covering(fun)
        assert built == [], name
        for key, block in cert.blocks.items():
            assert not {"matrix", "inverse"} & vars(block).keys(), (name, key)
            matrix = block.matrix
            assert "inverse" not in vars(block) and block.matrix is matrix
            assert matrix @ block.inverse == Matrix.identity(matrix.field,
                                                             matrix.nrows)
        assert len(built) == 2 * len(cert.blocks), name


def _kronecker_with(field, unit, columns):
    """The identity functor of the Kronecker category, with 1_x and 1_y
    sent to ``unit`` and hom(x, y) to the 2×2 matrix of ``columns``, all
    entries given unreduced through the public constructors."""
    cat = base_category(kronecker(), field)
    matrices = dict(identity_functor(cat).hom_matrices)
    for x in cat.objects:
        matrices[(x, x)] = Matrix(field, 1, 1, ((unit,),))
    matrices[("x", "y")] = Matrix(field, 2, 2, tuple(zip(*columns)))
    return LinearFunctor(cat, cat, {x: x for x in cat.objects}, matrices)


@pytest.mark.parametrize("field, unit, columns, rank, eliminated", [
    pytest.param(QQ, 1, [(0, Fraction(1, 2)), (2, 0)], None, 0,
                 id="Q-scaled-permuted"),
    pytest.param(QQ, Fraction(4, 2), [(Fraction(2, 1), 0), (0, -1)], None, 0,
                 id="Q-unreduced-fractions"),
    pytest.param(GF(7), 3, [(0, 5), (3, 0)], None, 0,
                 id="GF7-scaled-permuted"),
    pytest.param(GF(7), 8, [(7, 8), (8, 7)], None, 0, id="GF7-unreduced"),
    pytest.param(QQ, 1, [(1, 0), (2, 0)], 1, 1, id="Q-two-columns-one-row"),
    pytest.param(QQ, 1, [(0, 0), (0, 1)], 1, 1, id="Q-zero-column"),
    pytest.param(GF(7), 1, [(7, 0), (0, 8)], 1, 1, id="GF7-zero-column-as-7"),
    pytest.param(GF(7), 1, [(5, 7), (3, 7)], 1, 1,
                 id="GF7-one-row-after-reduction"),
    pytest.param(GF(7), 7, [(1, 0), (0, 1)], 0, 1, id="GF7-unit-7-is-zero"),
    pytest.param(QQ, 1, [(1, 1), (1, 2)], None, 2, id="Q-not-monomial"),
])
def test_read_off_agrees_with_elimination_on_kronecker_blocks(
        monkeypatch, field, unit, columns, rank, eliminated):
    """The blocks are 1_x's, then hom(x, y)'s as a source and as a target
    block, then 1_y's; only those that are not monomial are eliminated."""
    fun = _kronecker_with(field, unit, columns)
    _assert_read_off_agrees(fun)
    calls = []
    monkeypatch.setattr(covering, "rank_and_inverse",
                        lambda m: calls.append(m) or rank_and_inverse(m))
    result = check_covering(fun)
    assert len(calls) == eliminated
    if rank is None:
        assert isinstance(result, CoveringCertificate)
    else:
        assert (result.kind, result.actual_dim) == ("block-singular", rank)


_SCALARS = {QQ: (1, -1, 2, Fraction(1, 2), Fraction(2, 1)),
            GF(7): (1, 3, 5, 6, 8)}
_ZEROS = {QQ: (0, Fraction(0)), GF(7): (0, 7)}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), field=st.sampled_from([QQ, GF(7)]),
       n=st.integers(1, 3))
def test_read_off_agrees_with_elimination_on_small_covers(data, field, n):
    """Every hom matrix of a Kronecker Z/n cover redrawn column by column:
    mostly scaled unit columns (so blocks come out scaled and permuted, or
    with two columns on one row), some zero and some dense columns."""
    plain = cyclic_cover(kronecker(), n, field)
    scalars, zeros = _SCALARS[field], _ZEROS[field]

    def column(d):
        kind = data.draw(st.sampled_from(("unit", "unit", "unit", "zero",
                                          "dense")))
        col = [data.draw(st.sampled_from(zeros)) for _ in range(d)]
        if kind == "unit":
            col[data.draw(st.integers(0, d - 1))] = \
                data.draw(st.sampled_from(scalars))
        elif kind == "dense":
            col = [data.draw(st.sampled_from(scalars)) for _ in range(d)]
        return col

    matrices = {}
    for key, m in plain.hom_matrices.items():
        cols = [column(m.nrows) for _ in range(m.ncols)]
        matrices[key] = Matrix(field, m.nrows, m.ncols, tuple(
            tuple(col[i] for col in cols) for i in range(m.nrows)))
    fun = LinearFunctor(plain.source, plain.target, plain.object_map, matrices)
    _assert_read_off_agrees(fun)
