"""Stars, fibre blocks, covering certificates and their witnesses."""

from covcat.exactalg import QQ, Matrix
from covcat.lincat import Quiver, connected_components, path_category, \
    product_with_set
from covcat.covering import CoveringCertificate, CoveringFailure, check_covering
from covcat.fibprod import fibre_product
from covcat.examples import triangle_base

from oracles import count_paths, full_subcategory, naive_rank, star_dim


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
