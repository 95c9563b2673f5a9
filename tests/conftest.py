"""Shared corpus fixtures.

The corpus: the Z/n covers (n = 1..4) of five weighted-quiver bases, over
Q and over GF(7), two non-Galois double covers (the twisted Kronecker one
and the half-twisted triangle), pullbacks of the covers along
full-subcategory inclusions, functors around a single arrow that are not
coverings, and the fibre products of all of these.  Built once per
session.
"""

from __future__ import annotations

import pytest

from covcat.exactalg import GF, QQ, Matrix
from covcat.examples import (
    _replace_column,
    cyclic_cover,
    kronecker_cover_twisted,
    standard_bases,
    triangle_cover,
    triangle_cover_twisted,
)
from covcat.lincat import Quiver, connected_components, path_category
from covcat.linfun import LinearFunctor, identity_functor, validate_functor
from covcat.covering import CoveringCertificate, check_covering
from covcat.fibprod import fibre_product

from oracles import full_subcategory

# full-subcategory object subsets per base, used for the pullback corpus;
# the first subset of each base keeps the n-fold covers connected
PULLBACK_SUBSETS = {
    "triangle": (("s", "t"), ("t", "u"), ("s", "u")),
    "kronecker": (("x", "y"),),
    "free_square": (("p", "q", "s"), ("p", "r", "s"), ("p", "s")),
    "rel_square": (("p", "q", "s"), ("p", "s"), ("p", "r", "s")),
    "double_arrows": (("t", "u"), ("s", "u"), ("s", "t")),
}


@pytest.fixture(scope="session")
def f1():
    return triangle_cover(2)


@pytest.fixture(scope="session")
def f2():
    return triangle_cover_twisted(2)


@pytest.fixture(scope="session")
def kron_twisted():
    return kronecker_cover_twisted()


@pytest.fixture(scope="session")
def triangle_half_twisted():
    """The triangle double cover with only a1 sent to a + c*b: a covering
    whose one cross lift would have to send a0 to a1 - c1*b1, which spans
    two sheets."""
    plain = triangle_cover(2)
    key = ("t1", "s0")
    j = plain.source.hom(*key).index("a1")
    matrices = dict(plain.hom_matrices)
    matrices[key] = _replace_column(matrices[key], j, (1, 1))
    return LinearFunctor(plain.source, plain.target, plain.object_map, matrices)


@pytest.fixture(scope="session")
def cyclic_corpus():
    """(name, functor) for every base and n in 1..4; all sources connected."""
    out = []
    for base in standard_bases():
        for n in (1, 2, 3, 4):
            cover = cyclic_cover(base, n)
            _, connected = connected_components(cover.source)
            assert connected, f"{base.name} cover n={n} should be connected"
            out.append((f"{base.name}/n{n}", cover))
    return out


@pytest.fixture(scope="session")
def gf7_corpus():
    """(name, functor) for every base and n in 1..4, over GF(7)."""
    return [(f"{base.name}/n{n}/GF7", cyclic_cover(base, n, GF(7)))
            for base in standard_bases() for n in (1, 2, 3, 4)]


@pytest.fixture(scope="session")
def pullback_pairs():
    """(name, covering, inclusion) pairs for the fully faithful pullback suite."""
    pairs = []
    for base in standard_bases():
        for n in (2, 3):
            cover = cyclic_cover(base, n)
            for subset in PULLBACK_SUBSETS[base.name]:
                _, incl = full_subcategory(cover.target, subset)
                pairs.append((f"{base.name}/n{n}/{'+'.join(subset)}",
                              cover, incl))
    return pairs


@pytest.fixture(scope="session")
def connected_pullback_covers():
    """Pullback projections with connected sources, one per base (n = 2)."""
    out = []
    for base in standard_bases():
        cover = cyclic_cover(base, 2)
        subset = PULLBACK_SUBSETS[base.name][0]
        _, incl = full_subcategory(cover.target, subset)
        fp = fibre_product(cover, incl)
        # the pullback of a covering along a fully faithful functor covers
        assert isinstance(check_covering(fp.pr2), CoveringCertificate)
        _, connected = connected_components(fp.pr2.source)
        assert connected, f"pullback over {base.name} should stay connected"
        out.append((f"pullback/{base.name}", fp.pr2))
    return out


@pytest.fixture(scope="session")
def galois_corpus(cyclic_corpus, kron_twisted, triangle_half_twisted,
                  connected_pullback_covers):
    """The >= 25 connected coverings of the method-agreement suite."""
    corpus = list(cyclic_corpus)
    corpus.append(("kronecker/twisted", kron_twisted))
    corpus.append(("triangle/half-twisted", triangle_half_twisted))
    corpus.extend(connected_pullback_covers)
    return corpus


@pytest.fixture(scope="session")
def small_corpus(cyclic_corpus, gf7_corpus, kron_twisted,
                 triangle_half_twisted):
    """Corpus instances whose source has at most 8 objects (for exhaustive
    searches)."""
    out = [(name, fun) for name, fun in cyclic_corpus + gf7_corpus
           if len(fun.source.objects) <= 8]
    out.append(("kronecker/twisted", kron_twisted))
    out.append(("triangle/half-twisted", triangle_half_twisted))
    return out


@pytest.fixture(scope="session")
def arrow_functors():
    """Functors between the arrow x -a-> y and the discrete category on
    {x, y}, all identity on objects: ``kill`` sends a to 0, ``include``
    maps the discrete category into the arrow, ``collapse`` maps the arrow
    onto the discrete category (a 0×1 matrix at (x, y))."""
    arrow = path_category(Quiver(("x", "y"), (("a", "x", "y"),)), [], QQ)
    discrete = path_category(Quiver(("x", "y"), ()), [], QQ)
    one = Matrix.identity(QQ, 1)
    ends = {"x": "x", "y": "y"}
    units = {("x", "x"): one, ("y", "y"): one}
    kill = LinearFunctor(arrow, arrow, ends,
                         {**units, ("x", "y"): Matrix.zeros(QQ, 1, 1)})
    include = LinearFunctor(discrete, arrow, ends, units)
    collapse = LinearFunctor(arrow, discrete, ends,
                             {**units, ("x", "y"): Matrix.zeros(QQ, 0, 1)})
    for fun in (kill, include, collapse):
        assert validate_functor(fun).ok
    return kill, include, collapse


@pytest.fixture(scope="session")
def fibre_product_corpus(galois_corpus, pullback_pairs, arrow_functors):
    """(name, FibreProduct): the square of every Galois-corpus covering,
    every pullback pair, and the arrow functors against each other and
    the identities."""
    out = [(f"{name}^2", fibre_product(fun, fun)) for name, fun in galois_corpus]
    out.extend((name, fibre_product(cover, incl))
               for name, cover, incl in pullback_pairs)
    kill, include, collapse = arrow_functors
    arrow, discrete = kill.source, collapse.target
    for name, f, g in (("kill*id", kill, identity_functor(arrow)),
                       ("id*kill", identity_functor(arrow), kill),
                       ("kill*include", kill, include),
                       ("include*kill", include, kill),
                       ("collapse*id", collapse, identity_functor(discrete)),
                       ("id*collapse", identity_functor(discrete), collapse)):
        out.append((name, fibre_product(f, g)))
    return out
