"""Shared corpus fixtures.

The corpus: the Z/n covers (n = 1..4) of five weighted-quiver bases, the
twisted Kronecker double cover (the non-Galois witness), and pullbacks of
the covers along full-subcategory inclusions.  Built once per session.
"""

from __future__ import annotations

import pytest

from covcat.examples import (
    cyclic_cover,
    kronecker_cover_twisted,
    standard_bases,
    triangle_cover,
    triangle_cover_twisted,
)
from covcat.lincat import connected_components, full_subcategory
from covcat.covering import CoveringCertificate, check_covering
from covcat.fibprod import fibre_product

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
def galois_corpus(cyclic_corpus, kron_twisted, connected_pullback_covers):
    """The >= 25 connected coverings of the method-agreement suite."""
    corpus = list(cyclic_corpus)
    corpus.append(("kronecker/twisted", kron_twisted))
    corpus.extend(connected_pullback_covers)
    return corpus


@pytest.fixture(scope="session")
def small_corpus(cyclic_corpus, kron_twisted):
    """Corpus instances whose source has at most 8 objects (for exhaustive
    searches)."""
    out = [(name, fun) for name, fun in cyclic_corpus
           if len(fun.source.objects) <= 8]
    out.append(("kronecker/twisted", kron_twisted))
    return out
