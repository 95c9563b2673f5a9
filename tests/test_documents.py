"""JSON document formats: round trips, rejection of malformed input, determinism."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from covcat import documents as docs
from covcat.errors import DocumentError
from covcat.exactalg import GF, QQ, FieldSpec, Matrix
from covcat.lincat import LinearCategory, Quiver, path_category, \
    product_with_set
from covcat.linfun import LinearFunctor, identity_functor
from covcat.covering import check_covering
from covcat.fibprod import fibre_product
from covcat.galois import deck_group, is_galois, quotient_by_group
from covcat.examples import (
    rel_square,
    triangle,
    triangle_base,
    triangle_cover,
)

from oracles import full_subcategory


def test_category_round_trip(f1):
    for cat in (triangle_base(), f1.source,
                fibre_product(f1, f1).category,
                path_category(triangle().quiver, [], GF(5))):
        doc = docs.category_to_json(cat, "X")
        name, back = docs.category_from_json(doc)
        assert name == "X"
        assert back == cat
        assert docs.dumps(docs.category_to_json(back, "X")) == docs.dumps(doc)


def test_functor_round_trip(f1, f2, kron_twisted):
    for fun, names in ((f1, ("C", "B")), (f2, ("C", "B")),
                       (kron_twisted, ("KC", "KB"))):
        src_name, dst_name = names
        cats = {src_name: fun.source, dst_name: fun.target}
        doc = docs.functor_to_json(fun, "F", src_name, dst_name)
        name, back = docs.functor_from_json(doc, cats)
        assert name == "F"
        assert back == fun


def _constructed_category(doc: dict) -> LinearCategory:
    """The category that the public constructor builds from ``doc``'s
    tables, each composition entry read in full, a later entry for (f, g)
    replacing an earlier one."""
    field = docs.field_from_json(doc["field"])
    hom_basis = {(e["src"], e["dst"]): tuple(e["basis"]) for e in doc["homs"]}
    identity = {x: tuple(field.parse(c) for c in coords)
                for x, coords in doc["identity"].items()}
    location = {b: (x, y, i) for (x, y), basis in hom_basis.items()
                for i, b in enumerate(basis)}
    composition = {}
    for entry in doc["composition"]:
        xf, yg = location[entry["f"]][0], location[entry["g"]][1]
        coords = [field.zero] * len(hom_basis.get((xf, yg), ()))
        for term in entry["result"]:
            i = location[term["basis"]][2]
            coords[i] = field.add(coords[i], field.parse(term["coeff"]))
        composition[(entry["f"], entry["g"])] = tuple(coords)
    return LinearCategory(field, tuple(doc["objects"]), hom_basis, identity,
                          composition)


def _constructed_functor(doc: dict, categories: dict) -> LinearFunctor:
    """The functor that the public constructors build from ``doc``."""
    source, target = categories[doc["source"]], categories[doc["target"]]
    object_map, field = dict(doc["object_map"]), source.field
    matrices = {}
    for entry in doc["hom_matrices"]:
        x, y = entry["src"], entry["dst"]
        rows = target.dim(object_map[x], object_map[y])
        cols = source.dim(x, y)
        flat = [field.parse(c) for c in entry["matrix"]]
        matrices[(x, y)] = Matrix(field, rows, cols, tuple(
            tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows)))
    return LinearFunctor(source, target, object_map, matrices)


def _repeated_composites() -> list:
    """The base category's document with its first composite listed again
    as the last entry: with an empty result, and with each coefficient 2."""
    out = []
    for result in ([], [{**term, "coeff": "2"} for term in
                        docs.category_to_json(triangle_base(), "B")
                        ["composition"][0]["result"]]):
        doc = docs.category_to_json(triangle_base(), "B")
        doc["composition"].append({**doc["composition"][0], "result": result})
        out.append(doc)
    return out


def test_documents_load_as_the_public_constructors_build_them(
        small_corpus, galois_corpus, cyclic_corpus, fibre_product_corpus,
        arrow_functors):
    """Every category and functor document of the corpus, of the CLI's
    workspace and of the builders loads equal to what ``LinearCategory``
    and ``LinearFunctor`` build from the same tables."""
    functors = [fun for _, fun in small_corpus + galois_corpus]
    functors += [fp.pr1 for _, fp in fibre_product_corpus]
    functors += [fp.pr2 for _, fp in fibre_product_corpus]
    functors += [product_with_set(triangle_base(), ["0", "1"])[1],
                 full_subcategory(triangle_base(), ("t", "u"))[1],
                 *arrow_functors]
    functors += [quotient_by_group(fun.source, deck_group(fun))[1]
                 for _, fun in cyclic_corpus]
    categories = [triangle_base(), *(fun.source for fun in functors),
                  path_category(rel_square().quiver, rel_square().relations,
                                GF(5))]
    cat_docs = [docs.category_to_json(cat, "X") for cat in categories]
    for doc in cat_docs + _repeated_composites():
        _, loaded = docs.category_from_json(doc)
        assert loaded == _constructed_category(doc)
    emptied = _repeated_composites()[0]
    first = (emptied["composition"][0]["f"], emptied["composition"][0]["g"])
    assert first in triangle_base().composition
    assert first not in docs.category_from_json(emptied)[1].composition
    for fun in functors:
        cats = {"S": fun.source, "T": fun.target}
        doc = docs.functor_to_json(fun, "F", "S", "T")
        _, loaded = docs.functor_from_json(doc, cats)
        assert loaded == _constructed_functor(doc, cats) == fun


def _chain_document() -> dict:
    """x -a-> y -b-> z with b∘a = 0."""
    q = Quiver(("x", "y", "z"), (("a", "x", "y"), ("b", "y", "z")))
    return docs.category_to_json(path_category(q, [[(1, ["b", "a"])]], QQ),
                                 "X")


def _not_composable_and_zero_identity(doc):
    doc["identity"]["y"] = ["0"]


def _not_composable_and_duplicate_object(doc):
    doc["objects"].append("x")


@pytest.mark.parametrize("message, fault", [
    ("identity at y is zero", _not_composable_and_zero_identity),
    ("duplicate object names", _not_composable_and_duplicate_object)])
def test_a_category_document_with_two_faults_reports_the_first(message,
                                                               fault):
    """The constructor's order: a non-composable entry is reported after
    the checks of objects, homs and identities, wherever it is listed."""
    doc = _chain_document()
    doc["composition"].insert(0, {"f": "b", "g": "a", "result": []})
    fault(doc)
    with pytest.raises(DocumentError, match=message):
        docs.category_from_json(doc)


def test_an_object_sent_to_an_array_is_outside_the_target(f1):
    """s0, with no matrix listed, sent to ["t"]: refused as outside the
    target before the missing matrices, as the constructor refuses it."""
    doc = docs.functor_to_json(f1, "F1", "C2", "B")
    doc["object_map"]["s0"] = ["t"]
    doc["hom_matrices"] = [e for e in doc["hom_matrices"]
                           if "s0" not in (e["src"], e["dst"])]
    with pytest.raises(DocumentError,
                       match="object map sends s0 outside the target"):
        docs.functor_from_json(doc, {"C2": f1.source, "B": f1.target})


def test_quiver_round_trip():
    wq = rel_square()
    doc = docs.quiver_to_json(wq.quiver, "sq", QQ, list(wq.relations))
    name, quiver, relations, field = docs.quiver_from_json(doc)
    assert name == "sq"
    assert quiver == wq.quiver
    assert field == QQ
    rebuilt = path_category(quiver, relations, field)
    assert rebuilt == path_category(wq.quiver, wq.relations, QQ)


def test_coefficients_travel_as_exact_strings():
    doc = docs.category_to_json(triangle_base(), "B")
    for entry in doc["composition"]:
        for term in entry["result"]:
            assert isinstance(term["coeff"], str)
    for coords in doc["identity"].values():
        assert all(isinstance(c, str) for c in coords)


def test_malformed_documents_are_rejected(f1):
    good = docs.category_to_json(triangle_base(), "B")
    bad = dict(good)
    del bad["objects"]
    with pytest.raises(DocumentError):
        docs.category_from_json(bad)
    bad = dict(good)
    bad["format"] = "nope/v9"
    with pytest.raises(DocumentError):
        docs.category_from_json(bad)

    fdoc = docs.functor_to_json(f1, "F1", "C2", "B")
    with pytest.raises(DocumentError):
        docs.functor_from_json(fdoc, {"B": triangle_base()})  # source missing
    cats = {"C2": f1.source, "B": f1.target}
    wrong = dict(fdoc)
    wrong["hom_matrices"] = [dict(m) for m in fdoc["hom_matrices"]]
    wrong["hom_matrices"][0]["matrix"] = ["1", "2", "3"]
    with pytest.raises(DocumentError):
        docs.functor_from_json(wrong, cats)


@pytest.mark.parametrize("as_array", [
    pytest.param(lambda m: [[x, fx] for x, fx in m.items()], id="pairs"),
    pytest.param(lambda m: [x + fx for x, fx in m.items()], id="strings")])
def test_an_object_map_that_is_not_a_json_object_is_refused(as_array):
    """``dict`` reads an array of [source, target] pairs, or of two-letter
    strings such as "ss", as a mapping; neither is a functor document."""
    fun = identity_functor(triangle_base())
    doc = docs.functor_to_json(fun, "F", "B", "B")
    doc["object_map"] = as_array(doc["object_map"])
    assert dict(doc["object_map"]) == fun.object_map
    with pytest.raises(DocumentError, match="is not a JSON object"):
        docs.functor_from_json(doc, {"B": fun.source})


@pytest.mark.parametrize("key, value, refused", [
    pytest.param("identity", [["t", ["1"]]], "identity [['t', ['1']]]",
                 id="identity-pairs"),
    pytest.param("field", "kind", "field 'kind'", id="field-string"),
    pytest.param("field", ["kind"], "field ['kind']", id="field-array"),
])
def test_identity_and_field_must_be_json_objects(key, value, refused):
    doc = {**docs.category_to_json(triangle_base(), "B"), key: value}
    with pytest.raises(DocumentError, match=re.escape(
            f"{refused} is not a JSON object")):
        docs.category_from_json(doc)


@pytest.mark.parametrize("parse, doc", [
    pytest.param(docs.quiver_from_json,
                 docs.quiver_to_json(triangle().quiver, "T", QQ, []),
                 id="quiver"),
    pytest.param(docs.algebra_from_json,
                 {"format": docs.FORMAT_ALGEBRA, "name": "A", "basis": [],
                  "table": [], "idempotents": []}, id="algebra")])
def test_a_field_that_is_not_a_json_object_is_refused(parse, doc):
    with pytest.raises(DocumentError, match="field 'Q' is not a JSON object"):
        parse({**doc, "field": "Q"})


def test_duplicate_basis_names_rejected():
    doc = docs.category_to_json(triangle_base(), "B")
    doc = dict(doc)
    doc["homs"] = [dict(h) for h in doc["homs"]]
    doc["homs"][0]["basis"] = ["b"]  # collides with the (t, u) basis
    with pytest.raises(DocumentError):
        docs.category_from_json(doc)


def test_bad_coefficient_strings_rejected():
    doc = docs.category_to_json(triangle_base(), "B")
    doc = dict(doc)
    doc["identity"] = dict(doc["identity"])
    doc["identity"]["t"] = ["1/0"]
    with pytest.raises(DocumentError):
        docs.category_from_json(doc)


def test_each_distinct_coefficient_string_is_parsed_once(monkeypatch, f1):
    """A document parses each distinct coefficient string once, to the same
    values; the next document parses its own again."""
    cat_doc = docs.category_to_json(f1.source, "C2")
    fun_doc = docs.functor_to_json(f1, "F1", "C2", "B")
    parse, seen = FieldSpec.parse, []
    monkeypatch.setattr(FieldSpec, "parse",
                        lambda self, text: seen.append(text) or parse(self, text))
    strings = [c for coords in cat_doc["identity"].values() for c in coords] \
        + [t["coeff"] for e in cat_doc["composition"] for t in e["result"]]
    _, cat = docs.category_from_json(cat_doc)
    assert sorted(seen) == sorted(set(strings)) and len(strings) > len(seen)
    assert cat == f1.source
    seen.clear()
    _, fun = docs.functor_from_json(fun_doc, {"C2": cat, "B": f1.target})
    strings = [c for e in fun_doc["hom_matrices"] for c in e["matrix"]]
    assert sorted(seen) == sorted(set(strings)) == ["0", "1"]
    assert fun.hom_matrices == f1.hom_matrices


@pytest.mark.parametrize("bad, message", [
    ("1/0", "bad coefficient '1/0'"), (1, "coefficient 1 must be a string")])
def test_a_bad_coefficient_fails_wherever_it_recurs(bad, message, f1):
    """A failed parse is not remembered: a bad coefficient in a matrix is
    refused where it first appears, with the same message each time."""
    doc = docs.functor_to_json(f1, "F1", "C2", "B")
    doc["hom_matrices"] = [dict(e, matrix=[bad] * len(e["matrix"]))
                           for e in doc["hom_matrices"]]
    for _ in range(2):
        with pytest.raises(DocumentError, match=re.escape(message)):
            docs.functor_from_json(doc, {"C2": f1.source, "B": f1.target})


def test_certificate_matches_golden_file(f1):
    from pathlib import Path
    cert = check_covering(f1)
    rendered = docs.dumps(docs.certificate_to_json(cert, "F1"))
    golden = Path(__file__).parent / "golden" / "f1-covcert.json"
    assert rendered == golden.read_text()


def test_elimination_certificate_matches_golden_file(kron_twisted):
    """The twisted Kronecker cover's certificate: 12 blocks, two of which
    are not monomial and are eliminated rather than read off."""
    from pathlib import Path
    rendered = docs.dumps(docs.certificate_to_json(
        check_covering(kron_twisted), "K"))
    golden = Path(__file__).parent / "golden" / "k-covcert.json"
    assert rendered == golden.read_text()


def test_certificate_serialization_is_stable(f1):
    cert = check_covering(f1)
    a = docs.dumps(docs.certificate_to_json(cert, "F1"))
    b = docs.dumps(docs.certificate_to_json(check_covering(f1), "F1"))
    assert a == b
    payload = docs.certificate_to_json(cert, "F1")
    assert payload["fibres"]["s"] == ["s0", "s1"]
    assert any(block["direction"] == "target" for block in payload["blocks"])


def test_verdict_serialization(f1, kron_twisted):
    verdict = is_galois(f1, "direct")
    payload = docs.galois_verdict_to_json(verdict)
    assert payload["status"] == "Galois"
    assert payload["evidence"]["deck_group"]["order"] == 2
    bad = docs.galois_verdict_to_json(is_galois(kron_twisted, "direct"))
    assert bad["status"] == "NonGalois"
    assert bad["evidence"]["unreachable"] == ["x1"]


def test_dumps_is_deterministic(f1):
    doc = docs.category_to_json(f1.source, "C2")
    assert docs.dumps(doc) == docs.dumps(
        docs.category_to_json(triangle_cover(2).source, "C2"))


_TRICKY = st.sampled_from(['"', "\\", "/", "\n", "\r", "\t", "\b", "\f",
                           "\x00", "\x1f", "\x7f", "é", "\u2028", "€",
                           "\U0001f600"])
_TEXT = st.text(st.characters() | _TRICKY, max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=16)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON)
def test_dumps_matches_json_dumps(value):
    """Escapes, non-ASCII and control characters, ints, bools, None,
    tuples, nesting and empty containers, byte for byte."""
    assert docs.dumps(value) == json.dumps(value, indent=2,
                                           sort_keys=True) + "\n"


def test_dumps_writes_scalars_as_json_does():
    """Exact ints, big and negative, the three literals, and the floats
    that ``dumps`` leaves to ``json``: a finite one, inf and nan."""
    doc = {"ints": [0, -5, 2**70], "literals": [True, False, None],
           "floats": [1.5, float("inf"), float("nan")], "zero": 0,
           "yes": True, "none": None}
    assert docs.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
