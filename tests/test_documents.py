"""JSON document formats: round trips, rejection of malformed input, determinism."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from covcat import documents as docs
from covcat.errors import DocumentError
from covcat.exactalg import GF, QQ, FieldSpec
from covcat.lincat import path_category
from covcat.linfun import identity_functor
from covcat.covering import check_covering
from covcat.fibprod import fibre_product
from covcat.galois import is_galois
from covcat.examples import (
    rel_square,
    triangle,
    triangle_base,
    triangle_cover,
)


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
