"""Mutated input documents end in a verdict or a documented input error.

Each example takes one document of a small workspace (two categories and a
covering between them, a quiver, an algebra), changes one to three of its
values, and sends it to every command that reads it.  The exit code must be
0-4; 5 means an exception escaped the input checks.  In-process, so an
exception that escaped ``main`` would fail the test with its traceback.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from covcat import documents as docs
from covcat.cli import main
from covcat.examples import rel_square, triangle_cover

_F1 = triangle_cover(2)

# the path algebra of e1 -n-> e2: n = e2·n·e1
_ALGEBRA = {
    "format": "algebra/v1",
    "name": "alg",
    "field": {"kind": "Q"},
    "basis": ["e1", "e2", "n"],
    "table": [
        {"a": "e1", "b": "e1", "result": [{"basis": "e1", "coeff": "1"}]},
        {"a": "e2", "b": "e2", "result": [{"basis": "e2", "coeff": "1"}]},
        {"a": "e2", "b": "n", "result": [{"basis": "n", "coeff": "1"}]},
        {"a": "n", "b": "e1", "result": [{"basis": "n", "coeff": "1"}]},
    ],
    "idempotents": [
        {"name": "p1", "coords": ["1", "0", "0"]},
        {"name": "p2", "coords": ["0", "1", "0"]},
    ],
}

DOCUMENTS = {
    "B": docs.category_to_json(_F1.target, "B"),
    "C2": docs.category_to_json(_F1.source, "C2"),
    "F1": docs.functor_to_json(_F1, "F1", "C2", "B"),
    "sq": docs.quiver_to_json(rel_square().quiver, "sq", _F1.target.field,
                              list(rel_square().relations)),
    "alg": _ALGEBRA,
}

# the commands that read each document, with {d} the workspace directory
_ALL = ["validate", "{d}/B.json", "{d}/C2.json", "{d}/F1.json"]
COMMANDS = {
    "B": [_ALL, ["check", "covering", "{d}/F1.json"],
          ["build", "product-set", "B", "2", "--dir", "{d}", "--out", "{d}/o"]],
    "C2": [_ALL, ["check", "galois", "{d}/F1.json"],
           ["build", "quotient", "C2", "--by-deck-of", "F1",
            "--dir", "{d}", "--out", "{d}/o"]],
    "F1": [_ALL, ["check", "trivial", "{d}/F1.json"],
           ["check", "universal", "{d}/F1.json", "--family", "F1"],
           ["build", "fibre-product", "F1", "F1", "--dir", "{d}",
            "--out", "{d}/o"]],
    "sq": [["validate", "{d}/sq.json"],
           ["build", "path-category", "sq", "--dir", "{d}", "--out", "{d}/o"]],
    "alg": [["validate", "{d}/alg.json"],
            ["build", "from-algebra", "alg", "--dir", "{d}", "--out", "{d}/o"]],
}

_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10),
    st.sampled_from([7.9, 10**40, "", "x", "1", "0", "-1/2", "1/0", "Fp",
                     "e1", "n", "p1", "s0", "t0", "a0", "b"]))
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(["name", "basis", "src", "coeff"]),
                      inner, max_size=2),
    max_leaves=4)


def _paths(value, prefix=()):
    """Every key path below the root of a JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(data, doc: dict) -> dict:
    """``doc`` with one to three values deleted, replaced by another value of
    the document, or replaced by a drawn JSON value."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = data.draw(st.sampled_from(["delete", "copy", "replace"]))
        if op == "delete":
            del parent[path[-1]]
            continue
        if op == "copy":
            new = doc
            for key in data.draw(st.sampled_from(paths)):
                new = new[key]
        else:
            new = data.draw(_VALUES)
        parent[path[-1]] = copy.deepcopy(new)
    return doc


# derandomized, so that the suite's verdict depends only on the code
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_exit_with_a_documented_code(data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)))
    mutated = _mutate(data, DOCUMENTS[name])
    with tempfile.TemporaryDirectory() as d:
        for other, doc in DOCUMENTS.items():
            Path(d, f"{other}.json").write_text(
                docs.dumps(mutated if other == name else doc))
        for template in COMMANDS[name]:
            argv = [a.format(d=d) for a in template]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            report = json.loads(out.getvalue())  # one JSON document
            assert code in (0, 1, 2, 3, 4), (argv, report)
