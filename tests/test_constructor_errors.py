"""Every error that the public Matrix, LinearFunctor and LinearCategory
constructors raise, raised through the constructor and, where a document
can carry the fault, through ``documents.functor_from_json`` or
``documents.category_from_json``.

Deck lifts and their matrices, every built category, and every category
and functor a document loads are made by private trusted constructors that
skip these checks.  The loaders carry the checks themselves, through the
helpers the constructors call (``lincat._check_tables``,
``linfun._check_maps``), and raise each with the constructor's message;
every built category makes the table checks through
``lincat.category_from_model``, which calls ``_check_tables`` too.  The
public paths must keep every one of them.
"""

import pytest

from covcat import documents as docs
from covcat.errors import ConstructionError, DocumentError
from covcat.exactalg import GF, QQ, Matrix
from covcat.examples import triangle_base, triangle_cover
from covcat.lincat import LinearCategory, Quiver, category_from_model, \
    path_category
from covcat.linfun import LinearFunctor


# Matrix.__post_init__: a document never reaches these, as functor_from_json
# builds each matrix in the shape the categories give, after its own count
MATRIX_ERRORS = [
    ("dimensions must be non-negative", (QQ, -1, 0, ())),
    ("dimensions must be non-negative", (QQ, 0, -1, ())),
    ("row count mismatch", (QQ, 2, 1, ((1,),))),
    ("ragged matrix", (QQ, 2, 2, ((1, 0), (1,)))),
]


@pytest.mark.parametrize("message, args", MATRIX_ERRORS)
def test_matrix_constructor_keeps_each_check(message, args):
    with pytest.raises(ValueError, match=message):
        Matrix(*args)


def test_a_document_matrix_of_the_wrong_size_is_refused_before_it_is_built():
    fun = triangle_cover(2)
    doc = docs.functor_to_json(fun, "F", "C", "B")
    doc["hom_matrices"][0]["matrix"] = doc["hom_matrices"][0]["matrix"] + ["0"]
    with pytest.raises(DocumentError, match="entries, expected"):
        docs.functor_from_json(doc, {"C": fun.source, "B": fun.target})


def _other_target_field(fun, doc):
    return triangle_base(GF(7)), fun.object_map, fun.hom_matrices


def _extra_object(fun, doc):
    doc["object_map"]["zz"] = "t"
    return fun.target, {**fun.object_map, "zz": "t"}, fun.hom_matrices


def _outside_the_target(fun, doc):
    """s0 sent to an object the target lacks; its homs then have no rows."""
    doc["object_map"]["s0"] = "nope"
    for entry in doc["hom_matrices"]:
        if "s0" in (entry["src"], entry["dst"]):
            entry["matrix"] = []
    return (fun.target, {**fun.object_map, "s0": "nope"},
            {pair: Matrix.zeros(QQ, 0, m.ncols) if "s0" in pair else m
             for pair, m in fun.hom_matrices.items()})


def _missing_hom(fun, doc):
    dropped = doc["hom_matrices"].pop()
    pair = (dropped["src"], dropped["dst"])
    return fun.target, fun.object_map, {
        p: m for p, m in fun.hom_matrices.items() if p != pair}


def _other_matrix_field(fun, doc):
    pair = sorted(fun.hom_matrices)[0]
    m = fun.hom_matrices[pair]
    return fun.target, fun.object_map, {
        **fun.hom_matrices, pair: Matrix.zeros(GF(7), m.nrows, m.ncols)}


def _wrong_shape(fun, doc):
    pair = ("t0", "s0")
    m = fun.hom_matrices[pair]
    return fun.target, fun.object_map, {
        **fun.hom_matrices, pair: Matrix.zeros(QQ, m.nrows + 1, m.ncols)}


# LinearFunctor.__post_init__: (message, a fault put into the target, object
# map or matrices, and into the functor document in step, and whether a
# document can carry it: one cannot carry the last two, as functor_from_json
# parses every coefficient in the source's field and counts every matrix
# against the categories' dimensions first)
FUNCTOR_ERRORS = [
    ("source and target live over different fields", _other_target_field,
     True),
    ("object map does not cover the source objects", _extra_object, True),
    ("object map sends s0 outside the target", _outside_the_target, True),
    ("hom matrices must match the non-zero source homs", _missing_hom, True),
    ("matrix field mismatch", _other_matrix_field, False),
    (r"matrix at \(t0,s0\) has shape 3x1, expected 2x1", _wrong_shape, False),
]


@pytest.mark.parametrize(
    "message, fault, in_documents", FUNCTOR_ERRORS,
    ids=[fault.__name__.lstrip("_") for _, fault, _ in FUNCTOR_ERRORS])
def test_functor_constructor_and_documents_keep_each_check(message, fault,
                                                           in_documents):
    fun = triangle_cover(2)
    doc = docs.functor_to_json(fun, "F", "C", "B")
    target, object_map, matrices = fault(fun, doc)
    with pytest.raises(ConstructionError, match=message):
        LinearFunctor(fun.source, target, dict(object_map), dict(matrices))
    if in_documents:
        with pytest.raises(DocumentError, match=message):
            docs.functor_from_json(doc, {"C": fun.source, "B": target})


# LinearCategory.__post_init__, on the chain x -a-> y -b-> z with b∘a = 0:
# each fault returns the constructor's objects, hom bases, identities and
# composition, and puts the fault into the category document in step


def _chain():
    q = Quiver(("x", "y", "z"), (("a", "x", "y"), ("b", "y", "z")))
    return path_category(q, [[(1, ["b", "a"])]], QQ)


def _parts(cat, objects=(), homs=None, identity=None, composition=None):
    """The chain's parts, with ``objects`` added and each given entry added
    or replaced."""
    return (cat.objects + tuple(objects),
            {**cat.hom_basis, **(homs or {})},
            {**cat.identity, **(identity or {})},
            {**cat.composition, **(composition or {})})


def _duplicate_object(cat, doc):
    doc["objects"].append("x")
    return _parts(cat, objects=["x"])


def _unknown_object(cat, doc):
    doc["homs"].append({"src": "x", "dst": "w", "basis": ["w0"]})
    return _parts(cat, homs={("x", "w"): ("w0",)})


def _empty_hom(cat, doc):
    doc["homs"].append({"src": "x", "dst": "z", "basis": []})
    return _parts(cat, homs={("x", "z"): ()})


def _reused_name(cat, doc):
    """A document refuses a reused name itself, with its own message."""
    return _parts(cat, homs={("x", "z"): ("a",)})


def _no_endomorphisms(cat, doc):
    doc["objects"].append("w")
    return _parts(cat, objects=["w"])


def _identity_of_wrong_size(cat, doc):
    doc["identity"]["y"] = ["1", "0"]
    return _parts(cat, identity={"y": (1, 0)})


def _zero_identity(cat, doc):
    doc["identity"]["y"] = ["0"]
    return _parts(cat, identity={"y": (0,)})


def _unknown_morphism(cat, doc):
    """A document refuses an unknown name itself, with its own message."""
    return _parts(cat, composition={("a", "c"): (1,)})


def _not_composable(cat, doc):
    doc["composition"].append({"f": "b", "g": "a", "result": []})
    return _parts(cat, composition={("b", "a"): (0,)})


def _into_a_zero_hom(cat, doc):
    """A document writes each composite in the hom its ends name, and
    refuses any term outside it; here that hom has no basis."""
    return _parts(cat, composition={("a", "b"): (1,)})


def _composite_of_wrong_length(cat, doc):
    """A document writes each composite at its hom's length."""
    return _parts(cat, composition={("1_x", "a"): (1, 0)})


CATEGORY_ERRORS = [
    ("duplicate object names", _duplicate_object, True),
    (r"hom \(x,w\) references unknown object", _unknown_object, True),
    (r"hom \(x,z\) present but empty; omit it", _empty_hom, True),
    (r"basis name 'a' reused in \(x,z\) and \('x', 'y'\)", _reused_name,
     False),
    ("object w has no endomorphism space", _no_endomorphisms, True),
    ("identity coordinates missing or wrong size at y",
     _identity_of_wrong_size, True),
    ("identity at y is zero", _zero_identity, True),
    (r"composition \(a,c\) references unknown morphism", _unknown_morphism,
     False),
    (r"composition \(b,a\) is not composable", _not_composable, True),
    (r"composition \(a,b\) lands in the zero hom \(x,z\)", _into_a_zero_hom,
     False),
    (r"composition \(1_x,a\) has wrong length", _composite_of_wrong_length,
     False),
]


@pytest.mark.parametrize(
    "message, fault, in_documents", CATEGORY_ERRORS,
    ids=[fault.__name__.lstrip("_") for _, fault, _ in CATEGORY_ERRORS])
def test_category_constructor_and_documents_keep_each_check(message, fault,
                                                            in_documents):
    cat = _chain()
    doc = docs.category_to_json(cat, "X")
    with pytest.raises(ConstructionError, match=message):
        LinearCategory(cat.field, *fault(cat, doc))
    if in_documents:
        with pytest.raises(DocumentError, match=message):
            docs.category_from_json(doc)


# the faults of the objects, hom bases and identities: category_from_model
# makes these checks for every built category, through _check_tables
TABLE_ERRORS = CATEGORY_ERRORS[:7]


@pytest.mark.parametrize(
    "message, fault, in_documents", TABLE_ERRORS,
    ids=[fault.__name__.lstrip("_") for _, fault, _ in TABLE_ERRORS])
def test_built_categories_keep_each_table_check(message, fault,
                                                in_documents):
    cat = _chain()
    objects, homs, identity, _ = fault(cat, docs.category_to_json(cat, "X"))
    spaces = {pair: tuple((name, None) for name in basis)
              for pair, basis in homs.items()}
    with pytest.raises(ConstructionError, match=message):
        category_from_model(cat.field, objects, spaces, identity,
                            lambda x, y, z, u, v: None, lambda x, z, w: ())
