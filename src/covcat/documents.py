"""JSON document formats: lincat/v1, linfun/v1, quiver/v1, algebra/v1, covcert/v1,
verdict/v1.

All coefficients travel as exact strings ("3", "-1/2"); writers emit sorted
keys and sorted entry lists so that identical inputs always serialize to
identical bytes.
"""

from __future__ import annotations

import json
from typing import Mapping

from .errors import ConstructionError, DocumentError
from .exactalg import FieldSpec, Matrix
from .lincat import LinearCategory, Quiver, _check_tables, _not_composable
from .linfun import LinearFunctor, _check_maps
from .covering import CoveringCertificate, CoveringFailure
from .galois import DeckGroup, GaloisVerdict, TrivialityResult

FORMAT_LINCAT = "lincat/v1"
FORMAT_LINFUN = "linfun/v1"
FORMAT_QUIVER = "quiver/v1"
FORMAT_ALGEBRA = "algebra/v1"
FORMAT_COVCERT = "covcert/v1"
FORMAT_VERDICT = "verdict/v1"


def dumps(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.
    With ``indent`` set, ``json`` walks the document in its pure-Python
    encoder; ``_write`` walks it in fewer steps, escapes strings with the
    same ``encode_basestring_ascii``, and writes ints, ``true``, ``false``
    and ``null`` as ``json`` spells them; floats still go through
    ``json``.  Keys must be strings, as in every covcat document."""
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii


def _write(value, newline: str, out: list) -> None:
    """Append ``value``'s JSON to ``out``; ``newline`` is a line break and
    the indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out += (sep, _escape(key), ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif type(value) is int:
        # json's spelling of an int; a bool's type is bool, not int
        out.append(str(value))
    elif value is None or type(value) is bool:
        out.append(_LITERALS[value])
    else:
        out.append(json.dumps(value))


_LITERALS = {None: "null", True: "true", False: "false"}


def _need(doc: dict, key: str, path=None):
    if key not in doc:
        raise DocumentError(f"missing key {key!r}", path)
    return doc[key]


# fields ----------------------------------------------------------------------


def field_to_json(field: FieldSpec) -> dict:
    if field.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.p}


def field_from_json(obj, path=None) -> FieldSpec:
    kind = _need(_object(obj, "field", path), "kind", path)
    if kind == "Q":
        return FieldSpec("Q")
    if kind != "Fp":
        raise DocumentError(f"unknown field kind {kind!r}", path)
    p = _need(obj, "p", path)
    if isinstance(p, bool) or not isinstance(p, int):
        raise DocumentError(f"bad field: modulus {p!r} is not an integer", path)
    try:
        return FieldSpec("Fp", p)
    except ValueError as exc:
        raise DocumentError(f"bad field: {exc}", path)


def _name(value, what: str, path=None) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{what} name {value!r} is not a string", path)
    return value


def _array(value, what: str, path=None) -> list:
    """``value``, refused unless a JSON array: a string reads as its characters."""
    if not isinstance(value, list):
        raise DocumentError(f"{what} {value!r} is not a JSON array", path)
    return value


def _items(doc: dict, key: str, path=None) -> list:
    """``doc[key]``, refused when missing or not a JSON array."""
    return _array(_need(doc, key, path), key, path)


def _object(value, what: str, path=None) -> dict:
    """``value``, refused unless a JSON object: ``dict`` would read an array
    of pairs, or of two-character strings, as a mapping."""
    if not isinstance(value, dict):
        raise DocumentError(f"{what} {value!r} is not a JSON object", path)
    return value


def _parse_coeff(field: FieldSpec, text, path=None):
    if not isinstance(text, str):
        raise DocumentError(f"coefficient {text!r} must be a string", path)
    try:
        return field.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad coefficient {text!r}: {exc}", path)


def _coefficient_reader(field: FieldSpec, path=None):
    """``_parse_coeff`` for one document, memoized on each distinct string:
    a document repeats a handful of coefficient strings ("0", "1") many
    times, and each is parsed once.  Only ``str`` keys are stored, and a
    failed parse raises before anything is stored, so the values and the
    errors are ``_parse_coeff``'s."""
    memo = {}

    def read(text):
        try:
            return memo[text]
        except (KeyError, TypeError):  # not seen yet, or not hashable
            value = _parse_coeff(field, text, path)
            if type(text) is str:
                memo[text] = value
            return value

    return read


# categories ------------------------------------------------------------------


def category_to_json(cat: LinearCategory, name: str) -> dict:
    fmt = cat.field.format
    homs = [{"src": x, "dst": y, "basis": list(basis)}
            for (x, y), basis in sorted(cat.hom_basis.items())]
    identity = {x: [fmt(c) for c in coords] for x, coords in cat.identity.items()}
    composition = []
    for (f, g) in sorted(cat.composition):
        coords = cat.composition[(f, g)]
        xf, _, _ = cat.basis_location[f]
        _, yg, _ = cat.basis_location[g]
        names = cat.hom(xf, yg)
        result = [{"basis": names[i], "coeff": fmt(c)}
                  for i, c in enumerate(coords) if c != cat.field.zero]
        composition.append({"f": f, "g": g, "result": result})
    return {
        "format": FORMAT_LINCAT,
        "name": name,
        "field": field_to_json(cat.field),
        "objects": list(cat.objects),
        "homs": homs,
        "identity": identity,
        "composition": composition,
    }


def category_from_json(doc: dict, path=None) -> tuple[str, LinearCategory]:
    if _need(doc, "format", path) != FORMAT_LINCAT:
        raise DocumentError(f"not a {FORMAT_LINCAT} document", path)
    name = _need(doc, "name", path)
    field = field_from_json(_need(doc, "field", path), path)
    objects = tuple(_items(doc, "objects", path))
    coefficient = _coefficient_reader(field, path)
    hom_basis = {}
    for entry in _items(doc, "homs", path):
        key = (_need(entry, "src", path), _need(entry, "dst", path))
        if key in hom_basis:
            raise DocumentError(f"duplicate hom entry {key}", path)
        hom_basis[key] = tuple(_items(entry, "basis", path))
    identity = {}
    for x, coords in _object(_need(doc, "identity", path), "identity",
                             path).items():
        identity[x] = tuple(coefficient(c)
                            for c in _array(coords, "identity", path))
    location = {}
    for (x, y), basis in hom_basis.items():
        for i, b in enumerate(basis):
            if b in location:
                raise DocumentError(f"basis name {b!r} is not unique", path)
            location[b] = (x, y, i)
    # the constructor's composition checks ride on this walk: names and
    # lengths hold by the checks here; the first non-composable pair is
    # raised after _check_tables, in the constructor's order
    composition, clash = {}, None
    for entry in _items(doc, "composition", path):
        f, g = _need(entry, "f", path), _need(entry, "g", path)
        if f not in location or g not in location:
            raise DocumentError(f"composition ({f},{g}) references unknown basis", path)
        xf, yf, _ = location[f]
        xg, yg, _ = location[g]
        if yf != xg and clash is None:
            clash = (f, g)
        coords = [field.zero] * len(hom_basis.get((xf, yg), ()))
        for term in _items(entry, "result", path):
            b = _need(term, "basis", path)
            x, y, i = location.get(b, (None, None, None))
            if (x, y) != (xf, yg):
                raise DocumentError(
                    f"composition ({f},{g}) result uses foreign basis {b!r}", path)
            coords[i] = field.add(
                coords[i], coefficient(_need(term, "coeff", path)))
        # scalars are ints and Fractions: zero exactly when falsy; a later
        # entry for (f, g) replaces an earlier one, or removes it when zero
        if any(coords):
            composition[(f, g)] = tuple(coords)
        else:
            composition.pop((f, g), None)
    objects = tuple(sorted(objects))
    try:
        _check_tables(field, objects, hom_basis, identity)
        if clash is not None:
            raise _not_composable(*clash)
    except ConstructionError as exc:
        raise DocumentError(str(exc), path)
    return name, LinearCategory._trusted(field, objects, hom_basis, identity,
                                         composition)


# functors --------------------------------------------------------------------


def functor_to_json(fun: LinearFunctor, name: str, source: str, target: str) -> dict:
    fmt = fun.source.field.format
    matrices = []
    for (x, y) in sorted(fun.hom_matrices):
        m = fun.hom_matrices[(x, y)]
        flat = [fmt(c) for row in m.entries for c in row]
        matrices.append({"src": x, "dst": y, "matrix": flat})
    return {
        "format": FORMAT_LINFUN,
        "name": name,
        "source": source,
        "target": target,
        "object_map": dict(fun.object_map),
        "hom_matrices": matrices,
    }


def functor_from_json(doc: dict, categories: Mapping[str, LinearCategory],
                      path=None) -> tuple[str, LinearFunctor]:
    if _need(doc, "format", path) != FORMAT_LINFUN:
        raise DocumentError(f"not a {FORMAT_LINFUN} document", path)
    name = _need(doc, "name", path)
    src_name, dst_name = _need(doc, "source", path), _need(doc, "target", path)
    if src_name not in categories:
        raise DocumentError(f"unresolved source category {src_name!r}", path)
    if dst_name not in categories:
        raise DocumentError(f"unresolved target category {dst_name!r}", path)
    source, target = categories[src_name], categories[dst_name]
    object_map = dict(_object(_need(doc, "object_map", path), "object_map",
                              path))
    field = source.field
    coefficient = _coefficient_reader(field, path)
    hom_matrices = {}
    for entry in _items(doc, "hom_matrices", path):
        x, y = _need(entry, "src", path), _need(entry, "dst", path)
        cols = source.dim(x, y)
        if cols == 0:
            raise DocumentError(f"matrix given for zero hom ({x},{y})", path)
        fx, fy = object_map.get(x), object_map.get(y)
        if fx is None or fy is None:
            raise DocumentError(f"object map misses {x} or {y}", path)
        rows = target.dim(fx, fy)
        flat = [coefficient(c) for c in _items(entry, "matrix", path)]
        if len(flat) != rows * cols:
            raise DocumentError(
                f"matrix at ({x},{y}) has {len(flat)} entries, "
                f"expected {rows}x{cols}", path)
        data = tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))
        # rows tuples of cols parsed scalars each, by the length check above
        hom_matrices[(x, y)] = Matrix._trusted(field, rows, cols, data)
    try:
        _check_maps(source, target, object_map, hom_matrices)
    except ConstructionError as exc:
        raise DocumentError(str(exc), path)
    # each matrix is in the source's field at its categories' shape, by
    # the count above: the constructor's last checks hold
    return name, LinearFunctor._trusted(source, target, object_map,
                                        hom_matrices)


# quivers ---------------------------------------------------------------------


def quiver_to_json(q: Quiver, name: str, field: FieldSpec,
                   relations: list) -> dict:
    fmt = field.format
    rels = [[{"path": list(path), "coeff": fmt(field.scalar(coeff))}
             for coeff, path in rel] for rel in relations]
    return {
        "format": FORMAT_QUIVER,
        "name": name,
        "field": field_to_json(field),
        "vertices": list(q.vertices),
        "arrows": [{"name": n, "src": s, "dst": d} for n, s, d in q.arrows],
        "relations": rels,
    }


def quiver_from_json(doc: dict, path=None):
    """Returns (name, quiver, relations, field); field defaults to Q."""
    if _need(doc, "format", path) != FORMAT_QUIVER:
        raise DocumentError(f"not a {FORMAT_QUIVER} document", path)
    name = _need(doc, "name", path)
    field = field_from_json(doc.get("field", {"kind": "Q"}), path)
    try:
        quiver = Quiver(tuple(_name(v, "vertex", path)
                              for v in _items(doc, "vertices", path)),
                        tuple((_name(_need(a, "name", path), "arrow", path),
                               _need(a, "src", path), _need(a, "dst", path))
                              for a in _items(doc, "arrows", path)))
    except ConstructionError as exc:
        raise DocumentError(str(exc), path)
    relations = []
    for rel in _array(doc.get("relations", []), "relations", path):
        relations.append([(_parse_coeff(field, _need(t, "coeff", path), path),
                           [_name(a, "relation path arrow", path)
                            for a in _items(t, "path", path)])
                          for t in _array(rel, "relation", path)])
    return name, quiver, relations, field


# algebras ----------------------------------------------------------------------


def algebra_from_json(doc: dict, path=None):
    """Parse an algebra/v1 document: basis names, a sparse multiplication
    table, and named idempotents.  Returns (name, field, basis, mult, idems)
    ready for ``category_from_algebra``."""
    if _need(doc, "format", path) != FORMAT_ALGEBRA:
        raise DocumentError(f"not a {FORMAT_ALGEBRA} document", path)
    name = _need(doc, "name", path)
    field = field_from_json(_need(doc, "field", path), path)
    basis = [_name(b, "basis", path) for b in _items(doc, "basis", path)]
    mult = {}
    for entry in _items(doc, "table", path):
        a, b = _need(entry, "a", path), _need(entry, "b", path)
        result = {}
        for term in _items(entry, "result", path):
            result[_need(term, "basis", path)] = _parse_coeff(
                field, _need(term, "coeff", path), path)
        mult[(a, b)] = result
    idems = []
    for entry in _items(doc, "idempotents", path):
        coords = [_parse_coeff(field, c, path)
                  for c in _items(entry, "coords", path)]
        idems.append((_name(_need(entry, "name", path), "idempotent", path),
                      coords))
    return name, field, basis, mult, idems


# certificates and verdicts ----------------------------------------------------


def certificate_to_json(cert: CoveringCertificate, functor_name: str) -> dict:
    blocks = []
    for key in sorted(cert.blocks):
        block = cert.blocks[key]
        blocks.append({
            "base_src": block.base_src,
            "base_dst": block.base_dst,
            "lift": block.lift,
            "direction": block.direction,
            "columns": [{"object": o, "basis": b} for o, b in block.column_layout],
            "rows": len(block.column_layout),
            "matrix": block._row_major(),
        })
    return {
        "format": FORMAT_COVCERT,
        "functor": functor_name,
        "fibres": {b: list(xs) for b, xs in sorted(cert.fibres.items())},
        "blocks": blocks,
    }


def covering_failure_to_json(failure: CoveringFailure) -> dict:
    out = {"kind": failure.kind, "message": failure.message()}
    for key in ("base_src", "base_dst", "lift", "direction",
                "expected_dim", "actual_dim", "missing_object"):
        value = getattr(failure, key)
        if value is not None:
            out[key] = value
    return out


def deck_group_to_json(deck: DeckGroup) -> dict:
    return {
        "order": deck.order,
        # each element's object map, copied whole: it maps every source
        # object, and the writer sorts its keys
        "action": [{"element": i, "map": dict(m)}
                   for i, m in enumerate(deck._maps)],
    }


def triviality_to_json(result: TrivialityResult) -> dict:
    out = {"trivial": result.trivial}
    if result.witness is not None:
        out["labels"] = list(result.witness.labels)
        out["components"] = [list(c) for c in result.witness.components]
    if result.failing_component is not None:
        out["failing_component"] = list(result.failing_component)
    return out


def galois_verdict_to_json(verdict: GaloisVerdict) -> dict:
    evidence: dict = {}
    if verdict.components is not None:
        evidence["components"] = [list(c) for c in verdict.components]
    if verdict.covering_failure is not None:
        evidence["covering_failure"] = covering_failure_to_json(
            verdict.covering_failure)
    if verdict.deck is not None:
        evidence["deck_group"] = deck_group_to_json(verdict.deck)
    if verdict.fibre is not None:
        evidence["fibre"] = list(verdict.fibre)
    if verdict.unreachable:
        evidence["unreachable"] = list(verdict.unreachable)
    if verdict.triviality is not None:
        evidence["fibre_product_triviality"] = triviality_to_json(verdict.triviality)
    return {"status": verdict.status.value,
            "method": verdict.method,
            "evidence": evidence}
