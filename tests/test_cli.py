"""CLI: exit codes, JSON reports, builders, round trips, determinism."""

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import covcat
from covcat import cli, documents as docs
from covcat.cli import main
from covcat.lincat import PATH_BUDGET, LinearCategory, Quiver, product_with_set, \
    validate_category
from covcat.linfun import LinearFunctor, identity_functor
from covcat.fibprod import fibre_product
from covcat.galois import deck_group, quotient_by_group
from covcat.exactalg import GF, QQ
from covcat.examples import (
    cyclic_cover,
    kronecker,
    kronecker_cover_twisted,
    rel_square,
    triangle_base,
    triangle_cover,
    triangle_cover_twisted,
)

from oracles import category_axiom_violations, full_subcategory, \
    killed_nonassociative_functor, kronecker_quiver, onto_kronecker


@pytest.fixture()
def workspace(tmp_path):
    """A directory of documents for the running examples."""
    base = triangle_base()
    f1 = triangle_cover(2)
    f2 = triangle_cover_twisted(2)
    k = kronecker_cover_twisted()
    _, incl = full_subcategory(base, ("t", "u"))
    _, projection = product_with_set(base, ["0", "1"])

    def write(doc):
        (tmp_path / f"{doc['name']}.json").write_text(docs.dumps(doc))

    write(docs.category_to_json(base, "B"))
    write(docs.category_to_json(f1.source, "C2"))
    write(docs.category_to_json(k.source, "KC"))
    write(docs.category_to_json(k.target, "KB"))
    write(docs.category_to_json(incl.source, "TU"))
    write(docs.category_to_json(projection.source, "BX2"))
    write(docs.functor_to_json(f1, "F1", "C2", "B"))
    write(docs.functor_to_json(f2, "F2", "C2", "B"))
    write(docs.functor_to_json(k, "K", "KC", "KB"))
    write(docs.functor_to_json(incl, "incl", "TU", "B"))
    write(docs.functor_to_json(projection, "proj", "BX2", "B"))
    write(docs.quiver_to_json(rel_square().quiver, "sq",
                              triangle_base().field, list(rel_square().relations)))
    return tmp_path


def _malformed_category(**fields) -> str:
    """The base category's document with ``fields`` replaced."""
    return docs.dumps({**docs.category_to_json(triangle_base(), "B"), **fields})


# documents that parse but are malformed
MALFORMED = [
    pytest.param(_malformed_category(name=["B"]), id="name-list"),
    pytest.param(_malformed_category(identity=[["1"]]), id="identity-list"),
    pytest.param(_malformed_category(homs=[1]), id="homs-int"),
    pytest.param(_malformed_category(objects=3), id="objects-int"),
    pytest.param(docs.dumps({"format": docs.FORMAT_VERDICT, "name": ["bad"]}),
                 id="report-name-list"),
    pytest.param(_malformed_category(field={"kind": "Fp", "p": 7.9}),
                 id="p-float"),
    pytest.param(_malformed_category(field={"kind": "Fp", "p": "7"}),
                 id="p-string"),
    pytest.param(_malformed_category(field={"kind": "Fp", "p": True}),
                 id="p-bool"),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def _run_cli(cwd, *argv, env=None) -> subprocess.CompletedProcess:
    """``covcat argv`` in a fresh interpreter, so a traceback would show;
    ``env`` adds to the environment."""
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": str(Path(covcat.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "covcat.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=60)


def _assert_one_input_error(done, command: str) -> str:
    """Exit 2 with a single JSON error on stdout and no traceback."""
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    report = json.loads(done.stdout)  # one JSON document, nothing before it
    assert report["command"] == command
    return report["error"]


def test_validate_good_documents(workspace, capsys):
    code, report = run(capsys, "validate", str(workspace / "B.json"),
                       str(workspace / "C2.json"), str(workspace / "F1.json"))
    assert code == 0
    assert report["ok"] is True


def test_validate_flags_broken_unit(workspace, capsys, tmp_path):
    doc = json.loads((workspace / "B.json").read_text())
    doc["composition"] = [entry for entry in doc["composition"]
                          if not (entry["f"] == "b" and entry["g"] == "1_u")]
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "B.json").write_text(docs.dumps(doc))
    code, report = run(capsys, "validate", str(broken / "B.json"))
    assert code == 1
    [result] = report["results"]
    assert not result["ok"]
    assert any(v["kind"] == "left-unit" for v in result["violations"])


def test_validate_quiver_document(workspace, capsys):
    code, report = run(capsys, "validate", str(workspace / "sq.json"))
    assert code == 0
    assert report["results"] == [{"name": "sq", "kind": "quiver", "ok": True,
                                  "violations": []}]


def test_check_rejects_a_functor_that_breaks_a_unit(workspace, capsys):
    doc = json.loads((workspace / "F1.json").read_text())
    for entry in doc["hom_matrices"]:
        if (entry["src"], entry["dst"]) == ("t0", "t0"):
            entry["matrix"] = ["2"]
    (workspace / "F1.json").write_text(docs.dumps(doc))
    code, report = run(capsys, "check", "covering", str(workspace / "F1.json"))
    assert code == 2
    assert report["error"] == "functor F1 is invalid"


def test_validate_unresolved_reference(workspace, capsys, tmp_path):
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "F1.json").write_text((workspace / "F1.json").read_text())
    code, report = run(capsys, "validate", str(alone / "F1.json"))
    assert code == 2
    assert "unresolved" in report["error"]


def test_validate_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run(capsys, "validate", str(bad))
    assert code == 2


@pytest.mark.parametrize("content", ["{not json", "[1,2]", *MALFORMED])
@pytest.mark.parametrize("argv", [["validate", "bad.json"],
                                  ["check", "covering", "bad.json"],
                                  ["build", "product-set", "bad.json", "3"]])
def test_unparseable_named_file_is_an_input_error(tmp_path, argv, content):
    (tmp_path / "bad.json").write_text(content)
    done = _run_cli(tmp_path, *argv)
    assert "bad.json" in _assert_one_input_error(done, argv[0])


@pytest.mark.parametrize("content", [
    "{not json",
    pytest.param(_malformed_category(field={"kind": "Fp", "p": 10**30}),
                 id="modulus-too-large"),
    pytest.param(_malformed_category(identity=[["1"]]), id="identity-list")])
def test_unnamed_unparseable_file_is_skipped_and_listed(workspace, capsys,
                                                        tmp_path, content):
    notes = workspace / "notes.json"
    notes.write_text(content)
    # a valid second claim of B, between B.json and notes.json in sorted
    # order: B resolves to it, the last file claiming B that builds
    doc = json.loads((workspace / "B.json").read_text())
    doc["objects"].reverse()
    (workspace / "B2.json").write_text(docs.dumps(doc))
    code, report = run(capsys, "check", "covering", str(workspace / "F1.json"))
    assert code == 0
    assert report["status"] == "Covering"
    assert report["skipped"] == [str(notes)]
    code, report = run(capsys, "build", "product-set", "B", "2",
                       "--dir", str(workspace), "--out", str(tmp_path / "out"))
    assert code == 0
    assert report["skipped"] == [str(notes)]
    product, _ = product_with_set(docs.category_from_json(doc)[1], ["0", "1"])
    assert (tmp_path / "out" / "B-x2.json").read_text() == \
        docs.dumps(docs.category_to_json(product, "B-x2"))
    code, report = run(capsys, "check", "covering", str(notes))
    assert code == 2
    assert "skipped" not in report


@pytest.mark.parametrize("argv", [["check", "covering", "{ws}/F1.json"],
                                  ["build", "product-set", "B", "3",
                                   "--dir", "{ws}", "--out", "{out}"]])
def test_each_document_is_parsed_at_most_once(workspace, capsys, tmp_path,
                                              monkeypatch, argv):
    parsed = []

    class CountingJson:
        def loads(self, text, *args, **kwargs):
            parsed.append(text)
            return json.loads(text, *args, **kwargs)

        def __getattr__(self, name):
            return getattr(json, name)

    monkeypatch.setattr(cli, "json", CountingJson())
    argv = [a.format(ws=workspace, out=tmp_path / "out") for a in argv]
    code, _ = run(capsys, *argv)
    assert code == 0
    assert len(parsed) == len(set(parsed)) == len(list(workspace.glob("*.json")))


@pytest.mark.parametrize("argv, decision", [
    (["check", "covering", "{ws}/F1.json"], "check_covering"),
    (["check", "trivial", "{ws}/proj.json"], "is_trivial_covering"),
    (["check", "galois", "{ws}/F1.json", "--method", "direct"], "is_galois"),
    (["check", "galois", "{ws}/F1.json"], "is_galois_both"),
    (["check", "universal", "{ws}/F1.json", "--family", "F2"],
     "check_universal_against"),
    (["build", "product-set", "B", "2", "--dir", "{ws}", "--out", "{out}"],
     "product_with_set"),
    (["build", "fibre-product", "F1", "F2", "--dir", "{ws}", "--out", "{out}"],
     "fibre_product"),
    (["build", "quotient", "C2", "--by-deck-of", "F1", "--dir", "{ws}",
      "--out", "{out}"], "deck_group"),
    (["build", "path-category", "sq", "--dir", "{ws}", "--out", "{out}"],
     "path_category")])
def test_no_unreached_parsed_document_is_kept_while_deciding(
        workspace, capsys, tmp_path, monkeypatch, argv, decision):
    """When the decision runs, the workspace holds no parsed document that
    the command did not build."""
    workspaces, held = [], []

    class Recording(cli.Workspace):
        def __init__(self):
            super().__init__()
            workspaces.append(self)

    decide = getattr(cli, decision)

    def recording(*args, **kwargs):
        held.append([len(ws._parsed) for ws in workspaces])
        return decide(*args, **kwargs)

    monkeypatch.setattr(cli, "Workspace", Recording)
    monkeypatch.setattr(cli, decision, recording)
    argv = [a.format(ws=workspace, out=tmp_path / "out") for a in argv]
    code, _ = run(capsys, *argv)
    assert code in (0, 1)
    assert held == [[0]]


def _count_builds(monkeypatch) -> list:
    """The names of the documents built from here on, in build order."""
    built = []

    def counting(parse):
        def wrapper(*args, **kwargs):
            result = parse(*args, **kwargs)
            built.append(result[0])
            return result
        return wrapper

    for parse in ("category_from_json", "functor_from_json",
                  "quiver_from_json", "algebra_from_json"):
        monkeypatch.setattr(docs, parse, counting(getattr(docs, parse)))
    return built


@pytest.mark.parametrize("argv, reached", [
    (["check", "covering", "{ws}/F1.json"], ["B", "C2", "F1"]),
    (["build", "product-set", "B", "2", "--dir", "{ws}", "--out", "{out}"],
     ["B"])])
def test_a_command_builds_only_the_documents_it_reaches(
        workspace, capsys, tmp_path, monkeypatch, argv, reached):
    built = _count_builds(monkeypatch)
    argv = [a.format(ws=workspace, out=tmp_path / "out") for a in argv]
    code, _ = run(capsys, *argv)
    assert code == 0
    assert sorted(built) == reached


def test_loading_a_workspace_runs_no_public_constructor_check(workspace,
                                                             monkeypatch):
    """The loaders make every check of ``LinearCategory`` and
    ``LinearFunctor`` themselves and build each document trusted."""
    checked = []
    for cls in (LinearCategory, LinearFunctor):
        def recording(self, cls=cls):
            checked.append(cls.__name__)
        monkeypatch.setattr(cls, "__post_init__", recording)
    ws = cli.Workspace()
    ws.load_all(sorted(workspace.glob("*.json")))
    assert ws.get(docs.FORMAT_LINFUN, "F1")[0].source.objects
    assert checked == []


def test_a_name_resolves_once_and_stays_resolved_after_release(
        tmp_path, monkeypatch):
    """Two files claim one category name and the later one does not build:
    the name resolves to the earlier file, each file is built once, and a
    second ``get`` after ``release`` returns the same category."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(docs.dumps(docs.category_to_json(triangle_base(), "B")))
    bad.write_text(_malformed_category(identity=[["1"]]))
    built = Counter()
    parse = docs.category_from_json

    def counting(doc, where=None):
        built[where] += 1
        return parse(doc, where)

    monkeypatch.setattr(docs, "category_from_json", counting)
    ws = cli.Workspace()
    ws.load_all([good, bad], named=set())
    first = ws.get(docs.FORMAT_LINCAT, "B")
    ws.release()
    assert ws.get(docs.FORMAT_LINCAT, "B") is first is not None
    assert built == {str(good): 1, str(bad): 1}
    assert ws.skipped == [str(bad)]


def test_an_unreached_broken_document_changes_no_report(workspace, capsys):
    argv = ["check", "covering", str(workspace / "F1.json")]
    assert main(list(argv)) == 0
    before = capsys.readouterr().out
    (workspace / "notes.json").write_text(
        _malformed_category(name="unused", identity=[["1"]]))
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == before


def test_a_document_over_the_size_bound_is_refused_unread(workspace, capsys):
    big = workspace / "big.json"
    with open(big, "wb") as out:
        out.truncate(cli.DOCUMENT_BYTES + 1)  # sparse: no data is written
    code, report = run(capsys, "check", "covering", str(workspace / "F1.json"))
    assert code == 0
    assert report["skipped"] == [str(big)]
    for argv in (["check", "covering", str(big)], ["validate", str(big)]):
        code, report = run(capsys, *argv)
        assert code == 2
        assert report["error"] == \
            f"{big}: document is larger than {cli.DOCUMENT_BYTES} bytes"


def test_modulus_beyond_primality_bound_is_an_input_error(workspace, capsys):
    doc = json.loads((workspace / "B.json").read_text())
    doc["field"] = {"kind": "Fp", "p": 2**127 - 1}
    (workspace / "B.json").write_text(docs.dumps(doc))
    code, report = run(capsys, "validate", str(workspace / "B.json"))
    assert code == 2
    assert "primality bound" in report["error"]


@pytest.mark.parametrize("text", ["1_0", "\u0663", "1/\u0662", " 1"])
def test_coefficient_outside_the_exact_grammar_is_an_input_error(
        workspace, capsys, text):
    doc = json.loads((workspace / "B.json").read_text())
    doc["identity"]["s"] = [text]
    (workspace / "B.json").write_text(docs.dumps(doc))
    code, report = run(capsys, "validate", str(workspace / "B.json"))
    assert code == 2
    assert f"bad coefficient {text!r}" in report["error"]


def test_check_galois_double_cover(workspace, capsys):
    argv = ["check", "galois", str(workspace / "F1.json")]
    code, report = run(capsys, *argv)
    assert code == 0
    assert report["status"] == "Galois"
    assert report["evidence"]["deck_group"]["order"] == 2
    assert report["inputs"] == argv  # reports record what produced them


def test_check_galois_twisted_kronecker(workspace, capsys):
    code, report = run(capsys, "check", "galois", "K", "--dir", str(workspace))
    assert code == 1
    assert report["status"] == "NonGalois"
    assert report["evidence"]["unreachable"] == ["x1"]


def test_check_galois_methods_agree_and_can_be_forced(workspace, capsys):
    for method in ("direct", "fibre"):
        code, report = run(capsys, "check", "galois", "F2",
                           "--dir", str(workspace), "--method", method)
        assert code == 0
        assert report["status"] == "Galois"


def test_check_covering_and_witness(workspace, capsys):
    code, report = run(capsys, "check", "covering", "F1", "--dir", str(workspace))
    assert code == 0
    assert report["status"] == "Covering"
    assert report["evidence"]["certificate"]["fibres"]["t"] == ["t0", "t1"]
    assert "skipped" not in report

    code, report = run(capsys, "check", "covering", "incl",
                       "--dir", str(workspace))
    assert code == 1
    assert report["evidence"]["witness"]["kind"] == "not-surjective"


def test_unexpected_exception_exits_5_with_one_json_error(
        workspace, capsys, monkeypatch):
    def broken(fun):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_covering", broken)
    code = main(["check", "covering", "F1", "--dir", str(workspace)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 5
    assert json.loads(captured.out) == {
        "command": "check", "error": "internal error: RuntimeError('boom')"}
    assert "Traceback" not in captured.out + captured.err

    def interrupted(fun):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "check_covering", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["check", "covering", "F1", "--dir", str(workspace)])


def test_check_trivial(workspace, capsys):
    code, report = run(capsys, "check", "trivial", "proj", "--dir", str(workspace))
    assert code == 0
    assert report["status"] == "Trivial"
    code, report = run(capsys, "check", "trivial", "F1", "--dir", str(workspace))
    assert code == 1
    assert report["status"] == "NonTrivial"


def test_check_precondition_exit_codes(workspace, capsys):
    # disconnected source: the sheet projection is a covering of B but its
    # source has two components, so galois gating yields NotConnected
    code, report = run(capsys, "check", "galois", "proj", "--dir", str(workspace))
    assert code == 3
    assert report["status"] == "NotConnected"
    # not a covering: trivial check on the inclusion
    code, report = run(capsys, "check", "trivial", "incl", "--dir", str(workspace))
    assert code == 4
    assert report["status"] == "NotCovering"
    # universality needs a connected covering
    code, report = run(capsys, "check", "universal", "proj",
                       "--dir", str(workspace), "--family", "F1")
    assert code == 3
    assert report["status"] == "NotConnected"


def test_check_universal(workspace, capsys):
    code, report = run(capsys, "check", "universal", "F1",
                       "--dir", str(workspace), "--family", "F1")
    assert code == 0
    assert report["status"] == "UniversalRelativeToFamily"
    code, report = run(capsys, "check", "universal", "F1",
                       "--dir", str(workspace), "--family", "F2")
    assert code == 1
    assert report["status"] == "NotUniversal"
    [entry] = report["evidence"]["family"]
    assert entry["member"] == "F2"
    assert not entry["passed"]
    assert entry["witness"]["kind"] == "block-dimension"


def test_check_unknown_functor(workspace, capsys):
    code, report = run(capsys, "check", "galois", "nope", "--dir", str(workspace))
    assert code == 2


def test_check_universal_requires_family(workspace, capsys):
    code, report = run(capsys, "check", "universal", "F1", "--dir", str(workspace))
    assert code == 2


def test_build_fibre_product_round_trip(workspace, capsys, tmp_path):
    out = tmp_path / "out"
    code, report = run(capsys, "build", "fibre-product", "F1", "F2",
                       "--dir", str(workspace), "--out", str(out))
    assert code == 0
    written = report["written"]
    assert len(written) == 3
    # the written documents re-validate (alongside the categories they cite)
    code, report = run(capsys, "validate", str(workspace / "C2.json"),
                       str(workspace / "B.json"), *written)
    assert code == 0
    # and reload to exactly the in-memory construction
    name, cat = docs.category_from_json(
        json.loads((out / "fp-F1-F2.json").read_text()))
    fp = fibre_product(triangle_cover(2), triangle_cover_twisted(2))
    assert cat == fp.category
    cats = {"fp-F1-F2": cat, "C2": triangle_cover(2).source}
    _, pr1 = docs.functor_from_json(
        json.loads((out / "fp-F1-F2-pr1.json").read_text()), cats)
    assert pr1 == fp.pr1


def test_build_fibre_product_of_one_functor_is_an_input_error(workspace,
                                                             capsys):
    code, report = run(capsys, "build", "fibre-product", "F1",
                       "--dir", str(workspace), "--out", str(workspace / "o"))
    assert code == 2
    assert report["error"] == "fibre-product requires two functors"
    assert not (workspace / "o").exists()


@pytest.mark.parametrize("argv, extra", [
    (["build", "fibre-product", "F1", "F1", "nonsense"], "nonsense"),
    (["build", "quotient", "C2", "whatever", "--by-deck-of", "F1"], "whatever"),
    (["build", "path-category", "sq", "sq"], "sq"),
    (["build", "from-algebra", "alg", "more", "most"], "more")])
def test_build_refuses_an_operand_it_does_not_read(workspace, capsys, argv,
                                                    extra):
    code, report = run(capsys, *argv, "--dir", str(workspace),
                       "--out", str(workspace / "o"))
    assert code == 2
    assert set(report) == {"command", "error"}
    assert repr(extra) in report["error"]
    assert not (workspace / "o").exists()


def test_build_product_set(workspace, capsys, tmp_path):
    out = tmp_path / "out"
    code, report = run(capsys, "build", "product-set", "B", "3",
                       "--dir", str(workspace), "--out", str(out))
    assert code == 0
    name, cat = docs.category_from_json(
        json.loads((out / "B-x3.json").read_text()))
    assert len(cat.objects) == 9


def test_build_product_set_with_a_non_ascii_digit_label(workspace, capsys,
                                                        tmp_path):
    # "²" passes str.isdigit but is no count: it is the one label
    out = tmp_path / "out"
    code, report = run(capsys, "build", "product-set", "B", "²",
                       "--dir", str(workspace), "--out", str(out))
    assert code == 0
    name, cat = docs.category_from_json(
        json.loads((out / "B-x1.json").read_text()))
    assert cat.objects == ("(s,²)", "(t,²)", "(u,²)")


def test_build_product_set_over_the_count_budget_is_an_input_error(workspace):
    count = str(cli.PRODUCT_SET_BUDGET + 1)
    done = _run_cli(workspace, "build", "product-set", "B", count,
                    "--out", "out")
    error = _assert_one_input_error(done, "build")
    assert error == f"label count exceeds {cli.PRODUCT_SET_BUDGET}"
    assert not (workspace / "out").exists()


def test_build_quotient(workspace, capsys, tmp_path):
    out = tmp_path / "out"
    code, report = run(capsys, "build", "quotient", "C2", "--by-deck-of", "F1",
                       "--dir", str(workspace), "--out", str(out))
    assert code == 0
    name, cat = docs.category_from_json(
        json.loads((out / "C2-mod-F1.json").read_text()))
    f1 = triangle_cover(2)
    expected, _ = quotient_by_group(f1.source, deck_group(f1))
    assert cat == expected


def test_build_path_category(workspace, capsys, tmp_path):
    out = tmp_path / "out"
    code, report = run(capsys, "build", "path-category", "sq",
                       "--dir", str(workspace), "--out", str(out))
    assert code == 0
    name, cat = docs.category_from_json(
        json.loads((out / "sq-cat.json").read_text()))
    assert cat.dim("p", "s") == 2  # m plus the identified square composite


def test_build_path_category_with_a_killed_hom_space(capsys, tmp_path):
    """b∘a = 0 on x -a-> y -b-> z: the quotient has hom(x, z) = 0."""
    q = Quiver(("x", "y", "z"), (("a", "x", "y"), ("b", "y", "z")))
    (tmp_path / "q.json").write_text(docs.dumps(docs.quiver_to_json(
        q, "q", triangle_base().field, [[(1, ["b", "a"])]])))
    out = tmp_path / "out"
    code, _ = run(capsys, "build", "path-category", str(tmp_path / "q.json"),
                  "--out", str(out))
    assert code == 0
    built = json.loads((out / "q-cat.json").read_text())
    assert [(h["src"], h["dst"]) for h in built["homs"]] == \
        [("x", "x"), ("x", "y"), ("y", "y"), ("y", "z"), ("z", "z")]
    assert ("a", "b") not in [(c["f"], c["g"]) for c in built["composition"]]


def _chain(length: int) -> Quiver:
    return Quiver(tuple(f"v{i}" for i in range(length)),
                  tuple((f"a{i}", f"v{i}", f"v{i + 1}") for i in range(length - 1)))


def _diamonds(count: int) -> Quiver:
    """``count`` diamonds in series: 2**count paths from end to end."""
    vertices = [f"m{i}" for i in range(count + 1)]
    arrows = []
    for i in range(count):
        vertices += [f"u{i}", f"d{i}"]
        arrows += [(f"p{i}", f"m{i}", f"u{i}"), (f"q{i}", f"m{i}", f"d{i}"),
                   (f"r{i}", f"u{i}", f"m{i + 1}"), (f"s{i}", f"d{i}", f"m{i + 1}")]
    return Quiver(tuple(vertices), tuple(arrows))


@pytest.mark.parametrize("quiver", [pytest.param(_chain(1200), id="chain-1200"),
                                    pytest.param(_diamonds(40), id="diamonds-40")])
def test_build_path_category_over_the_path_budget_is_an_input_error(tmp_path,
                                                                    quiver):
    (tmp_path / "q.json").write_text(
        docs.dumps(docs.quiver_to_json(quiver, "q", triangle_base().field, [])))
    done = _run_cli(tmp_path, "build", "path-category", "q.json", "--out", "out")
    assert _assert_one_input_error(done, "build") == \
        f"quiver has more than {PATH_BUDGET} paths"


DIAGONAL_ALGEBRA = {
    "format": "algebra/v1",
    "name": "diag",
    "field": {"kind": "Q"},
    "basis": ["e1", "e2"],
    "table": [
        {"a": "e1", "b": "e1", "result": [{"basis": "e1", "coeff": "1"}]},
        {"a": "e2", "b": "e2", "result": [{"basis": "e2", "coeff": "1"}]},
    ],
    "idempotents": [
        {"name": "p1", "coords": ["1", "0"]},
        {"name": "p2", "coords": ["0", "1"]},
    ],
}


def test_build_from_algebra(capsys, tmp_path):
    (tmp_path / "diag.json").write_text(docs.dumps(DIAGONAL_ALGEBRA))
    out = tmp_path / "out"
    code, report = run(capsys, "build", "from-algebra", "diag",
                       "--dir", str(tmp_path), "--out", str(out))
    assert code == 0
    _, cat = docs.category_from_json(
        json.loads((out / "diag-cat.json").read_text()))
    assert cat.objects == ("p1", "p2")
    assert cat.dim("p1", "p2") == 0


def test_validate_algebra_document(capsys, tmp_path):
    (tmp_path / "diag.json").write_text(docs.dumps(DIAGONAL_ALGEBRA))
    code, report = run(capsys, "validate", str(tmp_path / "diag.json"))
    assert code == 0
    assert report["results"] == [{"name": "diag", "kind": "algebra",
                                  "ok": True, "violations": []}]


def test_build_from_algebra_with_a_zero_idempotent_is_an_input_error(capsys,
                                                                    tmp_path):
    # p3 = 0 is idempotent and orthogonal to the others, but p3·A·p3 = 0
    algebra = {**DIAGONAL_ALGEBRA, "idempotents": [
        *DIAGONAL_ALGEBRA["idempotents"], {"name": "p3", "coords": ["0", "0"]}]}
    (tmp_path / "diag.json").write_text(docs.dumps(algebra))
    code, report = run(capsys, "build", "from-algebra", "diag",
                       "--dir", str(tmp_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert report["error"] == "object p3 has no endomorphism space"


def _with(doc: dict, edit) -> dict:
    """A deep copy of ``doc`` after ``edit`` has changed it in place."""
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


# the quiver x -a-> y -b-> z with b∘a = 0
_QUIVER = docs.quiver_to_json(
    Quiver(("x", "y", "z"), (("a", "x", "y"), ("b", "y", "z"))), "q",
    triangle_base().field, [[(1, ["b", "a"])]])


@pytest.mark.parametrize("doc, kind", [
    pytest.param(_with(_QUIVER, lambda d: d["arrows"][0].update(name=7)),
                 "path-category", id="quiver-arrow-int"),
    pytest.param(_with(_QUIVER, lambda d: d["vertices"].append(7)),
                 "path-category", id="quiver-vertex-int"),
    pytest.param(_with(_QUIVER, lambda d: d["relations"][0][0].update(
        path=["b", ["a"]])), "path-category", id="quiver-relation-path-list"),
    pytest.param(_with(DIAGONAL_ALGEBRA,
                       lambda d: d["idempotents"][0].update(name=None)),
                 "from-algebra", id="algebra-idempotent-null"),
    pytest.param(_with(DIAGONAL_ALGEBRA, lambda d: d["basis"].append(["e3"])),
                 "from-algebra", id="algebra-basis-list"),
    pytest.param(_with(DIAGONAL_ALGEBRA, lambda d: d["table"][0].update(
        result=[{"basis": "e3", "coeff": "1"}])),
                 "from-algebra", id="algebra-result-unknown-basis")])
def test_build_from_malformed_quiver_or_algebra_is_an_input_error(
        tmp_path, doc, kind):
    (tmp_path / "bad.json").write_text(docs.dumps(doc))
    done = _run_cli(tmp_path, "build", kind, "bad.json", "--out", "out")
    _assert_one_input_error(done, "build")
    assert not (tmp_path / "out").exists()


def _functor_with_a_string_matrix(doc: dict) -> None:
    """Write F1's first one-entry matrix as a string."""
    entry = next(e for e in doc["hom_matrices"] if len(e["matrix"]) == 1)
    entry["matrix"] = "".join(entry["matrix"])


_BASE = docs.category_to_json(triangle_base(), "B")
# the diagonal algebra with one-letter basis names, so that the string "ab"
# would read as the basis ["a", "b"]
_LETTER_ALGEBRA = json.loads(docs.dumps(DIAGONAL_ALGEBRA)
                             .replace('"e1"', '"a"').replace('"e2"', '"b"'))


_COVER_SOURCE = docs.category_to_json(triangle_cover(2).source, "C2")


def _composite_entry(doc: dict, f: str, g: str) -> dict:
    return next(e for e in doc["composition"] if (e["f"], e["g"]) == (f, g))


# a string where the format has a JSON array; each string's characters
# spell the array it replaces, which an unchecked reader would accept, and
# an empty string or object would read as an empty array
@pytest.mark.parametrize("name, doc, refused", [
    pytest.param("B", _with(_BASE, lambda d: d.update(objects="stu")),
                 "objects 'stu'", id="category-objects"),
    pytest.param("B", _with(_BASE, lambda d: next(
        h for h in d["homs"] if h["basis"] == ["b"]).update(basis="b")),
                 "basis 'b'", id="category-hom-basis"),
    pytest.param("B", _with(_BASE, lambda d: d["identity"].update(t="1")),
                 "identity '1'", id="category-identity"),
    pytest.param("F1", _with(docs.functor_to_json(triangle_cover(2), "F1",
                                                  "C2", "B"),
                             _functor_with_a_string_matrix),
                 "matrix '1'", id="functor-matrix"),
    pytest.param("q", _with(_QUIVER, lambda d: d.update(vertices="xyz")),
                 "vertices 'xyz'", id="quiver-vertices"),
    pytest.param("q", _with(_QUIVER, lambda d: d["relations"][0][0].update(
        path="ba")), "path 'ba'", id="quiver-relation-path"),
    pytest.param("diag", _with(_LETTER_ALGEBRA, lambda d: d.update(
        basis="ab")), "basis 'ab'", id="algebra-basis"),
    pytest.param("diag", _with(DIAGONAL_ALGEBRA, lambda d: d["idempotents"][0]
                               .update(coords="10")),
                 "coords '10'", id="algebra-idempotent-coords"),
    pytest.param("B", _with(_BASE, lambda d: d.update(homs="")),
                 "homs ''", id="category-homs"),
    pytest.param("B", _with(_BASE, lambda d: d.update(composition="")),
                 "composition ''", id="category-composition"),
    # read as empty, the result would make c0∘b0 zero and the cover valid
    pytest.param("C2", _with(_COVER_SOURCE, lambda d: _composite_entry(
        d, "b0", "c0").update(result="")), "result ''",
                 id="category-composition-result"),
    pytest.param("C2", _with(_COVER_SOURCE, lambda d: _composite_entry(
        d, "b0", "c0").update(result={})), "result {}",
                 id="category-composition-result-object"),
    pytest.param("F1", _with(docs.functor_to_json(triangle_cover(2), "F1",
                                                  "C2", "B"),
                             lambda d: d.update(hom_matrices="")),
                 "hom_matrices ''", id="functor-hom-matrices"),
    pytest.param("q", _with(_QUIVER, lambda d: d.update(arrows="")),
                 "arrows ''", id="quiver-arrows"),
    pytest.param("q", _with(_QUIVER, lambda d: d.update(relations="")),
                 "relations ''", id="quiver-relations"),
    pytest.param("q", _with(_QUIVER, lambda d: d["relations"].__setitem__(
        0, "")), "relation ''", id="quiver-relation"),
    pytest.param("diag", _with(DIAGONAL_ALGEBRA, lambda d: d.update(
        table="")), "table ''", id="algebra-table"),
    pytest.param("diag", _with(DIAGONAL_ALGEBRA, lambda d: d["table"][0]
                               .update(result="")),
                 "result ''", id="algebra-table-result"),
    pytest.param("diag", _with(DIAGONAL_ALGEBRA, lambda d: d.update(
        idempotents="")), "idempotents ''", id="algebra-idempotents")])
def test_a_string_where_the_format_has_an_array_is_an_input_error(
        workspace, capsys, name, doc, refused):
    path = workspace / f"{name}.json"
    path.write_text(docs.dumps(doc))
    code, report = run(capsys, "validate",
                       *sorted(str(p) for p in workspace.glob("*.json")))
    assert code == 2
    assert report == {"command": "validate",
                      "error": f"{path}: {refused} is not a JSON array"}


# B's identity functor, whose object names have one letter each
_IDENTITY_B = docs.functor_to_json(identity_functor(triangle_base()), "IB",
                                   "B", "B")


@pytest.mark.parametrize("object_map", [
    pytest.param([["s", "s"], ["t", "t"], ["u", "u"]], id="pairs"),
    pytest.param(["ss", "tt", "uu"], id="strings")])
def test_an_object_map_that_is_not_a_json_object_is_an_input_error(
        workspace, object_map):
    """``dict`` would read either array as B's identity object map."""
    (workspace / "IB.json").write_text(docs.dumps(
        {**_IDENTITY_B, "object_map": object_map}))
    for argv in (("validate", "B.json", "IB.json"),
                 ("check", "covering", "IB.json")):
        error = _assert_one_input_error(_run_cli(workspace, *argv), argv[0])
        assert error.endswith(f"object_map {object_map!r} is not a JSON object")


@pytest.mark.parametrize("key, value", [
    pytest.param("identity", [["t", ["1"]]], id="identity-pairs"),
    pytest.param("field", "kind", id="field-string"),
    pytest.param("field", ["kind"], id="field-array")])
def test_an_identity_or_field_that_is_not_a_json_object_is_an_input_error(
        tmp_path, key, value):
    """A DocumentError naming the file, not an AttributeError or a
    TypeError out of the library."""
    (tmp_path / "bad.json").write_text(_malformed_category(**{key: value}))
    error = _assert_one_input_error(_run_cli(tmp_path, "validate", "bad.json"),
                                    "validate")
    assert error == f"bad.json: {key} {value!r} is not a JSON object"


@pytest.mark.parametrize("doc, kind, error", [
    pytest.param(_with(_QUIVER, lambda d: d["relations"][0][0].update(
        path=["zz"])), "path-category", "relation references unknown arrow zz",
                 id="quiver-relation-unknown-arrow"),
    pytest.param(_with(DIAGONAL_ALGEBRA, lambda d: d["idempotents"][1].update(
        coords=["1", "0"])), "from-algebra",
                 "idempotents p1 and p2 are not orthogonal",
                 id="algebra-equal-idempotents")])
def test_validate_refuses_a_quiver_or_algebra_that_build_refuses(
        capsys, tmp_path, doc, kind, error):
    bad = tmp_path / "bad.json"
    bad.write_text(docs.dumps(doc))
    code, report = run(capsys, "validate", str(bad))
    assert code == 2
    assert report["error"] == f"{bad}: {error}"
    code, report = run(capsys, "build", kind, str(bad),
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert report["error"] == error


def _renamed(value, rename: dict):
    """A document with every string that is a key of ``rename``, dict keys
    included, replaced by its value."""
    if isinstance(value, dict):
        return {_renamed(k, rename): _renamed(v, rename)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_renamed(v, rename) for v in value]
    return rename.get(value, value) if isinstance(value, str) else value


def test_check_galois_refuses_clashing_pair_names(tmp_path):
    """With x0, x1 named "a", "a,a", the Kronecker double cover's square has
    two pairs named "(a,a,a)": the fibre method refuses it as fibre_product
    does, while the direct method decides it."""
    cover = cyclic_cover(kronecker(), 2)
    for doc in (docs.category_to_json(cover.source, "KXC"),
                docs.category_to_json(cover.target, "KXB"),
                docs.functor_to_json(cover, "KX", "KXC", "KXB")):
        (tmp_path / f"{doc['name']}.json").write_text(docs.dumps(
            _renamed(doc, {"x0": "a", "x1": "a,a"})))
    done = _run_cli(tmp_path, "check", "galois", "KX.json", "--method", "fibre")
    assert _assert_one_input_error(done, "check") == "duplicate object names"
    done = _run_cli(tmp_path, "check", "galois", "KX.json", "--method", "direct")
    assert done.returncode == 0
    assert json.loads(done.stdout)["status"] == "Galois"


def test_documents_are_read_as_utf8_whatever_the_locale(tmp_path):
    """JSON is UTF-8: a raw UTF-8 object name reads the same under the
    POSIX locale, whose encoding is ASCII."""
    cover = cyclic_cover(kronecker(), 2)
    for doc in (docs.category_to_json(cover.source, "UC"),
                docs.category_to_json(cover.target, "UB"),
                docs.functor_to_json(cover, "U", "UC", "UB")):
        (tmp_path / f"{doc['name']}.json").write_text(
            json.dumps(_renamed(doc, {"x0": "ξ0"}), ensure_ascii=False),
            encoding="utf-8")
    done = _run_cli(tmp_path, "check", "covering", "U.json",
                    env={"LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0",
                         "PYTHONUTF8": "0"})
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout)["status"] == "Covering"


@pytest.mark.parametrize("argv, error", [
    pytest.param(["C2"], "quotient requires --by-deck-of", id="no-by-deck-of"),
    pytest.param(["B", "--by-deck-of", "F1"], "F1 is not a functor out of B",
                 id="another-source")])
def test_build_quotient_input_errors(workspace, capsys, argv, error):
    code, report = run(capsys, "build", "quotient", *argv,
                       "--dir", str(workspace), "--out", str(workspace / "o"))
    assert code == 2
    assert report == {"command": "build", "error": error}
    assert not (workspace / "o").exists()


def test_build_quotient_of_disconnected_source_exits_3(workspace, capsys, tmp_path):
    code, report = run(capsys, "build", "quotient", "BX2", "--by-deck-of", "proj",
                       "--dir", str(workspace), "--out", str(tmp_path / "o"))
    assert code == 3


def _write_fx(workspace) -> None:
    """FX: F1 with b0 sent to 2·b, which breaks F(c0∘b0) = F(c0)∘F(b0)."""
    doc = json.loads((workspace / "F1.json").read_text())
    doc["name"] = "FX"
    for entry in doc["hom_matrices"]:
        if (entry["src"], entry["dst"]) == ("t0", "u0"):
            entry["matrix"] = ["2"]
    (workspace / "FX.json").write_text(docs.dumps(doc))


def test_check_universal_refuses_a_family_member_that_is_not_a_functor(
        workspace):
    _write_fx(workspace)
    done = _run_cli(workspace, "check", "universal", "F1", "--family", "FX")
    assert _assert_one_input_error(done, "check") == "functor FX is invalid"


def test_check_universal_refuses_a_member_over_another_base(workspace, capsys):
    # KI is Galois, so the check reaches the fibre-product criterion, which
    # must refuse a member whose target is another base document
    kb = kronecker_cover_twisted().target
    (workspace / "KI.json").write_text(docs.dumps(docs.functor_to_json(
        identity_functor(kb), "KI", "KB", "KB")))
    code, report = run(capsys, "check", "universal", "F1",
                       "--dir", str(workspace), "--family", "KI")
    assert code == 2
    assert report["error"] == "functors do not share a base category"


@pytest.mark.parametrize("argv", [
    pytest.param(["fibre-product", "FX", "F1"], id="fibre-product-FX-F1"),
    pytest.param(["fibre-product", "F1", "FX"], id="fibre-product-F1-FX"),
    pytest.param(["quotient", "C2", "--by-deck-of", "FX"], id="quotient")])
def test_build_refuses_a_functor_document_that_is_not_a_functor(workspace, argv):
    _write_fx(workspace)
    done = _run_cli(workspace, "build", *argv, "--out", "out")
    assert _assert_one_input_error(done, "build") == "functor FX is invalid"
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["check", "covering", "F1.json", "--json", "missing/x.json"],
                 id="check-json"),
    pytest.param(["validate", "B.json", "--json", "missing/x.json"],
                 id="validate-json"),
    pytest.param(["build", "product-set", "B", "2", "--out", "afile"],
                 id="build-out-file")])
def test_unwritable_output_path_is_an_input_error(workspace, argv):
    (workspace / "afile").write_text("")
    done = _run_cli(workspace, *argv)
    error = _assert_one_input_error(done, argv[0])
    assert ("missing/x.json" if "--json" in argv else "afile") in error
    assert not (workspace / "missing").exists()


@pytest.mark.parametrize("argv, command, message", [
    pytest.param([], None, "the following arguments are required: command",
                 id="bare"),
    pytest.param(["frob"], None, "argument command: invalid choice: 'frob'",
                 id="unknown-command"),
    pytest.param(["validate"], "validate",
                 "the following arguments are required: files",
                 id="validate-no-file"),
    pytest.param(["check", "bogus", "F"], "check",
                 "argument kind: invalid choice: 'bogus'", id="check-kind"),
    pytest.param(["check", "galois", "F.json", "--method", "nope"], "check",
                 "argument --method: invalid choice: 'nope'", id="method"),
    pytest.param(["check", "covering", "F1", "--frob"], "check",
                 "unrecognized arguments: --frob", id="unrecognized"),
    pytest.param(["build", "quotient"], "build",
                 "the following arguments are required: operand",
                 id="build-no-operand")])
def test_a_usage_error_is_one_json_input_error(capsys, argv, command,
                                               message):
    """main returns 2, and prints argparse's message as one JSON error on
    stdout, naming the subcommand when argv has one, and no usage text."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["error"].startswith(message)
    assert report == ({"error": report["error"]} if command is None else
                      {"command": command, "error": report["error"]})


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["check", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: covcat check")


def _exit_and_stdout(capsys, argv) -> tuple:
    """``main(argv)``'s exit code, or the code of the SystemExit it raises,
    and what it printed on stdout."""
    try:
        code = main(list(argv))
    except SystemExit as exit_:
        code = exit_.code
    return code, capsys.readouterr().out


def test_main_builds_its_parser_once_per_process(workspace, capsys,
                                                 monkeypatch, tmp_path):
    """A valid check, a usage error, --help and a valid build, in one
    process, build one parser between them, and each prints and exits as
    it does with a parser of its own."""
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    commands = [
        ["check", "covering", str(workspace / "F1.json")],
        ["check", "galois", str(workspace / "F1.json"), "--method", "nope"],
        ["check", "--help"],
        ["build", "product-set", "B", "2", "--dir", str(workspace),
         "--out", str(tmp_path / "out")]]
    shared = [_exit_and_stdout(capsys, argv) for argv in commands]
    assert len(built) == 1
    assert [code for code, _ in shared] == [0, 2, 0, 0]
    for argv, seen in zip(commands, shared):
        monkeypatch.setattr(cli, "_parser", None)
        assert _exit_and_stdout(capsys, argv) == seen


def test_reports_are_byte_identical_across_runs(workspace, capsys, tmp_path):
    report = tmp_path / "reports" / "r.json"
    report.parent.mkdir()
    argv = ["check", "galois", "F1", "--dir", str(workspace),
            "--json", str(report)]
    code1 = main(list(argv))
    capsys.readouterr()
    first = report.read_bytes()
    code2 = main(list(argv))
    capsys.readouterr()
    assert code1 == code2 == 0
    assert report.read_bytes() == first


def test_built_documents_are_byte_identical_across_runs(workspace, capsys, tmp_path):
    outs = []
    for sub in ("o1", "o2"):
        out = tmp_path / sub
        code, _ = run(capsys, "build", "fibre-product", "F1", "F1",
                      "--dir", str(workspace), "--out", str(out))
        assert code == 0
        outs.append(out)
    for name in ("fp-F1-F1.json", "fp-F1-F1-pr1.json", "fp-F1-F1-pr2.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_outputs_do_not_depend_on_the_hash_seed(workspace, tmp_path):
    """Each command run under PYTHONHASHSEED=0 and =1 in fresh interpreters
    prints the same stdout and writes the same bytes: covering, trivial,
    both Galois methods and universality on a Z/4 cover of rel_square, and
    a fibre product over the non-covering R2, which joins kernels over a
    set union of base hom pairs."""
    _rank_two_workspace(workspace)
    s4, s2 = cyclic_cover(rel_square(), 4), cyclic_cover(rel_square(), 2)
    for doc in (docs.category_to_json(s4.target, "SQB"),
                docs.category_to_json(s4.source, "SQ4C"),
                docs.category_to_json(s2.source, "SQ2C"),
                docs.functor_to_json(s4, "SQ4", "SQ4C", "SQB"),
                docs.functor_to_json(s2, "SQ2", "SQ2C", "SQB")):
        (workspace / f"{doc['name']}.json").write_text(docs.dumps(doc))
    commands = [["check", "covering", "SQ4", "--json", "covering.json"],
                ["check", "trivial", "SQ4", "--json", "trivial.json"],
                ["check", "galois", "SQ4", "--method", "direct",
                 "--json", "direct.json"],
                ["check", "galois", "SQ4", "--method", "fibre",
                 "--json", "fibre.json"],
                ["check", "universal", "SQ4", "--family", "SQ2",
                 "--json", "universal.json"],
                ["build", "fibre-product", "K4", "R2", "--out", "fp"]]
    seen = []
    for seed in ("0", "1"):
        cwd = tmp_path / f"seed{seed}"
        cwd.mkdir()
        runs = [_run_cli(cwd, *argv, "--dir", str(workspace),
                         env={"PYTHONHASHSEED": seed}) for argv in commands]
        written = {path.relative_to(cwd): path.read_bytes()
                   for path in sorted(cwd.rglob("*.json"))}
        seen.append(([(r.returncode, r.stdout) for r in runs], written))
    assert [code for code, _ in seen[0][0]] == [0, 1, 0, 0, 0, 0]
    assert len(seen[0][1]) == 8  # five reports and three built documents
    assert seen[0] == seen[1]


def test_build_writes_no_document_over_the_size_bound(workspace, capsys,
                                                      tmp_path, monkeypatch):
    argv = ["build", "product-set", "B", "2", "--dir", str(workspace)]
    first = tmp_path / "first"
    assert run(capsys, *argv, "--out", str(first))[0] == 0
    largest = max(first.iterdir(), key=lambda path: path.stat().st_size)
    size = largest.stat().st_size

    monkeypatch.setattr(cli, "DOCUMENT_BYTES", size - 1)
    over = tmp_path / "over"
    code, report = run(capsys, *argv, "--out", str(over))
    assert code == 2
    assert repr(largest.stem) in report["error"]
    assert f"{size - 1}-byte bound" in report["error"]
    assert not over.exists()  # not even the documents under the bound

    monkeypatch.setattr(cli, "DOCUMENT_BYTES", size)
    at = tmp_path / "at"
    code, report = run(capsys, *argv, "--out", str(at))
    assert code == 0
    for path in first.iterdir():
        assert (at / path.name).read_bytes() == path.read_bytes()
    # a document exactly at the bound reads back
    code, _ = run(capsys, "validate", str(workspace / "B.json"),
                  *report["written"])
    assert code == 0


def _reversed_hom_lists(doc: dict) -> dict:
    key = "homs" if doc["format"] == docs.FORMAT_LINCAT else "hom_matrices"
    return {**doc, key: doc[key][::-1]}


@pytest.mark.parametrize("cover, galois", [
    pytest.param(lambda: cyclic_cover(rel_square(), 4, GF(7)), True,
                 id="rel_square-Z4-GF7"),
    pytest.param(kronecker_cover_twisted, False, id="kronecker-twisted"),
])
def test_hom_list_order_changes_no_report_or_built_byte(
        cover, galois, capsys, tmp_path, monkeypatch):
    """Every walk reads a sorted non-zero-hom index, so the order of the
    ``homs`` and ``hom_matrices`` lists in a document changes nothing."""
    fun = cover()
    documents = [docs.category_to_json(fun.target, "B"),
                 docs.category_to_json(fun.source, "C"),
                 docs.functor_to_json(fun, "F", "C", "B")]
    commands = [["check", "covering", "F"],
                ["check", "galois", "F", "--method", "direct"],
                ["check", "galois", "F", "--method", "fibre"],
                ["check", "trivial", "F"]]
    if galois:  # the quotient needs a deck group transitive on fibres
        commands.append(["build", "quotient", "C", "--by-deck-of", "F",
                         "--out", "out"])
    outputs = {}
    for order, arrange in (("sorted", dict), ("reversed", _reversed_hom_lists)):
        ws = tmp_path / order
        ws.mkdir()
        for doc in documents:
            (ws / f"{doc['name']}.json").write_text(docs.dumps(arrange(doc)))
        monkeypatch.chdir(ws)
        got = []
        for argv in commands:
            code = main(argv)
            got.append((code, capsys.readouterr().out))
        got += [(p.name, p.read_bytes()) for p in sorted(ws.glob("out/*.json"))]
        outputs[order] = got
    assert [code for code, _ in outputs["sorted"][:4]] == \
        ([0, 0, 0, 1] if galois else [0, 1, 1, 1])
    assert outputs["reversed"] == outputs["sorted"]


# pinned report bytes ------------------------------------------------------------


def _dual_number_category():
    """x carries Q[e]/(e²); a: x→y, b: y→z, and ae = a∘e, ba, bae = b∘a∘e."""
    homs = {("x", "x"): ("1_x", "e"), ("x", "y"): ("a", "ae"),
            ("x", "z"): ("ba", "bae"), ("y", "y"): ("1_y",),
            ("y", "z"): ("b",), ("z", "z"): ("1_z",)}
    first, second = (1, 0), (0, 1)
    comp = {("1_x", "1_x"): first, ("1_x", "e"): second, ("e", "1_x"): second,
            ("1_x", "a"): first, ("e", "a"): second, ("1_x", "ae"): second,
            ("1_x", "ba"): first, ("e", "ba"): second, ("1_x", "bae"): second,
            ("a", "1_y"): first, ("ae", "1_y"): second, ("1_y", "1_y"): (1,),
            ("a", "b"): first, ("ae", "b"): second, ("1_y", "b"): (1,),
            ("ba", "1_z"): first, ("bae", "1_z"): second, ("b", "1_z"): (1,),
            ("1_z", "1_z"): (1,)}
    identity = {"x": first, "y": (1,), "z": (1,)}
    return LinearCategory(QQ, ("x", "y", "z"), homs, identity, comp)


def _broken_dual_number_document() -> dict:
    """Unit, centrality and associativity violations spread over several
    hom spaces: e∘1_x = 2e, e∘e = 1_x, b∘a = bae, 1_z∘ba = 0 and
    1_z = 2·1_z."""
    doc = docs.category_to_json(_dual_number_category(), "D")
    for entry in doc["composition"]:
        if (entry["f"], entry["g"]) == ("1_x", "e"):
            entry["result"] = [{"basis": "e", "coeff": "2"}]
        if (entry["f"], entry["g"]) == ("a", "b"):
            entry["result"] = [{"basis": "bae", "coeff": "1"}]
    doc["composition"].append({"f": "e", "g": "e",
                               "result": [{"basis": "1_x", "coeff": "1"}]})
    doc["composition"] = [entry for entry in doc["composition"]
                          if (entry["f"], entry["g"]) != ("ba", "1_z")]
    doc["identity"]["z"] = ["2"]
    return doc


def _golden(name: str) -> str:
    return (Path(__file__).parent / "golden" / name).read_text()


def test_validate_category_report_matches_golden_file(capsys, tmp_path):
    assert validate_category(_dual_number_category()).ok
    (tmp_path / "D.json").write_text(docs.dumps(_broken_dual_number_document()))
    code = main(["validate", str(tmp_path / "D.json")])
    assert code == 1
    assert capsys.readouterr().out == _golden("validate-category.json")


def _broken_f1_document(workspace) -> dict:
    """F1 with c_i*b_i sent to a, b0 sent to 2b and 1_u1 sent to 2·1_u."""
    doc = json.loads((workspace / "F1.json").read_text())
    for entry in doc["hom_matrices"]:
        key = (entry["src"], entry["dst"])
        if key in (("t0", "s0"), ("t1", "s1")):
            entry["matrix"] = ["1", "0"]
        elif key in (("t0", "u0"), ("u1", "u1")):
            entry["matrix"] = ["2"]
    return doc


def test_validate_functor_report_matches_golden_file(workspace, capsys):
    (workspace / "F1.json").write_text(docs.dumps(_broken_f1_document(workspace)))
    code = main(["validate", *(str(workspace / f"{name}.json")
                               for name in ("B", "C2", "F1"))])
    assert code == 1
    assert capsys.readouterr().out == _golden("validate-functor.json")


def _rank_two_workspace(where: Path) -> None:
    """The double cover K4 of x ⇉ y with arrows of weights 0, 0, 1, 1, and
    R2 from the free two-arrow quiver onto its base, whose pullback along K4
    stacks kernel spaces in one block."""
    g = cyclic_cover(kronecker_quiver(4), 2)
    u = onto_kronecker(g, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0],
                           [0, 1, 0, 0]])
    for doc in (docs.category_to_json(g.target, "K4B"),
                docs.category_to_json(g.source, "K4C"),
                docs.category_to_json(u.source, "R"),
                docs.functor_to_json(g, "K4", "K4C", "K4B"),
                docs.functor_to_json(u, "R2", "R", "K4B")):
        (where / f"{doc['name']}.json").write_text(docs.dumps(doc))


@pytest.mark.parametrize("f, g", [("F1", "F2"), ("R2", "K4")])
def test_built_fibre_products_match_golden_files(workspace, capsys, tmp_path,
                                                 f, g):
    """README's F1 ×_B F2, and the rank-two pullback R2 ×_B K4; both read
    through the second functor's covering certificate."""
    _rank_two_workspace(workspace)
    out = tmp_path / "out"
    code, report = run(capsys, "build", "fibre-product", f, g,
                       "--dir", str(workspace), "--out", str(out))
    assert code == 0
    stem = f"fp-{f}-{g}"
    names = [f"{stem}.json", f"{stem}-pr1.json", f"{stem}-pr2.json"]
    assert report["written"] == [str(out / name) for name in names]
    for name in names:
        assert (out / name).read_text() == _golden(name), name


def test_check_covering_on_a_broken_source_matches_pinned_bytes(workspace,
                                                                capsys):
    doc = json.loads((workspace / "C2.json").read_text())
    doc["identity"]["t0"] = ["2"]
    (workspace / "C2.json").write_text(docs.dumps(doc))
    code = main(["check", "covering", str(workspace / "F1.json")])
    assert code == 2
    assert capsys.readouterr().out == (
        '{\n  "command": "check",\n'
        '  "error": "source category of F1 is invalid"\n}\n')


# the source scan that a faithful functor makes needless -------------------------


@pytest.mark.parametrize("argv", [
    ["check", "covering", "{ws}/F1.json"],
    ["validate", "{ws}/B.json", "{ws}/C2.json", "{ws}/F1.json"]])
def test_a_faithful_functor_spares_its_source_the_category_scan(
        workspace, capsys, monkeypatch, argv):
    """F1 is a covering, so faithful, and valid onto a valid B: neither
    command scans C2, B is scanned once, and each prints what it prints
    when C2 is scanned."""
    argv = [arg.format(ws=workspace) for arg in argv]
    scanned, scan = [], cli.validate_category
    monkeypatch.setattr(cli, "validate_category",
                        lambda cat: scanned.append(cat.objects) or scan(cat))
    faithful = cli._faithful
    monkeypatch.setattr(cli, "_faithful", lambda fun: False)
    full = main(argv), capsys.readouterr().out
    b, c2 = triangle_base().objects, triangle_cover(2).source.objects
    assert sorted(scanned) == sorted([b, c2])
    scanned.clear()
    monkeypatch.setattr(cli, "_faithful", faithful)
    assert (main(argv), capsys.readouterr().out) == full
    assert scanned == [b]
    assert full[0] == 0
    if argv[0] == "check":
        certificate = json.loads(full[1])["evidence"]["certificate"]
        assert docs.dumps(certificate) == _golden("f1-covcert.json")


def _write_killed_nonassociative(where: Path, fun) -> None:
    for doc in (docs.category_to_json(fun.source, "C"),
                docs.category_to_json(fun.target, "B"),
                docs.functor_to_json(fun, "F", "C", "B")):
        (where / f"{doc['name']}.json").write_text(docs.dumps(doc))


def test_a_functor_that_kills_a_hom_leaves_its_source_scanned(tmp_path,
                                                              capsys):
    """F is valid onto a valid B, but kills the hom space where C breaks
    associativity, so F vouches for nothing and C is scanned: ``check``
    refuses C and ``validate`` lists its violations.  Were every functor
    taken as faithful, C would pass unscanned."""
    fun = killed_nonassociative_functor()
    violations = category_axiom_violations(fun.source)
    assert violations and validate_category(fun.target).ok
    _write_killed_nonassociative(tmp_path, fun)
    code, report = run(capsys, "check", "covering", str(tmp_path / "F.json"))
    assert (code, report) == (2, {"command": "check",
                                  "error": "source category of F is invalid"})
    code, report = run(capsys, "validate",
                       *(str(tmp_path / f"{name}.json") for name in "BCF"))
    assert code == 1
    assert [(r["name"], r["ok"]) for r in report["results"]] == [
        ("B", True), ("C", False), ("F", True)]
    assert [(v["kind"], tuple(v["witness"]), v["message"])
            for v in report["results"][1]["violations"]] == violations


_INVALID = {"C2": "source category of F1", "B": "target category of F1",
            "F1": "functor F1"}


@pytest.mark.parametrize("bad", [
    (), ("C2",), ("B",), ("F1",), ("C2", "B"), ("C2", "F1"), ("B", "F1"),
    ("C2", "B", "F1")])
def test_check_reports_the_first_invalid_of_source_target_and_functor(
        workspace, capsys, monkeypatch, bad):
    """With any of C2, B and F1 broken, ``check`` names the first of them
    in the order source, target, functor; and ``validate`` prints what it
    prints when every category is scanned."""
    for name in bad:
        doc = json.loads((workspace / f"{name}.json").read_text())
        if name == "F1":
            for entry in doc["hom_matrices"]:
                if (entry["src"], entry["dst"]) == ("t0", "t0"):
                    entry["matrix"] = ["2"]
        else:
            doc["identity"][min(doc["identity"])] = ["2"]
        (workspace / f"{name}.json").write_text(docs.dumps(doc))
    code, report = run(capsys, "check", "covering", str(workspace / "F1.json"))
    first = next((_INVALID[name] for name in _INVALID if name in bad), None)
    if first is None:
        assert (code, report["status"]) == (0, "Covering")
    else:
        assert (code, report) == (2, {"command": "check",
                                      "error": f"{first} is invalid"})
    argv = ["validate", *(str(workspace / f"{name}.json")
                          for name in ("B", "C2", "F1"))]
    derived = main(argv), capsys.readouterr().out
    monkeypatch.setattr(cli, "_faithful", lambda fun: False)
    assert (main(argv), capsys.readouterr().out) == derived
    assert derived[0] == (1 if bad else 0)


# the cyclic collector ---------------------------------------------------------


def _cyclic_garbage(call) -> Counter:
    """The types of the objects in reference cycles that ``call()`` leaves
    behind, with their counts."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()


@pytest.mark.parametrize("argv, code", [
    pytest.param(["validate", "B.json", "C2.json", "F1.json", "sq.json",
                  "diag.json"], 0, id="validate"),
    pytest.param(["check", "covering", "F1.json"], 0, id="covering"),
    pytest.param(["check", "trivial", "F1.json"], 1, id="trivial"),
    pytest.param(["check", "galois", "K.json", "--method", "direct"], 1,
                 id="galois-direct"),
    pytest.param(["check", "galois", "K.json", "--method", "fibre"], 1,
                 id="galois-fibre"),
    pytest.param(["check", "galois", "F1.json"], 0, id="galois-both"),
    pytest.param(["check", "universal", "F1.json", "--family", "F1,F2"], 1,
                 id="universal"),
    pytest.param(["build", "product-set", "B", "2", "--out", "out"], 0,
                 id="product-set"),
    pytest.param(["build", "fibre-product", "F1", "F2", "--out", "out"], 0,
                 id="fibre-product"),
    pytest.param(["build", "quotient", "C2", "--by-deck-of", "F1",
                  "--out", "out"], 0, id="quotient"),
    pytest.param(["build", "path-category", "sq", "--out", "out"], 0,
                 id="path-category"),
    pytest.param(["build", "from-algebra", "diag", "--out", "out"], 0,
                 id="from-algebra"),
    pytest.param(["check", "galois", "nope"], 2, id="exit-2"),
    pytest.param(["check", "trivial", "incl.json"], 4, id="exit-4"),
    pytest.param(["check", "covering", "F1.json"], 5, id="exit-5")])
def test_a_command_makes_no_reference_cycle(workspace, capsys, monkeypatch,
                                            argv, code):
    """A command leaves the collector nothing to find: ``main`` parses with
    the one parser it built on its first call, and the command itself
    makes no cycle.  This is what lets ``main`` pause the collector for
    free."""
    (workspace / "diag.json").write_text(docs.dumps(DIAGONAL_ALGEBRA))
    monkeypatch.chdir(workspace)
    if code == cli.EXIT_INTERNAL:
        def broken(fun):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "check_covering", broken)
    codes = []
    # the first run fills whatever a first call caches
    _cyclic_garbage(lambda: codes.extend((main(argv), main(argv))))
    assert codes == [code, code]
    command = _cyclic_garbage(lambda: main(argv))
    capsys.readouterr()
    assert command == Counter()


@pytest.mark.parametrize("outcome", ["return", "internal-error", "interrupt"])
def test_a_command_runs_with_the_collector_paused(workspace, capsys,
                                                  monkeypatch, outcome):
    """Paused inside the command; the caller's setting, enabled or not,
    is back after a return, an exit 5 or an exception main lets through."""
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if outcome == "internal-error":
            raise RuntimeError("boom")
        if outcome == "interrupt":
            raise KeyboardInterrupt
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_validate", command)
    enabled = gc.isenabled()
    try:
        for caller in (True, False):
            gc.enable() if caller else gc.disable()
            if outcome == "interrupt":
                with pytest.raises(KeyboardInterrupt):
                    main(["validate", str(workspace / "B.json")])
            else:
                code = main(["validate", str(workspace / "B.json")])
                assert code == (cli.EXIT_OK if outcome == "return"
                                else cli.EXIT_INTERNAL)
            assert gc.isenabled() is caller
    finally:
        gc.enable() if enabled else gc.disable()
    assert seen == [False, False]
