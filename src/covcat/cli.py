"""The covcat command line: validate documents, run checks, build categories.

Exit codes: 0 positive verdict, 1 negative verdict, 2 input/parse error or
unwritable output path, 3 precondition NotConnected, 4 precondition
NotCovering, 5 internal error (any other exception, reported as a JSON
error instead of a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import ConstructionError, CovcatError, DocumentError, \
    NotConnectedError, NotCoveringError
from .lincat import path_category, product_with_set, validate_category, \
    category_from_algebra
from .linfun import validate_functor
from .covering import CoveringFailure, check_covering
from .fibprod import fibre_product
from .galois import GaloisStatus, check_universal_against, deck_group, \
    is_galois, is_galois_both, is_trivial_covering, quotient_by_group
from . import documents as docs

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NOT_CONNECTED = 3
EXIT_NOT_COVERING = 4
EXIT_INTERNAL = 5

PRODUCT_SET_BUDGET = 1_000  # the largest count `build product-set` takes


class Workspace:
    """Documents loaded by name: categories, functors, quivers, algebras."""

    def __init__(self):
        self.categories = {}
        self.functors = {}   # name -> (functor, source_name, target_name)
        self.quivers = {}    # name -> (quiver, relations, field)
        self.algebras = {}   # name -> (field, basis, mult, idempotents)
        self.names = {}      # path -> document name, for every file parsed
        self.skipped = []    # unnamed files that did not load (lenient loads)

    def load_all(self, paths, named=None):
        """Read and parse each file once, then resolve functors against the
        loaded categories.

        With ``named=None`` every file must parse, build and be an input
        document.  Otherwise loading is lenient: files in other formats
        (reports, certificates) are skipped, and a file that does not parse
        or build is skipped and listed in ``skipped`` unless it is one of
        ``named``.
        """
        funct_docs = []
        for path in map(Path, paths):
            with self._loading(path, named):
                doc = _read_document(path)
                fmt, where = doc.get("format"), str(path)
                name = doc.get("name", path.stem)
                if not isinstance(name, str):
                    raise DocumentError("document name is not a string", where)
                self.names[path] = name
                if fmt == docs.FORMAT_LINFUN:
                    funct_docs.append((path, doc))
                elif fmt == docs.FORMAT_LINCAT:
                    name, cat = docs.category_from_json(doc, where)
                    self.categories[name] = cat
                elif fmt == docs.FORMAT_QUIVER:
                    name, quiver, relations, field = docs.quiver_from_json(doc, where)
                    self.quivers[name] = (quiver, relations, field)
                elif fmt == docs.FORMAT_ALGEBRA:
                    name, field, basis, mult, idems = docs.algebra_from_json(doc, where)
                    self.algebras[name] = (field, basis, mult, idems)
                elif named is None:
                    raise DocumentError(f"unknown document format {fmt!r}", where)
        for path, doc in funct_docs:
            with self._loading(path, named):
                name, fun = docs.functor_from_json(doc, self.categories, str(path))
                self.functors[name] = (fun, doc["source"], doc["target"])

    @contextmanager
    def _loading(self, path: Path, named):
        """Report a file that fails to parse or build as a DocumentError
        naming it; in a lenient load, skip and list it unless it is named."""
        try:
            yield
        except (DocumentError, TypeError, AttributeError, KeyError,
                IndexError, ValueError) as exc:
            if named is not None and path not in named:
                self.skipped.append(str(path))
                return
            if isinstance(exc, DocumentError):
                raise
            raise DocumentError(f"malformed document: {exc!r}", str(path))

    def name_of(self, ref: str) -> str:
        """The document name of a loaded file ``ref``; else ``ref`` itself."""
        return self.names.get(Path(ref), ref)


def _read_document(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise DocumentError(f"cannot parse: {exc}", str(path))
    if not isinstance(doc, dict):
        raise DocumentError("top-level value is not a JSON object", str(path))
    return doc


def _workspace_for(ref: str, directory) -> tuple[Workspace, str]:
    """Load every *.json next to ``ref`` (a path or a bare document name)."""
    path = Path(ref)
    if path.suffix == ".json" and path.exists():
        base, named = path.parent, {path}
    else:
        base, named = Path(directory) if directory else Path("."), set()
    ws = Workspace()
    ws.load_all(sorted(base.glob("*.json")), named)
    return ws, ws.name_of(ref)


def _emit(args, report: dict, code: int) -> int:
    """Print ``report``, after writing it to the ``--json`` file if one is
    given, and return ``code``; an unwritable ``--json`` path is an input
    error instead."""
    text = docs.dumps(report)
    json_out = getattr(args, "json", None)
    if json_out:
        try:
            Path(json_out).write_text(text)
        except OSError as exc:
            text = docs.dumps({"command": args.command, "error": str(exc)})
            code = EXIT_INPUT
    sys.stdout.write(text)
    return code


def _require_valid(fun, name: str) -> None:
    """Refuse a functor document that breaks the functor axioms."""
    if not validate_functor(fun).ok:
        raise DocumentError(f"functor {name} is invalid")


# validate ---------------------------------------------------------------------


def cmd_validate(args) -> int:
    ws = Workspace()
    try:
        ws.load_all(args.files)
    except DocumentError as exc:
        return _emit(args, {"command": "validate", "error": str(exc)}, EXIT_INPUT)
    results = []
    ok = True
    for name in sorted(ws.categories):
        report = validate_category(ws.categories[name])
        ok = ok and report.ok
        results.append({"name": name, "kind": "category", "ok": report.ok,
                        "violations": [{"kind": v.kind,
                                        "witness": list(v.witness),
                                        "message": v.message}
                                       for v in report.violations]})
    for name in sorted(ws.quivers):
        results.append({"name": name, "kind": "quiver", "ok": True,
                        "violations": []})
    for name in sorted(ws.functors):
        fun, _, _ = ws.functors[name]
        report = validate_functor(fun)
        ok = ok and report.ok
        results.append({"name": name, "kind": "functor", "ok": report.ok,
                        "violations": [{"kind": v.kind,
                                        "witness": list(v.witness),
                                        "message": v.message}
                                       for v in report.violations]})
    return _emit(args, {"command": "validate", "ok": ok, "results": results},
                 EXIT_OK if ok else EXIT_NEGATIVE)


# check ------------------------------------------------------------------------


def _verdict_report(args, functor_name: str, status: str, evidence: dict) -> dict:
    return {
        "format": docs.FORMAT_VERDICT,
        "check": args.kind,
        "functor": functor_name,
        "status": status,
        "evidence": evidence,
        "inputs": args.raw_argv,
    }


_GALOIS_EXITS = {
    GaloisStatus.GALOIS: EXIT_OK,
    GaloisStatus.NON_GALOIS: EXIT_NEGATIVE,
    GaloisStatus.NOT_CONNECTED: EXIT_NOT_CONNECTED,
    GaloisStatus.NOT_COVERING: EXIT_NOT_COVERING,
}


def cmd_check(args) -> int:
    try:
        ws, name = _workspace_for(args.functor, args.dir)
    except DocumentError as exc:
        return _emit(args, {"command": "check", "error": str(exc)}, EXIT_INPUT)
    report, code = _check(args, ws, name)
    if ws.skipped:
        report["skipped"] = ws.skipped
    return _emit(args, report, code)


def _check(args, ws: Workspace, name: str) -> tuple[dict, int]:
    def error(message: str) -> tuple[dict, int]:
        return {"command": "check", "error": message}, EXIT_INPUT

    if name not in ws.functors:
        return error(f"unknown functor {name!r}")
    fun, _, _ = ws.functors[name]
    for cat, which in ((fun.source, "source"), (fun.target, "target")):
        if not validate_category(cat).ok:
            return error(f"{which} category of {name} is invalid")

    try:
        _require_valid(fun, name)
        if args.kind == "covering":
            result = check_covering(fun)
            if isinstance(result, CoveringFailure):
                return _verdict_report(args, name, "NotCovering", {
                    "witness": docs.covering_failure_to_json(result)}), EXIT_NEGATIVE
            return _verdict_report(args, name, "Covering", {
                "certificate": docs.certificate_to_json(result, name)}), EXIT_OK

        if args.kind == "trivial":
            result = is_trivial_covering(fun)
            status = "Trivial" if result.trivial else "NonTrivial"
            report = _verdict_report(args, name, status,
                                     {"triviality": docs.triviality_to_json(result)})
            return report, EXIT_OK if result.trivial else EXIT_NEGATIVE

        if args.kind == "galois":
            verdict = (is_galois(fun, args.method) if args.method
                       else is_galois_both(fun))
            report = _verdict_report(args, name, verdict.status.value,
                                     docs.galois_verdict_to_json(verdict)["evidence"])
            return report, _GALOIS_EXITS[verdict.status]

        if args.kind == "universal":
            if not args.family:
                return error("universal check requires --family")
            members = []
            for fname in args.family.split(","):
                fname = fname.strip()
                if fname not in ws.functors:
                    return error(f"unknown family member {fname!r}")
                _require_valid(ws.functors[fname][0], fname)
                members.append((fname, ws.functors[fname][0]))
            result = check_universal_against(fun, [m for _, m in members])
            checks = []
            for (fname, _), check in zip(members, result.checks):
                entry = {"member": fname, "passed": check.passed,
                         "reason": check.reason}
                if check.covering_failure is not None:
                    entry["witness"] = docs.covering_failure_to_json(
                        check.covering_failure)
                if check.failing_component is not None:
                    entry["failing_component"] = list(check.failing_component)
                checks.append(entry)
            status = ("UniversalRelativeToFamily"
                      if result.universal_relative_to_family else "NotUniversal")
            report = _verdict_report(args, name, status, {"family": checks})
            return report, (EXIT_OK if result.universal_relative_to_family
                            else EXIT_NEGATIVE)
    except NotConnectedError as exc:
        return _verdict_report(args, name, "NotConnected",
                               {"error": str(exc)}), EXIT_NOT_CONNECTED
    except NotCoveringError as exc:
        return _verdict_report(args, name, "NotCovering",
                               {"error": str(exc)}), EXIT_NOT_COVERING
    except (ConstructionError, CovcatError) as exc:
        return error(str(exc))
    raise AssertionError(f"unhandled check kind {args.kind}")


# build ------------------------------------------------------------------------


def _write_docs(out_dir, payloads) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for payload in payloads:
        path = out / f"{payload['name']}.json"
        path.write_text(docs.dumps(payload))
        written.append(str(path))
    return {"command": "build", "written": written}


def cmd_build(args) -> int:
    load_dir = Path(args.dir) if args.dir else Path(".")
    candidates = sorted(load_dir.glob("*.json"))
    extra = [Path(a) for a in args.args if a.endswith(".json") and Path(a).exists()]
    ws = Workspace()
    try:
        ws.load_all(candidates + [p for p in extra if p not in candidates],
                    set(extra))
    except DocumentError as exc:
        return _emit(args, {"command": "build", "error": str(exc)}, EXIT_INPUT)
    try:
        report, code = _build(args, ws), EXIT_OK
    except NotConnectedError as exc:
        report, code = {"command": "build", "error": str(exc)}, EXIT_NOT_CONNECTED
    except NotCoveringError as exc:
        report, code = {"command": "build", "error": str(exc)}, EXIT_NOT_COVERING
    except (DocumentError, ConstructionError, CovcatError, IndexError,
            OSError) as exc:
        report, code = {"command": "build", "error": str(exc)}, EXIT_INPUT
    if ws.skipped:
        report["skipped"] = ws.skipped
    return _emit(args, report, code)


def _build(args, ws: Workspace) -> dict:
    if args.kind == "path-category":
        qname = ws.name_of(args.args[0])
        if qname not in ws.quivers:
            raise DocumentError(f"unknown quiver {qname!r}")
        quiver, relations, field = ws.quivers[qname]
        cat = path_category(quiver, relations, field)
        return _write_docs(args.out, [docs.category_to_json(cat, f"{qname}-cat")])
    if args.kind == "from-algebra":
        aname = ws.name_of(args.args[0])
        if aname not in ws.algebras:
            raise DocumentError(f"unknown algebra {aname!r}")
        field, basis, mult, idems = ws.algebras[aname]
        cat = category_from_algebra(field, basis, mult, idems)
        return _write_docs(args.out, [docs.category_to_json(cat, f"{aname}-cat")])
    if args.kind == "product-set":
        cname = ws.name_of(args.args[0])
        if cname not in ws.categories:
            raise DocumentError(f"unknown category {cname!r}")
        rest = args.args[1:]
        if len(rest) == 1 and rest[0].isascii() and rest[0].isdigit():
            # the length goes first, so a huge count is never converted
            count = rest[0].lstrip("0") or "0"
            if len(count) > len(str(PRODUCT_SET_BUDGET)) \
                    or int(count) > PRODUCT_SET_BUDGET:
                raise DocumentError(f"label count exceeds {PRODUCT_SET_BUDGET}")
            labels = [str(i) for i in range(int(count))]
        else:
            labels = list(rest)
        product, projection = product_with_set(ws.categories[cname], labels)
        stem = f"{cname}-x{len(labels)}"
        return _write_docs(args.out, [
            docs.category_to_json(product, stem),
            docs.functor_to_json(projection, f"{stem}-pr", stem, cname),
        ])
    if args.kind == "fibre-product":
        fname, gname = ws.name_of(args.args[0]), ws.name_of(args.args[1])
        for ref in (fname, gname):
            if ref not in ws.functors:
                raise DocumentError(f"unknown functor {ref!r}")
        f, f_src, _ = ws.functors[fname]
        g, g_src, _ = ws.functors[gname]
        _require_valid(f, fname)
        _require_valid(g, gname)
        fp = fibre_product(f, g)
        stem = f"fp-{fname}-{gname}"
        return _write_docs(args.out, [
            docs.category_to_json(fp.category, stem),
            docs.functor_to_json(fp.pr1, f"{stem}-pr1", stem, f_src),
            docs.functor_to_json(fp.pr2, f"{stem}-pr2", stem, g_src),
        ])
    if args.kind == "quotient":
        cname = ws.name_of(args.args[0])
        if cname not in ws.categories:
            raise DocumentError(f"unknown category {cname!r}")
        if not args.by_deck_of:
            raise DocumentError("quotient requires --by-deck-of")
        fname = ws.name_of(args.by_deck_of)
        if fname not in ws.functors:
            raise DocumentError(f"unknown functor {fname!r}")
        fun, f_src, _ = ws.functors[fname]
        _require_valid(fun, fname)
        if fun.source != ws.categories[cname]:
            raise DocumentError(
                f"{fname} is not a functor out of {cname}")
        group = deck_group(fun)
        quotient, projection = quotient_by_group(ws.categories[cname], group)
        stem = f"{cname}-mod-{fname}"
        return _write_docs(args.out, [
            docs.category_to_json(quotient, stem),
            docs.functor_to_json(projection, f"{stem}-proj", cname, stem),
        ])
    raise DocumentError(f"unknown build kind {args.kind!r}")


# entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covcat",
        description="Exact decision procedures for coverings of k-linear categories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="validate category/functor/quiver documents")
    p_validate.add_argument("files", nargs="+")
    p_validate.add_argument("--json", default=None)
    p_validate.set_defaults(func=cmd_validate)

    p_check = sub.add_parser("check", help="run a decision procedure on a functor")
    p_check.add_argument("kind", choices=["covering", "trivial", "galois", "universal"])
    p_check.add_argument("functor")
    p_check.add_argument("--method", choices=["direct", "fibre"], default=None)
    p_check.add_argument("--family", default=None)
    p_check.add_argument("--json", default=None)
    p_check.add_argument("--dir", default=None)
    p_check.set_defaults(func=cmd_check)

    p_build = sub.add_parser("build", help="construct categories and functors")
    p_build.add_argument("kind", choices=["path-category", "from-algebra",
                                          "product-set", "fibre-product",
                                          "quotient"])
    p_build.add_argument("args", nargs="+")
    p_build.add_argument("--by-deck-of", default=None)
    p_build.add_argument("--out", default=".")
    p_build.add_argument("--dir", default=None)
    p_build.set_defaults(func=cmd_build)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    try:
        return args.func(args)
    except Exception as exc:  # a bug, not a verdict: never exit 1 for it
        return _emit(args, {"command": args.command,
                            "error": f"internal error: {exc!r}"}, EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
