"""The covcat command line: validate documents, run checks, build categories.

Exit codes: 0 positive verdict, 1 negative verdict, 2 usage error, input/parse
error or unwritable output path, 3 precondition NotConnected, 4 precondition
NotCovering, 5 internal error (any other exception, reported as a JSON
error instead of a traceback).

covcat builds no reference cycles, so ``main`` runs each command with the
cyclic garbage collector paused and then gives the caller's setting back.

``main`` builds its argument parser once per process, on its first call,
and every later call parses with that one; ``build_parser`` still returns
a fresh parser.  The command that runs (``cmd_validate``, ``cmd_check``
or ``cmd_build``) is looked up by name at each call.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import ConstructionError, CovcatError, DocumentError, \
    NotConnectedError, NotCoveringError
from .lincat import path_category, product_with_set, validate_category, \
    category_from_algebra
from .linfun import _faithful, validate_functor
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
DOCUMENT_BYTES = 16 * 2**20  # the largest document file a command reads


class Workspace:
    """The documents of one command, by format and name.

    ``load_all`` reads and parses every file once, to learn its format and
    name; a category, functor, quiver or algebra is built only when a
    command first asks ``get`` for it, or at load time when its file is
    named.  A name claimed by several files resolves to the last of them,
    in load order, that builds.  A command calls ``release`` once it has
    resolved the last document it reads, so that the unreached parsed
    documents are not kept while it decides.
    """

    def __init__(self):
        self.names = {}      # path -> document name, for every file parsed
        self._claims = {}    # (format, name) -> claiming paths, in load order
        self._parsed = {}    # path -> parsed document, until it is built
        self._built = {}     # path -> built document, or None if it failed
        self._named = None   # files that must build; None: every file
        self._skipped = []   # files reached that did not parse or build

    def load_all(self, paths, named=None):
        """Read and parse each file once, then build the named ones.

        With ``named=None`` every file must parse, build and be an input
        document, and every file is built.  Otherwise loading is lenient:
        files in other formats (reports, certificates) are ignored, only
        the files in ``named`` are built now, and a file that does not
        parse, or does not build when it is reached, is skipped and listed
        in ``skipped`` unless it is one of ``named``.
        """
        self._named = named
        paths = [Path(p) for p in paths]
        for path in paths:
            with self._loading(path):
                doc = _read_document(path)
                fmt, name = doc.get("format"), doc.get("name", path.stem)
                if not isinstance(name, str):
                    raise DocumentError("document name is not a string", str(path))
                self.names[path] = name
                if isinstance(fmt, str) and fmt in _BUILDERS:
                    self._parsed[path] = doc
                    self._claims.setdefault((fmt, name), []).append(path)
                elif named is None:
                    raise DocumentError(f"unknown document format {fmt!r}", str(path))
        for path in paths:
            if path in self._parsed and (named is None or path in named):
                self._build(path)

    def get(self, fmt: str, name: str):
        """The document of format ``fmt`` called ``name``, or None when no
        file claiming it builds: a LinearCategory; (functor, source name,
        target name); (quiver, relations, field); or (field, basis, mult,
        idempotents)."""
        path = self._resolve(fmt, name)
        return None if path is None else self._built[path]

    def resolved(self, fmt: str) -> list:
        """(name, path, document) for each name claimed in format ``fmt``
        that resolves, sorted by name."""
        names = sorted(name for f, name in self._claims if f == fmt)
        return [(name, path, self._built[path]) for name in names
                if (path := self._resolve(fmt, name)) is not None]

    @property
    def skipped(self) -> list[str]:
        """The files reached that did not parse or build, in sorted path
        order."""
        return [str(path) for path in sorted(self._skipped)]

    def release(self) -> None:
        """Drop the parsed documents that were never built, once a command
        has resolved every document it reads: no later ``get`` needs them."""
        self._parsed.clear()

    def name_of(self, ref: str) -> str:
        """The document name of a loaded file ``ref``; else ``ref`` itself."""
        return self.names.get(Path(ref), ref)

    def _resolve(self, fmt: str, name: str):
        """The last path claiming (fmt, name) that builds, or None.  Each
        outcome is kept by ``_build``, so a second resolution builds
        nothing: it walks only the files the first one built."""
        claims = self._claims.get((fmt, name), ())
        return next((path for path in reversed(claims)
                     if self._build(path) is not None), None)

    def _build(self, path: Path):
        if path not in self._built:
            self._built[path] = None
            doc = self._parsed.pop(path)
            with self._loading(path):
                self._built[path] = _BUILDERS[doc["format"]](self, doc, str(path))
        return self._built[path]

    @contextmanager
    def _loading(self, path: Path):
        """Report a file that fails to parse or build as a DocumentError
        naming it; in a lenient load, skip and list it unless it is named."""
        try:
            yield
        except (DocumentError, TypeError, AttributeError, KeyError,
                IndexError, ValueError) as exc:
            if self._named is not None and path not in self._named:
                self._skipped.append(path)
                return
            if isinstance(exc, DocumentError):
                raise
            raise DocumentError(f"malformed document: {exc!r}", str(path))


def _category(ws: Workspace, doc: dict, where: str):
    return docs.category_from_json(doc, where)[1]


def _functor(ws: Workspace, doc: dict, where: str):
    """(functor, source name, target name), its source and target resolved
    by name in ``ws``."""
    categories = {ref: cat for ref in (doc.get("source"), doc.get("target"))
                  if (cat := ws.get(docs.FORMAT_LINCAT, ref)) is not None}
    _, fun = docs.functor_from_json(doc, categories, where)
    return fun, doc["source"], doc["target"]


def _quiver(ws: Workspace, doc: dict, where: str):
    return docs.quiver_from_json(doc, where)[1:]


def _algebra(ws: Workspace, doc: dict, where: str):
    return docs.algebra_from_json(doc, where)[1:]


_BUILDERS = {docs.FORMAT_LINCAT: _category, docs.FORMAT_LINFUN: _functor,
             docs.FORMAT_QUIVER: _quiver, docs.FORMAT_ALGEBRA: _algebra}


def _read_document(path: Path) -> dict:
    """The JSON object in ``path``; a file over DOCUMENT_BYTES is refused
    unread."""
    try:
        if path.stat().st_size > DOCUMENT_BYTES:
            raise DocumentError(
                f"document is larger than {DOCUMENT_BYTES} bytes", str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
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
        results = _validate(ws)
    except DocumentError as exc:
        return _emit(args, {"command": "validate", "error": str(exc)}, EXIT_INPUT)
    ok = all(result["ok"] for result in results)
    return _emit(args, {"command": "validate", "ok": ok, "results": results},
                 EXIT_OK if ok else EXIT_NEGATIVE)


def _validate(ws: Workspace) -> list[dict]:
    """One result per document name: categories, quivers, algebras, then
    functors.  A quiver or an algebra is checked by building its category,
    as `build` would; one that does not build is an input error.

    A category passes unscanned when a valid faithful functor out of it
    goes to another category whose own scan passed, which reflects the
    axioms (``linfun._faithful``).  Each category is scanned and each
    functor checked at most once."""
    functors = [doc[0] for _, _, doc in ws.resolved(docs.FORMAT_LINFUN)]
    scans, checks = {}, {}

    def scan(cat):
        if id(cat) not in scans:
            scans[id(cat)] = validate_category(cat).violations
        return scans[id(cat)]

    def check(fun):
        if id(fun) not in checks:
            checks[id(fun)] = validate_functor(fun).violations
        return checks[id(fun)]

    def category_violations(cat):
        if any(fun.source is cat and fun.target is not cat
               and not scan(fun.target) and not check(fun) and _faithful(fun)
               for fun in functors):
            return ()
        return scan(cat)

    results = []
    for fmt, kind in ((docs.FORMAT_LINCAT, "category"),
                      (docs.FORMAT_QUIVER, "quiver"),
                      (docs.FORMAT_ALGEBRA, "algebra"),
                      (docs.FORMAT_LINFUN, "functor")):
        for name, path, doc in ws.resolved(fmt):
            violations = []
            if fmt == docs.FORMAT_LINCAT:
                violations = category_violations(doc)
            elif fmt == docs.FORMAT_LINFUN:
                violations = check(doc[0])
            else:
                build = path_category if fmt == docs.FORMAT_QUIVER \
                    else category_from_algebra
                try:
                    build(*doc)
                except (CovcatError, IndexError) as exc:
                    raise DocumentError(str(exc), str(path))
            results.append({"name": name, "kind": kind, "ok": not violations,
                            "violations": [{"kind": v.kind,
                                            "witness": list(v.witness),
                                            "message": v.message}
                                           for v in violations]})
    return results


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

    found = ws.get(docs.FORMAT_LINFUN, name)
    if found is None:
        return error(f"unknown functor {name!r}")
    fun = found[0]
    target_ok = validate_category(fun.target).ok
    fun_ok = target_ok and validate_functor(fun).ok
    # a valid faithful functor onto a valid target reflects the category
    # axioms (linfun._faithful); otherwise the source is scanned, and the
    # errors keep their order: source, target, functor
    if not (fun_ok and _faithful(fun)):
        if not validate_category(fun.source).ok:
            return error(f"source category of {name} is invalid")
        if not target_ok:
            return error(f"target category of {name} is invalid")
    if not fun_ok:
        return error(f"functor {name} is invalid")

    try:
        if args.kind != "universal":
            ws.release()
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
                member = ws.get(docs.FORMAT_LINFUN, fname)
                if member is None:
                    return error(f"unknown family member {fname!r}")
                _require_valid(member[0], fname)
                members.append((fname, member[0]))
            ws.release()
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
    """Write each payload to ``out_dir``; when any is over DOCUMENT_BYTES,
    which no command would read back, write none and raise."""
    encoded = [(payload["name"], docs.dumps(payload).encode())
               for payload in payloads]
    for name, data in encoded:
        if len(data) > DOCUMENT_BYTES:
            raise DocumentError(f"document {name!r} would be {len(data)} bytes, "
                                f"over the {DOCUMENT_BYTES}-byte bound")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, data in encoded:
        path = out / f"{name}.json"
        path.write_bytes(data)
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


def _document(ws: Workspace, fmt: str, ref: str, what: str):
    """The name of the document ``ref`` (a loaded path or a document name)
    and the document; an input error when it does not resolve."""
    name = ws.name_of(ref)
    found = ws.get(fmt, name)
    if found is None:
        raise DocumentError(f"unknown {what} {name!r}")
    return name, found


# the operands each build kind reads; product-set reads all of its own
_OPERANDS = {"path-category": 1, "from-algebra": 1, "fibre-product": 2,
             "quotient": 1}


def _build(args, ws: Workspace) -> dict:
    reads = _OPERANDS.get(args.kind)
    if reads is not None and len(args.args) > reads:
        raise DocumentError(f"unexpected operand {args.args[reads]!r} "
                            f"for build {args.kind}")
    if args.kind == "path-category":
        qname, (quiver, relations, field) = _document(
            ws, docs.FORMAT_QUIVER, args.args[0], "quiver")
        ws.release()
        cat = path_category(quiver, relations, field)
        return _write_docs(args.out, [docs.category_to_json(cat, f"{qname}-cat")])
    if args.kind == "from-algebra":
        aname, (field, basis, mult, idems) = _document(
            ws, docs.FORMAT_ALGEBRA, args.args[0], "algebra")
        ws.release()
        cat = category_from_algebra(field, basis, mult, idems)
        return _write_docs(args.out, [docs.category_to_json(cat, f"{aname}-cat")])
    if args.kind == "product-set":
        cname, cat = _document(ws, docs.FORMAT_LINCAT, args.args[0], "category")
        ws.release()
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
        product, projection = product_with_set(cat, labels)
        stem = f"{cname}-x{len(labels)}"
        return _write_docs(args.out, [
            docs.category_to_json(product, stem),
            docs.functor_to_json(projection, f"{stem}-pr", stem, cname),
        ])
    if args.kind == "fibre-product":
        if len(args.args) < 2:
            raise DocumentError("fibre-product requires two functors")
        fname, (f, f_src, _) = _document(ws, docs.FORMAT_LINFUN, args.args[0],
                                         "functor")
        gname, (g, g_src, _) = _document(ws, docs.FORMAT_LINFUN, args.args[1],
                                         "functor")
        ws.release()
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
        cname, cat = _document(ws, docs.FORMAT_LINCAT, args.args[0], "category")
        if not args.by_deck_of:
            raise DocumentError("quotient requires --by-deck-of")
        fname, (fun, _, _) = _document(ws, docs.FORMAT_LINFUN, args.by_deck_of,
                                       "functor")
        ws.release()
        _require_valid(fun, fname)
        if fun.source != cat:
            raise DocumentError(
                f"{fname} is not a functor out of {cname}")
        group = deck_group(fun)
        quotient, projection = quotient_by_group(cat, group)
        stem = f"{cname}-mod-{fname}"
        return _write_docs(args.out, [
            docs.category_to_json(quotient, stem),
            docs.functor_to_json(projection, f"{stem}-proj", cname, stem),
        ])
    raise DocumentError(f"unknown build kind {args.kind!r}")


# entry point --------------------------------------------------------------------


class _UsageError(Exception):
    """An argv that the parser refuses, with argparse's message."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of printing usage and exiting, so that
    ``main`` reports it as JSON; its subcommand parsers are ``_Parser``s
    too."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covcat",
        description="Exact decision procedures for coverings of k-linear categories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="validate category/functor/quiver documents")
    p_validate.add_argument("files", nargs="+")
    p_validate.add_argument("--json", default=None)

    p_check = sub.add_parser("check", help="run a decision procedure on a functor")
    p_check.add_argument("kind", choices=["covering", "trivial", "galois", "universal"])
    p_check.add_argument("functor")
    p_check.add_argument("--method", choices=["direct", "fibre"], default=None)
    p_check.add_argument("--family", default=None)
    p_check.add_argument("--json", default=None)
    p_check.add_argument("--dir", default=None)

    p_build = sub.add_parser("build", help="construct categories and functors")
    p_build.add_argument("kind", choices=["path-category", "from-algebra",
                                          "product-set", "fibre-product",
                                          "quotient"])
    p_build.add_argument("args", nargs="+", metavar="operand")
    p_build.add_argument("--by-deck-of", default=None)
    p_build.add_argument("--out", default=".")
    p_build.add_argument("--dir", default=None)
    return parser


_parser = None  # main's parser, built on its first call


def main(argv=None) -> int:
    global _parser
    argv = list(sys.argv[1:] if argv is None else argv)
    if _parser is None:
        _parser = build_parser()
    try:
        # parse_args only reads the parser, so one serves every call
        args = _parser.parse_args(argv)
    except _UsageError as exc:
        report = {"error": str(exc)}
        if argv and argv[0] in ("validate", "check", "build"):
            report = {"command": argv[0], **report}
        sys.stdout.write(docs.dumps(report))
        return EXIT_INPUT
    args.raw_argv = argv
    # nothing a command builds is cyclic (test_cli checks every command
    # kind), so the collector would only rescan what refcounting frees
    enabled = gc.isenabled()
    gc.disable()
    try:
        # looked up now, so that a command rebound since the parser was
        # built is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except Exception as exc:  # a bug, not a verdict: never exit 1 for it
        return _emit(args, {"command": args.command,
                            "error": f"internal error: {exc!r}"}, EXIT_INTERNAL)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
