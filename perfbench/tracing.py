"""Spans around covcat's layers, taken from outside the library.

``Tracer.install`` wraps the public functions of every covcat module by
rebinding each name that any covcat module holds for them
(``from .x import y`` copies the binding, so covcat.galois.fibre_product and
covcat.cli.fibre_product are both rebound), wraps a few methods and
constructors on their classes, and counts the ``json.loads`` calls made
through the ``json`` name bound in covcat.cli.  ``uninstall`` restores
every original.  A span is (name, start, end, parent); spans stay in
memory until the caller writes them out.  Hot inner calls are counted
without a span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

MARK = "__perfbench_wrapped__"
MODULES = ("exactalg", "lincat", "linfun", "covering", "fibprod", "galois",
           "documents", "examples", "cli")

# called in the innermost loops: a count, no span
COUNT_ONLY = {"exactalg.express_in_echelon", "exactalg.echelon_pivots"}
# span name carries the field of the first argument: "…@Q" or "…@Fp"
BY_FIELD = {"exactalg.kernel_basis", "exactalg.rank_and_inverse"}


def _covcat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "covcat" or name.startswith("covcat."))]


class _JsonProxy:
    """Stands in for the ``json`` module inside covcat.cli."""

    def __init__(self, tracer):
        self._tracer = tracer

    def loads(self, *args, **kwargs):
        self._tracer.counts["cli.json.loads"] += 1
        return json.loads(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    # recording ------------------------------------------------------------

    def _intern(self, name: str) -> int:
        got = self._name_id.get(name)
        if got is None:
            got = self._name_id[name] = len(self.names)
            self.names.append(name)
        return got

    def _span_wrapper(self, name, fn, on_return=None):
        tracer = self
        by_field = name in BY_FIELD
        fixed = self._intern(name)
        if by_field:
            named = {kind: self._intern(f"{name}@{kind}") for kind in ("Q", "Fp")}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = named[args[0].field.kind] if by_field else fixed
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if on_return is not None:
                on_return(tracer.counts, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # patching -------------------------------------------------------------

    def _rebind_everywhere(self, fn, wrapper) -> None:
        for mod in _covcat_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, cls, attr, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.reset()
        mods = {short: importlib.import_module(f"covcat.{short}")
                for short in MODULES}
        hooks = {
            "fibprod.fibre_product": _count_fibre_product,
            "galois.lift_endofunctor": _count_lift,
            "documents.dumps": _count_bytes,
        }
        for short, mod in mods.items():
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            names = list(names) + [n for n in ("echelon_pivots", "_emit",
                                               "_workspace_for", "_write_docs")
                                   if n in vars(mod) and n not in names]
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in COUNT_ONLY:
                    wrapper = self._count_wrapper(name, fn)
                else:
                    wrapper = self._span_wrapper(name, fn, hooks.get(name))
                self._rebind_everywhere(fn, wrapper)

        cli, lincat, exactalg = mods["cli"], mods["lincat"], mods["exactalg"]
        self._patch_class(cli.Workspace, "load_all", self._span_wrapper(
            "cli.Workspace.load_all", cli.Workspace.load_all))
        self._patch_class(lincat.LinearCategory, "compose_vectors",
                          self._count_wrapper(
                              "lincat.LinearCategory.compose_vectors",
                              lincat.LinearCategory.compose_vectors))
        self._patch_class(exactalg.Matrix, "__init__", self._count_wrapper(
            "exactalg.Matrix", exactalg.Matrix.__init__))
        self._patch_class(exactalg.FieldSpec, "__init__", self._span_wrapper(
            "exactalg.FieldSpec", exactalg.FieldSpec.__init__))
        self._patches.append((cli, "json", cli.json))
        cli.json = _JsonProxy(self)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # reading --------------------------------------------------------------

    def calls(self, name: str) -> int:
        """Spans recorded under ``name`` (including its @Q/@Fp forms)."""
        per_id = Counter(self.span_name)
        return sum(per_id[nid] for nid in self._ids(name))

    def _ids(self, *names) -> set:
        ids = set()
        for name in names:
            for full, nid in self._name_id.items():
                if full == name or full.startswith(name + "@"):
                    ids.add(nid)
        return ids

    def total(self, *names) -> float:
        """Time in spans named ``names``, counting a span only when no
        ancestor span is in the same set."""
        ids = self._ids(*names)
        parent, name_of = self.span_parent, self.span_name
        start, end = self.span_start, self.span_end
        total = 0.0
        for idx, nid in enumerate(name_of):
            if nid not in ids:
                continue
            p = parent[idx]
            while p >= 0 and name_of[p] not in ids:
                p = parent[p]
            if p < 0:
                total += end[idx] - start[idx]
        return total

    def calls_under(self, name: str, parent_name: str) -> int:
        """Spans named ``name`` whose direct parent span is ``parent_name``."""
        ids, pids = self._ids(name), self._ids(parent_name)
        parent = self.span_parent
        return sum(1 for idx, nid in enumerate(self.span_name)
                   if nid in ids and parent[idx] >= 0
                   and self.span_name[parent[idx]] in pids)

    def self_times(self) -> Counter:
        """Self time per layer: each span's duration minus its children's."""
        child = [0.0] * len(self.span_name)
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for idx in range(len(child)):
            p = parent[idx]
            if p >= 0:
                child[p] += end[idx] - start[idx]
        out: Counter = Counter()
        for idx, nid in enumerate(self.span_name):
            layer = self.names[nid].split(".", 1)[0]
            out[layer] += end[idx] - start[idx] - child[idx]
        return out

    def write(self, path) -> None:
        """Spans as gzip'd JSON lines: a header naming the span names, then
        [name index, start, end, parent index] per span."""
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"names": self.names,
                                  "counts": dict(self.counts)}) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                out.write(json.dumps(row) + "\n")


def _count_fibre_product(counts, fp) -> None:
    counts["fibprod.objects"] += len(fp.category.objects)
    counts["fibprod.nonzero_homs"] += len(fp.category.hom_basis)


def _count_lift(counts, lift) -> None:
    if lift is not None:
        counts["galois.lifts_accepted"] += 1


def _count_bytes(counts, text) -> None:
    counts["documents.bytes_out"] += len(text.encode())


def surviving_patches() -> list[str]:
    """Names in covcat modules (and on their classes) still bound to a
    wrapper, plus covcat.cli.json when it is not the json module."""
    found = []
    for mod in _covcat_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
        if mod.__name__ == "covcat.cli" and mod.json is not json:
            found.append("covcat.cli.json")
    return found
