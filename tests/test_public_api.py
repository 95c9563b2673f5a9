"""The public surface: every name a module exports is bound in it, and the
library imports nothing outside the standard library."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import covcat
from covcat import galois
from covcat.covering import CoveringCertificate
from covcat.fibprod import FibreProduct
from covcat.linfun import LinearFunctor

MODULES = sorted(info.name for info in pkgutil.iter_modules(covcat.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_is_bound(module):
    mod = importlib.import_module(f"covcat.{module}")
    unbound = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert unbound == []


def test_no_decision_takes_a_certificate_or_a_verdict():
    """Each decision reads the functor's own cached covering check."""
    taking = [f"{name}({param})" for name in galois.__all__
              if inspect.isfunction(getattr(galois, name))
              for param in inspect.signature(getattr(galois, name)).parameters
              if param in ("cert", "gcert", "verdict")]
    assert taking == []
    for helper in (galois._pullback_spaces, galois._pullback_triviality):
        assert list(inspect.signature(helper).parameters) == ["u", "g"]
    fields = {f.name for cls in (galois.GaloisVerdict, CoveringCertificate)
              for f in dataclasses.fields(cls)}
    assert not fields & {"certificate", "functor"}


def _quick_tour() -> list[str]:
    """The lines of README's "Library quick tour" code block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    tour = text.split("## Library quick tour", 1)[1]
    return tour.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_quick_tour_runs_as_written():
    namespace, pending, shown = {}, [], []
    for line in _quick_tour():
        if "# -> " not in line:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        expression, comment = line.split("# -> ")
        shown.append((eval(expression, namespace), comment.strip()))
    [(cert, c1), (order, c2), (fp, c3), (prime, c4), (universal, c5)] = shown
    assert isinstance(cert, CoveringCertificate)
    assert c1.startswith("CoveringCertificate")
    assert (order, c2) == (2, "2")
    assert isinstance(fp, FibreProduct) and c3.startswith("FibreProduct")
    assert isinstance(prime, LinearFunctor) and "isomorphism" in c4
    assert (universal, c5) == (False, "False")


def test_the_library_imports_only_the_standard_library():
    outside = []
    for path in sorted(Path(covcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "covcat"]
    assert outside == []
