"""Every name a featpde module lists in ``__all__`` exists, so a deleted
function cannot linger in a module's public list; every exception class
is named by another module, so one whose raisers are gone cannot linger
either; and every binding the benchmark's tracer wraps exists, so a
deleted or moved function cannot break a traced benchmark run.  Only
``grid`` opens a file to write or renames one, so every artifact goes
through its rename-into-place writers; only ``handoff`` starts a thread
or copies a context, so every helper thread is its one kind; and only
``sde`` makes a draw source, leaves one or ranks a march's errors, so every
march reads its steps through one round driver.  scipy is imported only
for LAPACK in ``pde`` and for the 1000-d presets' sparse matrix, inside
the one function that builds it, so importing the CLI loads neither
``scipy.special`` nor ``scipy.sparse``."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import featpde
from conftest import child_env
from featpde import errors

MODULES = ["featpde"] + sorted(
    f"featpde.{m.name}" for m in pkgutil.iter_modules(featpde.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_every_exception_class_is_used():
    # FeatpdeError is the root that callers may catch, raised by no one
    sources = [inspect.getsource(importlib.import_module(name))
               for name in MODULES if name != "featpde.errors"]
    unused = [cls.__name__ for cls in vars(errors).values()
              if inspect.isclass(cls) and cls.__module__ == errors.__name__
              and cls is not errors.FeatpdeError
              and not any(re.search(rf"\b{cls.__name__}\b", src)
                          for src in sources)]
    assert unused == []


# os.replace, or an open whose mode writes: "w", "a", "x" or "r+"
_WRITES = re.compile(
    r"""os\.replace\(|\bopen\([^()]*["'](?:[wax]|r\+)[bt+]*["']""")


def test_only_grid_writes_files():
    writers = [name for name in MODULES if name != "featpde.grid"
               and _WRITES.search(inspect.getsource(
                   importlib.import_module(name)))]
    assert writers == []
    assert _WRITES.search(inspect.getsource(importlib.import_module(
        "featpde.grid")))


# a thread start, an executor, or a context copy
_THREADS = re.compile(
    r"threading\.Thread\(|ThreadPoolExecutor|concurrent\.futures|contextvars")


def test_only_handoff_starts_threads():
    starters = [name for name in MODULES if name != "featpde.handoff"
                and _THREADS.search(inspect.getsource(
                    importlib.import_module(name)))]
    assert starters == []
    assert _THREADS.search(inspect.getsource(importlib.import_module(
        "featpde.handoff")))


# a draw source made, a reader leaving one, or a march error's position
_DRAWS = re.compile(r"DrawSource\(|\.leave\(|march_position")


def test_only_sde_runs_the_draw_protocol():
    owners = [name for name in MODULES if _DRAWS.search(
        inspect.getsource(importlib.import_module(name)))]
    assert owners == ["featpde.sde"]


def _scipy_imports(node, where=None):
    """(function, scipy module) for each scipy import under ``node``,
    with the name of the innermost function it sits in, None at module
    level; ``from scipy import sparse`` imports ``scipy.sparse``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scipy_imports(child, child.name)
        elif isinstance(child, ast.Import):
            yield from ((where, a.name) for a in child.names
                        if a.name.split(".")[0] == "scipy")
        elif (isinstance(child, ast.ImportFrom) and child.module
              and child.module.split(".")[0] == "scipy"):
            yield from ((where, f"{child.module}.{a.name}")
                        for a in child.names)
        else:
            yield from _scipy_imports(child, where)


def test_scipy_parts_are_imported_only_where_they_are_used():
    # no scipy.special anywhere, scipy.linalg only in pde, scipy.sparse
    # only in the function that builds the 1000-d coupling matrix, and no
    # bare ``import scipy`` that would reach the others by attribute
    found = sorted(
        {(name, where, ".".join(module.split(".")[:2]))
         for name in MODULES
         for where, module in _scipy_imports(ast.parse(
             inspect.getsource(importlib.import_module(name))))})
    assert found == [
        ("featpde.pde", None, "scipy.linalg"),
        ("featpde.presets", "_block_coupling_matrix", "scipy.sparse"),
    ]


def test_importing_the_cli_loads_no_scipy_special_or_sparse():
    code = ("import sys, featpde.cli; print([m for m in ('scipy.special', "
            "'scipy.sparse', 'scipy.linalg') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['scipy.linalg']"


def _load_spans():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_binding_it_wraps(monkeypatch):
    spans = _load_spans()
    wrapped = []

    def look_up(self, owner, attr, name, work=None):
        getattr(owner, attr)  # AttributeError where the binding is gone
        wrapped.append(name)

    # a lookup in place of a wrapper, so no featpde binding is replaced
    monkeypatch.setattr(spans.Tracer, "wrap", look_up)
    spans.Tracer().install()
    assert "montecarlo.estimator" in wrapped
    assert "reduction.build_reduced_sde" in wrapped
