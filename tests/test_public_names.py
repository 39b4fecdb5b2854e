"""Every name a featpde module lists in ``__all__`` exists, so a deleted
function cannot linger in a module's public list; every exception class
is named by another module, so one whose raisers are gone cannot linger
either; and every binding the benchmark's tracer wraps exists, so a
deleted or moved function cannot break a traced benchmark run.  Only
``grid`` opens a file to write or renames one, so every artifact goes
through its rename-into-place writers; only ``handoff`` starts a thread
or copies a context, so every helper thread is its one kind; and only
``sde`` makes a draw source, leaves one or ranks a march's errors, so every
march reads its steps through one round driver.  Only ``sde`` names
numpy's random module, every other module's ``stream`` reads a tag that
``sde`` declares, and the declared tags are distinct, so one table owns
every Philox key featpde makes.  No module imports scipy: ``pde`` loads
LAPACK's extension module from its file, and the 1000-d presets load
scipy's compiled CSR kernel the same way when they are built, so
importing the CLI loads LAPACK's extension alone, as does an FD solve or
a training run, and a 1000-d estimate loads the CSR kernel besides."""

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


def _named_tags():
    sde = importlib.import_module("featpde.sde")
    return {name: value for name, value in vars(sde).items()
            if name.endswith("_TAG")}


def test_only_sde_names_numpy_random():
    users = [name for name in MODULES if re.search(
        r"\b(?:np|numpy)\.random\b",
        inspect.getsource(importlib.import_module(name)))]
    assert users == ["featpde.sde"]


def _stream_tags(tree):
    """The source of the tag argument of each ``stream(seed, tag)`` or
    ``sde.stream(seed, tag)`` call under ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and "stream" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))):
            tag = (node.args[1:2]
                   + [kw.value for kw in node.keywords if kw.arg == "tag"])
            yield ast.unparse(tag[0]) if tag else "<no tag>"


def test_every_stream_outside_sde_reads_a_named_tag():
    tags = _named_tags()
    found = [(name, tag) for name in MODULES if name != "featpde.sde"
             for tag in _stream_tags(ast.parse(
                 inspect.getsource(importlib.import_module(name))))]
    assert found
    assert [(name, tag) for name, tag in found
            if tag.removeprefix("sde.") not in tags] == []
    # and no declared tag is left without a reader
    assert {tag.removeprefix("sde.") for _, tag in found} == set(tags)


def test_named_tags_are_distinct_philox_key_words():
    tags = _named_tags()
    assert tags
    assert all(isinstance(v, int) and 0 <= v < 2**64 for v in tags.values())
    assert len(set(tags.values())) == len(tags)


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
    # no scipy import statement anywhere, not even a bare ``import scipy``:
    # ``pde._scipy_extension`` loads the compiled modules featpde calls,
    # LAPACK's and the CSR kernel, from their files
    found = sorted(
        {(name, where, ".".join(module.split(".")[:2]))
         for name in MODULES
         for where, module in _scipy_imports(ast.parse(
             inspect.getsource(importlib.import_module(name))))})
    assert found == []


def _scipy_modules_after(code):
    """Sorted names of the scipy modules loaded in a fresh interpreter
    after it runs ``code``."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    return subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def test_importing_the_cli_loads_no_scipy_special_or_sparse():
    # nor scipy.linalg or scipy._lib: only LAPACK's extension module
    assert (_scipy_modules_after("import featpde.cli")
            == "['scipy.linalg._flapack']")


def test_fd_and_training_load_only_the_lapack_extension(tmp_path):
    # an FD solve and PINN training call LAPACK and no other scipy code
    runs = [({"preset": "lq-scalar", "estimator": "fd",
              "eval": {"points": [[0.0]]}}, "estimate-value"),
            ({"preset": "lq-scalar", "pinn": {"epochs": 2}}, "train-pinn")]
    out = _scipy_modules_after("from featpde import harness\n" + "".join(
        f"harness.run({cfg!r}, {command!r}, "
        f"out={str(tmp_path / command)!r})\n" for cfg, command in runs))
    assert out == "['scipy.linalg._flapack']"


def test_a_1000d_estimate_loads_only_lapack_and_the_csr_kernel(tmp_path):
    # scipy.sparse, and with it scipy._lib, used to load with the preset
    cfg = {"preset": "sys1000d-value", "estimator": "mc_full",
           "eval": {"points": [[1.5, 1.5]], "time": 0.96},
           "mc": {"dt": 0.01, "n_paths": 4}}
    out = _scipy_modules_after(
        "from featpde.presets import get_preset\n"
        "get_preset('sys1000d-value')\n"
        "from featpde import harness\n"
        f"harness.run({cfg!r}, 'estimate-value', out={str(tmp_path)!r})")
    assert out == "['scipy.linalg._flapack', 'scipy.sparse._sparsetools']"


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
