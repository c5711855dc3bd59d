"""Every name that a package module imports is used in that module, and
every name that README's library examples use still exists.  No linter runs
on this tree, and a deletion can leave a dead import or a stale example
behind; the import checks read the source with the stdlib ``ast`` module
only.

The package runs on numpy alone; scipy is a test and benchmark dependency.
Farkas certificates, their witnesses, redundant facets and the interior point
are each decided by NNLS solves of the package's own, the PSD decomposition
search is its own L-BFGS and ``mean_ode``'s ``expm`` its own Pade
approximant.  A fresh interpreter checks that importing the package, the
certify calls on every fixture, ``validate`` on the edge models that reach
the witness path or scale a facet row, and a ``simulate`` call load no scipy
module; another, where importing scipy fails, checks that every subcommand
exits as usual.  The ``ast`` check names the statement that would import
scipy with the package.

The submodules load on first use: fresh interpreters check that importing
the package and its CLI loads no decider, that each subcommand loads only
the deciders it reaches, and that every public name of the package still
resolves to the object its defining module binds."""

import ast
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import affinvar
import affinvar.cli
from affinvar.modelio import fixture_path, load_fixture, save_model
from conftest import load_module, translated

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affinvar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_detects_dead_import():
    assert unused_imports("import os\nimport numpy as np\n"
                          "from math import pi, tau\nnp.sqrt(pi)\n") == \
        ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str, package: str = "affinvar") -> set[str]:
    """The absolute names of the modules that source imports from; for
    ``from M import n`` both M and M.n, since n may be a submodule."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [package if node.level else None,
                                          node.module]))
            found |= {base} | {f"{base}.{a.name}" for a in node.names}
    return found


# the deciders; cli.py reaches them only through report.py
DECIDERS = {f"affinvar.{name}"
            for name in ("polyhedral", "quadratic", "simulate", "convex")}


def test_imported_modules_detects_every_form():
    source = ("from .simulate import Scheme\nfrom . import convex, report\n"
              "import affinvar.quadratic\nfrom affinvar.polyhedral import x\n")
    assert imported_modules(source) & DECIDERS == DECIDERS


def test_cli_imports_no_decider():
    assert imported_modules((PACKAGE / "cli.py").read_text()) & DECIDERS \
        == set()


def test_readme_library_runs():
    # the python blocks in order, in one namespace, as a reader would run them
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme,
                        re.DOTALL | re.MULTILINE)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(blocks) >= 2


def module_level_scipy_imports(source: str) -> list[str]:
    """The statements outside every function body that import scipy, as
    "line: statement"; they run when the module is imported."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{child.lineno}: {ast.unparse(child)}")
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_scipy_imports_detects_them():
    source = ("import os\nimport scipy.linalg\n"
              "from scipy.optimize import nnls\n"
              "def f():\n    from scipy import linalg\n"
              "class C:\n    import scipy as sp\n")
    assert module_level_scipy_imports(source) == [
        "2: import scipy.linalg", "3: from scipy.optimize import nnls",
        "7: import scipy as sp"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert module_level_scipy_imports(path.read_text()) == []


# Runs CLI calls in process after the package import, and prints, after the
# import and after each call, the exit code and the loaded modules whose
# names start with the prefix in sys.argv[2].
_PROBE = """
import contextlib, io, json, sys
import affinvar, affinvar.cli
from affinvar.modelio import fixture_path

def loaded():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith(sys.argv[2]) and module is not None)

steps = [["import", 0, loaded()]]
for op, model, *rest in json.loads(sys.argv[1]):
    path = model if model.endswith(".json") else str(fixture_path(model))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = affinvar.cli.main([op, path, *rest])
    steps.append([op + " " + model, code, loaded()])
print(json.dumps(steps))
"""

# the 15 fixture calls of a certify round, with their exit codes
_CERTIFY_CALLS = {
    **{(op, fx): 0 for fx in ("cir", "triangle_channel")
       for op in ("validate", "canonicalize", "decompose")},
    ("decompose", "triangle_channel"): 1,
    ("validate", "hyperbola_wedge"): 1, ("canonicalize", "hyperbola_wedge"): 1,
    ("decompose", "hyperbola_wedge"): 0,
    **{(op, fx): 0 for fx in ("parabola3", "cone3")
       for op in ("validate", "classify", "decompose")},
}


def _fresh_python(code: str, *args: str) -> str:
    """The stdout of code run in a fresh interpreter on the package under
    test, wherever it was imported from."""
    src = os.path.dirname(os.path.dirname(affinvar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, check=True,
                          env=env, timeout=300).stdout


def _probe(calls: list[list[str]], block_scipy: bool = False,
           prefix: str = "scipy") -> list:
    """The steps that _PROBE prints for calls and the modules under prefix,
    in a fresh interpreter; with block_scipy, one where every scipy import
    raises ImportError."""
    probe = ('import sys; sys.modules["scipy"] = None\n' if block_scipy
             else "") + _PROBE
    return json.loads(_fresh_python(probe, json.dumps(calls), prefix))


def test_certify_path_loads_no_scipy():
    # the import, every certify call on the fixtures (the L-BFGS search of
    # triangle_channel and hyperbola_wedge among them) and a simulate call
    # (the mean's expm) run on numpy alone
    calls = [[op, fx] for op, fx in _CERTIFY_CALLS]
    calls.append(["simulate", "cir", "--paths", "10", "--steps", "10"])
    codes = [0, *_CERTIFY_CALLS.values(), 0]
    names = ["import"] + [" ".join(call[:2]) for call in calls]
    assert _probe(calls) == [[name, code, []]
                             for name, code in zip(names, codes)]


def test_witness_path_loads_no_scipy(tmp_path):
    # validate on the edge models whose drift certificate needs a
    # multiplier of 1e20, whose drift checks fail with a witness, and whose
    # facet row is scaled by 1e7: certificates, witnesses and redundancy
    # are NNLS solves
    tool = load_module(ROOT / "tools" / "cli_digests.py")
    codes = {"cir-overflow": 0, "triangle-outward-drift": 1,
             "triangle-scaled-facet": 0}
    calls = []
    for name in codes:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(tool._edge_models()[name]))
        calls.append(["validate", str(path)])
    assert _probe(calls) == [["import", 0, []]] + [
        ["validate " + path, code, []]
        for (_, path), code in zip(calls, codes.values())]


def test_every_subcommand_runs_without_scipy(tmp_path):
    # with scipy unimportable, every subcommand on the fixtures, on the two
    # edge models whose interior point once took an LP (an empty interval
    # and one narrower than 2), on cir moved by 2e6 and a simulate call
    # exit as they do in this process, where scipy is importable
    tool = load_module(ROOT / "tools" / "cli_digests.py")
    models = ["cir", "triangle_channel", "hyperbola_wedge", "parabola3",
              "cone3"]
    for name in ("empty-polyhedron", "interval-outward-drift"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(tool._edge_models()[name]))
        models.append(str(path))
    moved = tmp_path / "cir-moved.json"
    save_model(translated(load_fixture("cir"), 2e6), moved)
    models.append(str(moved))
    sim = ["--paths", "10", "--steps", "10"]
    calls = [[op, model] for model in models
             for op in ("validate", "canonicalize", "decompose", "classify")]
    calls += [["simulate", model, *sim] for model in models]
    expected = []
    for op, model, *rest in calls:
        path = model if model.endswith(".json") else str(fixture_path(model))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = affinvar.cli.main([op, path, *rest])
        expected.append([f"{op} {model}", code, []])
    assert _probe(calls, block_scipy=True) == [["import", 0, []]] + expected


def test_each_entry_point_loads_only_the_deciders_it_reaches():
    # the package and its CLI load core, model I/O, the report and the CLI;
    # a quadric call loads quadratic alone, a polyhedral one convex and
    # polyhedral, and simulate, which needs every decider, still runs
    def deciders(calls):
        return [[step, code, [m for m in mods if m in DECIDERS]]
                for step, code, mods in _probe(calls, prefix="affinvar")]

    (_, _, imported), = _probe([], prefix="affinvar")
    assert imported == [f"affinvar{name}" for name in (
        "", ".cli", ".core", ".errors", ".modelio", ".report", ".tolerances")]
    for call in (["classify", "cone3"], ["validate", "parabola3"]):
        assert deciders([call]) == [["import", 0, []],
                                    [" ".join(call), 0, ["affinvar.quadratic"]]]
    ops = ("validate", "canonicalize", "decompose")
    assert deciders([[op, "cir"] for op in ops]) == [["import", 0, []]] + [
        [f"{op} cir", 0, ["affinvar.convex", "affinvar.polyhedral"]]
        for op in ops]
    assert deciders([["simulate", "cir", "--paths", "10", "--steps", "10"]])[
        -1] == ["simulate cir", 0, sorted(DECIDERS)]


# the package's public names, by defining module
PUBLIC_API = {
    "convex": ("FarkasCertificate", "farkas_decompose", "interior_point",
               "minimalize"),
    "core": ("AffineMap", "AffineMatrixField", "AffineScalar",
             "AffineVectorField", "Check", "ModelSpec", "Polyhedron",
             "QuadraticForm", "QuadraticSpace", "psd_square_root"),
    "modelio": ("load_fixture", "load_model", "save_model"),
    "polyhedral": ("CanonicalTransform", "PsdFacetDecomposition",
                   "build_square_root", "canonical_transform",
                   "check_open_facet_invariance",
                   "check_polyhedral_admissibility",
                   "check_triangle_condition", "diagonalize_extended",
                   "lift_drift", "psd_decompose", "transform_model"),
    "quadratic": ("ConicalDecomposition", "ParabolicDecomposition",
                  "QuadricClassification", "check_cone_admissibility",
                  "check_open_invariance_general", "check_parabolic_drift",
                  "check_parabolic_psd_condition", "classify_quadric",
                  "cone_square_root", "conical_basis",
                  "conical_theta_decompose", "normalize_parabolic",
                  "parabolic_basis", "parabolic_square_root",
                  "parabolic_theta_decompose"),
    "report": ("Report", "validate"),
    "simulate": ("PathEnsemble", "Scheme", "SimConfig",
                 "invariance_monte_carlo", "mean_ode", "simulate_paths",
                 "simulate_summary", "simulation_frame"),
}


def test_public_api_is_unchanged():
    names = {name for names in PUBLIC_API.values() for name in names}
    assert len(names) == 53
    for module, module_names in PUBLIC_API.items():
        defining = importlib.import_module(f"affinvar.{module}")
        for name in module_names:
            assert getattr(affinvar, name) is getattr(defining, name), name
    assert sorted(dir(affinvar)) == sorted(names | {"__version__"})
    namespace: dict = {}
    exec("from affinvar import *", namespace)
    assert set(namespace) - {"__builtins__"} == names | {"__version__"}
    assert namespace["__version__"] == affinvar.__version__
    with pytest.raises(AttributeError, match=r"^module 'affinvar' has no "
                       r"attribute 'no_such_name'$"):
        affinvar.no_such_name


def test_submodules_resolve_before_any_subcommand():
    # as the benchmark reads them, from the bare package import
    assert _fresh_python(
        "import sys, affinvar\n"
        "assert affinvar.simulate.make_projector is \\\n"
        "    sys.modules['affinvar.simulate'].make_projector\n"
        "assert callable(affinvar.core.change_model_coordinates)\n"
        "from affinvar import errors, tolerances\n"
        "print(errors.AffinvarError.__name__, tolerances.TOL is not None)"
    ) == "AffinvarError True\n"
