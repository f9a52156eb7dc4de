"""Import checks: every name a library module imports is used in that module,
every private module-level function is referenced somewhere in the package,
only rng.py reaches numpy.random, only cli.py reads the process environment,
only kernels.py starts threads, the prober scores states only through
kernels (with one chart and one scorer), kernels and the sweep take only
the relation table from relations (kernels writing no formula constant),
relations.walk is the one loop over a table plan's steps, the sweep builds
no state and draws through one stream route, and the runtime imports no
scipy."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "triplespin"
# __init__.py imports names to re-export them, so it is not checked
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def dead_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions named `_name` that no module in `sources` references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [
        f"{module} line {node.lineno}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]


def numpy_random_uses(source: str) -> list[str]:
    """Lines that reach numpy.random: an np.random or numpy.random attribute, or an import of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.split(".")[:2] == ["numpy", "random"] or (
                module == "numpy" and any(alias.name == "random" for alias in node.names)
            )
        elif isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[:2] == ["numpy", "random"] for alias in node.names)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def environment_reads(source: str) -> list[str]:
    """Lines that reach os.environ, os.environb, os.getenv or os.getenvb, by attribute or by import."""
    names = {"environ", "environb", "getenv", "getenvb"}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr in names and isinstance(node.value, ast.Name) and node.value.id == "os"
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "os" and any(alias.name in names for alias in node.names)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_checker_flags_unused_names():
    source = "from os import path, sep\nimport numpy as np\nimport json\nprint(sep, json.dumps)\n"
    assert unused_imports(source) == ["line 1: path", "line 2: np"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_checker_flags_dead_private_functions():
    sources = {
        "a.py": "def _dead():\n    pass\ndef _called():\n    pass\ndef _imported():\n    pass\n"
        "def public():\n    return _called()\ndef __getattr__(name):\n    pass\n",
        "b.py": "from a import _imported\nimport a\nclass C:\n    def _method(self):\n        a._attr()\n",
    }
    assert dead_private_functions(sources) == ["a.py line 1: _dead"]


def test_no_dead_private_functions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_functions(sources) == []


def test_checker_flags_numpy_random():
    source = (
        "import numpy as np\nfrom numpy import random\nimport numpy.random\nfrom numpy.random import Philox\n"
        "x = np.random.default_rng(0)\ny = numpy.random\nz = np.linalg.norm(x.random(3))\n"
    )
    assert numpy_random_uses(source) == [f"line {n}" for n in (2, 3, 4, 5, 6)]


@pytest.mark.parametrize("module", sorted(p for p in PACKAGE.glob("*.py") if p.name != "rng.py"), ids=lambda p: p.name)
def test_only_rng_draws_from_numpy_random(module):
    # every draw comes from an rng.stream keyed by the work item, so runs stay reproducible
    assert numpy_random_uses(module.read_text(encoding="utf-8")) == []


def test_checker_flags_environment_reads():
    source = (
        "import os\nfrom os import getenv\nfrom os import path\n"
        "a = os.environ.get('X')\nb = os.getenv('X')\nc = os.path.join('a')\nd = env.environ\n"
    )
    assert environment_reads(source) == [f"line {n}" for n in (2, 4, 5)]


@pytest.mark.parametrize("module", sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py"), ids=lambda p: p.name)
def test_only_cli_reads_the_environment(module):
    # cli.py records what it reads in the run manifest; an input read anywhere else would never reach it
    assert environment_reads(module.read_text(encoding="utf-8")) == []


def thread_imports(source: str) -> list[str]:
    """Lines that import threading, concurrent.futures or names from either."""
    modules = ("threading", "concurrent")
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] in modules
        elif isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] in modules for alias in node.names)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_checker_flags_thread_imports():
    source = (
        "import threading\nfrom concurrent.futures import ThreadPoolExecutor\nimport concurrent.futures as cf\n"
        "from concurrent import futures\nimport os\nfrom .kernels import fold_chunks\n"
        "def f():\n    from threading import Lock\n"
    )
    assert thread_imports(source) == [f"line {n}" for n in (1, 2, 3, 4, 8)]


@pytest.mark.parametrize("module", sorted(p for p in PACKAGE.glob("*.py") if p.name != "kernels.py"), ids=lambda p: p.name)
def test_only_kernels_starts_threads(module):
    # kernels.fold_chunks merges its threads' results in chunk order, so outputs do not depend on the thread count
    assert thread_imports(module.read_text(encoding="utf-8")) == []


def moments_imports(source: str) -> list[str]:
    """Lines that import the moments module or names from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[-1] == "moments" or any(a.name == "moments" for a in node.names)
        elif isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[-1] == "moments" for alias in node.names)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_checker_flags_moments_imports():
    source = (
        "from .moments import entr\nfrom . import moments, kernels\nimport triplespin.moments\n"
        "from . import kernels\nfrom .relations import evaluate\n"
    )
    assert moments_imports(source) == [f"line {n}" for n in (1, 2, 3)]


def module_names(source: str, module: str) -> list[str]:
    """Names a source takes from a package module: each name imported from it, or the module itself."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names if alias.name == module]
        elif isinstance(node, ast.Import):
            names += [module for alias in node.names if alias.name.split(".")[-1] == module]
    return sorted(names)


def test_checker_lists_relations_names():
    source = (
        "from .relations import TAU, relation_sides\nfrom . import relations, kernels\n"
        "import triplespin.relations\nfrom .kernels import fold_chunks\n"
    )
    assert module_names(source, "relations") == ["TAU", "relation_sides", "relations", "relations"]


def test_sweep_takes_only_the_table_from_relations():
    # the sweep's values and error bars both come from one walk of the table: no constant or formula of its own
    source = (PACKAGE / "measure_sim.py").read_text(encoding="utf-8")
    assert module_names(source, "relations") == ["RelationId", "table_plan", "walk"]


def steps_readers(source: str) -> list[str]:
    """Functions that read a `.steps` attribute: the innermost def or lambda around each read, by name."""
    readers = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Attribute) and node.attr == "steps" and isinstance(node.ctx, ast.Load):
            readers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(readers)


def test_checker_lists_steps_readers():
    source = (
        "n = len(plan.steps)\ndef walk(plan):\n    for step in plan.steps:\n        pass\n"
        "def outer():\n    def inner(p):\n        return p.steps\n    return inner\n"
        "key = lambda p: p.steps[0]\ndef setter(p):\n    p.steps = ()\n    return steps\n"
    )
    assert steps_readers(source) == ["<lambda>", "<module>", "inner", "walk"]


def test_walk_is_the_one_loop_over_plan_steps():
    # every side and gap comes from relations.walk: a second loop over a TablePlan's steps is a second walker
    readers = [f"{p.name}: {name}" for p in sorted(PACKAGE.glob("*.py")) for name in steps_readers(p.read_text())]
    assert readers == ["relations.py: walk"]


TAU = 2.0 / math.sqrt(3.0)
#: Constants of the relation formulas: tau, tau^3/8, 1/8, 1/sqrt(3), log 2, log 4 and R8's 2/5.
FORMULA_CONSTANTS = {TAU, TAU**3 / 8.0, 0.125, 1.0 / math.sqrt(3.0), math.log(2.0), 2.0 * math.log(2.0), 0.4}


def formula_constants(source: str) -> list[str]:
    """Lines that write a formula constant: a float among FORMULA_CONSTANTS, a logarithm, a division
    by a square root (tau = 2/sqrt(3)) or a literal permutation of the axes (0, 1, 2) other than theirs."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant):
            hit = isinstance(node.value, float) and node.value in FORMULA_CONSTANTS
        elif isinstance(node, ast.Call):
            func = node.func
            hit = (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")).startswith("log")
        elif isinstance(node, ast.BinOp):
            right = node.right
            hit = isinstance(node.op, ast.Div) and isinstance(right, ast.Call) and "sqrt" in ast.unparse(right.func)
        elif isinstance(node, (ast.List, ast.Tuple)):
            items = [getattr(item, "value", None) for item in node.elts]
            hit = sorted(items, key=str) == [0, 1, 2] and items != [0, 1, 2]
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_checker_flags_formula_constants():
    source = (
        "tau = 2.0 / math.sqrt(3.0)\nhalf = 0.4 * w\nln2 = np.log(2.0)\nrot = d[[1, 2, 0]]\n"
        "area = math.sqrt(3.0) * side\nn = x[[1, 0, 0]] + x[[0, 1, 2]] + 0.5 * 4.0\nscale = 0.125\n"
    )
    assert formula_constants(source) == [f"line {n}" for n in (1, 2, 3, 4, 7)]


def test_kernels_take_only_the_table_api_from_relations():
    # kernels walk the table passes that relations.table_plan builds, so every formula and its constants
    # stay in relations.RELATIONS and TERMS: a scorer with its own copy of the formulas cannot ship
    source = (PACKAGE / "kernels.py").read_text(encoding="utf-8")
    assert module_names(source, "relations") == ["QUBIT_SOAK_RELATIONS", "TRIANGLE_ANALOG_RELATIONS", "table_plan", "walk"]
    assert formula_constants(source) == []


def test_sweep_builds_no_state_and_draws_by_one_route():
    # Bloch columns come straight from family_bloch, with no density matrix, and every
    # (point, axis) stream from rng.map_streams; check_seed draws nothing, it validates ShotConfig.seed
    source = (PACKAGE / "measure_sim.py").read_text(encoding="utf-8")
    assert module_names(source, "states") == ["BLOCH_NORM_TOL", "Family", "family_bloch"]
    assert module_names(source, "rng") == ["check_seed", "map_streams"]


def test_prober_scores_only_through_kernels():
    # kernels._apply_table is the one batch route from moments to gaps; the prober parametrizes and searches
    source = (PACKAGE / "prober.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert moments_imports(source) == []
    assert names & {"relation_sides", "_SPECS", "_ops"} == set()
    # one chart and one scorer: pure and mixed states are both columns for kernels.vector_scorer
    assert names & {"qubit_relation_gaps", "random_mixed_bloch", "density_from_bloch", "partial"} == set()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: importing the CLI must not load it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import triplespin.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE.parent)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
