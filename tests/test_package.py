import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ulamlab
import ulamlab.executor


def test_public_names_resolve_once():
    names = ulamlab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(ulamlab, n)] == []


LAZY_IMPORT = """
import os, sys
import ulamlab
import ulamlab.executor
assert "numpy" not in sys.modules, "import ulamlab loaded numpy"
import ulamlab.cli
threads = [os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
assert threads == ["1", "1"], threads
import ulamlab.stabilize
assert ulamlab.stabilize is sys.modules["ulamlab.stabilize"].stabilize, ulamlab.stabilize
"""


def test_import_loads_no_numpy_so_the_cli_can_pin_blas():
    # a fresh interpreter: this one has numpy loaded already
    src = str(Path(ulamlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "4"}
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


SRC = Path(ulamlab.__file__).resolve().parent


def _defines(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _has_caller(name: str, home: str, trees: dict[str, ast.Module]) -> bool:
    """Whether a module of the package reads ``name`` of module ``home``
    outside its own definition: by name in ``home``, as ``home.name``, or
    through ``from .home import name``."""
    for module, tree in trees.items():
        own = set()
        if module == home:
            own = {id(n) for stmt in tree.body if _defines(stmt, name) for n in ast.walk(stmt)}
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            by_name = isinstance(node, ast.Name) and module == home and node.id == name
            by_attribute = (
                isinstance(node, ast.Attribute)
                and node.attr == name
                and isinstance(node.value, ast.Name)
                and node.value.id == home
            )
            by_import = (
                isinstance(node, ast.ImportFrom)
                and node.module == home
                and any(alias.name == name for alias in node.names)
            )
            if by_name or by_attribute or by_import:
                return True
    return False


def test_every_public_name_has_a_caller_in_the_package():
    # read from the syntax tree, not the text: docstrings name functions too
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    names = [n for n in ulamlab.__all__ if n != "__version__"]
    assert [n for n in names if not _has_caller(n, ulamlab._SOURCE[n], trees)] == []


def test_names_the_benchmark_reads_resolve():
    # bench/spans.py looks its traced functions up with a bare getattr, and
    # bench/record_reference.py reads the verify names below
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pairs = list(spans.TRACED) + [("verify", "_suite_rng"), ("verify", "POOL_SPECS"), ("verify", "SUITES")]
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(f"ulamlab.{module}"), name)
    ]
    assert missing == []


def test_only_the_executor_module_knows_about_threads():
    # The executor shares a run's cores between --workers and kernel threads:
    # a module that started threads of its own would share them twice.  Its
    # names are read from it alone, not through a module that imports them.
    executor = {n for n in vars(ulamlab.executor) if n.startswith("_") and not n.startswith("__")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "executor":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            found += [(path.stem, m) for m in modules if m.split(".")[0] in ("threading", "concurrent")]
            if isinstance(node, ast.ImportFrom) and node.level and node.module != "executor":
                found += [(path.stem, a.name) for a in node.names if a.name in executor]
            if isinstance(node, ast.Attribute) and node.attr in executor:
                if not (isinstance(node.value, ast.Name) and node.value.id == "executor"):
                    found.append((path.stem, node.attr))
    assert found == []


ROUNDING_LITERALS = {2.0**-53, 2.0**-49, 2.0**-24, 1e-6}


def _literal(node: ast.AST) -> float | None:
    """The value of a numeric literal, or of a power or product of them."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _literal(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow, ast.Mult)):
        left, right = _literal(node.left), _literal(node.right)
        if left is not None and right is not None:
            return float(left) ** right if isinstance(node.op, ast.Pow) else left * right
    return None


def test_rounding_literals_live_in_the_rounding_section():
    # One rounding model: u = 2^-53, 2^-24 and the Frobenius slack 1e-6 are
    # spelled only in `linalg`'s Rounding section (from its header comment to
    # the last of its two predicates), and nothing spells 16 u = 2^-49 or any
    # of them elsewhere: every other module reads the section's names.
    text = (SRC / "linalg.py").read_text()
    tree = ast.parse(text)
    start = text.splitlines().index("# Rounding") + 1
    end = next(
        stmt.end_lineno
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "_frobenius_at_least"
    )
    found, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _literal(node) not in ROUNDING_LITERALS:
                continue
            if path.stem == "linalg" and start <= node.lineno <= end:
                inside += 1
            else:
                found.append((path.stem, node.lineno))
    assert found == []
    assert inside == 3  # 2^-53, 2^-24 and 1e-6
