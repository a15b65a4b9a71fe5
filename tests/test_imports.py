"""Import-time contract of the package."""

import ast
import subprocess
import sys
from pathlib import Path

import fracspace


def test_package_does_not_import_scipy_signal():
    # SciPy's signal-processing subpackage pulls in stats, interpolate and
    # ndimage and used to dominate the package's cold start; the resolvents
    # and convolutions need only scipy.linalg.lapack and scipy.fft
    src = str(Path(fracspace.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fracspace; "
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy.signal')); "
            "print(loaded); sys.exit(bool(loaded))")
    run = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, f"scipy.signal loaded by 'import fracspace': {run.stdout}{run.stderr}"


def _unused_top_level_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_no_unused_top_level_imports():
    # a name listed in __all__ is a re-export, so it counts as used
    package = Path(fracspace.__file__).resolve().parent
    unused = [entry for path in sorted(package.glob("*.py"))
              for entry in _unused_top_level_imports(path)]
    assert unused == []


# top-level definitions that only tests read: the oracle of
# test_plancherel and the reference of test_gn_ratios_equal_the_scalar_path
READ_BY_TESTS_ONLY = {"transform_values", "wkp_seminorm"}


def _loaded_names(node: ast.AST) -> set[str]:
    """Names that the code under ``node`` loads, bare (``f``) or through a
    module (``mod.f``); annotations are skipped, and docstrings and string
    literals hold no names."""
    names = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Name) and isinstance(cur.ctx, ast.Load):
            names.add(cur.id)
        elif (isinstance(cur, ast.Attribute) and isinstance(cur.ctx, ast.Load)
              and isinstance(cur.value, ast.Name)):
            names.add(f"{cur.value.id}.{cur.attr}")
        for field, value in ast.iter_fields(cur):
            if field in ("annotation", "returns"):
                continue
            stack.extend(child for child in (value if isinstance(value, list) else [value])
                         if isinstance(child, ast.AST))
    return names


def test_every_top_level_definition_is_read():
    # a definition that no other package code loads is public surface that
    # nothing checks; the re-exports of __init__ do not count as reads
    package = Path(fracspace.__file__).resolve().parent
    defined, reads = [], []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if owner is not None:
                defined.append((path.stem, owner))
            reads.append((path.stem, owner, _loaded_names(node)))
    unread = [f"{module}.{name}" for module, name in defined
              if name not in READ_BY_TESTS_ONLY
              and not any((name in names or f"{module}.{name}" in names)
                          and (where, owner) != (module, name)
                          for where, owner, names in reads)]
    assert unread == []
