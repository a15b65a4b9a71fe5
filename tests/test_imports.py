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
