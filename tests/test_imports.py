"""Import-time contract of the package."""

import ast
import importlib
import inspect
import subprocess
import sys
import tomllib
from pathlib import Path

import fracspace
from fracspace.harness import SUITES, run_suite


def test_package_does_not_import_scipy_signal():
    # SciPy's signal-processing subpackage pulls in stats, interpolate and
    # ndimage and used to dominate the package's cold start; the resolvents
    # need only scipy.linalg.lapack, and every convolution is numpy.fft's
    src = str(Path(fracspace.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fracspace; "
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy.signal')); "
            "print(loaded); sys.exit(bool(loaded))")
    run = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, f"scipy.signal loaded by 'import fracspace': {run.stdout}{run.stderr}"


# scipy.integrate loads scipy.optimize and scipy.sparse.linalg with it (18 MB
# of maximum resident memory and 246 modules of every cold start); the
# package's integrals take fixed rules from fracspace._quad instead, and
# tests keep quad as an oracle
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize")


def test_package_does_not_import_scipy_integrate_or_optimize():
    package = Path(fracspace.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names] + [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if any(name == m or name.startswith(m + ".") for m in HEAVY_SCIPY)]
    assert found == []


def test_quadrature_suites_load_no_scipy_integrate():
    # the suites that compute c_sigma, the Bessel-kernel integrals and the
    # Schur constants run at their defaults without loading either module
    src = str(Path(fracspace.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fracspace\n"
            "from fracspace.harness import run_suite\n"
            "failed = [name for name in ('c-sigma', 'bessel-kernel', 'schur-constants')\n"
            "          if not run_suite(name).passed]\n"
            f"loaded = sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules)\n"
            "print(failed, loaded); sys.exit(bool(failed or loaded))")
    run = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, f"{run.stdout}{run.stderr}"


def test_one_fft_product_on_numpy_fft():
    # _conv.convolve is the one place that multiplies a kept spectrum into
    # transformed data: no module imports scipy.fft or a transform by name
    # (np.fft is reached as a module attribute, which tests count through);
    # the inverse transforms are irfft, there and in the zero-padding
    # interpolation of halfline._upsampled_values, and ifft, for complex
    # data in _conv.convolve only
    package = Path(fracspace.__file__).resolve().parent
    imports, inverse = [], {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [f"{path.name}: {a.name}" for a in node.names if "fft" in a.name]
            elif isinstance(node, ast.ImportFrom):
                imports += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                            if "fft" in f"{node.module}.{a.name}"]
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr.startswith(("ifft", "irfft")):
                    inverse.setdefault(node.attr, set()).add(
                        f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert imports == []
    assert inverse == {"ifft": {"_conv.convolve"},
                       "irfft": {"_conv.convolve", "halfline._upsampled_values"}}


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
    tests = Path(__file__).resolve().parent
    paths = sorted(package.glob("*.py")) + sorted(tests.glob("*.py"))
    unused = [entry for path in paths for entry in _unused_top_level_imports(path)]
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


def _package_modules() -> list[tuple[str, ast.Module]]:
    """(stem, tree) of every package module; the re-exports of __init__
    are not package code that reads anything."""
    package = Path(fracspace.__file__).resolve().parent
    return [(path.stem, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]


def _top_level_name(node: ast.stmt) -> str | None:
    """The name a top-level function, class or constant defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1 \
            and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def test_every_top_level_definition_is_read():
    # a function, class or constant that no other package code loads is
    # public surface that nothing checks
    defined, reads = [], []
    for module, tree in _package_modules():
        for node in tree.body:
            owner = _top_level_name(node)
            if owner is not None:
                defined.append((module, owner))
            reads.append((module, owner, _loaded_names(node)))
    unread = [f"{module}.{name}" for module, name in defined
              if name not in READ_BY_TESTS_ONLY
              and not any((name in names or f"{module}.{name}" in names)
                          and (where, owner) != (module, name)
                          for where, owner, names in reads)]
    assert unread == []


def _enclosed(tree: ast.AST, kinds) -> list[tuple[ast.AST, tuple]]:
    """Every node of one of ``kinds`` under ``tree``, with the function
    definitions that enclose it, outermost first."""
    found = []
    stack = [(tree, ())]
    while stack:
        node, owners = stack.pop()
        if isinstance(node, kinds):
            found.append((node, owners))
        if isinstance(node, ast.FunctionDef):
            owners = owners + (node,)
        stack.extend((child, owners) for child in ast.iter_child_nodes(node))
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _members(tree: ast.Module):
    """(class, method) for every non-dunder method or property of a class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield node, item


def _overrides_outside_package(module: str, cls: str, name: str) -> bool:
    """Whether ``name`` overrides a member of a base class from outside the
    package (``cli._Parser.error``), which that base's own code reads."""
    live = getattr(importlib.import_module(f"fracspace.{module}"), cls)
    return any(hasattr(base, name) for base in live.__mro__[1:]
               if base.__module__.split(".")[0] != "fracspace")


def test_every_method_is_read():
    # a method or property that no package code outside its own body loads
    # is surface only tests reach; ``Other.name`` reads Other's member only,
    # and an override of a base from outside the package is read by its base
    modules = _package_modules()
    classes = {cls.name for _, tree in modules for cls, _ in _members(tree)}
    loads = [(node.attr, node.value.id if isinstance(node.value, ast.Name) else None, owners)
             for _, tree in modules
             for node, owners in _enclosed(tree, ast.Attribute)
             if isinstance(node.ctx, ast.Load)]
    unread = [f"{module}.{cls.name}.{fn.name}"
              for module, tree in modules for cls, fn in _members(tree)
              if not any(attr == fn.name and fn not in owners
                         and (base == cls.name or base not in classes)
                         for attr, base, owners in loads)
              and not _overrides_outside_package(module, cls.name, fn.name)]
    assert unread == []


# defaulted parameters that only tests set: the node-by-node side of the
# dense Hardy operator (test_dense_path_matches_node_path) and the fiber
# dimension of the C^n-valued property tests
SET_BY_TESTS_ONLY = {("hardy_hilbert_apply", "nodes"), ("generate_test_family", "fiber_dim")}


def _defaulted_parameters(fn: ast.FunctionDef, method: bool):
    """(name, position or None, default) of each defaulted parameter of
    ``fn``; positions of a method count after self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    for i, (arg, default) in enumerate(zip(positional[first:], args.defaults)):
        yield arg.arg, first + i - skip, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _same_value(node: ast.AST, default: ast.AST) -> bool:
    """Whether an argument spells the parameter's default (passing it
    explicitly sets nothing)."""
    if ast.unparse(node) == ast.unparse(default):
        return True
    try:
        return ast.literal_eval(node) == ast.literal_eval(default)
    except ValueError:
        return False


def _sets(call: ast.Call, name: str, position, default: ast.AST) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return True
    passed = [k.value for k in call.keywords if k.arg == name]
    if position is not None and position < len(call.args):
        passed.append(call.args[position])
    return any(not _same_value(value, default) for value in passed)


def _set_from_outside(modules) -> set[str]:
    """Functions whose parameters the command line sets: the console entry
    points of pyproject.toml and the functions in ``cli.APPLY_OPS``, whose
    keyword parameters are --params keys."""
    project = Path(fracspace.__file__).resolve().parents[2] / "pyproject.toml"
    scripts = tomllib.loads(project.read_text())["project"]["scripts"]
    tree = dict(modules)["cli"]
    table = next(node.value for node in tree.body if _top_level_name(node) == "APPLY_OPS")
    return ({target.rpartition(":")[2] for target in scripts.values()}
            | {v.id if isinstance(v, ast.Name) else v.attr for v in table.values})


def test_every_defaulted_parameter_is_set():
    # a default that no package call overrides, by keyword or by position,
    # is a single-value knob: a constant or dead branch in disguise
    modules = _package_modules()
    exempt = _set_from_outside(modules)
    calls = [(node.func.id if isinstance(node.func, ast.Name) else node.func.attr, node, owners)
             for _, tree in modules for node, owners in _enclosed(tree, ast.Call)
             if isinstance(node.func, (ast.Name, ast.Attribute))]
    methods = {fn for _, tree in modules for _, fn in _members(tree)}
    unset = []
    for module, tree in modules:
        for fn, _ in _enclosed(tree, ast.FunctionDef):
            if fn.name in exempt or _is_dunder(fn.name):
                continue
            for name, position, default in _defaulted_parameters(fn, fn in methods):
                if (fn.name, name) in SET_BY_TESTS_ONLY:
                    continue
                if not any(callee == fn.name and fn not in owners
                           and _sets(call, name, position, default)
                           for callee, call, owners in calls):
                    unset.append(f"{module}.{fn.name}({name}=)")
    assert unset == []


def test_grid_kind_checks_live_in_grid():
    # the kind an operator needs is checked by grid._require_kind; a raise
    # directly under a test on ``.kind`` elsewhere is a hand-written copy
    copies = [f"{module}.py:{node.lineno}"
              for module, tree in _package_modules() if module != "grid"
              for node in ast.walk(tree)
              if isinstance(node, ast.If)
              and any(isinstance(n, ast.Attribute) and n.attr == "kind"
                      for n in ast.walk(node.test))
              and any(isinstance(stmt, ast.Raise) for stmt in node.body + node.orelse)]
    assert copies == []


def test_one_grid_size_ladder():
    # every refinement study walks the grid sizes through harness._ladder; a
    # loop over _ALL_N elsewhere is a hand-written ladder
    tree = dict(_package_modules())["harness"]
    loops = [f"harness.py:{node.iter.lineno} in {owners[-1].name if owners else '<module>'}"
             for node, owners in _enclosed(tree, (ast.For, ast.comprehension))
             if any(isinstance(n, ast.Name) and n.id == "_ALL_N" for n in ast.walk(node.iter))
             and [fn.name for fn in owners] != ["_ladder"]]
    assert loops == []


def test_no_running_maximum_in_harness():
    # a family maximum goes through harness._sup, which keeps a NaN; a
    # running ``x = max(x, ...)`` from 0.0 drops it
    tree = dict(_package_modules())["harness"]
    running = [f"harness.py:{node.lineno}"
               for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
               and isinstance(node.value.func, ast.Name) and node.value.func.id == "max"
               and {t.id for t in node.targets if isinstance(t, ast.Name)}
               & {a.id for a in node.value.args if isinstance(a, ast.Name)}]
    assert running == []


def test_one_relative_l2_formula_in_harness():
    # every relative gap ||a - b|| / ||b|| is harness._rel_l2
    def quotients(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
                and all(isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
                        and side.func.id == "weighted_lp_norm" for side in (n.left, n.right))
                and n.left.args and isinstance(n.left.args[0], ast.BinOp)
                and isinstance(n.left.args[0].op, ast.Sub)]

    tree = dict(_package_modules())["harness"]
    (rel_l2,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_rel_l2"]
    assert len(quotients(rel_l2)) == 1
    assert [f"harness.py:{n.lineno}" for node in tree.body if node is not rel_l2
            for n in quotients(node)] == []


def test_suite_tolerances_are_pinned():
    # a run takes its inputs only; each suite writes its gates as literals
    # and reads its parameter table from a module constant, so no caller can
    # loosen a gate or move a sweep entry
    assert list(inspect.signature(run_suite).parameters) == ["suite", "seed", "out_dir"]
    assert all(inspect.isfunction(suite) for suite in SUITES.values())
    reads = [f"{name}.py:{node.lineno}" for name, tree in _package_modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("tolerances", "sweeps")]
    assert reads == []


def test_suite_grids_take_the_pinned_half_width():
    # every suite places its inputs and closed forms at absolute positions,
    # so each grid harness builds has half width harness._HALF_WIDTH, never
    # one read from a config or a caller
    def width(call):
        given = call.args[:1] + [k.value for k in call.keywords if k.arg == "half_width"]
        return given[0] if len(given) == 1 else None

    tree = dict(_package_modules())["harness"]
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Grid"]
    assert calls
    assert [f"harness.py:{call.lineno}" for call in calls
            if not (isinstance(width(call), ast.Name) and width(call).id == "_HALF_WIDTH")] == []


def test_grid_frequencies_read_by_the_table_build_and_the_oracle_only():
    # every symbol is a table kept per (symbol, grid) by
    # fourier._symbol_values, which alone evaluates and checks it on the
    # grid frequencies; a read elsewhere would be a per-call evaluation
    # (transform_values is the test oracle of the transform)
    reads = sorted(f"{module}.{owners[0].name if owners else '<module>'}"
                   for module, tree in _package_modules()
                   for node, owners in _enclosed(tree, ast.Attribute)
                   if node.attr == "frequencies" and isinstance(node.ctx, ast.Load))
    assert reads == ["fourier._symbol_values", "fourier.transform_values"]
