"""Compare the suite reports of two git revisions.

    python3 scripts/compare_reports.py BASE [HEAD] --seeds 1,5,10,42 --rtol 1e-12

Checks out BASE and HEAD (default ``HEAD``) into two temporary git worktrees,
runs ``fracspace run all --seed S --out DIR`` in each for every seed, and
removes the worktrees afterwards.  Each pair of reports is compared in
``config_hash``, ``warnings``, ``cases`` and ``refinement`` (not
``runtime_s``).  Cases pair by key: their ``params`` (inputs only, compared
exactly) and the index of the repeat among cases with equal params; a case
whose key is in one report only is one "appeared" or "disappeared" line.  A
pair of cases is compared in ``value``, ``reference``, ``tol``, ``pass`` and
``measured``, refinement levels place by place.  Every float is compared
within the relative tolerance ``rtol`` and the absolute floor ``atol``,
|a - b| <= max(rtol max(|a|, |b|), atol) with NaN equal only to NaN (the
floor lets a residual that is a small difference of O(1) quantities move at
rounding level); everything else (strings such as "Infinity", integers, pass
flags, keys, lengths) with ``==``.

Prints the largest relative difference of each suite over all seeds and
every field that differs, and exits 1 when any does, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the report fields compared place by place (``cases`` pair by key, and
#: ``runtime_s`` is not compared)
PLACED = ("config_hash", "warnings", "refinement")
#: the fields of a case compared once its params have paired it
CASE_FIELDS = ("value", "reference", "tol", "pass", "measured")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _run_reports(tree: Path, seeds, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for seed in seeds:
        run = subprocess.run([sys.executable, "-m", "fracspace.cli", "run", "all",
                              "--seed", str(seed), "--out", str(out / str(seed))],
                             cwd=tree, env=env, capture_output=True, text=True)
        if run.returncode not in (0, 1):  # 1: a tolerance failed, still a report
            raise RuntimeError(f"fracspace run all --seed {seed} in {tree} exited "
                               f"{run.returncode}: {run.stderr.strip()}")


def _relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values and for two NaNs, inf when
    only one is NaN or only one is infinite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def _leaves(a, b, path: str):
    """(path, a, b, relative difference) for every pair of floats at the same
    place in two JSON trees, and (path, a, b, None) for every other pair of
    places that differ: strings, integers, booleans, keys or lengths."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from _leaves(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _leaves(x, y, f"{path}[{i}]")
    elif isinstance(a, float) and isinstance(b, float):
        yield path, a, b, _relative(a, b)
    elif type(a) is not type(b) or a != b:
        yield path, a, b, None


def _keyed(cases: list) -> dict:
    """Cases by key: their params as canonical JSON and the index of the
    repeat among the cases with equal params."""
    keyed, seen = {}, Counter()
    for case in cases:
        params = json.dumps(case["params"], sort_keys=True)
        keyed[params, seen[params]] = case
        seen[params] += 1
    return keyed


def _label(key: tuple) -> str:
    params, repeat = key
    return f"cases[{params}]" + (f"[repeat {repeat}]" if repeat else "")


def _compare(base: dict, head: dict, rtol: float, where: str,
             atol: float = 0.0) -> tuple[float, list]:
    """(largest relative difference between floats, differences) of two reports."""
    worst, diffs = 0.0, []
    base_cases, head_cases = _keyed(base["cases"]), _keyed(head["cases"])
    trees = [(key, base[key], head[key]) for key in PLACED]
    for key, case in base_cases.items():
        if key not in head_cases:
            diffs.append(f"{where} {_label(key)} disappeared")
            continue
        trees.append((_label(key), {f: case.get(f) for f in CASE_FIELDS},
                      {f: head_cases[key].get(f) for f in CASE_FIELDS}))
    diffs += [f"{where} {_label(key)} appeared" for key in head_cases if key not in base_cases]
    for name, a_tree, b_tree in trees:
        for path, a, b, rel in _leaves(a_tree, b_tree, name):
            if rel is None:
                diffs.append(f"{where} {path}: {a!r} != {b!r}")
                continue
            worst = max(worst, rel)
            if not (rel <= rtol or abs(a - b) <= atol):
                diffs.append(f"{where} {path}: {a!r} vs {b!r} (rel {rel:.3g})")
    return worst, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    parser.add_argument("--seeds", default="1,5,10,42",
                        help="comma-separated seeds (default 1,5,10,42)")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance on report values (default 0)")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="absolute floor on report value differences (default 0)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    revisions = [_git("rev-parse", "--verify", f"{rev}^{{commit}}")
                 for rev in (args.base, args.head)]
    scratch = Path(tempfile.mkdtemp(prefix="compare-reports-"))
    worst, diffs = {}, []
    try:
        for name, rev in zip(("base", "head"), revisions):
            _git("worktree", "add", "--detach", str(scratch / name), rev)
            _run_reports(scratch / name, seeds, scratch / f"{name}-reports")
        for seed in seeds:
            base_dir, head_dir = (scratch / f"{name}-reports" / str(seed)
                                  for name in ("base", "head"))
            names = sorted(p.stem for p in base_dir.glob("*.json"))
            head_names = sorted(p.stem for p in head_dir.glob("*.json"))
            if names != head_names:
                diffs.append(f"seed {seed}: suites {names} != {head_names}")
            for suite in sorted(set(names) & set(head_names)):
                base = json.loads((base_dir / f"{suite}.json").read_text())
                head = json.loads((head_dir / f"{suite}.json").read_text())
                rel, found = _compare(base, head, args.rtol, f"seed {seed} {suite}", args.atol)
                worst[suite] = max(worst.get(suite, 0.0), rel)
                diffs += found
    finally:
        for name in ("base", "head"):
            if (scratch / name).exists():
                _git("worktree", "remove", "--force", str(scratch / name))
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"base {revisions[0][:12]}  head {revisions[1][:12]}  seeds {args.seeds}  "
          f"rtol {args.rtol:g}  atol {args.atol:g}")
    for suite, rel in sorted(worst.items()):
        print(f"  {suite:28s} largest relative difference {rel:.3g}")
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
