"""``scripts/bench_layers.cold_start``: imports timed from a copy of ``src``
whose bytecode cache an untimed import wrote."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", _SCRIPT)
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)


def _caches(root: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in root.rglob("__pycache__/*")}


def test_cold_start_records_a_warm_cache_and_leaves_the_checkout_alone(monkeypatch):
    monkeypatch.setattr(bench_layers, "COLD_STARTS", 1)
    src = bench_layers.ROOT / "src"
    before = _caches(src)
    block = bench_layers.cold_start()
    assert _caches(src) == before
    assert block["runs"] == 1 and block["bytecode_cache"] == "warm"
    assert block["import_s"] > 0 and block["modules"] > 0
