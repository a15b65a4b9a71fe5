"""``scripts/compare_reports._compare`` on reports built in memory: cases pair
by their params and repeat index, not by position."""

import copy
import importlib.util
import math
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _case(params, value, measured=None):
    return {"params": params, "value": value, "reference": 0.0, "tol": 1e-8,
            "pass": True, "measured": measured or {}}


def _report(cases):
    return {"suite": "demo", "config_hash": "0" * 16, "warnings": {},
            "cases": cases, "refinement": [{"N": 256, "value": 1.0, "stability_ratio": None}],
            "runtime_s": 1.0}


BASE = _report([
    _case({"what": "a", "p": 2.0}, 1e-9, {"values": [3.0, 2.0, 1.0]}),
    _case({"what": "b"}, 2e-9),
    _case({"what": "c", "theta": 0.5}, 3e-9),
])


def _compare(head, rtol=0.0, atol=0.0):
    return compare_reports._compare(BASE, head, rtol, "demo", atol)


def test_an_inserted_case_appears_and_the_others_stay_matched():
    head = copy.deepcopy(BASE)
    head["cases"].insert(1, _case({"what": "new"}, 5.0))
    worst, diffs = _compare(head)
    assert diffs == ['demo cases[{"what": "new"}] appeared']
    assert worst == 0.0


def test_measured_float_compares_within_rtol():
    head = copy.deepcopy(BASE)
    head["cases"][0]["measured"]["values"][1] = 2.0 + 2e-13
    worst, diffs = _compare(head, rtol=1e-12)
    assert diffs == [] and 0.0 < worst <= 1e-12
    _, diffs = _compare(head, rtol=0.0)
    assert len(diffs) == 1 and ".measured.values[1]" in diffs[0]


def test_a_changed_params_float_is_one_case_gone_and_one_new():
    head = copy.deepcopy(BASE)
    head["cases"][2]["params"]["theta"] = 0.5 + 1e-15
    _, diffs = _compare(head, rtol=1e-6)
    assert len(diffs) == 2
    assert diffs[0].startswith('demo cases[{"theta": 0.5, "what": "c"}]')
    assert diffs[0].endswith(" disappeared")
    assert diffs[1].endswith(" appeared") and "0.500000000000001" in diffs[1]


def test_cases_with_equal_params_pair_by_repeat_index():
    base = _report([_case({"what": "twin"}, 1.0), _case({"what": "twin"}, 2.0)])
    assert compare_reports._compare(base, copy.deepcopy(base), 0.0, "demo") == (0.0, [])
    head = copy.deepcopy(base)
    head["cases"][1]["value"] = 3.0
    _, diffs = compare_reports._compare(base, head, 0.0, "demo")
    assert diffs == ['demo cases[{"what": "twin"}][repeat 1].value: 2.0 vs 3.0 (rel 0.333)']


def test_non_finite_strings_compare_equal_and_differ_from_floats():
    base = _report([_case({"what": "bound"}, 1.0)])
    base["cases"][0]["reference"] = "Infinity"
    assert compare_reports._compare(base, copy.deepcopy(base), 0.0, "demo") == (0.0, [])
    head = copy.deepcopy(base)
    head["cases"][0]["reference"] = 4.0
    _, diffs = compare_reports._compare(base, head, 1.0, "demo")
    assert diffs == ["demo cases[{\"what\": \"bound\"}].reference: 'Infinity' != 4.0"]


def test_absolute_floor_passes_a_rounding_move_of_a_small_residual():
    # a residual of 7.3e-8 moved by 1e-15: relative 1.4e-8, absolute 1e-15
    base = _report([_case({"what": "residual"}, 7.3e-8)])
    head = copy.deepcopy(base)
    head["cases"][0]["value"] = 7.3e-8 + 1e-15
    for atol in (0.0, 1e-16):
        _, diffs = compare_reports._compare(base, head, 1e-12, "demo", atol)
        assert len(diffs) == 1 and ".value" in diffs[0]
    worst, diffs = compare_reports._compare(base, head, 1e-12, "demo", 1e-14)
    assert diffs == [] and worst > 1e-12


def test_absolute_floor_defaults_to_zero():
    head = copy.deepcopy(BASE)
    head["cases"][1]["value"] = 2e-9 + 1e-20
    assert len(_compare(head)[1]) == 1
    assert _compare(head, atol=1e-19)[1] == []


def test_absolute_floor_keeps_non_finite_values_apart():
    base = _report([_case({"what": "bound"}, 1.0)])
    for value in (math.inf, math.nan):
        head = copy.deepcopy(base)
        head["cases"][0]["value"] = value
        _, diffs = compare_reports._compare(base, head, 0.0, "demo", 1e300)
        assert len(diffs) == 1 and ".value" in diffs[0]
