import json
from fractions import Fraction

from wcoset import verify as ver
from wcoset.report import emit_report, render_json


def small_report():
    rep = ver.Report("demo", {"n": 2, "pair": "sl"})
    rep.add("item-a", [1, 2], [1, 2])
    rep.per_degree.append(ver.PerDegree(0, 1, 1))
    rep.per_degree.append(ver.PerDegree(1, 0, 0))
    return rep


def test_json_schema_fields():
    obj = json.loads(emit_report(small_report(), "json", "demo"))
    assert set(obj) == {"command", "inputs", "items", "per_degree", "status"}
    assert obj["items"][0] == {"id": "item-a", "expected": "[1, 2]",
                               "computed": "[1, 2]", "equal": True}
    assert obj["per_degree"][0] == {"degree": 0, "dim_left": 1, "dim_right": 1,
                                    "equal": True}
    assert obj["status"] == "pass"


def test_json_round_trip_bytes():
    data = emit_report(small_report(), "json")
    assert render_json(json.loads(data)) == data


def test_csv_two_sided_and_single():
    data = emit_report(small_report(), "csv").decode()
    assert data.splitlines()[0] == "degree,dim_left,dim_right,equal"
    rep = ver.Report("kernel", {})
    rep.per_degree.append(ver.PerDegree(0, 5))
    data = emit_report(rep, "csv").decode()
    assert data.splitlines() == ["degree,dim", "0,5"]


def test_text_status_line_last():
    lines = emit_report(small_report(), "text").decode().strip().splitlines()
    assert lines[-1] == "status: pass"


def test_failure_status():
    rep = ver.Report("demo", {})
    rep.add("bad", 1, 2)
    assert rep.status == "fail"
    obj = json.loads(emit_report(rep, "json"))
    assert obj["status"] == "fail"


def test_state_and_expr_strings():
    from wcoset import catalog as cat
    from wcoset.fields import state_of_field, lc_str
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    sys = spec.system
    v = state_of_field(sys, spec.generator_map["E21"])
    assert "c(-" in lc_str(sys, v)
