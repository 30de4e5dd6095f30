"""Tests of the benchmark itself: run with `python3 -m pytest bench`."""

import json
import random
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import run
import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


NEST = """
def outer(n):
    clock.advance(1)
    if n:
        outer(n - 1)
    middle()
    clock.advance(1)

def middle():
    clock.advance(2)
    inner()
    clock.advance(2)

def inner():
    clock.advance(4)
    return [1, 2, 3]
"""


def test_self_time_on_synthetic_nest():
    clock = FakeClock()
    mod = types.ModuleType("nest")
    mod.clock = clock
    exec(NEST, vars(mod))

    def inner_counts(out):
        clock.advance(8)  # the tracer's own inspection time
        return {"items": len(out), "max_items": len(out)}

    tr = tracer.Tracer(clock=clock)
    plan = [(mod, "outer", "outer", None, True), (mod, "middle", "middle", None, False),
            (mod, "inner", "inner", inner_counts, False)]
    with tr.installed(plan, [mod]):
        mod.outer(1)
    tot = tracer.summarize(tr.spans)
    # outer(0) runs inside outer(1): one span, its time counted once
    assert tot["outer"] == {"s": 20.0, "self_s": 4.0, "calls": 1}
    assert tot["middle"] == {"s": 16.0, "self_s": 8.0, "calls": 2}
    assert tot["inner"] == {"s": 8.0, "self_s": 8.0, "calls": 2,
                            "items": 6, "max_items": 3}
    parents = {rec[tracer.LAYER]: rec[tracer.PARENT] for rec in tr.spans}
    assert parents["outer"] is None
    assert tr.spans[parents["inner"]][tracer.LAYER] == "middle"
    assert mod.outer.__name__ == "outer" and not hasattr(mod.outer, "__wrapped__")


def test_patches_every_import_site_and_restores():
    from wcoset import cli, fields, fock, linalg, report, screening, verify
    sites = {
        screening: ["enumerate_basis", "mode_apply", "rank", "mat_mul", "kernel_basis"],
        verify: ["residue_map", "joint_kernel", "compose_check", "mode_apply",
                 "current_gram"],
        cli: ["residue_map", "joint_kernel", "emit_report"],
        fields: ["mode_apply", "ope_singular", "current_gram"],
        fock: ["enumerate_basis"],
        linalg: ["rank", "mat_mul", "kernel_basis"],
        report: ["emit_report"],
    }
    before = {(m, a): getattr(m, a) for m, attrs in sites.items() for a in attrs}
    with tracer.Tracer().installed(tracer.wcoset_plan(), tracer.wcoset_sites()):
        for (m, a), original in before.items():
            assert getattr(m, a).__wrapped__ is original, f"{m.__name__}.{a}"
        assert hasattr(verify.check_resolution, "__wrapped__")
    for (m, a), original in before.items():
        assert getattr(m, a) is original, f"{m.__name__}.{a} not restored"
    assert not hasattr(verify.check_resolution, "__wrapped__")


def test_traced_pass_is_transparent_and_counts_outermost_calls():
    from wcoset import verify
    from wcoset.fock import graded_dimension
    plain = verify.check_rank1_ff_duality(Fraction(7, 2), 3)
    tr = tracer.Tracer()
    with tr.installed(tracer.wcoset_plan(), tracer.wcoset_sites()):
        traced = verify.check_rank1_ff_duality(Fraction(7, 2), 3)
    assert traced == plain
    tot = tracer.summarize(tr.spans)
    from wcoset import catalog
    sys_ = catalog.rank1_ff(Fraction(7, 2)).system
    states = sum(graded_dimension(sys_, sys_.zero_momentum(), range(4)))
    # residue_map applies the screening once per source state; the recursion
    # inside mode_apply adds no calls
    assert tot["fields.mode_apply"]["calls"] == 2 * states
    assert tot["screening.residue_map"]["calls"] == 2
    assert tot["verify"]["calls"] == 1
    assert "linalg.rank.sym" not in tot
    assert tot["linalg.rank.q"]["max_in_bits"] >= 1
    for layer in tot.values():
        assert 0 <= layer["self_s"] <= layer["s"] + 1e-9


def test_rank_split_by_entry_field():
    from wcoset import linalg
    from wcoset.scalars import T
    tr = tracer.Tracer()
    with tr.installed(tracer.wcoset_plan(), tracer.wcoset_sites()):
        assert linalg.rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
        assert linalg.rank([[T, Fraction(1)], [Fraction(1), T]]) == 2
    tot = tracer.summarize(tr.spans)
    assert tot["linalg.rank.q"]["calls"] == 1
    assert tot["linalg.rank.q"]["max_in_bits"] == 3
    assert tot["linalg.rank.sym"]["calls"] == 1
    assert tot["linalg.rank.sym"]["cells"] == 4


def test_nominal_seconds_scale_by_sampled_speed():
    # samples at twice the reference time: the machine ran at half speed
    assert speed.nominal(3.0, [2 * speed.REF_S] * 4) == pytest.approx(1.5)
    # half the time at each speed
    assert speed.nominal(3.0, [speed.REF_S, 2 * speed.REF_S]) == pytest.approx(2.25)


def test_speedometer_samples_while_the_block_runs():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as sm:
        t_end = time.perf_counter() + 4 * speed.SAMPLE_EVERY
        while time.perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sm.samples) >= 2
    assert sm.busy == pytest.approx(sm.elapsed - sum(sm.samples))
    assert sm.seconds == speed.nominal(sm.busy, sm.samples)


# ---------------------------------------------------------------------------
# gates: a wrong expectation must fail
# ---------------------------------------------------------------------------

def failed(results):
    return [(name, problems) for name, problems in results if problems]


def test_resolution_gate_negative_control():
    inputs = {"k1": Fraction(-19, 7), "k2": Fraction(16, 7)}
    good = workloads.resolution_checks(inputs, expected_dims=[1, 4])
    assert failed(workloads.run_checks(good)) == []
    wrong = workloads.resolution_checks(inputs, expected_dims=[1, 5])
    (name, problems), = failed(workloads.run_checks(wrong))
    assert name == "resolution k1=-19/7 k2=16/7"
    assert problems == ["kernel dims [1, 4] != [1, 5]"]


def test_duality_gate_negative_control():
    inputs = {"k1": [Fraction(-14, 5)]}
    good = workloads.duality_checks(inputs, sl2_dims=[1, 0, 1, 2])
    assert failed(workloads.run_checks(good)) == []
    wrong = workloads.duality_checks(inputs, sl2_dims=[1, 0, 1, 3])
    (name, problems), = failed(workloads.run_checks(wrong))
    assert name.startswith("duality sl n=2 k1=-14/5")
    assert problems == ["kernel dims [1, 0, 1, 2] != [1, 0, 1, 3]"]


def test_exception_fails_the_check():
    def boom():
        raise ZeroDivisionError("pivot")
    (name, problems), = workloads.run_checks([workloads.Check("x", boom)])
    assert problems == ["ZeroDivisionError: pivot"]


def test_battery_gate():
    ok = b'{"status": "pass"}\n'
    assert workloads.battery_gate(0, ok, None) == []
    assert workloads.battery_gate(0, ok, ok) == []
    assert workloads.battery_gate(1, b'{"status": "fail"}', None) == [
        "exit code 1", "report status fail"]
    assert workloads.battery_gate(0, ok, b'{"status": "pass"}') == [
        "report bytes differ from the first pass with this seed"]


# ---------------------------------------------------------------------------
# inputs and the benchmark definition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert workloads.sample_inputs(workload, 7) == workloads.sample_inputs(workload, 7)
    assert any(workloads.sample_inputs(workload, 7) != workloads.sample_inputs(workload, s)
               for s in range(8, 12))


def test_levels_are_generic():
    from wcoset import catalog as cat
    rng = random.Random(0)
    for _ in range(200):
        k = workloads.sample_level(rng)
        assert k.denominator == 7
        for pair, n in (("sl", 2), ("so", 2), ("so", 3)):
            assert not cat.is_admissible_k1(pair, n, k)
    for seed in range(50):
        for k1 in workloads.sample_inputs("duality", seed)["k1"]:
            assert k1 > 0
            for pair, n in (("sl", 2), ("so", 3)):
                lv = cat.LevelData.from_k1(pair, n, k1)
                sets = lv.excluded_sets()
                assert k1 not in sets["S1"] and lv.k2 not in sets["S2"]


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
