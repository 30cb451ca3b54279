"""Fast tests of the benchmark itself, on reduced inputs.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import speedref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from zndevans import modelbench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def points():
    """evans_points cut down to the three methods at the first node, tol 1e-5."""
    wl = workloads.evans_points(seed=7)
    wl.ops = [op for op in wl.ops if op.key == wl.ops[0].key]
    assert [op.group for op in wl.ops] == ["D_neutral_s", "D_erpenbeck_s", "D_lee_stewart_s"]
    return wl


def test_declared_metrics_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.BY_NAME)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units(tracing.LAYERS)


def test_reported_metric_names(points, tmp_path):
    out = run.measure(points, 0.0, run.Tally())
    assert set(out["metrics"]) | {"setup_s"} == set(run.END_TO_END)
    traced = run.measure_traced(points, 0.0, run.Tally(), tmp_path / "trace.json")
    assert set(traced["metrics"]) == set(run.per_layer_units(tracing.LAYERS))


def test_sampler_time_is_taken_out_of_durations(points):
    previous = signal.getsignal(signal.SIGALRM)
    with speedref.Sampler() as sampler:
        t0 = time.perf_counter()
        durs, results = run.run_pass(points, sampler=sampler)
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 2
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert sum(durs) + sampler.spent == pytest.approx(wall, abs=2e-3)
    assert points.check(points.ops, results) == [None, None, None]


def test_gate_passes_then_trips_on_perturbed_reference(points):
    _, results = run.run_pass(points)
    assert points.check(points.ops, results) == [None, None, None]
    key = points.ops[0].key
    saved = points.reference[key]
    points.reference[key] = saved * (1 + 1e-2)
    try:
        messages = points.check(points.ops, results)
    finally:
        points.reference[key] = saved
    assert all(m is not None and "D_ref" in m for m in messages)


def test_gate_trips_on_cross_method_disagreement(points):
    _, results = run.run_pass(points)
    neutral = results[0]
    results[0] = dataclasses.replace(neutral, D=neutral.D * (1 + 1e-2))
    messages = points.check(points.ops, results)
    assert "D_ref" in messages[0]
    assert all("neutral" in m for m in messages[1:])


def test_traced_counts_equal_untraced(points, tmp_path):
    tally = run.Tally()
    out = run.measure_traced(points, 0.0, tally, tmp_path / "trace.json")
    assert tally.failed == 0, tally.messages
    assert tally.attempted == 2 * len(points.ops) + 1
    m = out["metrics"]
    assert m["evans.evaluate.calls"] == 3
    assert m["znd.x_of_y.calls"] == 2  # Erpenbeck and Lee-Stewart
    assert m["znd.profile_at.calls"] >= m["evans.rhs.calls"] > 0  # Erpenbeck calls it twice
    assert m["znd.profile_deriv.calls"] > 0
    assert m["modelbench.rhs.calls"] == 0
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert {s["name"] for s in doc["spans"]} >= {"harness", "evans.evaluate", "numerics.integrate"}


def test_tracer_counts_model_rhs_and_restores_bindings():
    params = modelbench.ModelParams(c_decay=10.0, lam=4.0)
    plain = modelbench.run_cell(params, "unfactored", "backward").stats
    original = modelbench.integrate_adaptive_scaled
    tracer = tracing.Tracer()
    with tracer:
        traced = tracer.root(modelbench.run_cell, params, "unfactored", "backward").stats
    assert modelbench.integrate_adaptive_scaled is original
    assert (traced.accepted_steps, traced.rhs_evaluations) == (plain.accepted_steps, plain.rhs_evaluations)
    assert tracer.totals["modelbench.rhs"][0] == plain.rhs_evaluations == tracer.counters["rhs_evaluations"]
    wall = tracer.totals[tracing.ROOT][1]
    assert tracer.self_time_sum() == pytest.approx(wall, rel=1e-9)


def test_seed_jitters_inputs_only_by_the_fixed_amount():
    a = workloads.contour_count(seed=1)
    b = workloads.contour_count(seed=2)
    again = workloads.contour_count(seed=1)
    keys = [op.key for op in a.ops]
    assert keys == [op.key for op in again.ops]
    assert keys != [op.key for op in b.ops]
    for (wave, jittered), (name, radius) in zip(keys, workloads.CONTOUR_CASES):
        assert wave == name
        assert 0 < abs(jittered / radius - 1) <= workloads.JITTER
