"""The benchmark's own tests; not part of the repository's test suite.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import DELAYKIT, Checker, json_safe  # noqa: E402


def test_self_times_of_nested_fake_spans():
    S = tracing.Span
    spans = [
        S("cli.main", 0.0, 10.0, None),
        S("forecast.rolling_evaluate", 1.0, 4.0, 0),
        S("metrics.h_mase", 2.0, 3.0, 1),
        S("systems.generate_flow_trace", 5.0, 9.0, 0),
        S("systems.integrate_rk4", 5.5, 8.5, 3),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 3.0]
    busy = tracing.module_self_times(spans)
    assert busy["cli"] == 3.0
    assert busy["forecast"] == 2.0
    assert busy["metrics"] == 1.0
    assert busy["systems"] == 4.0
    assert busy["topology"] == 0.0


def test_recorder_links_parents_and_counts():
    rec = tracing.Recorder()

    def inner(n):
        return list(range(n))

    wrapped_inner = rec.wrap("systems.inner", inner, lambda a, r: {"n": a["n"]})

    def outer():
        return wrapped_inner(3) + wrapped_inner(n=2)

    assert rec.wrap("cli.outer", outer)() == [0, 1, 2, 0, 1]
    names = [s.name for s in rec.spans]
    assert names == ["cli.outer", "systems.inner", "systems.inner"]
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert [s.info for s in rec.spans[1:]] == [{"n": 3}, {"n": 2}]


def test_patched_restores_every_wrapped_attribute():
    recorder = tracing.Recorder()
    targets = tracing.delaykit_targets(recorder, DELAYKIT)
    before = {(id(m), a): getattr(m, a) for m, a, _ in targets}
    with tracing.Patched(targets):
        for m, a, _ in targets:
            assert getattr(m, a) is not before[(id(m), a)]
        est = DELAYKIT["estimators"]
        est.ksg_mutual_information([0.1, 0.5, 0.2, 0.9, 0.4, 0.3],
                                   [0.2, 0.4, 0.1, 0.8, 0.5, 0.3], k=2)
    for m, a, _ in targets:
        assert getattr(m, a) is before[(id(m), a)]
    names = {s.name for s in recorder.spans}
    assert {"estimators.ksg_mutual_information", "estimators.knn",
            "estimators.ball_count"} <= names


def test_patched_restores_after_an_exception():
    recorder = tracing.Recorder()
    targets = tracing.delaykit_targets(recorder, DELAYKIT)
    before = [getattr(m, a) for m, a, _ in targets]
    with pytest.raises(RuntimeError):
        with tracing.Patched(targets):
            raise RuntimeError("boom")
    assert [getattr(m, a) for m, a, _ in targets] == before


def test_meter_divides_each_stretch_by_the_slowdown_at_its_ends():
    now = [0.0]
    slowdowns = iter([1.0, 3.0, 2.0])

    def sample():
        now[0] += 0.5  # sampling takes time, which is left out
        return next(slowdowns)

    with speed.Meter(sample, clock=lambda: now[0], every_s=1.0) as meter:
        now[0] += 0.4
        speed.boundary()  # too soon after the last sample: none taken
        now[0] += 0.8
        speed.boundary()  # 1.2 s between slowdowns 1 and 3
        now[0] += 0.6  # 0.6 s between slowdowns 3 and 2, closed on exit
    assert meter.wall == pytest.approx(1.8)
    assert meter.calibrated == pytest.approx(1.2 / 2.0 + 0.6 / 2.5)
    assert meter.sampling == pytest.approx(1.5)
    speed.boundary()  # no pass running: nothing to mark


@pytest.mark.parametrize("record", [
    {"atau": [0.5, 0.25], "argmax": [2, 1]},
    {"mase": 0.8, "n_test": 10},
    {"pe": 0.9, "ell": 5},
    {"sha256": "ab" * 32, "samples": 100},
    {"beta0_counts": [3, 2, 1], "beta1_counts": [0, 1, 0]},
    {"beta0": 1, "beta1": 2, "edges": 10, "triangles": 4},
])
def test_a_perturbed_output_counts_as_failed(record):
    assert checks.compare(record, record) == []
    assert checks.compare(checks.perturb(record), record) != []


def test_float_outputs_pass_within_their_tolerance():
    assert checks.compare({"atau": [0.5 + 1e-8]}, {"atau": [0.5]}) == []
    assert checks.compare({"mase": 0.8 * (1 + 1e-8)}, {"mase": 0.8}) == []
    assert checks.compare({"wpe": 0.7 + 1e-6}, {"wpe": 0.7}) != []


def test_mase_oracle_matches_random_walk_definition():
    values = [1.0, 3.0, 2.0, 5.0, 4.0, 4.0, 6.0, 3.0, 8.0, 7.0]
    run = DELAYKIT["forecast"].rolling_evaluate(values, 0.6, "random_walk")
    oracle = checks.rw_mase_oracle(np.array(values), 0.6)
    assert run.score.value == pytest.approx(oracle, rel=1e-12)


TINY = {
    "l96_workflow": {"steps": 2500, "transient": 500},
    "param_selection": {"henon_n": 300, "logistic_n": 300, "l96_steps": 2500,
                        "henon_m": range(1, 4), "henon_tau": range(1, 3),
                        "logistic_m": range(1, 3), "logistic_tau": range(1, 3),
                        "l96_tau": range(1, 4)},
    "trace_ensemble": {"members": 2, "l96_steps": 300, "l63_steps": 400,
                       "rossler_steps": 400, "map_n": 1500},
    "witness_topology": {"l63_steps": 2000, "xi_grid": 6, "barcode_ell": 40,
                         "lifespan_m": range(1, 4), "lifespan_ell": 40,
                         "large_n": 3000, "large_ell": 40},
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_pass_of_every_workload_is_checked(name, tmp_path):
    workload = workloads.make(name, str(tmp_path / "work"))
    workload.SIZE = {**workload.SIZE, **TINY[name]}
    try:
        inputs = workload.build(workloads.DEFAULT_SEED)
        raw = workload.run(inputs)
        reference = json_safe(workload.summarize(inputs, raw))
        assert workload.check(inputs, raw, reference) == {}
        assert set(reference) == set(workload.OPS)

        # a second pass reproduces the recorded outputs
        good = Checker(workload, inputs, reference)
        good(workload.run(inputs))
        assert (good.attempted, good.failed) == (len(workload.OPS), 0), good.messages

        # a reference that disagrees in one output fails exactly that op
        op = sorted(reference)[0]
        wrong = dict(reference, **{op: checks.perturb(reference[op])})
        bad = Checker(workload, inputs, wrong)
        bad(workload.run(inputs))
        assert bad.failed == 1
        assert bad.messages[0].startswith(op)
    finally:
        workload.close()


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace_ensemble",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_metric_the_run_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = list(tracing.layer_metrics([], 1, 1.0)) + ["bench.cpu_s",
                                                         "bench.trace_overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == printed
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert run.NAMES == workloads.NAMES
