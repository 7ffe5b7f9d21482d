"""Tests of the benchmark itself: statistics, checks, tracing, compare and
a tiny run of every workload."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
from risbench import checks, stats, tracing  # noqa: E402
from risbench.workloads import WORKLOADS  # noqa: E402
from risload import harness  # noqa: E402
from risload.baselines import no_ris  # noqa: E402
from risload.harness import ResultRow  # noqa: E402
from risload.ica import ica  # noqa: E402
from risload.coupling import (NonConvergence, PhaseConfig,  # noqa: E402
                              fixed_point_loads)
from risload.scenario import Domain, Layout, PathLossParams, generate_scenario  # noqa: E402

SMOKE_SEED = 987_654

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def tiny_scenario(demand=0.02, seed=3):
    layout = Layout(num_cells=2, cell_radius=300.0, ris_per_cell=1,
                    elements_per_ris=2, ues_per_cell=2, wraparound=False)
    return generate_scenario(layout, PathLossParams(), demand, seed)


# --- statistics -------------------------------------------------------------

def test_median_and_quartiles():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        stats.median([])


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(100, 0, -1))          # 1..100, unsorted
    pct, value = stats.tail_percentile(xs)
    assert (pct, value) == (90.0, 90.0)
    assert sum(x > value for x in xs) == 10
    assert stats.tail_percentile(range(1, 26)) == (50.0, 13.0)
    assert stats.tail_percentile(range(1, 45)) == (75.0, 33.0)
    assert stats.tail_percentile(range(5000)) == (95.0, 4749.0)
    assert stats.tail_percentile(range(20)) == (50.0, 9.0)
    assert stats.tail_percentile(range(19)) == (50.0, 9.0)
    assert stats.tail_percentile([4.0]) == (50.0, 4.0)


def test_geometric_mean():
    assert math.isclose(stats.geometric_mean([1.0, 4.0, 16.0]), 4.0)
    with pytest.raises(ValueError):
        stats.geometric_mean([1.0, 0.0])


# --- correctness check -------------------------------------------------------

def test_check_accepts_baseline_and_optimizer_solutions():
    s = tiny_scenario()
    assert checks.check_solution(s, no_ris(s), "NoRIS", s.seed) == []
    sol = ica(s, Domain.ideal())
    assert checks.check_solution(s, sol, "ICA-D1", s.seed) == []


def test_check_trips_on_corrupted_solution():
    s = tiny_scenario()
    sol = no_ris(s)
    loads = sol.loads * 1.01
    scaled = dataclasses.replace(sol, loads=loads,
                                 total_load=float(np.sum(loads)))
    problems = checks.check_solution(s, scaled, "NoRIS", s.seed)
    assert any("reference fixed point" in p for p in problems)
    flipped = dataclasses.replace(sol, feasible=not sol.feasible)
    assert any("feasible" in p
               for p in checks.check_solution(s, flipped, "NoRIS", s.seed))
    phases = dataclasses.replace(sol.phases, phi=sol.phases.phi + 0.5)
    moved = dataclasses.replace(sol, phases=phases)
    assert any("definition" in p
               for p in checks.check_solution(s, moved, "NoRIS", s.seed))


def _error_row(s, token="NoRIS"):
    return ResultRow(token, 0.02, s.seed, math.nan, False, 0, 0.0,
                     "NonConvergence: load iteration diverged")


def test_divergence_is_verified_against_the_reference():
    s = tiny_scenario(demand=1000.0)
    with pytest.raises(NonConvergence) as info:
        no_ris(s)
    kind, problems = checks.classify(
        _error_row(s), checks.Outcome(s, error=info.value))
    assert (kind, problems) == (checks.INFEASIBLE, [])

    feasible = tiny_scenario()
    kind, problems = checks.classify(
        _error_row(feasible),
        checks.Outcome(feasible, error=NonConvergence("made up")))
    assert kind == checks.FAILED and problems

    # Out of iterations: a failed operation when the reference serves the
    # demand, infeasible when its fixed point has a load above 1.
    for demand, want in ((0.02, checks.FAILED), (10.0, checks.INFEASIBLE)):
        s = tiny_scenario(demand=demand)
        with pytest.raises(NonConvergence) as info:
            fixed_point_loads(s, PhaseConfig.zero(s), max_iter=2)
        kind, problems = checks.classify(
            _error_row(s), checks.Outcome(s, error=info.value))
        assert (kind, problems) == (want, [])


def test_check_passes_a_near_critical_instance():
    # About 10,400 load iterations to reach the reference tolerance, more
    # than fixed_point_loads' default budget.
    cfg = dataclasses.replace(WORKLOADS["load-eval"].config, demand=0.03)
    s = cfg.scenario(0.03, 77_710_232)
    sol = no_ris(s)
    assert sol.total_load > 100.0
    assert checks.check_solution(s, sol, "NoRIS", s.seed) == []


def test_row_must_report_its_solution():
    s = tiny_scenario()
    sol = no_ris(s)
    row = ResultRow("NoRIS", 0.02, s.seed, sol.total_load + 1e-9,
                    sol.feasible, 0, 0.0)
    kind, problems = checks.classify(row, checks.Outcome(s, solution=sol))
    assert kind == checks.OK
    assert any("does not report" in p for p in problems)


# --- tracing -----------------------------------------------------------------

def test_tracing_restores_the_program_and_nests_spans():
    original = (harness.ica, harness.generate_scenario)
    cfg = dataclasses.replace(
        WORKLOADS["ica-ideal"].config,
        layout=Layout(num_cells=2, cell_radius=300.0, ris_per_cell=1,
                      elements_per_ris=2, ues_per_cell=2, wraparound=False),
        seeds=(1,))
    sink, tracer = [], tracing.Tracer()
    with tracing.installed(sink, tracer):
        assert harness.ica is not original[0]
        table = tracer.wrap("harness", harness.run_experiment)(cfg)
    assert (harness.ica, harness.generate_scenario) == original
    assert len(sink) == len(table.rows) == 1
    layers = tracer.per_layer()
    assert layers["ica.calls"] == 1 and layers["cvxsub.solve.calls"] > 0
    assert layers["ica.sweeps"] == table.rows[0].sweeps
    names = {rec[0] for rec in tracer.spans}
    assert {"harness", "scenario.generate", "ica", "mm",
            "cvxsub.solve", "cvxsub.kkt"} <= names
    for name, start, end, parent, row, child in tracer.spans:
        assert start <= end and child <= end - start + 1e-9
        if name != "harness":
            assert tracer.spans[parent][1] <= start
            assert row == 0


# --- compare -----------------------------------------------------------------

def test_compare_labels():
    parent = [100.0 + i for i in range(10)]
    assert compare.label(parent, [p + 20 for p in parent], True, 0.1) == "better"
    assert compare.label(parent, [p - 20 for p in parent], True, 0.1) == "worse"
    assert compare.label(parent, [p - 20 for p in parent], False, 0.1) == "better"
    assert compare.label(parent, [p + 1 for p in parent], True, 0.1) == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert compare.label(noisy, noisy, True, 0.1) == "unresolved"
    assert compare.label(parent[:5], [p + 20 for p in parent[:5]], True,
                         0.1) == "unchanged"


# --- the command -------------------------------------------------------------

def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", str(SMOKE_SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _cleanup(workload, trace):
    out = os.path.join(ROOT, ".bench_results")
    for name in (f"{workload}-seed{SMOKE_SEED}-trace{trace}.json",
                 f"trace-{workload}-seed{SMOKE_SEED}.json"):
        path = os.path.join(out, name)
        if os.path.exists(path):
            os.remove(path)


@pytest.mark.parametrize("workload,trace", [
    ("ica-ideal", 1), ("decomp-fixed", 1), ("load-eval", 1), ("load-eval", 0),
])
def test_smoke_run_prints_every_metric(workload, trace):
    try:
        proc = _run(workload, trace)
    finally:
        _cleanup(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    for name in [m["name"] for m in SPEC["end_to_end"]] + (
            [m["name"] for m in SPEC["per_layer"]] if trace else []):
        assert any(ln.startswith(f"{name} ") and f" {UNITS[name]}" in ln
                   for ln in lines), name
    assert any(ln.startswith("failed_ratio ") for ln in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "load-eval":
        assert all(v == 0 for k, v in metrics.items()
                   if k.split(".")[0] in ("cvxsub", "mm", "ica"))
    if trace and workload == "decomp-fixed":
        assert metrics["cvxsub.solve.calls"] > 0
        assert all(v == 0 for k, v in metrics.items()
                   if k.split(".")[0] in ("mm", "ica"))
    if trace and workload == "ica-ideal":
        assert metrics["ica.sweeps"] > 0 and metrics["mm.iterations"] > 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("load-eval", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
