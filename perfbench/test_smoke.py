"""Smoke test of the benchmark itself, on tiny grids.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in BENCHMARK.json is printed with its
unit, that span self times add up to the traced run time, that the
deterministic counters repeat across runs and seeds, that each workload's
check passes on three seeds and fails on a wrong expectation, and that the
benchmark refuses to run without a source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"maxwell-64": (8, 2), "united-32-diag": (12, 6), "free-64-central4": (8, 2)}

# Counts that do not depend on field content or timing.
COUNTERS = (
    "operators.fft_calls_per_step",
    "operators.transforms_per_step",
    "operators.fft_flops_computed_per_step",
    "evolution.rhs_calls_per_step",
    "diagnostics.transforms_per_sample",
    "diagnostics.field_totals_per_sample",
    "diagnostics.state_copies_per_sample",
    "evolution.step_alloc_peak_mb",
)


@pytest.fixture
def work():
    """Scratch directory inside the checkout, as the benchmark itself uses."""
    path = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def tiny(workload, seed):
    n, steps = TINY[workload]
    return workloads.make_scenario(workload, seed, n=n, steps=steps)


def measure(workload, trace, work, capsys, seed=0):
    code = run.measure(workload, seed, 0, trace, ROOT, work, time.monotonic(),
                       size=TINY[workload])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1]), lines


def child(workload, seed, trace, work, run_id="r0", expect=None):
    doc, exp = tiny(workload, seed)
    scenario = work / f"{run_id}.scenario.json"
    scenario.write_text(json.dumps(doc))
    job = run.make_job(work, scenario, expect or exp, run_id, trace)
    result = run.run_child(work, run.child_env(ROOT), job)
    assert result is not None
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace, work, capsys):
    res, lines = measure(workload, trace, work, capsys)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1 + trace
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"]) for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_add_up_to_traced_run(workload, work):
    r = child(workload, 0, True, work)
    own = spans.self_times(r["spans"])
    roots = [s for s in r["spans"] if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]
    assert sum(own) == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9)
    assert sum(own) == pytest.approx(r["t_end"] - r["t0"], rel=1e-3)
    assert min(own) > -1e-9


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_across_runs_and_seeds(workload, work):
    n, steps = TINY[workload]
    counts = []
    for i, seed in enumerate((0, 0, 1)):
        r = child(workload, seed, True, work, run_id=f"r{i}")
        m = spans.layer_metrics(r["spans"], steps, n**3)
        m["evolution.step_alloc_peak_mb"] = r["alloc_peak_mb"]
        counts.append({k: m[k] for k in COUNTERS})
    assert counts[0] == counts[1] == counts[2]
    assert (counts[0]["operators.transforms_per_step"] == 0) == (workload == "free-64-central4")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_passes_on_three_seeds(workload, work):
    for seed in range(3):
        r = child(workload, seed, False, work, run_id=f"s{seed}")
        assert r["ok"], r["detail"]


def _wrong(workload, expect):
    expect = dict(expect)
    if workload == "maxwell-64":
        expect["hand"] = -expect["hand"]
    elif workload == "free-64-central4":
        expect["dtau"] = 2 * expect["dtau"]
    else:
        expect["tolerances"] = {k: v * 1e-12 for k, v in expect["tolerances"].items()}
    return expect


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_expectation_counts_as_failed(workload, work, capsys, monkeypatch):
    make = workloads.make_scenario

    def wrong(w, seed, n=None, steps=None):
        doc, expect = make(w, seed, n, steps)
        return doc, _wrong(w, expect)

    monkeypatch.setattr(run.workloads, "make_scenario", wrong)
    res, _ = measure(workload, 0, work, capsys)
    assert not res["correct"] and res["failed"] == res["attempted"] == 1


def test_refuses_to_run_without_source_tree(work):
    shutil.copy(ROOT / "BENCHMARK.json", work)
    shutil.copytree(HERE, work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "maxwell-64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
