"""The bqfield benchmark: seeded ``bqfield run`` workloads, timed end to end.

Usage, from the root of a bqfield source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client: each run is ``bqfield.cli.main(["run", SCENARIO,
"--out", DIR, "--reference"])`` in a fresh child process, one at a time,
until the next run would end after S seconds (at least one run, or one
untraced and one traced run with --trace 1).  FFTs use one worker and the
child pins BLAS/OpenMP threads to 1.  Every run's result is checked outside
the timed region; a run fails if the child or ``bqfield run`` exits non-zero
or the check fails.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(alternating untraced and traced runs, for trace.overhead_ratio).  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Scratch files go under .perfbench_work/ and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import provenance
import spans
import workloads

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_s.p50": "s",
    "step_s.p75": "s",
    "cell_steps_per_s": "cells/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "operators.fft_s": "s/step",
    "operators.fft_calls_per_step": "count/step",
    "operators.transforms_per_step": "count/step",
    "operators.fft_flops_computed_per_step": "flop/step",
    "operators.fft_gflops_computed": "GFLOP/s",
    "operators.grad_self_s": "s/step",
    "operators.div_self_s": "s/step",
    "operators.curl_self_s": "s/step",
    "operators.laplacian_self_s": "s/step",
    "operators.dealias_self_s": "s/step",
    "evolution.step_s": "s/step",
    "evolution.rk_combine_self_s": "s/step",
    "evolution.rhs_s": "s/step",
    "evolution.rhs_self_s": "s/step",
    "evolution.rhs_calls_per_step": "count/step",
    "evolution.step_alloc_peak_mb": "MiB",
    "biquaternion.cdot_s": "s/step",
    "biquaternion.ccross_s": "s/step",
    "fields.decompose_s": "s/step",
    "diagnostics.sample_s": "s/sample",
    "diagnostics.sample_self_s": "s/sample",
    "diagnostics.transforms_per_sample": "count/sample",
    "diagnostics.field_totals_per_sample": "count/sample",
    "diagnostics.state_copies_per_sample": "count/sample",
    "diagnostics.charge_s": "s/sample",
    "diagnostics.poynting_s": "s/sample",
    "diagnostics.first_law_s": "s/sample",
    "diagnostics.box_rho_s": "s/sample",
    "diagnostics.freeness_s": "s/sample",
    "diagnostics.reciprocity_s": "s/sample",
    "diagnostics.energy_decomposition_s": "s/sample",
    "diagnostics.integral_sample_s": "s/sample",
    "diagnostics.integral_finalize_s": "s",
    "scenario.parse_s": "s",
    "runner.build_state_s": "s",
    "runner.output_s": "s",
    "runner.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def child_env(root: Path) -> dict:
    """Source tree on the path, one BLAS/OpenMP thread, and a fixed hash seed so
    set and dict order, and with it the traced allocation peak, repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({k: "1" for k in provenance.THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(work: Path, env: dict, job: dict) -> dict | None:
    """Run one child; return its result dict, or None if it did not produce one."""
    job_path = work / f"{job['run_id']}.job.json"
    job_path.write_text(json.dumps(job))
    log = work / f"{job['run_id']}.log"
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                cwd=work, env=env, stdout=fh, stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"{job['run_id']}: child timed out", file=sys.stderr)
            return None
    result = Path(job["result"])
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text()[-2000:]
        print(f"{job['run_id']}: child exited {proc.returncode}\n{tail}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def end_to_end(runs: list[dict], points: int, fields: int) -> dict[str, float]:
    iterations = []
    stepping = 0.0
    cell_steps = 0
    for r in runs:
        iterations += list(np.diff(r["t_in"]))
        stepping += sum(b - a for a, b in zip(r["t_in"], r["t_out"]))
        cell_steps += points * fields * len(r["t_in"])
    p50, p75 = np.percentile(iterations, [50, 75])
    return {
        "run_s": statistics.median(r["t_end"] - r["t0"] for r in runs),
        "setup_s": statistics.median(r["t_in"][0] - r["t0"] for r in runs),
        "step_s.p50": float(p50),
        "step_s.p75": float(p75),
        "cell_steps_per_s": cell_steps / stepping,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def steps_of(r: dict) -> int:
    if "spans" in r:
        return sum(1 for s in r["spans"] if s[0] == "evolution.step_rk4")
    return len(r["t_in"])


def per_layer(traced: list[dict], untraced: list[dict], points: int) -> dict[str, float]:
    per_run = []
    for r in traced:
        m = spans.layer_metrics(r["spans"], steps_of(r), points)
        m["evolution.step_alloc_peak_mb"] = r["alloc_peak_mb"]
        m["runner.output_bytes"] = r["output_bytes"]
        per_run.append(m)
    out = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    traced_s = statistics.median(r["t_end"] - r["t0"] for r in traced)
    out["trace.overhead_ratio"] = traced_s / statistics.median(r["t_end"] - r["t0"] for r in untraced)
    return out


def make_job(work: Path, scenario: Path, expect: dict, run_id: str, traced: bool) -> dict:
    return {"scenario": str(scenario), "out": str(work / f"{run_id}.out"), "expect": expect,
            "trace": traced, "run_id": run_id, "result": str(work / f"{run_id}.result.json")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "bqfield" / "__init__.py").is_file():
        print(f"error: no bqfield source tree under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args.workload, args.seed, args.seconds, args.trace, root, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another benchmark process still uses it


def measure(workload: str, seed: int, seconds: float, trace: int, root: Path, work: Path,
            start: float, size: tuple[int, int] | None = None) -> int:
    """Run the closed loop until ``start + seconds`` and print the result.

    ``size`` = (grid points per axis, steps) overrides the workload's size.
    """
    doc, expect = workloads.make_scenario(workload, seed, *(size or ()))
    text = json.dumps(doc, sort_keys=True)
    scenario = work / "scenario.json"
    scenario.write_text(text)
    n, fields = expect["n"], len(doc["initial_conditions"])
    points = n**3
    mach = provenance.machine()
    env = child_env(root)

    deadline = start + seconds
    longest = {False: 0.0, True: 0.0}
    results = {False: [], True: []}
    attempted = failed = 0
    version = None
    while True:
        traced = bool(trace) and attempted % 2 == 1
        required = attempted < (2 if trace else 1)
        if not required and time.monotonic() + longest[traced] > deadline:
            break
        run_id = f"run{attempted:03d}"
        job = make_job(work, scenario, expect, run_id, traced)
        t = time.monotonic()
        r = run_child(work, env, job)
        longest[traced] = max(longest[traced], time.monotonic() - t)
        shutil.rmtree(job["out"], ignore_errors=True)
        attempted += 1
        if r is None or not r["ok"]:
            failed += 1
        if r is None:
            continue
        version = r["bqfield_version"]
        kind = "traced" if traced else "untraced"
        print(f"{run_id} {kind}: exit {r['exit_code']}, check {'ok' if r['ok'] else 'FAILED'} "
              f"({r['detail']}), {steps_of(r)} steps, run {r['t_end'] - r['t0']:.3f} s")
        if steps_of(r) >= 2:
            results[traced].append(r)

    timed = results[False]
    if not timed or (trace and not results[True]):
        print("error: no run produced timings", file=sys.stderr)
        return 1
    passed = [r for r in timed if r["ok"]] or timed
    info = {
        "bqfield_version": version,
        "git_commit": provenance.git_commit(root),
        "src_sha256": provenance.src_sha256(root),
        "machine": mach,
        "inputs": provenance.workload_block(workload, seed, text, n, fields,
                                            mach["cache_bytes"]),
        "steps_per_run": expect["steps"],
        "step_samples": sum(len(r["t_in"]) - 1 for r in passed),
    }
    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"{len(passed)} timed runs of {expect['steps']} steps, "
          f"{info['step_samples']} step samples")
    if trace:
        traced_ok = [r for r in results[True] if r["ok"]] or results[True]
        values, units = per_layer(traced_ok, passed, points), PER_LAYER
    else:
        values, units = end_to_end(passed, points, fields), END_TO_END
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:.6g} {unit}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
