"""Run one ``bqfield run`` in this process and write what was measured.

Usage: python3 perfbench/child.py JOB.json

The job file names the scenario, the output directory, the check's
expectations, the run id and whether to trace.  The parent process starts one
child per run, so every run pays its own imports, FFT plans and page faults,
as a user of ``bqfield run`` does.

Untraced, the only instrumentation is one perf_counter pair per step, at the
runner -> step_rk4 boundary.  Traced, ``spans.Tracer`` wraps every layer and
the second step also runs under tracemalloc.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import spans
import workloads


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    import bqfield
    from bqfield import cli, runner, scenario

    tracer = None
    if job["trace"]:
        tracer = spans.Tracer(job["run_id"])
        tracer.install()
    step = runner.step_rk4
    clock = time.perf_counter
    t_in, t_out = [], []
    last = []
    alloc_peak = []

    def untraced_step(state, *args, **kwargs):
        t = clock()
        new = step(state, *args, **kwargs)
        t_out.append(clock())
        t_in.append(t)
        last[:] = [new[0]]
        return new

    def traced_step(state, *args, **kwargs):
        if len(last) == 1 and not alloc_peak:  # the second step
            tracemalloc.start()
            new = step(state, *args, **kwargs)
            alloc_peak.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        else:
            new = step(state, *args, **kwargs)
        last[:] = [new[0]]
        return new

    runner.step_rk4 = traced_step if tracer else untraced_step
    entry = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    argv = ["run", job["scenario"], "--out", job["out"], "--reference"]
    t0 = clock()
    code = entry(argv)
    t_end = clock()
    n_spans = len(tracer.spans) if tracer else 0  # the check below is not part of the run
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def initial():
        return runner.build_state(scenario.load_scenario(job["scenario"]))[0]

    ok, detail = workloads.check(job["expect"], code, initial, last[0] if last else None, job["out"])
    out = Path(job["out"])
    result = {
        "run_id": job["run_id"],
        "exit_code": code,
        "ok": bool(ok),
        "detail": detail,
        "bqfield_version": bqfield.__version__,
        "t0": t0,
        "t_end": t_end,
        "t_in": t_in,
        "t_out": t_out,
        "peak_rss_mb": rss_mb,
        "output_bytes": sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0,
    }
    if tracer:
        result["spans"] = tracer.spans[:n_spans]
        result["alloc_peak_mb"] = alloc_peak[0] if alloc_peak else 0.0
    tmp = job["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
