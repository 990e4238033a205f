"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/repeat.py [--seeds N] [--workload NAME ...] [--seconds S]
                                [--trace 0|1] [--json OUT]

For every workload it runs ``perfbench/run.py`` once per seed 0..N-1 and
prints, per metric, the median of the N values and the quartile spread
(Q3 - Q1) / median, with quartiles from ``statistics.quantiles(n=4)``.  A
metric is steady when that spread is well inside its bound in
BENCHMARK.json.  ``--json`` writes the summary, every run's result and the
provenance block to a file (``baseline.json`` is one).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import provenance

HERE = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write the summary and every run's result here")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    record = {}
    all_correct = True
    for w in args.workload or names:
        runs = []
        for seed in range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            all_correct &= res["correct"]
            runs.append(res)
            print(f"{w} seed {seed}: attempted {res['attempted']} failed {res['failed']}",
                  flush=True)
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        record[w] = {"summary": summary, "runs": runs}
        print(f"{w}: {'metric':42s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name, s in summary.items():
            bound = bounds.get(name)
            print(f"  {name:42s} {s['median']:12.6g} {s['spread']:8.4f} "
                  f"{'' if bound is None else bound:>6} {runs[0]['metrics'][name]['unit']}")
    if args.json:
        root = Path.cwd()
        doc = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
               "git_commit": provenance.git_commit(root), "src_sha256": provenance.src_sha256(root),
               "machine": provenance.machine(), "workloads": record}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
