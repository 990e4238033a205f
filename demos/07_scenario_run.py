"""Drive a full run from a scenario document and read back the written series.

The same document works from the command line:
    bqfield run scenario.json --out outdir
Exit codes: 0 all tolerances held, 1 a tolerance was breached, 2 unusable
input, 3 the run aborted on non-finite values, 4 an unexpected error of the
program while loading or running the scenario.

Run with: python3 demos/07_scenario_run.py
"""

import json
import pathlib
import tempfile

import numpy as np

from bqfield.runner import run_scenario
from bqfield.scenario import parse_scenario

n = 16
dtau = 0.25 * 2 * np.pi / n
doc = {
    "description": "circular plane wave, one quarter period",
    "mode": "maxwell",
    "grid": {"n": [n, n, n]},
    "duration": 16 * dtau,
    "initial_conditions": [
        {
            "afield": {
                "type": "plane_wave",
                "k": [0.0, 0.0, 1.0],
                "polarization": {"re": [1.0, 0.0, 0.0], "im": [0.0, 1.0, 0.0]},
            }
        }
    ],
    "diagnostics": [
        {"name": "charge", "cadence": 1, "tolerance": 1e-8},
        {"name": "poynting", "cadence": 1, "tolerance": 1e-5},
    ],
}

scenario = parse_scenario(doc)
with tempfile.TemporaryDirectory() as td:
    report = run_scenario(scenario, out_dir=td)
    print(f"exit code {report.exit_code}, {report.steps_done} steps to tau = "
          f"{report.tau_final:.4f}, wall {report.wall_seconds:.2f}s")
    for name, series in report.series.items():
        print(f"  series {name}: {len(series.rows)} rows, max Linf = "
              f"{series.max_linf:.3e}")
    out = pathlib.Path(td)
    print("\nfiles written:", sorted(p.name for p in out.iterdir()))
    summary = json.loads((out / "summary.json").read_text())
    print("summary keys:", sorted(summary.keys()))
    print("first rows of charge.csv:")
    for line in (out / "charge.csv").read_text().splitlines()[:3]:
        print(" ", line)
