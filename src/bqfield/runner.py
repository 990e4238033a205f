"""Drive a scenario from initial data to its final time, recording diagnostics.

``run_scenario`` builds the state, steps it with the classical RK4 stepper,
feeds every step to the diagnostics engine, and (optionally) writes one CSV
per residual series plus a machine-readable ``summary.json``.  The exit code
convention is

    0   completed, no tolerance breached
    1   completed, at least one residual series exceeded its tolerance
    3   numerical abort (non-finite state), partial series are still written

(2, usage and parse errors, and 4, an unexpected error, are produced by the
CLI layer.)
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsEngine, ResidualSeries
from .evolution import NumericalAbort, SimState, step_rk4
from .operators import Nabla
from .scenario import Scenario

__all__ = ["RunReport", "build_state", "run_scenario"]


@dataclass(eq=False)
class RunReport:
    scenario: Scenario
    series: dict[str, ResidualSeries]
    exit_code: int
    steps_done: int
    tau_final: float
    wall_seconds: float
    constraint_drift_max: float | None
    delta_w: list = field(default_factory=list)
    classification: str | None = None
    abort: dict | None = None
    out_dir: Path | None = None

    def summary(self) -> dict:
        ser = {}
        for name, s in self.series.items():
            ser[name] = {
                "rows": len(s.rows),
                "max_linf": s.max_linf,
                "final": list(s.final) if s.final else None,
                "tolerance": s.tolerance,
                "breached": s.breached,
            }
        return {
            "mode": self.scenario.mode,
            "n": list(self.scenario.grid.n),
            "dtau": self.scenario.grid.dtau,
            "steps": self.steps_done,
            "tau_final": self.tau_final,
            "wall_seconds": self.wall_seconds,
            "series": ser,
            "delta_w": [[t, v] for t, v in self.delta_w],
            "classification": self.classification,
            "constraint_drift_max": self.constraint_drift_max,
            "abort": self.abort,
            "exit_code": self.exit_code,
        }


def build_state(sc: Scenario, workers: int = 1) -> tuple[SimState, Nabla]:
    """Assemble the initial simulation state and its derivative operator."""
    grid = sc.grid
    nabla = Nabla(grid, scheme=sc.nabla_scheme, workers=workers)
    M = len(sc.fields)
    U = np.zeros((M, 7) + grid.n, dtype=np.complex128)
    for k, (A0, rho0, J0) in enumerate(sc.fields):
        U[k, 0:3] = A0
        U[k, 3] = rho0
        U[k, 4:7] = J0
    background = sc.background
    if sc.stepper.dealias:
        U = nabla.dealias(U)
        if background is not None:
            background = nabla.dealias(background)
    state = SimState(
        tau=0.0, U=U, grid=grid, medium=sc.medium, mode=sc.mode, background=background
    )
    return state, nabla


def run_scenario(
    sc: Scenario, out_dir: str | Path | None = None, workers: int = 1
) -> RunReport:
    t0 = time.perf_counter()
    out = None if out_dir is None else Path(out_dir)
    if out is not None:  # before the first step, so an unwritable directory costs no run
        out.mkdir(parents=True, exist_ok=True)
    state, nabla = build_state(sc, workers=workers)
    engine = DiagnosticsEngine(sc.grid, sc.medium, sc.mode, nabla, sc.diagnostics)
    engine.sample(state, 0)
    drift_max: float | None = None
    abort: dict | None = None
    steps_done = 0
    for step in range(1, sc.steps + 1):
        try:
            state, drift = step_rk4(state, nabla, sc.stepper, steps_done=steps_done)
        except NumericalAbort as exc:
            abort = {"tau": exc.tau, "steps": exc.steps, "reason": str(exc)}
            break
        steps_done = step
        if drift is not None:
            drift_max = drift if drift_max is None else max(drift_max, drift)
        engine.sample(state, step)
    series = engine.finalize()
    breached = any(s.breached for s in series.values())
    exit_code = 3 if abort is not None else (1 if breached else 0)
    report = RunReport(
        scenario=sc,
        series=series,
        exit_code=exit_code,
        steps_done=steps_done,
        tau_final=state.tau,
        wall_seconds=time.perf_counter() - t0,
        constraint_drift_max=drift_max,
        delta_w=engine.delta_w,
        classification=engine.classification,
        abort=abort,
    )
    if out is not None:
        for name, s in series.items():
            s.to_csv(out / f"{name}.csv")
        with open(out / "summary.json", "w") as fh:
            json.dump(report.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        report.out_dir = out
    return report
