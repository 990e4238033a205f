"""Drive a scenario from initial data to its final time, recording diagnostics.

``run_scenario`` builds the state, steps it with the classical RK4 stepper,
feeds every step to the diagnostics engine, and (optionally) writes one CSV
per residual series plus a machine-readable ``summary.json``.  The exit code
convention is

    0   completed, no tolerance breached
    1   completed, at least one residual series exceeded its tolerance
    3   numerical abort (non-finite state), partial series are still written

(2, usage and parse errors, and 4, an unexpected error, are produced by the
CLI layer.  An unexpected error mid-run still writes the partial series and a
summary with exit code 4 and an ``error`` block, then propagates.)

``run_scenario`` sets ``sc.initial`` to None once ``build_state`` has run,
so a run holds its initial data only in its states (``build_state`` reads
the scenario's terms and never makes ``sc.initial``);
``build_state`` alone leaves the scenario as it is.  The summary's ``counters`` block holds
the process's peak RSS in MiB at the end of the run (``peak_rss_mb``, None
where the platform has no ``resource`` module).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import DiagnosticsEngine, ResidualSeries
from .evolution import NumericalAbort, SimState, _Coefficients, _Held, _advanced, _held_rows, step_rk4
from .operators import Nabla
from .scenario import Scenario, _densify

try:
    import resource
except ImportError:  # not on Windows
    resource = None

__all__ = ["RunReport", "build_state", "run_scenario"]


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size so far in MiB, or None where
    the platform has no ``resource`` module (ru_maxrss is in bytes on macOS,
    KiB elsewhere)."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (2**20 if sys.platform == "darwin" else 1024)


@dataclass(eq=False)
class RunReport:
    scenario: Scenario
    series: dict[str, ResidualSeries]
    exit_code: int
    steps_done: int
    tau_final: float
    wall_seconds: float
    delta_w: list = field(default_factory=list)
    classification: str | None = None
    abort: dict | None = None
    error: dict | None = None
    out_dir: Path | None = None
    counters: dict = field(default_factory=dict)

    def summary(self) -> dict:
        ser = {}
        for name, s in self.series.items():
            ser[name] = {
                "rows": len(s.rows),
                "max_linf": s.max_linf,
                "final": list(s.final) if s.final else None,
                "tolerance": s.tolerance,
                "breached": s.breached,
                "first_breach_tau": s.first_breach_tau,
            }
        return {
            "mode": self.scenario.mode,
            "n": list(self.scenario.grid.n),
            "dtau": self.scenario.grid.dtau,
            "steps": self.steps_done,
            "tau_final": self.tau_final,
            "wall_seconds": self.wall_seconds,
            "counters": self.counters,
            "series": ser,
            "delta_w": [[t, v] for t, v in self.delta_w],
            "classification": self.classification,
            "abort": self.abort,
            "error": self.error,
            "exit_code": self.exit_code,
        }


def build_state(sc: Scenario, workers: int = 1) -> tuple[SimState, Nabla]:
    """Assemble the initial simulation state and its derivative operator.

    The state is held as a stepped state is: the advanced channels as band
    coefficients, formed from the presets' rank-1 terms
    (``Nabla.band_of_terms``: 1-D transforms, no 3-D one and no grid-sized
    array but the band's), which step 1 takes as they are, and the held
    ones multiplied out, as a block held with its terms: step 1 takes only
    maxwell's J onto the band, where its source reads it, and checks the
    other rows on their terms (``_Held``).  ``U`` is made on first read,
    and is within round-off of the data's ``Nabla.dealias`` (central4 has
    no rule: of the data).  strong_field's background is its band made
    physical.
    """
    nabla = Nabla(sc.grid, scheme=sc.nabla_scheme, workers=workers)
    background = None  # the scheme's 2/3 rule, as the stepper applies it to the force
    if sc.background_terms is not None:
        background = nabla.from_spectrum(nabla.band_of_terms([sc.background_terms])[0])
    adv = _advanced(sc.mode)
    rows, held = _held_rows(adv), None
    if rows.start < rows.stop:
        terms = [t[rows] for t in sc.terms]
        held = _Held(nabla, rows, _densify(terms, sc.grid.n), terms)
    coef = _Coefficients(nabla, nabla.band_of_terms([t[adv] for t in sc.terms]), held)
    return SimState._held_as(0.0, coef, sc.grid, sc.medium, sc.mode, background), nabla


def run_scenario(
    sc: Scenario, out_dir: str | Path | None = None, workers: int = 1
) -> RunReport:
    t0 = time.perf_counter()
    out = None if out_dir is None else Path(out_dir)
    if out is not None:  # before the first step, so an unwritable directory costs no run
        out.mkdir(parents=True, exist_ok=True)
    state, nabla = build_state(sc, workers=workers)
    sc.initial = None  # the run holds its initial data only in its states
    engine = DiagnosticsEngine(nabla, sc.diagnostics)
    engine.sample(state, 0)
    abort: dict | None = None
    steps_done = 0

    def finish(error: dict | None = None) -> RunReport:
        series = engine.finalize()
        breached = any(s.breached for s in series.values())
        exit_code = 4 if error else 3 if abort else 1 if breached else 0
        report = RunReport(
            scenario=sc,
            series=series,
            exit_code=exit_code,
            steps_done=steps_done,
            tau_final=state.tau,
            wall_seconds=time.perf_counter() - t0,
            delta_w=engine.delta_w,
            classification=engine.classification,
            abort=abort,
            error=error,
            counters={"peak_rss_mb": _peak_rss_mb()},
        )
        if out is not None:
            for name, s in series.items():
                s.to_csv(out / f"{name}.csv")
            with open(out / "summary.json", "w") as fh:
                json.dump(report.summary(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            report.out_dir = out
        return report

    try:
        for step in range(1, sc.steps + 1):
            try:
                state, _ = step_rk4(state, nabla, sc.stepper, steps_done=steps_done)
            except NumericalAbort as exc:
                abort = {"tau": exc.tau, "steps": exc.steps, "reason": str(exc)}
                break
            steps_done = step
            engine.sample(state, step)
    except Exception as exc:  # a program fault: write what ran, then re-raise
        finish({"type": type(exc).__name__, "message": str(exc), "tau": state.tau, "steps": steps_done})
        raise
    return finish()
