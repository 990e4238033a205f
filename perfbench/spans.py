"""In-memory spans around the public functions of each bqfield layer.

``Tracer.install`` wraps, from outside the package, every public function on
the ``bqfield run`` path.  A name imported into another module is a separate
binding, so each function is wrapped in every namespace it is called from
(``cdot`` and ``ccross`` in ``biquaternion``, ``evolution`` and
``diagnostics``; ``field_totals`` in ``evolution`` and ``diagnostics``).

A span is ``[name, start, end, parent index, units]``; ``units`` is the
number of single-channel 3-D transforms for the two FFT spans and 0 else.
Spans of one run share the tracer's run id.  ``layer_metrics`` turns one
run's spans into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

# span name -> bindings to wrap ("module.attr" or "module.Class.attr")
WRAPPED = {
    "scenario.load_scenario": ["cli.load_scenario"],
    "runner.run_scenario": ["cli.run_scenario"],
    "runner.build_state": ["runner.build_state"],
    "evolution.step_rk4": ["runner.step_rk4"],
    "evolution.state_rhs": ["evolution.state_rhs"],
    "evolution.field_totals": ["evolution.field_totals", "diagnostics.field_totals"],
    "evolution.SimState.copy": ["evolution.SimState.copy"],
    "operators.fftn": ["operators.Nabla.fftn"],
    "operators.ifftn": ["operators.Nabla.ifftn"],
    "operators.grad": ["operators.Nabla.grad"],
    "operators.div": ["operators.Nabla.div"],
    "operators.curl": ["operators.Nabla.curl"],
    "operators.laplacian": ["operators.Nabla.laplacian"],
    "operators.dealias": ["operators.Nabla.dealias"],
    "operators.apply_dminus": ["operators.apply_dminus"],
    "biquaternion.cdot": ["biquaternion.cdot", "evolution.cdot", "diagnostics.cdot"],
    "biquaternion.ccross": ["biquaternion.ccross", "evolution.ccross", "diagnostics.ccross"],
    "fields.decompose_afield": ["diagnostics.decompose_afield"],
    "fields.decompose_theta": ["diagnostics.decompose_theta"],
    "diagnostics.sample": ["diagnostics.DiagnosticsEngine.sample"],
    "diagnostics.finalize": ["diagnostics.DiagnosticsEngine.finalize"],
    "diagnostics.charge_conservation_residual": ["diagnostics.charge_conservation_residual"],
    "diagnostics.poynting_residual": ["diagnostics.poynting_residual"],
    "diagnostics.first_law_residual": ["diagnostics.first_law_residual"],
    "diagnostics.box_rho_residual": ["diagnostics.box_rho_residual"],
    "diagnostics.reciprocity_residual": ["diagnostics.reciprocity_residual"],
    "diagnostics.interaction_energy": ["diagnostics.interaction_energy"],
    "diagnostics.integral_sample": ["diagnostics.IntegralLawAccumulator.sample"],
    "diagnostics.integral_finalize": ["diagnostics.IntegralLawAccumulator.finalize"],
}

_FFT = ("operators.fftn", "operators.ifftn")


def _channels(args) -> int:
    """Single-channel 3-D transforms in one Nabla.fftn/ifftn call."""
    return math.prod(args[1].shape[:-3])


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, units=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, units(args) if units else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Replace every binding in WRAPPED with its traced wrapper."""
        for name, bindings in WRAPPED.items():
            owners = []
            for binding in bindings:
                mod, *path, attr = binding.split(".")
                owner = importlib.import_module(f"bqfield.{mod}")
                for part in path:
                    owner = getattr(owner, part)
                owners.append((owner, attr))
            owner, attr = owners[0]
            fn = vars(owner)[attr]
            traced = self.wrap(name, fn, _channels if name in _FFT else None)
            for owner, attr in owners:
                setattr(owner, attr, traced)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, steps: int, points: int) -> dict[str, float]:
    """Per-layer totals of one traced run, normalised per step or per sample.

    Only spans under a ``step_rk4`` call or a ``sample`` call made after the
    first step count towards the per-step and per-sample figures, so set-up
    work (presets, the initial dealias, the engine's first sample) stays in
    ``scenario.*`` and ``runner.*``.  ``points`` is the grid size N of one
    transform, for the computed 5 N log2 N flop count.
    """
    own = self_times(spans)
    first_step = next((s[1] for s in spans if s[0] == "evolution.step_rk4"), math.inf)
    where = []  # "step", "sample" or "" per span; parents precede children
    for s in spans:
        ctx = where[s[3]] if s[3] >= 0 else ""
        if s[0] == "evolution.step_rk4":
            ctx = "step"
        elif s[0] == "diagnostics.sample" and s[1] >= first_step:
            ctx = "sample"
        where.append(ctx)
    tot: dict[tuple, list] = {}  # (name, context) -> [calls, time, self time, units]
    for i, s in enumerate(spans):
        for key in [(s[0], where[i])] + ([(s[0], "loop")] if where[i] else []):
            c = tot.setdefault(key, [0, 0.0, 0.0, 0])
            c[0] += 1
            c[1] += s[2] - s[1]
            c[2] += own[i]
            c[3] += s[4]

    def get(name, ctx="loop", field=1):
        """Calls (0), time (1), self time (2) or transforms (3) of ``name`` in
        ``ctx``: "step", "sample", "loop" (both) or "" (set-up and wrap-up)."""
        return tot.get((name, ctx), [0, 0.0, 0.0, 0])[field]

    samples = max(get("diagnostics.sample", "sample", 0), 1)
    fft_s = sum(get(f) for f in _FFT)
    transforms = sum(get(f, "loop", 3) for f in _FFT)
    flops = transforms * 5.0 * points * math.log2(points)
    m = {
        "operators.fft_s": fft_s / steps,
        "operators.fft_calls_per_step": sum(get(f, "loop", 0) for f in _FFT) / steps,
        "operators.transforms_per_step": transforms / steps,
        "operators.fft_flops_computed_per_step": flops / steps,
        "operators.fft_gflops_computed": flops / fft_s / 1e9 if fft_s > 0 else 0.0,
    }
    for op in ("grad", "div", "curl", "laplacian", "dealias"):
        m[f"operators.{op}_self_s"] = get(f"operators.{op}", "loop", 2) / steps
    m.update({
        "evolution.step_s": get("evolution.step_rk4") / steps,
        "evolution.rk_combine_self_s": get("evolution.step_rk4", "loop", 2) / steps,
        "evolution.rhs_s": get("evolution.state_rhs") / steps,
        "evolution.rhs_self_s": get("evolution.state_rhs", "loop", 2) / steps,
        "evolution.rhs_calls_per_step": get("evolution.state_rhs", "loop", 0) / steps,
        "biquaternion.cdot_s": get("biquaternion.cdot") / steps,
        "biquaternion.ccross_s": get("biquaternion.ccross") / steps,
        "fields.decompose_s": (get("fields.decompose_afield") + get("fields.decompose_theta")) / steps,
        "diagnostics.sample_s": get("diagnostics.sample", "sample") / samples,
        "diagnostics.sample_self_s": get("diagnostics.sample", "sample", 2) / samples,
        "diagnostics.transforms_per_sample": sum(get(f, "sample", 3) for f in _FFT) / samples,
        "diagnostics.field_totals_per_sample": get("evolution.field_totals", "sample", 0) / samples,
        "diagnostics.state_copies_per_sample": get("evolution.SimState.copy", "sample", 0) / samples,
    })
    series = {
        "charge": "diagnostics.charge_conservation_residual",
        "poynting": "diagnostics.poynting_residual",
        "first_law": "diagnostics.first_law_residual",
        "box_rho": "diagnostics.box_rho_residual",
        "freeness": "operators.apply_dminus",
        "reciprocity": "diagnostics.reciprocity_residual",
        "energy_decomposition": "diagnostics.interaction_energy",
        "integral_sample": "diagnostics.integral_sample",
    }
    for short, fn in series.items():
        m[f"diagnostics.{short}_s"] = get(fn, "sample") / samples
    m["diagnostics.integral_finalize_s"] = get("diagnostics.integral_finalize", "")
    m["scenario.parse_s"] = get("scenario.load_scenario", "")
    m["runner.build_state_s"] = get("runner.build_state", "")
    run_end = max((s[2] for s in spans if s[0] == "runner.run_scenario"), default=0.0)
    fin_end = max((s[2] for s in spans if s[0] == "diagnostics.finalize"), default=run_end)
    m["runner.output_s"] = run_end - fin_end
    return m
