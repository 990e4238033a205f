"""Scenario schema, runner pipeline, and command-line contract tests.

Covers strict-key validation, preset construction, end-to-end runs with
exit codes 0/1/2/3/4, output-directory precedence, and byte-identical CSV
output under --reference.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import warnings
import weakref

import numpy as np
import pytest

from bqfield import run_scenario, step_rk4
from bqfield.cli import main
from bqfield.diagnostics import DIAGNOSTIC_NAMES
from bqfield.runner import build_state
from bqfield.scenario import ScenarioError, build_preset, load_scenario, parse_scenario


def eigenmode_doc(n=8, steps=8, tols=None):
    dtau = 0.25 * 2 * np.pi / n
    doc = {
        "mode": "maxwell",
        "grid": {"n": [n, n, n]},
        "duration": steps * dtau,
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
            {"name": "charge", "tolerance": (tols or {}).get("charge", 1e-8)},
            # the n=8 floor is RK4 amplitude decay, about 4e-6 at cfl = 0.25
            {"name": "poynting", "tolerance": (tols or {}).get("poynting", 1e-5)},
        ],
    }
    return doc


# -- schema -------------------------------------------------------------------------

SURFACE = {"axis": 0, "index": 0, "part_axis": 1, "j0": 0, "j1": 4}
PULSE = {"type": "gaussian_pulse", "polarization": [1.0, 0.0, 0.0]}


def test_parse_minimal_scenario_defaults():
    sc = parse_scenario(eigenmode_doc())
    assert sc.mode == "maxwell"
    assert sc.steps == 8
    assert sc.grid.dtau == pytest.approx(0.25 * 2 * np.pi / 8)
    assert sc.medium.epsilon == 1.0
    assert sc.stepper.cfl == 0.25
    assert sc.nabla_scheme == "spectral"
    assert sc.output_dir is None
    assert sc.initial.shape == (1, 7, 8, 8, 8)


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d["grid"].update(spacing=0.1), "unknown"),
        (lambda d: d.update(mode="plasma"), "mode"),
        (lambda d: d.update(duration=-1.0), "duration"),
        (lambda d: d.update(duration=1.0), "integer number of steps"),
        (lambda d: d["initial_conditions"][0]["afield"].update(phase=0.0), "unknown"),
        (lambda d: d["initial_conditions"][0]["afield"].update(k=[0.0, 0.0, 0.5]), "does not fit"),
        (lambda d: d["initial_conditions"].clear(), "non-empty"),
        (lambda d: d.update(background={"type": "uniform", "value": [1, 0, 0]}), "strong_field"),
        (lambda d: d["diagnostics"].append({"name": "charge"}), "duplicate"),
        (lambda d: d["diagnostics"].append({"name": "vorticity"}), "unknown diagnostic"),
        (lambda d: d["diagnostics"][0].update(cadence=0), "cadence"),
        (lambda d: d["diagnostics"][0].update(tolerance=-1e-8), "tolerance"),
        (lambda d: d.update(stepper={"scheme": "euler"}), "rk4"),
        (lambda d: d.update(stepper={"cfl": 0.25, "warp": True}), "unknown"),
        (lambda d: d["grid"].update(dtau=1.0), "step bound"),
        (lambda d: d["grid"].update(n=[8, 8]), "grid.n"),
        # a box so small that the bound's default step underflows to 0
        (lambda d: d["grid"].update(L=5e-324), "grid: dtau must be positive"),
        (lambda d: d.update(nabla="stencil9"), "nabla"),
        (lambda d: d.update(stepper={"force_term_reading": "standard"}), "force_term_reading"),
        # the 2/3 rule belongs to the nabla scheme: the stepper has no switch for it
        (lambda d: d.update(stepper={"dealias": True}), "unknown key(s) at stepper: 'dealias'"),
        (lambda d: d.update(stepper={"constraint_projection": True}),
         "unknown key(s) at stepper: 'constraint_projection'"),
        # the integral laws share one accumulator: one cadence, region and surface
        (lambda d: d["diagnostics"].extend(
            [{"name": "integral_charge"}, {"name": "integral_energy", "cadence": 2}]),
         "share one cadence"),
        (lambda d: d["diagnostics"].extend(
            [{"name": "integral_charge", "region": {"lo": [0, 0, 0], "hi": [8, 8, 4]}},
             {"name": "integral_energy", "region": {"lo": [0, 0, 0], "hi": [8, 4, 8]}}]),
         "share one region"),
        (lambda d: d["diagnostics"].extend(
            [{"name": "integral_charge", "surface": SURFACE},
             {"name": "integral_energy", "surface": dict(SURFACE, j1=2)}]),
         "share one surface"),
        # a surface run holds 1..n cells: reversed, empty and over-long runs fail
        (lambda d: d["diagnostics"].append({"name": "integral_flux", "surface": dict(SURFACE, j0=5, j1=3)}),
         "diagnostics[2].surface: the run j1 - j0 must be in 1..8"),
        (lambda d: d["diagnostics"].append({"name": "integral_flux", "surface": dict(SURFACE, j0=4)}),
         "diagnostics[2].surface: the run j1 - j0 must be in 1..8"),
        (lambda d: d["diagnostics"].append({"name": "integral_flux", "surface": dict(SURFACE, j1=9)}),
         "diagnostics[2].surface: the run j1 - j0 must be in 1..8"),
        # a name that is not a string is a type error of the document, not a crash
        (lambda d: d["diagnostics"].append({"name": ["charge"]}), "diagnostics[2].name must be a string"),
        # numbers are finite: NaN or an infinity is an input error, not a crash or a NaN run
        (lambda d: d.update(duration=float("nan")), "duration must be a finite number"),
        (lambda d: d.update(duration=1e308), "overflows the step count"),
        # a finite duration past the step cap would start a run that cannot end
        (lambda d: d.update(duration=1e18),
         "duration = 1e+18 overflows the step count cap MAX_STEPS = 1000000000"),
        (lambda d: d["initial_conditions"][0]["afield"].update(amplitude=float("inf")), "amplitude must be a finite"),
        # a pulse width is a positive finite number, not a bool
        *[(lambda d, w=w: d["initial_conditions"][0].update(afield=dict(PULSE, width=w)), msg)
          for w, msg in [(0, "afield.width must be positive"), (-1, "afield.width must be positive"),
                         (float("nan"), "afield.width must be a finite number"),
                         (True, "afield.width must be a finite number, got True")]],
        # one row per shape rule of the document
        (lambda d: d["initial_conditions"][0]["afield"].update(amplitude="big"),
         "afield.amplitude must be a number or {re, im}"),
        (lambda d: d["initial_conditions"][0]["afield"].update(k=[0.0, 1.0]),
         "afield.k must be a 3-element list"),
        (lambda d: d["initial_conditions"][0]["afield"].update(polarization="x"),
         "afield.polarization must be a list or {re, im} of lists"),
        (lambda d: d["grid"].update(n=[8, 8.0, 8]), "grid.n[1] must be an integer"),
        (lambda d: d.update(grid=[8, 8, 8]), "grid must be an object"),
        (lambda d: d["initial_conditions"][0].update(afield="plane_wave"),
         "initial_conditions[0].afield must be an object or null"),
        (lambda d: d["initial_conditions"][0]["afield"].update(type="spiral"),
         "unknown preset type 'spiral'"),
        (lambda d: d["initial_conditions"][0].update(afield=dict(PULSE, gradient=1)),
         "afield.gradient must be a boolean"),
        (lambda d: [d], "scenario must be a JSON object"),
        (lambda d: d.update(description=3), "description must be a string"),
        (lambda d: d.update(output_dir=3), "output_dir must be a string path"),
        (lambda d: d.update(diagnostics={"name": "charge"}), "diagnostics must be a list"),
    ],
)
def test_parse_rejects_bad_documents(mangle, fragment):
    """``mangle`` edits the document in place, or returns one to parse instead."""
    doc = eigenmode_doc()
    doc = mangle(doc) or doc
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert fragment.lower() in str(exc.value).lower()


def test_parse_interaction_needs_two_fields():
    doc = eigenmode_doc()
    doc["mode"] = "interaction"
    with pytest.raises(ScenarioError, match="two fields"):
        parse_scenario(doc)


def test_parse_strong_field_needs_background():
    doc = eigenmode_doc()
    doc["mode"] = "strong_field"
    with pytest.raises(ScenarioError, match="background"):
        parse_scenario(doc)


def test_parse_region_and_surface_checked():
    doc = eigenmode_doc()
    doc["diagnostics"] = [
        {"name": "integral_charge", "region": {"lo": [0, 0, 0], "hi": [9, 8, 8]}}
    ]
    with pytest.raises(ScenarioError, match="region"):
        parse_scenario(doc)
    doc["diagnostics"] = [
        {
            "name": "integral_charge",
            "region": {"lo": [0, 0, 0], "hi": [8, 8, 4]},
            "surface": {"axis": 1, "index": 0, "part_axis": 1, "j0": 0, "j1": 4},
        }
    ]
    with pytest.raises(ScenarioError, match="part_axis"):
        parse_scenario(doc)
    # integral series may repeat the shared region and surface, or leave them out
    box = {"lo": [0, 0, 0], "hi": [8, 8, 4]}
    doc["diagnostics"] = [
        {"name": "integral_charge", "region": box, "surface": SURFACE},
        {"name": "integral_energy", "region": box, "surface": SURFACE},
        {"name": "integral_flux"},
    ]
    assert len(parse_scenario(doc).diagnostics) == 3


def test_readme_scenarios_parse():
    """Every ```json block in README.md is a scenario the strict parser takes."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        parse_scenario(json.loads(block))


def test_readme_quick_start_runs():
    """The ```python quick start in README.md runs as written."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["state"].tau > 0


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(p)


# -- presets ------------------------------------------------------------------------


def test_preset_uniform_and_null():
    from bqfield import Grid

    g = Grid(n=(8, 8, 8), L=(2 * np.pi,) * 3, dtau=0.1)
    vec = build_preset({"type": "uniform", "value": [1.0, 2.0, 3.0]}, g, "t", "vector")
    np.testing.assert_allclose(vec[1], 2.0)
    rho, J = build_preset({"type": "uniform", "scalar": {"im": 2.0}}, g, "t", "pair")
    np.testing.assert_allclose(rho, 2j)
    np.testing.assert_allclose(J, 0.0)
    vec0 = build_preset(None, g, "t", "vector")
    assert np.abs(vec0).max() == 0.0
    rho0, J0 = build_preset(None, g, "t", "pair")
    assert rho0.shape == g.n and J0.shape == (3,) + g.n and not rho0.any() and not J0.any()
    # null is the zero preset, but {} is an object without its type
    with pytest.raises(ScenarioError, match="missing required key 't.type'"):
        build_preset({}, g, "t", "pair")


def _images(grid, center, width):
    """Per axis, the periodic sum of a 1-D gaussian and its slope, over the
    41 images at -20..20 box lengths."""
    g, dg = [], []
    for a, x in enumerate(grid.axes()):
        xs = [x - center[a] + s * grid.L[a] for s in range(-20, 21)]
        e = [np.exp(-xa**2 / (2 * width**2)) for xa in xs]
        shape = [1, 1, 1]
        shape[a] = -1
        g.append(sum(e).reshape(shape))
        dg.append(sum(-xa / width**2 * ea for xa, ea in zip(xs, e)).reshape(shape))
    return g, dg


@pytest.mark.parametrize("case", ["plane_wave", "polarised_gaussian", "gradient_gaussian", "uniform"])
def test_preset_is_amplitude_times_constant_times_profile(case):
    """Every preset is amplitude x (i scalar + polarization) x profile: the
    plane wave's phase, the periodic gaussian, or 1 for uniform (amplitude 1,
    polarization its value); a gradient pulse's vector is amplitude x grad g."""
    from bqfield import Grid

    g = Grid(n=(8, 10, 12), L=(2 * np.pi, 4 * np.pi, 3.0), dtau=0.1)
    X, Y, Z = g.meshgrid()
    amp, sc, pol = 0.7 - 0.4j, 0.3 + 1.1j, np.array([1.0 + 0.5j, -0.25j, 2.0])
    cpol = {"re": list(pol.real), "im": list(pol.imag)}

    def cnum(z):
        return {"re": z.real, "im": z.imag}

    center, width = [1.0, 2.0, 2.5], 0.6
    gs, dgs = _images(g, center, width)
    gauss = gs[0] * gs[1] * gs[2]
    if case == "plane_wave":
        preset = {"type": "plane_wave", "k": [1.0, -0.5, 2 * np.pi / 3], "polarization": cpol,
                  "amplitude": cnum(amp), "scalar": cnum(sc)}
        profile = np.exp(1j * (X - 0.5 * Y + 2 * np.pi / 3 * Z))
        vec = amp * pol[:, None, None, None] * profile
    elif case == "uniform":
        preset = {"type": "uniform", "value": cpol, "scalar": cnum(sc)}
        amp, profile = 1.0, np.ones(g.n)
        vec = np.broadcast_to(pol[:, None, None, None], (3,) + g.n)
    else:
        preset = {"type": "gaussian_pulse", "center": center, "width": width,
                  "amplitude": cnum(amp), "scalar": cnum(sc)}
        profile = gauss
        if case == "gradient_gaussian":
            preset["gradient"] = True
            vec = amp * np.stack([dgs[0] * gs[1] * gs[2], gs[0] * dgs[1] * gs[2], gs[0] * gs[1] * dgs[2]])
        else:
            preset["polarization"] = cpol
            vec = amp * pol[:, None, None, None] * gauss
    rho, J = build_preset(preset, g, "t", "pair")
    np.testing.assert_allclose(rho, amp * sc * profile, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(J, vec, rtol=1e-13, atol=1e-15)
    del preset["scalar"]
    np.testing.assert_allclose(build_preset(preset, g, "t", "vector"), vec, rtol=1e-13, atol=1e-15)


def test_gaussian_pulse_centre_counts_modulo_the_box():
    """A pulse centred outside the box is its image inside: x = 20 in a 2 pi
    box of 8^3 gives the data of 20 mod 2 pi, max |rho| 0.84, where images
    summed around the centre as given left 1.1e-30."""
    from bqfield import Grid

    g = Grid(n=(8, 8, 8), L=(2 * np.pi,) * 3, dtau=0.1)
    pulse = {"type": "gaussian_pulse", "polarization": [1, 0, 0], "scalar": 1.0}
    rho, J = build_preset(dict(pulse, center=[20.0, np.pi, np.pi]), g, "t", "pair")
    rho0, J0 = build_preset(dict(pulse, center=[20.0 % (2 * np.pi), np.pi, np.pi]), g, "t", "pair")
    assert np.array_equal(rho, rho0) and np.array_equal(J, J0)
    assert np.abs(rho).max() > 0.8


@pytest.mark.parametrize("width", [0.25, 0.5, 2.0])
def test_gaussian_pulse_is_periodic_at_any_width(width):
    """A pulse of any width is its periodic image sum, here 41 images: three
    left one of width L/4 centred at 0.1 L 2.7e-5 off it, and one of width
    L/2 0.28 off.  Past L/2 the sum is taken in Fourier form.  The
    gradient's scale is g / width."""
    from bqfield import Grid

    L = 2 * np.pi
    g = Grid(n=(16, 12, 10), L=(L,) * 3, dtau=0.1)
    center, w = [0.1 * L] * 3, width * L
    gs, dgs = _images(g, center, w)
    rho, _ = build_preset({"type": "gaussian_pulse", "center": center, "width": w, "scalar": 1.0},
                          g, "t", "pair")
    vec = build_preset({"type": "gaussian_pulse", "center": center, "width": w, "gradient": True},
                       g, "t", "vector")
    want = gs[0] * gs[1] * gs[2]
    tol = 1e-14 * np.abs(want).max()
    assert np.abs(rho - want).max() <= tol
    grad = np.stack([dgs[0] * gs[1] * gs[2], gs[0] * dgs[1] * gs[2], gs[0] * gs[1] * dgs[2]])
    assert np.abs(vec - grad).max() <= tol / w


def test_preset_gaussian_gradient_exclusive():
    from bqfield import Grid

    g = Grid(n=(8, 8, 8), L=(2 * np.pi,) * 3, dtau=0.1)
    with pytest.raises(ScenarioError, match="polarization"):
        build_preset(
            {"type": "gaussian_pulse", "gradient": True, "polarization": [1, 0, 0]},
            g, "t", "vector",
        )
    # a field-strength preset cannot carry a scalar part
    with pytest.raises(ScenarioError, match="scalar"):
        build_preset({"type": "uniform", "value": [1, 0, 0], "scalar": 1.0}, g, "t", "vector")


def test_preset_gaussian_gradient_is_curl_free():
    from bqfield import Grid, Nabla

    g = Grid(n=(16, 16, 16), L=(2 * np.pi,) * 3, dtau=0.1)
    nab = Nabla(g)
    vec = build_preset(
        {"type": "gaussian_pulse", "gradient": True, "width": 1.0, "amplitude": 2.0},
        g, "t", "vector",
    )
    assert np.abs(nab.curl(vec)).max() <= 1e-10
    assert np.abs(vec).max() > 0.5


# -- runner -------------------------------------------------------------------------


def test_run_eigenmode_clean_exit(tmp_path):
    sc = parse_scenario(eigenmode_doc())
    report = run_scenario(sc, out_dir=tmp_path / "out")
    assert report.exit_code == 0
    assert report.steps_done == 8
    assert report.tau_final == pytest.approx(8 * sc.grid.dtau)
    assert report.series["charge"].max_linf <= 1e-10
    assert (tmp_path / "out" / "charge.csv").exists()
    assert (tmp_path / "out" / "poynting.csv").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["exit_code"] == 0
    assert summary["mode"] == "maxwell"
    assert set(summary["series"]) == {"charge", "poynting"}


def test_run_summary_counts_peak_rss(tmp_path):
    """summary.json's counters block holds the process's peak RSS in MiB."""
    run_scenario(parse_scenario(eigenmode_doc()), out_dir=tmp_path / "out")
    peak = json.loads((tmp_path / "out" / "summary.json").read_text())["counters"]["peak_rss_mb"]
    assert isinstance(peak, float) and peak > 0


@pytest.mark.parametrize("scheme", ["spectral", "central4"])
def test_run_releases_the_initial_data(monkeypatch, scheme):
    """run_scenario lets go of Scenario.initial once build_state has taken
    it: by step 2 no scenario and no state holds the initial array."""
    from bqfield import runner

    doc = dict(eigenmode_doc(), nabla=scheme)
    del doc["diagnostics"]
    sc = parse_scenario(doc)
    initial, real, alive = weakref.ref(sc.initial), runner.step_rk4, []

    def step(*args, **kwargs):
        alive.append(initial() is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "step_rk4", step)
    assert run_scenario(sc).exit_code == 0
    assert len(alive) == 8 and not any(alive[1:]) and sc.initial is None


def test_run_breach_exit(tmp_path):
    sc = parse_scenario(eigenmode_doc(tols={"poynting": 1e-30}))
    report = run_scenario(sc, out_dir=tmp_path / "out")
    assert report.exit_code == 1
    assert report.series["poynting"].breached


def test_run_nan_residual_mid_run_breaches(tmp_path, monkeypatch):
    """A residual that turns NaN mid-run is a breach: exit 1, and so says
    summary.json.  That holds for a series that reports the worst over its
    fields (first_law) as well.  Each series' first_breach_tau is the tau of
    its NaN row, the third window's middle state, 3 dtau, whose rate is the
    law's third; null where none."""
    import bqfield.diagnostics as diagnostics

    calls = {}

    def nan_on_third_call(name):
        law, calls[name] = diagnostics.LAWS[name], []

        def rate(record):
            calls[name].append(record)
            r = law.rate(record)
            return r * np.nan if len(calls[name]) == 3 else r

        return law._replace(rate=rate)

    for name in ("poynting", "first_law"):
        monkeypatch.setitem(diagnostics.LAWS, name, nan_on_third_call(name))
    doc = eigenmode_doc(tols={"poynting": 1.0})
    doc["diagnostics"].append({"name": "first_law", "tolerance": 1.0})
    report = run_scenario(parse_scenario(doc), out_dir=tmp_path / "out")
    assert all(len(c) > 3 for c in calls.values())
    assert report.exit_code == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["exit_code"] == 1
    assert summary["series"]["poynting"]["breached"] is True
    assert summary["series"]["first_law"]["breached"] is True
    assert summary["series"]["charge"]["breached"] is False
    dtau = 0.25 * 2 * np.pi / 8
    for name in ("poynting", "first_law"):
        assert summary["series"][name]["first_breach_tau"] == pytest.approx(3 * dtau, rel=1e-12)
        assert summary["series"][name]["first_breach_tau"] == report.series[name].rows[2][0]
    assert summary["series"]["charge"]["first_breach_tau"] is None


def test_run_abort_exit(tmp_path):
    doc = {
        "mode": "strong_field",
        "grid": {"n": [4, 4, 4]},
        "duration": 4 * 0.25 * 2 * np.pi / 4,
        "initial_conditions": [
            {"theta": {"type": "uniform", "value": [1.0, 0.0, 0.0], "scalar": 1.0}}
        ],
        "background": {"type": "uniform", "value": [1e160, 0.0, 0.0]},
        "diagnostics": [],
    }
    sc = parse_scenario(doc)
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_scenario(sc, out_dir=tmp_path / "out")
    assert report.exit_code == 3
    assert report.abort is not None
    assert report.steps_done < 4
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["abort"]["steps"] >= 1


@pytest.mark.parametrize("theta", [{"value": [1e308, 0.0, 0.0]}, {"value": [0.0] * 3, "scalar": 1e308}])
def test_cli_held_channel_overflow_aborts_at_step_one(tmp_path, theta):
    """maxwell's held J, or its held rho that no rhs reads, overflows in
    build_state's 2/3 rule; no step reads the held channels in physical
    space, yet the run still aborts at step 1 with exit 3."""
    doc = eigenmode_doc()
    doc["initial_conditions"][0]["theta"] = dict(theta, type="uniform")
    doc["diagnostics"] = []
    code = main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")])
    assert code == 3
    summary = json.loads((tmp_path / "res" / "summary.json").read_text())
    assert summary["abort"]["steps"] == 1 and summary["steps"] == 0


@pytest.mark.parametrize(
    "theta, code",
    [({"value": [1e308, 0.0, 0.0]}, 3), ({"value": [0.0] * 3, "scalar": 1e308}, 3),
     ({"value": [0.0] * 3, "scalar": 1e305}, 0)],
)
def test_cli_held_channel_check_after_a_read_of_u(tmp_path, theta, code):
    """An integral diagnostic reads U at tau = 0, before step 1, so the held
    block is physical when step 1 checks it.  A held rho of 1e305 on 8^3 is
    over f_max / (4 N^2), so its terms do not bound it; the check then reads
    its physical form, which is finite (exit 0) unless the 2/3 rule
    overflowed (exit 3, at step 1)."""
    doc = eigenmode_doc()
    doc["initial_conditions"][0]["theta"] = dict(theta, type="uniform")
    doc["diagnostics"] = [{"name": "integral_charge", "region": {"lo": [0, 0, 0], "hi": [8, 8, 4]}}]
    assert main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")]) == code
    summary = json.loads((tmp_path / "res" / "summary.json").read_text())
    assert summary["steps"] == (8 if code == 0 else 0)
    if code == 3:
        assert summary["abort"]["steps"] == 1


def test_cli_large_held_rho_with_a_finite_2_3_rule_runs(tmp_path):
    """A uniform held rho of 1e200, below f_max / (4 N^2) with N = 8^3 grid
    points, cannot overflow its 2/3 rule, so step 1 checks it on its terms
    and takes it onto no band: the run exits 0, and a read of U gives the
    data's Nabla.dealias in rho's row, bit for bit."""
    doc = eigenmode_doc()
    doc["initial_conditions"][0]["theta"] = {"type": "uniform", "value": [0.0] * 3, "scalar": 1e200}
    doc["diagnostics"] = []
    assert main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")]) == 0
    sc = parse_scenario(doc)
    st, nab = build_state(sc)
    for i in range(sc.steps):
        st, _ = step_rk4(st, nab, sc.stepper, i)
    assert np.array_equal(st.U[0, 3], nab.dealias(sc.initial[0, 3]))


def test_run_integral_series_through_engine(tmp_path):
    dtau = 0.25 * 2 * np.pi / 8
    doc = {
        "mode": "free_theta",
        "grid": {"n": [8, 8, 8]},
        "duration": 8 * dtau,
        "initial_conditions": [
            {
                "theta": {
                    "type": "plane_wave",
                    "k": [0.0, 0.0, 1.0],
                    "polarization": {"re": [0.0, 0.0, 1.0]},
                    "scalar": 1.0,
                }
            }
        ],
        "diagnostics": [
            {"name": "integral_charge", "region": {"lo": [0, 0, 0], "hi": [8, 8, 4]}},
            {"name": "integral_energy", "region": {"lo": [0, 0, 0], "hi": [8, 8, 4]}},
        ],
    }
    report = run_scenario(parse_scenario(doc), out_dir=tmp_path / "out")
    assert report.exit_code == 0
    rows = report.series["integral_charge"].rows
    assert len(rows) == 9
    assert rows[0][1] == 0.0  # the identity is exact at the first sample
    assert report.series["integral_charge"].max_linf <= 5e-3


# -- command line -------------------------------------------------------------------


def write_doc(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_cli_run_ok_and_out_flag(tmp_path, capsys):
    p = write_doc(tmp_path, eigenmode_doc())
    code = main(["run", str(p), "--out", str(tmp_path / "res")])
    out = capsys.readouterr().out
    assert code == 0
    assert "charge" in out and "ok" in out
    assert (tmp_path / "res" / "summary.json").exists()


def test_cli_out_precedence_env_and_scenario(tmp_path, capsys, monkeypatch):
    doc = eigenmode_doc()
    doc["output_dir"] = str(tmp_path / "from_scenario")
    p = write_doc(tmp_path, doc)
    monkeypatch.setenv("BQFIELD_OUT", str(tmp_path / "from_env"))
    # scenario output_dir beats the environment variable
    assert main(["run", str(p)]) == 0
    assert (tmp_path / "from_scenario" / "summary.json").exists()
    assert not (tmp_path / "from_env").exists()
    # without a scenario path the environment variable is used
    p2 = write_doc(tmp_path, eigenmode_doc(), name="s2.json")
    assert main(["run", str(p2)]) == 0
    assert (tmp_path / "from_env" / "summary.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("preset", [dict(PULSE, width=1e-170, center=[0.0] * 3),
                                    {"type": "gaussian_pulse", "width": 1e-155, "gradient": True}],
                         ids=["underflow", "gradient"])
def test_cli_refuses_a_pulse_too_narrow_to_sample(tmp_path, capsys, preset):
    """A pulse whose 2 w^2 underflows parsed into NaN data (0/0 where a grid
    point sits on the centre), and the run exited 3 at tau = 0: it is an
    input error, exit 2 at the preset's path.  A gradient pulse's g' is
    checked too (0 * inf next to the centre at width 1e-155), while a plain
    pulse of that width parses to its exact samples, 1 at the centre."""
    doc = eigenmode_doc()
    doc["initial_conditions"][0]["afield"] = preset
    assert main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")]) == 2
    assert "initial_conditions[0].afield.width = " in capsys.readouterr().err
    doc["initial_conditions"][0]["afield"] = dict(PULSE, width=1e-155, center=[0.0] * 3)
    A = parse_scenario(doc).initial[0, 0]
    assert A[0, 0, 0] == 1 and np.count_nonzero(A) == 1


def test_cli_missing_scenario_is_usage_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_cli_invalid_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{]")
    assert main(["run", str(p)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "shock-check"])
@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 10**5], ids=["not-utf8", "deep"])
def test_cli_file_that_is_not_json_exits_two(tmp_path, capsys, command, data):
    """Bytes that do not decode, or nesting too deep to decode, are input
    errors of either subcommand (2), not program faults (4)."""
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    assert main([command, str(p)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err and "Traceback" not in err


def test_cli_unwritable_out_exits_two_before_any_step(tmp_path, capsys, monkeypatch):
    from bqfield import runner

    steps = []
    monkeypatch.setattr(runner, "step_rk4", lambda *a, **k: steps.append(a))
    p = write_doc(tmp_path, eigenmode_doc())
    # the output directory would sit under a regular file
    assert main(["run", str(p), "--out", str(p / "res")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert steps == []


def test_cli_unexpected_error_exits_four(tmp_path, capsys, monkeypatch):
    from bqfield import cli

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_scenario", boom)
    p = write_doc(tmp_path, eigenmode_doc())
    assert main(["run", str(p), "--out", str(tmp_path / "res")]) == 4
    assert capsys.readouterr().err.splitlines()[-1] == "error: RuntimeError: boom"


def test_cli_unexpected_error_mid_run_writes_partial_summary(tmp_path, capsys, monkeypatch):
    """A fault on the third step still leaves the two steps' rows and a
    summary.json with exit 4 and the error; the CLI prints the traceback and
    exits 4."""
    from bqfield import runner

    real, calls = runner.step_rk4, []

    def fail_on_third_call(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "step_rk4", fail_on_third_call)
    out = tmp_path / "res"
    assert main(["run", str(write_doc(tmp_path, eigenmode_doc())), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and err.splitlines()[-1] == "error: RuntimeError: boom"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 4 and summary["steps"] == 2 and summary["abort"] is None
    dtau = summary["dtau"]
    assert summary["error"] == {"type": "RuntimeError", "message": "boom",
                                "tau": pytest.approx(2 * dtau), "steps": 2}
    # three samples (tau = 0 and the two steps) make one centred window
    assert summary["series"]["charge"]["rows"] == 1
    assert len((out / "charge.csv").read_text().splitlines()) == 1 + 1


def test_cli_os_error_mid_run_exits_four(tmp_path, capsys, monkeypatch):
    """An OSError once stepping has begun is a fault of the run, not of the
    input: the CLI exits 4, as the partial summary.json says."""
    from bqfield import runner

    real, calls = runner.step_rk4, []

    def fail_on_third_call(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise OSError("disk gone")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "step_rk4", fail_on_third_call)
    out = tmp_path / "res"
    assert main(["run", str(write_doc(tmp_path, eigenmode_doc())), "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines()[-1] == "error: OSError: disk gone"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 4 and summary["error"]["type"] == "OSError"


def test_cli_unexpected_error_while_loading_exits_four(tmp_path, capsys, monkeypatch):
    from bqfield import cli

    def boom(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_scenario", boom)
    p = write_doc(tmp_path, eigenmode_doc())
    assert main(["run", str(p), "--out", str(tmp_path / "res")]) == 4
    assert capsys.readouterr().err.splitlines()[-1] == "error: RuntimeError: boom"
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("argv,target", [
    (["shock-check", "FRONT"], "afield_jump_residual"),
    (["roots", "--m", "0,0,1"], "characteristic_roots"),
])
def test_cli_unexpected_error_in_any_subcommand_exits_four(tmp_path, capsys, monkeypatch, argv, target):
    """A fault of the program exits 4 in every subcommand, not 1 (the breach
    code) or 2 (the input-error code)."""
    from bqfield import cli

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    front = tmp_path / "front.json"
    front.write_text(json.dumps({"m": [0.0, 0.0, 1.0]}))
    monkeypatch.setattr(cli, target, boom)
    assert main([str(front) if a == "FRONT" else a for a in argv]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.splitlines()[-1] == "error: RuntimeError: boom"


def test_cli_non_string_diagnostic_name_exits_two(tmp_path, capsys):
    """A list where a name belongs is an input error (2), not a crash that
    would leave with the breach code."""
    doc = eigenmode_doc()
    doc["diagnostics"].append({"name": ["charge"]})
    assert main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")]) == 2
    assert "diagnostics[2].name must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("eps_mu", [1e200, 1e-200])
def test_cli_medium_whose_speed_is_not_a_float_exits_two(tmp_path, capsys, eps_mu):
    """epsilon * mu overflows (c = 0) or underflows (c = inf): Medium refuses
    it, and the parser names ``medium``."""
    doc = eigenmode_doc()
    doc["medium"] = {"epsilon": eps_mu, "mu": eps_mu}
    assert main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")]) == 2
    assert "medium: epsilon * mu must be a positive finite float" in capsys.readouterr().err


def test_cli_constraint_projection_exits_two(tmp_path, capsys, monkeypatch):
    """The stepper has no projection of rho onto div A (the constraint_drift
    series measures that gap): maxwell, which once took the key, rejects it
    as unknown before any step."""
    from bqfield import runner

    steps = []
    monkeypatch.setattr(runner, "step_rk4", lambda *a, **k: steps.append(a))
    doc = eigenmode_doc()
    doc["stepper"] = {"constraint_projection": True}
    assert main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")]) == 2
    assert "unknown key(s) at stepper: 'constraint_projection'" in capsys.readouterr().err
    assert steps == []


@pytest.mark.parametrize("name", ["charge", "reciprocity"])
@pytest.mark.parametrize("key,value", [
    ("region", {"lo": [0, 0, 0], "hi": [9, 8, 8]}),
    ("surface", dict(SURFACE, j1=9)),
    # valid on the grid: an input error still, not a selector parsed and dropped
    ("region", {"lo": [0, 0, 0], "hi": [8, 8, 4]}),
])
def test_cli_bad_region_or_surface_on_any_series_exits_two(tmp_path, capsys, name, key, value):
    """A window or pointwise series takes no region or surface, so one that
    is given, valid or not, exits 2 at its JSON path."""
    doc = eigenmode_doc()
    doc["diagnostics"] = [{"name": name, key: value}]
    assert main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")]) == 2
    assert f"diagnostics[0].{key}: " in capsys.readouterr().err


@pytest.mark.parametrize("name,most", [("charge", 4), ("integral_charge", 8), ("reciprocity", 9)])
def test_cli_cadence_that_leaves_a_series_too_few_samples_exits_two(tmp_path, capsys, name, most):
    """The 8-step run samples at steps 0, c, 2c, ...: a window series needs
    three samples, an integral series two, a pointwise series has step 0.
    One cadence more used to write no row (or one zero row) that read "ok"
    against any tolerance; now the document is refused at its JSON path."""
    doc = eigenmode_doc()
    doc["diagnostics"] = [{"name": name, "cadence": most}]
    assert run_scenario(parse_scenario(doc)).series[name].rows
    doc["diagnostics"][0]["cadence"] = most + 1
    code = main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")])
    assert code == (0 if name == "reciprocity" else 2)
    assert ("diagnostics[0].cadence: " in capsys.readouterr().err) == (code == 2)


def test_cli_breach_exit_code(tmp_path, capsys):
    p = write_doc(tmp_path, eigenmode_doc(tols={"poynting": 1e-30}))
    assert main(["run", str(p), "--out", str(tmp_path / "res")]) == 1
    assert "BREACH" in capsys.readouterr().out


def test_cli_shock_check_codes(tmp_path, capsys):
    ok = {
        "m": [0.0, 0.0, 1.0],
        "jump_E": [1.0, 0.0, 0.0],
        "jump_H": [0.0, 1.0, 0.0],
        "jump_rho": 0.0,
        "jump_J": [0.0, 0.0, 0.0],
    }
    p = tmp_path / "front.json"
    p.write_text(json.dumps(ok))
    assert main(["shock-check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "characteristic speeds" in out
    bad = dict(ok, jump_H=[1.0, 0.0, 0.0])
    p2 = tmp_path / "front2.json"
    p2.write_text(json.dumps(bad))
    assert main(["shock-check", str(p2)]) == 1
    assert main(["shock-check", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # strict keys: a misspelt key or complex part is named, not dropped
    for doc, key in (
        ({"m": [0, 0, 1], "jump_e": [1, 0, 0]}, "jump_e"),
        (dict(ok, jump_rho={"re": 1, "imag": 2}), "imag"),
    ):
        p3 = tmp_path / "front3.json"
        p3.write_text(json.dumps(doc))
        assert main(["shock-check", str(p3)]) == 2
        assert key in capsys.readouterr().err


def test_cli_shock_check_nan_residual_breaches(tmp_path, capsys):
    """Jumps near the float range make the energy residuals NaN: that is a
    breach, exit 1 (max(0.0, nan) is 0.0, so it exited 0), with no overflow
    warning from numpy (under -W error that was exit 4)."""
    p = tmp_path / "front.json"
    p.write_text(json.dumps({"m": [1, 0, 0], "jump_E": [0, 1e308, 1e308], "jump_H": [0, -1e308, 1e308]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["shock-check", str(p)]) == 1
    out = capsys.readouterr().out
    assert "energy_flux" in out and "nan  BREACH" in out


@pytest.mark.parametrize("tol", [-1, 0, 0.0, True, float("inf"), "1e-3"])
def test_cli_shock_check_tolerance_is_positive(tmp_path, capsys, tol):
    """The tolerance follows a diagnostics tolerance's rule: a value that is
    not a positive finite number exits 2 naming it, where -1 used to flag
    every zero residual as a breach."""
    p = tmp_path / "front.json"
    p.write_text(json.dumps({"m": [0, 0, 1], "tolerance": tol}))
    assert main(["shock-check", str(p)]) == 2
    captured = capsys.readouterr()
    assert "tolerance" in captured.err and "BREACH" not in captured.out


def test_cli_roots_output(capsys):
    assert main(["roots", "--m", "0,0,2"]) == 0
    out = capsys.readouterr().out.split()
    np.testing.assert_allclose([float(x) for x in out], [-1, -1, 1, 1], atol=1e-10)
    # components whose norm overflows still name a direction
    assert main(["roots", "--m", "1e308,1e308,0"]) == 0
    out = capsys.readouterr().out.split()
    np.testing.assert_allclose([float(x) for x in out], [-1, -1, 1, 1], atol=1e-10)
    assert main(["roots", "--m", "1,2"]) == 2
    assert main(["roots", "--m", "0,0,0"]) == 2
    assert "normal must be finite and nonzero" in capsys.readouterr().err


def test_cli_zero_normal_exits_two_under_optimize(tmp_path):
    """The normal checks are not asserts: under python -O a zero or
    non-finite normal still exits 2 from both shock-check and roots.  One -O
    child runs every argv (an interpreter start costs more than all of them)
    and prints each one's exit code and stderr."""
    front = tmp_path / "front.json"
    front.write_text(json.dumps({"m": [0, 0, 0]}))
    argvs = [["shock-check", str(front)], ["roots", "--m", "0,0,0"], ["roots", "--m", "1,2"],
             ["roots", "--m", "inf,0,0"], ["roots", "--m", "nan,0,1"]]
    code = textwrap.dedent(f"""
        import contextlib, io, json
        from bqfield.cli import main
        out = []
        for argv in {argvs!r}:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                out.append((argv, main(argv), err.getvalue()))
        print(json.dumps(out))
    """)
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, (r.stdout, r.stderr)
    results = json.loads(r.stdout.splitlines()[-1])
    assert [argv for argv, _, _ in results] == argvs
    for argv, exit_code, stderr in results:
        assert exit_code == 2, (argv, stderr)
        assert "normal must be" in stderr, (argv, stderr)


def test_cli_usage_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["frobnicate"])
    assert exc2.value.code == 2


def test_cli_threads_below_one_exits_two(tmp_path, capsys):
    p = write_doc(tmp_path, eigenmode_doc())
    assert main(["run", str(p), "--threads", "0", "--out", str(tmp_path / "res")]) == 2
    assert "error: --threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def united_doc(n=16, steps=4):
    """Two overlapping field and charge-current pulses with every series on."""
    centers = ([2.6, 3.1, 3.3], [3.4, 2.9, 3.0])
    pols = ({"re": [1.0, 0.2, 0.0], "im": [0.0, 0.5, 0.1]}, {"re": [0.0, 1.0, 0.3], "im": [0.4, 0.0, 0.0]})
    fields = [{
        "afield": {"type": "gaussian_pulse", "center": c, "width": 0.7,
                   "amplitude": {"re": 0.8, "im": 0.2}, "polarization": pol},
        "theta": {"type": "gaussian_pulse", "center": c, "width": 0.7, "amplitude": 0.2,
                  "polarization": pol, "scalar": {"re": 0.6, "im": -0.3}},
    } for c, pol in zip(centers, pols)]
    diagnostics = [{"name": name} for name in DIAGNOSTIC_NAMES]
    for spec in diagnostics:
        if spec["name"].startswith("integral_"):
            spec["region"] = {"lo": [2, 3, 4], "hi": [14, 13, 12]}
    return {
        "mode": "united",
        "grid": {"n": [n] * 3},
        "duration": steps * 0.25 * 2 * np.pi / n,
        "initial_conditions": fields,
        "diagnostics": diagnostics,
    }


def test_cli_threads_match_reference(tmp_path, capsys):
    """FFT worker threads change no bit: a --threads 2 run of a united
    scenario with all 14 series writes the CSV bytes of the --reference run
    (one worker).  Each 1-D transform runs on one thread with one plan, so
    the worker count decides only which thread runs it."""
    p = write_doc(tmp_path, united_doc())
    assert main(["run", str(p), "--threads", "2", "--out", str(tmp_path / "t2")]) == 0
    assert main(["run", str(p), "--reference", "--out", str(tmp_path / "ref")]) == 0
    names = sorted(f.name for f in (tmp_path / "ref").glob("*.csv"))
    assert len(names) == 14
    for name in names:
        assert (tmp_path / "t2" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


def test_cli_reference_runs_are_byte_identical(tmp_path):
    """Two --reference runs of the same scenario write identical CSV bytes."""
    p = write_doc(tmp_path, eigenmode_doc())
    env = dict(os.environ, PYTHONHASHSEED="0")
    for d in ("r1", "r2"):
        r = subprocess.run(
            [sys.executable, "-m", "bqfield.cli", "run", str(p),
             "--out", str(tmp_path / d), "--reference"],
            capture_output=True, text=True, env=env,
        )
        assert r.returncode == 0, r.stderr
    for name in ("charge.csv", "poynting.csv"):
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2
        assert b1.startswith(b"tau,linf,l2")


def test_cli_selftest_passes():
    r = subprocess.run(
        [sys.executable, "-m", "bqfield.cli", "selftest"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert "ok" in r.stdout.lower()
