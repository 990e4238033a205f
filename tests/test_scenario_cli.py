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

import numpy as np
import pytest

from bqfield import run_scenario
from bqfield.cli import main
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


def test_parse_minimal_scenario_defaults():
    sc = parse_scenario(eigenmode_doc())
    assert sc.mode == "maxwell"
    assert sc.steps == 8
    assert sc.grid.dtau == pytest.approx(0.25 * 2 * np.pi / 8)
    assert sc.medium.epsilon == 1.0
    assert sc.stepper.cfl == 0.25
    assert sc.nabla_scheme == "spectral"
    assert sc.output_dir is None
    assert len(sc.fields) == 1


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
        (lambda d: d.update(nabla="stencil9"), "nabla"),
        (lambda d: d.update(stepper={"force_term_reading": "standard"}), "force_term_reading"),
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
        (lambda d: d["initial_conditions"][0]["afield"].update(amplitude=float("inf")), "amplitude must be a finite"),
    ],
)
def test_parse_rejects_bad_documents(mangle, fragment):
    doc = eigenmode_doc()
    mangle(doc)
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


def test_run_breach_exit(tmp_path):
    sc = parse_scenario(eigenmode_doc(tols={"poynting": 1e-30}))
    report = run_scenario(sc, out_dir=tmp_path / "out")
    assert report.exit_code == 1
    assert report.series["poynting"].breached


def test_run_nan_residual_mid_run_breaches(tmp_path, monkeypatch):
    """A residual that turns NaN mid-run is a breach: exit 1, and so says
    summary.json.  That holds for a series that reports the worst over its
    fields (first_law) as well."""
    import bqfield.diagnostics as diagnostics

    calls = {}

    def nan_on_third_call(name):
        real, calls[name] = getattr(diagnostics, name), []

        def law(*args, **kwargs):
            calls[name].append(args)
            return (float("nan"), float("nan")) if len(calls[name]) == 3 else real(*args, **kwargs)

        return law

    for name in ("poynting_residual", "first_law_residual"):
        monkeypatch.setattr(diagnostics, name, nan_on_third_call(name))
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


def test_cli_missing_scenario_is_usage_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_cli_invalid_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{]")
    assert main(["run", str(p)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


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


def test_cli_unexpected_error_while_loading_exits_four(tmp_path, capsys, monkeypatch):
    from bqfield import cli

    def boom(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_scenario", boom)
    p = write_doc(tmp_path, eigenmode_doc())
    assert main(["run", str(p), "--out", str(tmp_path / "res")]) == 4
    assert capsys.readouterr().err.splitlines()[-1] == "error: RuntimeError: boom"
    assert not (tmp_path / "res").exists()


def test_cli_non_string_diagnostic_name_exits_two(tmp_path, capsys):
    """A list where a name belongs is an input error (2), not a crash that
    would leave with the breach code."""
    doc = eigenmode_doc()
    doc["diagnostics"].append({"name": ["charge"]})
    assert main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")]) == 2
    assert "diagnostics[2].name must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["charge", "reciprocity"])
@pytest.mark.parametrize("key,value", [
    ("region", {"lo": [0, 0, 0], "hi": [9, 8, 8]}),
    ("surface", dict(SURFACE, j1=9)),
])
def test_cli_bad_region_or_surface_on_any_series_exits_two(tmp_path, capsys, name, key, value):
    """A window or pointwise series does not read a region or surface, but
    one that is given is still checked."""
    doc = eigenmode_doc()
    doc["diagnostics"] = [{"name": name, key: value}]
    assert main(["run", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "res")]) == 2
    assert f"diagnostics[0].{key}: " in capsys.readouterr().err


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


def test_cli_roots_output(capsys):
    assert main(["roots", "--m", "0,0,2"]) == 0
    out = capsys.readouterr().out.split()
    np.testing.assert_allclose([float(x) for x in out], [-1, -1, 1, 1], atol=1e-10)
    assert main(["roots", "--m", "1,2"]) == 2


def test_cli_zero_normal_exits_two_under_optimize(tmp_path):
    """The normal checks are not asserts: under python -O a zero normal still
    exits 2 from both shock-check and roots."""
    front = tmp_path / "front.json"
    front.write_text(json.dumps({"m": [0, 0, 0]}))
    for argv in (["shock-check", str(front)], ["roots", "--m", "0,0,0"], ["roots", "--m", "1,2"]):
        code = f"import sys; from bqfield.cli import main; sys.exit(main({argv!r}))"
        r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert r.returncode == 2, (argv, r.stdout, r.stderr)
        assert "normal must be" in r.stderr


def test_cli_usage_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["frobnicate"])
    assert exc2.value.code == 2


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
