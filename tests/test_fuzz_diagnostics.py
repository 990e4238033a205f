"""Bounded property tests of a scenario on the 8^3 eigenmode document.

The first draws only its diagnostics list: known series names and junk,
cadences, tolerances, regions and surfaces, with integers up to 10**400.
Whatever is drawn, the parser either refuses it with a ScenarioError or
returns a scenario whose engine builds, and only the integral series of that
scenario carry a region or surface.  The second draws the mode, the field
count, a background, the run length and one series' cadence, and requires
that a scenario which parses also builds and measures.  The third gives the
first one's draws to ``DiagnosticsEngine`` from Python, which must read them
as the parser does.  The fourth draws a mode, a field count, a cadence,
a scheme and a grid of 6^3 to 12^3, and requires that the engine's rows
match the public residual functions' on the same states.  ``grid.n`` is
never drawn above 12, so nothing large is allocated.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from test_diagnostics import assert_rows_match, engine_and_residual_rows
from test_scenario_cli import eigenmode_doc

from bqfield import MODES, DiagnosticsEngine, Nabla, run_scenario
from bqfield.diagnostics import DIAGNOSTIC_NAMES, LAWS
from bqfield.scenario import ScenarioError, parse_scenario


def mostly(good, bad):
    """Draws from ``good`` nine times in ten, else from ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


# small ints meet the 8^3 grid's bounds; the wide ones overflow a float
ints = mostly(st.integers(-1, 9), st.integers(-10**400, 10**400))
junk = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4), st.lists(st.integers(), max_size=3))
triples = st.lists(ints, min_size=3, max_size=3)


def surface(axes, index, j0, run):
    return {"axis": axes[0], "part_axis": axes[1], "index": index, "j0": j0, "j1": j0 + run}


# nine draws in ten hold on the grid; a surface that holds may still lie
# anywhere in its plane and run, out to 10**400 cells from the origin
regions = mostly(
    st.builds(lambda lo, width: {"lo": lo, "hi": [a + w for a, w in zip(lo, width)]},
              st.lists(st.integers(0, 4), min_size=3, max_size=3),
              st.lists(st.integers(1, 4), min_size=3, max_size=3)),
    st.one_of(st.fixed_dictionaries({"lo": triples, "hi": triples}), junk),
)
surfaces = mostly(
    st.builds(surface, st.permutations(range(3)), ints, ints, st.integers(1, 8)),
    st.one_of(st.builds(surface, triples, ints, ints, st.integers(-1, 9)), junk),
)
specs = st.fixed_dictionaries(
    {"name": mostly(st.sampled_from(DIAGNOSTIC_NAMES), junk)},
    optional={
        "cadence": mostly(ints, junk),
        "tolerance": mostly(st.floats(1e-300, 1e300), st.one_of(st.floats(), ints, junk)),
        "region": regions,
        "surface": surfaces,
    },
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(mostly(specs, junk), max_size=4))
def test_a_diagnostics_block_parses_into_an_engine_or_is_refused(diagnostics):
    doc = eigenmode_doc()
    doc["diagnostics"] = diagnostics
    try:
        sc = parse_scenario(doc)
    except ScenarioError:
        return
    DiagnosticsEngine(Nabla(sc.grid), sc.diagnostics)
    for spec in sc.diagnostics:
        if LAWS[spec["name"]].kind != "integral":
            assert spec.get("region") is None and spec.get("surface") is None, spec


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(mostly(specs, junk), max_size=4))
def test_the_engine_reads_a_block_as_the_parser_does(diagnostics):
    """``DiagnosticsEngine`` given a drawn block from Python raises nothing
    but ValueError, and where the parser takes the block, the engine built
    from it has the scenario's engine's series, cadences and tolerances."""
    doc = eigenmode_doc()
    nabla = Nabla(parse_scenario(doc).grid)
    try:
        engine = DiagnosticsEngine(nabla, diagnostics)
    except ValueError:
        engine = None
    doc["diagnostics"] = diagnostics
    try:
        sc = parse_scenario(doc)
    except ScenarioError:
        return
    parsed = DiagnosticsEngine(nabla, sc.diagnostics)
    assert engine is not None, diagnostics
    assert engine.cadence == parsed.cadence and list(engine.cadence) == list(parsed.cadence)
    assert {n: s.tolerance for n, s in engine.series.items()} == {n: s.tolerance for n, s in parsed.series.items()}


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(mode=mostly(st.sampled_from(MODES), st.sampled_from(("plasma", "", "Maxwell"))),
       n_fields=st.integers(1, 3), misplaced_background=mostly(st.just(False), st.just(True)),
       steps=st.integers(1, 6), name=st.sampled_from(DIAGNOSTIC_NAMES), cadence=st.integers(1, 8))
def test_a_scenario_that_parses_builds_and_measures(mode, n_fields, misplaced_background, steps,
                                                    name, cadence):
    """Every series of a scenario that parses gets at least one row, and the
    run exits 0: a series its cadence leaves without a row, or a mode that
    lacks its partner field, is refused."""
    doc = eigenmode_doc(steps=steps)
    doc["mode"] = mode
    doc["initial_conditions"] *= n_fields
    if (mode == "strong_field") != misplaced_background:
        doc["background"] = {"type": "uniform", "value": [0.1, 0.0, 0.0]}
    doc["diagnostics"] = [{"name": name, "cadence": cadence}]
    try:
        sc = parse_scenario(doc)
    except ScenarioError:
        return
    report = run_scenario(sc)  # build_state, DiagnosticsEngine, the steps
    assert report.exit_code == 0 and report.series[name].rows, (mode, n_fields, steps, name, cadence)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(mode=st.sampled_from(MODES), extra=st.integers(0, 1), cadence=st.integers(1, 2),
       n=st.integers(6, 12), scheme=st.sampled_from(Nabla.schemes), seed=st.integers(0, 2**16))
def test_engine_rows_match_the_residual_functions(mode, extra, cadence, n, scheme, seed):
    """Whatever the mode, field count, cadence, scheme and grid, every
    window, pointwise and integral row the engine forms from its newest
    samples is the public residual functions' on the same states, to
    round-off (``assert_rows_match``)."""
    M = (2 if mode in ("interaction", "united") else 1) + extra
    assert_rows_match(*engine_and_residual_rows(mode, M, cadence, n, scheme, seed))
