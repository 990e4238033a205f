"""Bounded property tests of the initial-data presets on random small boxes.

Each draw is a box of 4 to 13 points per axis with sides in [0.5, 20], and
one charge-current preset on it: a plane wave with integer wave numbers, a
gaussian pulse (any centre; a width up to twice the shortest side, so that
41 images hold its periodic sum; with or without the gradient and the
scalar), ``uniform`` or null.  Its rank-1 terms taken onto the band from
their 1-D factors equal ``Nabla.to_spectrum`` of the multiplied-out data; that
data equals a direct evaluation on the meshgrid; and a centre moved by whole
box lengths gives the same data.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from bqfield import Grid, Nabla, build_preset
from bqfield.scenario import _preset_terms

EPS = np.finfo(float).eps

boxes = st.builds(
    lambda n, L: Grid(n=tuple(n), L=tuple(L), dtau=0.01),
    st.lists(st.integers(4, 13), min_size=3, max_size=3),
    st.lists(st.floats(0.5, 20.0), min_size=3, max_size=3),
)
bounded = settings(max_examples=50, deadline=None, database=None, derandomize=True)
cnum = st.builds(lambda re, im: {"re": re, "im": im}, st.floats(-2, 2), st.floats(-2, 2))
cvec = st.builds(lambda re, im: {"re": re, "im": im},
                 *[st.lists(st.floats(-2, 2), min_size=3, max_size=3)] * 2)


@st.composite
def presets(draw, grid):
    """A preset dict for ``grid``, or None (null)."""
    kind = draw(st.sampled_from(["plane_wave", "gaussian_pulse", "uniform", None]))
    if kind is None:
        return None
    p = {"type": kind}
    if kind == "plane_wave":
        p["k"] = [2 * np.pi * draw(st.integers(-8, 8)) / L for L in grid.L]
    elif kind == "gaussian_pulse":
        p["center"] = draw(st.lists(st.floats(-100, 100), min_size=3, max_size=3))
        p["width"] = draw(st.floats(0.02, 2.0)) * min(grid.L)
        p["gradient"] = draw(st.booleans())
    if not p.get("gradient"):
        p["value" if kind == "uniform" else "polarization"] = draw(cvec)
    if kind != "uniform":
        p["amplitude"] = draw(cnum)
    if draw(st.booleans()):
        p["scalar"] = draw(cnum)
    return p


def cplx(v, default):
    """A scenario number or {re, im} as complex (arrays for lists)."""
    if v is None:
        return default
    return np.asarray(v["re"]) + 1j * np.asarray(v["im"])


def direct(p, grid):
    """(rho, J) of preset p, evaluated on the meshgrid: exp(i k.x) of the
    summed phase, and per axis the 41 images at -20..20 box lengths of a
    gaussian centred at c mod L; and the size round-off is relative to,
    |amplitude| max(1, |scalar|, |polarization|) max |profile|."""
    X = grid.meshgrid()
    amp = cplx(p.get("amplitude"), 1.0)
    sc, pol = cplx(p.get("scalar"), 0j), cplx(p.get("polarization", p.get("value")), np.zeros(3))
    size = abs(amp) * max(1, abs(sc), np.abs(pol).max())
    if p["type"] == "plane_wave":
        profile = np.exp(1j * sum(k * x for k, x in zip(p["k"], X)))
    elif p["type"] == "uniform":
        profile = np.ones(grid.n)
    else:
        w = p["width"]
        xs = [[x - np.mod(c, L) + s * L for s in range(-20, 21)] for x, c, L in zip(X, p["center"], grid.L)]
        g = [sum(np.exp(-xa**2 / (2 * w**2)) for xa in xa_s) for xa_s in xs]
        dg = [sum(-xa / w**2 * np.exp(-xa**2 / (2 * w**2)) for xa in xa_s) for xa_s in xs]
        profile = g[0] * g[1] * g[2]
        if p["gradient"]:
            grad = np.stack([dg[0] * g[1] * g[2], g[0] * dg[1] * g[2], g[0] * g[1] * dg[2]])
            return amp * sc * profile, amp * grad, size * profile.max()
    return amp * sc * profile, amp * pol[:, None, None, None] * profile, size * np.abs(profile).max()


def scale(p, grid):
    """The relative round-off the presets allow: the 1-D phases' eps sum
    |k_a| L_a, and a gradient's 1 / width."""
    if p["type"] == "plane_wave":
        return 1 + sum(abs(k) * L for k, L in zip(p["k"], grid.L))
    return 1 + (1 / p["width"] if p.get("gradient") else 0)


@bounded
@given(boxes.flatmap(lambda g: st.tuples(st.just(g), presets(g))))
def test_band_of_the_terms_is_the_band_of_the_data(case):
    """Relative to the data's l1 norm, which bounds every coefficient."""
    grid, p = case
    nab = Nabla(grid)
    terms = _preset_terms(p, grid, "t", "pair")
    rho, J = build_preset(p, grid, "t", "pair")
    dense = np.concatenate([rho[None], J])
    got = nab.band_of_terms([terms])[0]
    assert got.shape == (4,) + nab._band_shape
    assert np.abs(got - nab.to_spectrum(dense)).max() <= 1e-13 * np.abs(dense).sum()


@bounded
@given(boxes.flatmap(lambda g: st.tuples(st.just(g), presets(g))))
def test_the_data_is_the_direct_evaluation(case):
    grid, p = case
    rho, J = build_preset(p, grid, "t", "pair")
    if p is None:
        assert not rho.any() and not J.any()
        return
    want_rho, want_J, size = direct(p, grid)
    for got, want in ((rho, want_rho), (J, want_J)):
        assert np.abs(got - want).max() <= 64 * EPS * scale(p, grid) * size


@bounded
@given(boxes, st.lists(st.floats(-100, 100), min_size=3, max_size=3), st.floats(0.02, 2.0),
       st.booleans(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_a_centre_moved_by_whole_boxes_gives_the_same_data(grid, center, width, gradient, m):
    """To the rounding of the moved centre, eps |c + m L| / width, relative
    to the profile's peak: 1, or its largest value on the grid where the
    images add up to more."""
    p = {"type": "gaussian_pulse", "center": center, "width": width * min(grid.L), "scalar": 1.0}
    if gradient:
        p["gradient"] = True
    moved = dict(p, center=[c + k * L for c, k, L in zip(center, m, grid.L)])
    a, b = build_preset(p, grid, "t", "pair"), build_preset(moved, grid, "t", "pair")
    shift = max(abs(c) for c in moved["center"] + center) + max(grid.L)
    peak = max(1.0, np.abs(a[0]).max())
    for x, y in zip(a, b):
        assert np.abs(x - y).max() <= 16 * EPS * shift / p["width"] * scale(p, grid) * peak
