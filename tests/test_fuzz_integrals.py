"""Bounded property tests of the integral machinery under the integral laws.

Each draw takes a small grid with unequal lengths, a grid-aligned sub-box, a
flux surface in any of the six orientations (its plane index and run start up
to three periods from the origin) and a random 2/3-filtered field F.  The
box and rectangle integrals must then satisfy the three theorems the laws
rest on, to round-off: Gauss (outward flux = volume integral of div F), its
curl form (integral of n x F over the boundary = volume integral of curl F)
and Stokes (circulation = flux of curl F).  The weights integrate the
trigonometric interpolant exactly, so a band-limited F leaves nothing but
round-off.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from bqfield import BoxRegion, FluxSurface, Grid, Nabla


@st.composite
def cases(draw):
    n = draw(st.tuples(*[st.integers(4, 12)] * 3))
    L = draw(st.tuples(*[st.floats(0.5, 8.0)] * 3))
    lo = [draw(st.integers(0, m - 1)) for m in n]
    hi = [draw(st.integers(a + 1, m)) for a, m in zip(lo, n)]
    axis, part_axis, _ = draw(st.permutations(range(3)))
    index = draw(st.integers(-3 * n[axis], 3 * n[axis]))
    j0 = draw(st.integers(-3 * n[part_axis], 3 * n[part_axis]))
    run = draw(st.integers(1, n[part_axis]))
    seed = draw(st.integers(0, 2**32 - 1))
    return Grid(n=n, L=L, dtau=0.1), lo, hi, (axis, index, part_axis, j0, j0 + run), seed


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(cases())
def test_box_and_surface_integrals_keep_gauss_and_stokes(case):
    g, lo, hi, surface, seed = case
    nabla = Nabla(g)
    rng = np.random.default_rng(seed)
    F = nabla.dealias(rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape))
    div, curl = nabla.div(F), nabla.curl(F)
    reg, srf = BoxRegion(g, lo, hi), FluxSurface(g, *surface)
    # the integrands' size times the box volume bounds every integral here
    scale = max(np.abs(F).max(), np.abs(div).max(), np.abs(curl).max()) * np.prod(g.L)
    tol = 1e-12 * scale
    assert abs(reg.boundary_flux(F) - reg.volume_integral(div)) <= tol
    assert np.abs(reg.boundary_cross(F) - reg.volume_integral(curl)).max() <= tol
    assert abs(srf.contour_integral(F) - srf.surface_integral(curl[srf.axis])) <= tol
