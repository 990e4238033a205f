"""Bounded property tests of the operators on random small boxes.

Each draw is a box of 4 to 13 points per axis with three random sides, and
band-limited data on it (white noise under the 2/3 rule).  On both schemes
div curl and curl grad vanish, and the mutual gradients factor the scheme's
own wave operator: D+ D- F = D- D+ F = d^2F/dtau^2 - div grad F, which on
spectral is ``apply_box``'s (central4's 5-point Laplacian differs from its
squared first derivative at O(h^4)).  On spectral the helicity components
of a stack of band vectors rotate back to the stack.  Boxes stay under
13^3 points, so nothing large is allocated.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from bqfield import Biquaternion, Grid, Nabla, apply_box, apply_dminus, apply_dplus

boxes = st.builds(
    lambda n, L: Grid(n=tuple(n), L=tuple(L), dtau=0.01),
    st.lists(st.integers(4, 13), min_size=3, max_size=3),
    st.lists(st.floats(0.5, 20.0), min_size=3, max_size=3),
)
bounded = settings(max_examples=50, deadline=None, database=None, derandomize=True)


def band_limited(grid, seed, lead):
    """Complex white noise of shape lead + n under the 2/3 rule, max |.| 1."""
    rng = np.random.default_rng(seed)
    shape = lead + grid.n
    f = Nabla(grid).dealias(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return f / np.abs(f).max()


def kmax(grid):
    """The largest band wavenumber on any axis: a derivative's scale."""
    return max(2 * np.pi * (n // 3) / L for n, L in zip(grid.n, grid.L))


@bounded
@given(boxes, st.integers(0, 2**32 - 1), st.sampled_from(Nabla.schemes))
def test_div_curl_and_curl_grad_vanish(grid, seed, scheme):
    nab = Nabla(grid, scheme=scheme)
    f, F = band_limited(grid, seed, ()), band_limited(grid, seed + 1, (3,))
    tol = 1e-14 * kmax(grid) ** 2
    assert np.abs(nab.div(nab.curl(F))).max() <= tol
    assert np.abs(nab.curl(nab.grad(f))).max() <= tol


@bounded
@given(boxes, st.integers(0, 2**32 - 1), st.sampled_from(Nabla.schemes), st.floats(-3.0, 3.0))
def test_mutual_gradients_factor_the_wave_operator(grid, seed, scheme, w):
    """F(tau) = F0 exp(-i w tau), so its tau derivatives are exact multiples
    and the identity isolates the spatial operators."""
    nab = Nabla(grid, scheme=scheme)
    F = band_limited(grid, seed, (4,))
    F0 = Biquaternion(F[0], F[1:])
    dF, d2F = F0 * (-1j * w), F0 * (-(w**2))
    lap = Biquaternion(nab.div(nab.grad(F0.scalar)), np.stack([nab.div(nab.grad(v)) for v in F0.vector]))
    box = d2F - lap
    tol = 1e-14 * max(kmax(grid), abs(w), 1.0) ** 2
    pm = apply_dplus(nab, apply_dminus(nab, F0, dF), apply_dminus(nab, dF, d2F))
    mp = apply_dminus(nab, apply_dplus(nab, F0, dF), apply_dplus(nab, dF, d2F))
    assert (pm - box).linf() <= tol
    assert (mp - box).linf() <= tol
    if scheme == "spectral":
        assert (apply_box(nab, F0, d2F) - box).linf() <= tol


@bounded
@given(boxes, st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_helicity_components_round_trip(grid, seed, m):
    nab = Nabla(grid)
    rng = np.random.default_rng(seed)
    shape = (m, 3) + nab._band_shape
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.abs(nab.from_helicity(nab.to_helicity(X)) - X).max() <= 1e-15 * np.abs(X).max()
