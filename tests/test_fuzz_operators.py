"""Bounded property tests of the operators on random small boxes.

Each draw is a box of 4 to 13 points per axis with three random sides, and
band-limited data on it (white noise under the 2/3 rule).  On both schemes
div curl and curl grad vanish, and the mutual gradients factor the scheme's
own wave operator: D+ D- F = D- D+ F = d^2F/dtau^2 - div grad F, which on
spectral is ``apply_box``'s (central4's 5-point Laplacian differs from its
squared first derivative at O(h^4)).  On spectral the helicity components
of a stack of band vectors rotate back to the stack, and so do central4's,
whose frame is built from the stencil's symbol d(k) on the whole grid: the
stencil's curl and free transport act on its components as their
eigenvalues, and d(k) vanishes on every Nyquist plane.  Boxes stay under
13^3 points, so nothing large is allocated.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from bqfield import Biquaternion, Grid, Medium, Nabla, SimState, apply_box, apply_dminus, apply_dplus, state_rhs

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


def noise(grid, seed, lead):
    """Complex white noise of shape lead + n, max |.| 1: central4 has no band rule."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(lead + grid.n) + 1j * rng.standard_normal(lead + grid.n)
    return f / np.abs(f).max()


@bounded
@given(boxes, st.integers(0, 2**32 - 1), st.integers(1, 2), st.sampled_from([3, 4]))
def test_central4_helicity_components_round_trip(grid, seed, m, comps):
    """central4's frame is built on the whole grid from d(k): a stack of
    vectors, or of (scalar, vector) pairs, rotates back to itself."""
    nab = Nabla(grid, scheme="central4")
    assert nab._band_shape == grid.n
    X = nab.to_spectrum(noise(grid, seed, (m, comps)))
    assert np.abs(nab.from_helicity(nab.to_helicity(X)) - X).max() <= 1e-15 * np.abs(X).max()


@bounded
@given(boxes, st.integers(0, 2**32 - 1))
def test_central4_cross_acts_on_helicity_components_as_its_eigenvalues(grid, seed):
    """The 5-point stencil's curl of F is i d x F on the whole grid's
    coefficients, so d x acts on the frame's components as i s, -i s and 0,
    with s = |d(k)| the frame's: checked against the stencil itself."""
    nab = Nabla(grid, scheme="central4")
    F = noise(grid, seed, (3,))
    H = nab.to_helicity(nab.to_spectrum(F))
    got = nab.to_helicity(-1j * nab.to_spectrum(nab.curl(F)))
    s = nab.band_frame()[-1]
    tol = 1e-14 * s.max() * np.abs(H).max()
    for c, eig in enumerate((1j * s, -1j * s, 0 * s)):
        assert np.abs(got[c] - eig * H[c]).max() <= tol


@bounded
@given(boxes, st.integers(0, 2**32 - 1))
def test_central4_free_transport_is_diagonal_in_its_components(grid, seed):
    """Free transport on the stencil, state_rhs of free_theta, acts on
    Theta's (rho - J_n, J+, J-, rho + J_n) as -i s (-1, 1, -1, 1)."""
    nab = Nabla(grid, scheme="central4")
    U = np.zeros((1, 7) + grid.n, complex)
    U[0, 3:] = noise(grid, seed, (4,))
    dU = state_rhs(SimState(0.0, U, grid, Medium(), "free_theta"), nab)
    H, got = (nab.to_helicity(nab.to_spectrum(V[:, 3:])) for V in (U, dU))
    s = nab.band_frame()[-1]
    tol = 1e-14 * s.max() * np.abs(H).max()
    for c, sign in enumerate((-1, 1, -1, 1)):
        assert np.abs(got[:, c] - sign * -1j * s * H[:, c]).max() <= tol


@bounded
@given(boxes)
def test_central4_symbol_vanishes_on_every_nyquist_plane(grid):
    """d(k) is 0 on an even axis's Nyquist plane, exactly, as for real data
    the stencil's multiplier must be; so is that component of the frame's
    s n, and d is odd in k on every axis."""
    nab = Nabla(grid, scheme="central4")
    s = nab.band_frame()[-1]
    n = nab.from_helicity(np.broadcast_to(np.reshape([0, 0, 1], (3, 1, 1, 1)), (3,) + grid.n).astype(complex))
    for a, (m, d) in enumerate(zip(grid.n, nab._symbol)):
        d = d.ravel()
        assert np.array_equal(d[-np.arange(m) % m], -d)
        if m % 2 == 0:
            assert d[m // 2] == 0
            plane = np.take(s * n[a], m // 2, axis=a)
            assert np.all(plane == 0)
