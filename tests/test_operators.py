"""Derivative bundle tests: spectral and 4th-order central differences on
analytic fields, vector-calculus identities, the mutual gradients D+- and
the wave-operator factorization D- D+ = dtau^2 - Laplacian.
"""

import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from bqfield import (
    Biquaternion,
    Grid,
    Nabla,
    apply_box,
    apply_dminus,
    apply_dplus,
    from_vector,
)


def cube(n, dtau=0.05):
    return Grid(n=(n,) * 3, L=(2 * np.pi,) * 3, dtau=dtau)


def trig_scalar(grid):
    X, Y, Z = grid.meshgrid()
    f = np.sin(2 * X) * np.cos(Y) + 0.5 * np.cos(3 * Z)
    gf = np.stack(
        [
            2 * np.cos(2 * X) * np.cos(Y),
            -np.sin(2 * X) * np.sin(Y),
            -1.5 * np.sin(3 * Z),
        ]
    )
    lap = -5 * np.sin(2 * X) * np.cos(Y) - 4.5 * np.cos(3 * Z)
    return f, gf, lap


def test_gradient_matches_analytic_spectral():
    g = cube(24)
    nab = Nabla(g)
    f, gf, _ = trig_scalar(g)
    np.testing.assert_allclose(nab.grad(f), gf, atol=1e-11)


def test_laplacian_matches_analytic_spectral():
    g = cube(24)
    nab = Nabla(g)
    f, _, lap = trig_scalar(g)
    np.testing.assert_allclose(nab.laplacian(f), lap, atol=1e-10)


def test_divergence_and_curl_analytic():
    g = cube(24)
    nab = Nabla(g)
    X, Y, Z = g.meshgrid()
    F = np.stack([np.sin(Y), np.cos(Z), np.sin(X) * np.cos(Y)])
    div_want = np.zeros(g.shape)
    curl_want = np.stack(
        [
            -np.sin(X) * np.sin(Y) + np.sin(Z),
            -np.cos(X) * np.cos(Y),
            -np.cos(Y),
        ]
    )
    np.testing.assert_allclose(nab.div(F), div_want, atol=1e-12)
    np.testing.assert_allclose(nab.curl(F), curl_want, atol=1e-12)


def test_div_curl_and_curl_grad_vanish():
    g = cube(16)
    nab = Nabla(g)
    rng = np.random.default_rng(2)
    # band-limited random field: fill low modes only
    fh = np.zeros(g.shape, dtype=complex)
    fh[:4, :4, :4] = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    f = np.fft.ifftn(fh).real
    F = np.stack([f, np.roll(f, 3, axis=1), np.roll(f, 5, axis=2)])
    assert np.abs(nab.div(nab.curl(F))).max() <= 1e-12
    assert np.abs(nab.curl(nab.grad(f))).max() <= 1e-12
    # div grad = laplacian
    np.testing.assert_allclose(nab.div(nab.grad(f)), nab.laplacian(f), atol=1e-12)


# complex plane waves (k, p) of vector_waves: every component varies along
# every axis, so each derivative in div and curl is exercised
WAVES = [((2, 1, 0), (1.0, -0.5, 0.3)), ((0, 1, 3), (0.2, 0.7, -1.0)), ((1, -2, 1), (-0.4, 0.1, 0.6))]


def vector_waves(grid):
    """Sum of plane waves p exp(i k.x), with its exact divergence and curl."""
    X = np.stack(grid.meshgrid())
    F = div = curl = 0
    for k, p in WAVES:
        k, p = np.array(k, float), np.array(p, complex)
        e = np.exp(1j * np.tensordot(k, X, axes=1))
        F = F + p[:, None, None, None] * e
        div = div + 1j * (k @ p) * e
        curl = curl + 1j * np.cross(k, p)[:, None, None, None] * e
    return F, div, curl


@pytest.mark.parametrize("op", ["grad", "div", "curl", "laplacian"])
def test_central4_convergence_rate(op):
    """Halving h should shrink the central4 error about 16-fold."""
    errs = []
    for n in (16, 32):
        g = cube(n)
        nab = Nabla(g, scheme="central4")
        f, gf, lap = trig_scalar(g)
        F, div, curl = vector_waves(g)
        arg, want = {"grad": (f, gf), "div": (F, div), "curl": (F, curl), "laplacian": (f, lap)}[op]
        errs.append(np.abs(getattr(nab, op)(arg) - want).max())
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def roll_d(f, axis, h):
    """The fourth-order first derivative along a periodic axis, from np.roll."""
    r = lambda k: np.roll(f, k, axis=axis)  # noqa: E731
    return (-r(-2) + 8 * r(-1) - 8 * r(1) + r(2)) / (12 * h)


def roll_laplacian(f, hs):
    out = 0
    for a, h in enumerate(hs):
        r = lambda k: np.roll(f, k, axis=a - 3)  # noqa: E731
        out = out + (-r(-2) + 16 * r(-1) - 30 * f + 16 * r(1) - r(2)) / (12 * h * h)
    return out


@pytest.mark.parametrize("n", [(4, 4, 4), (5, 7, 9), (8, 9, 12), (12, 12, 12)])
@pytest.mark.parametrize("lead", [(), (3,), (2, 4)], ids=["scalar", "vector", "stacked"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_central4_stencil_matches_roll_reference(n, lead, dtype):
    """Nabla's central4 derivative and Laplacian equal the np.roll formulas on
    every axis, odd and even axes, unequal spacings and leading axes.  A
    5-term float64 sum, so 1e-14 of max |reference|."""
    g = Grid(n=n, L=(2 * np.pi, 3.0, 5.5), dtau=0.01)
    nab = Nabla(g, scheme="central4")
    rng = np.random.default_rng(sum(n) + len(lead))
    f = rng.standard_normal(lead + n)
    if dtype is complex:
        f = f + 1j * rng.standard_normal(lead + n)
    for a in range(3):
        want = roll_d(f, a - 3, g.h[a])
        got = nab._d(f, a)
        assert got.shape == f.shape and got.dtype == f.dtype
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    want = roll_laplacian(f, g.h)
    assert np.abs(nab.laplacian(f) - want).max() <= 1e-14 * np.abs(want).max()


def test_dplus_dminus_plane_wave_eigenvalues():
    # F = p exp(i k.x), static in tau: D+ F = i grad f + i curl F packaged.
    g = cube(16)
    nab = Nabla(g)
    X, Y, Z = g.meshgrid()
    k = np.array([1.0, 2.0, -1.0])
    phase = np.exp(1j * (k[0] * X + k[1] * Y + k[2] * Z))
    p = np.array([0.3, -1.0, 0.5], dtype=complex)
    F = from_vector(p.reshape(3, 1, 1, 1) * phase)
    zero = Biquaternion(np.zeros_like(phase), np.zeros_like(F.vector))
    got = apply_dplus(nab, F, zero)
    # scalar: -i div F = -i (i k.p) phase = (k.p) phase
    np.testing.assert_allclose(got.scalar, (k @ p) * phase, atol=1e-12)
    # vector: i curl F = i (i k x p) phase = -(k x p) phase
    np.testing.assert_allclose(
        got.vector, -np.cross(k, p).reshape(3, 1, 1, 1) * phase, atol=1e-12
    )
    got_m = apply_dminus(nab, F, zero)
    np.testing.assert_allclose(got_m.scalar, -(k @ p) * phase, atol=1e-12)
    np.testing.assert_allclose(
        got_m.vector, np.cross(k, p).reshape(3, 1, 1, 1) * phase, atol=1e-12
    )


def random_band_limited_bq(g, rng, kmax=4):
    def field():
        fh = np.zeros(g.shape, dtype=complex)
        fh[:kmax, :kmax, :kmax] = rng.standard_normal((kmax,) * 3) + 1j * rng.standard_normal((kmax,) * 3)
        return np.fft.ifftn(fh) * g.n[0] ** 1.5
    return Biquaternion(field(), np.stack([field() for _ in range(3)]))


def test_factorization_identity_32cubed_under_5s():
    """D- D+ F equals (dtau^2 - Laplacian) F to 1e-10 on a 32^3 grid.

    tau-dependence is analytic: F(tau) = F0 * exp(-i w tau), so dF and d2F
    are exact multiples and the identity isolates the spatial operators.
    """
    g = cube(32)
    nab = Nabla(g)
    rng = np.random.default_rng(8)
    F0 = random_band_limited_bq(g, rng)
    w = 1.7
    dF = F0 * (-1j * w)
    d2F = F0 * (-(w**2))
    t0 = time.perf_counter()
    inner = apply_dplus(nab, F0, dF)
    inner_dtau = apply_dplus(nab, dF, d2F)  # d/dtau commutes with D+
    lhs = apply_dminus(nab, inner, inner_dtau)
    rhs = apply_box(nab, F0, d2F)
    elapsed = time.perf_counter() - t0
    diff = lhs - rhs
    scale = max(rhs.linf(), 1.0)
    assert diff.linf() <= 1e-10 * scale
    assert elapsed < 5.0


def test_factorization_order_swap():
    # D+ D- gives the same wave operator
    g = cube(16)
    nab = Nabla(g)
    rng = np.random.default_rng(9)
    F0 = random_band_limited_bq(g, rng)
    dF = F0 * 0.0
    d2F = F0 * 0.0
    lhs = apply_dplus(nab, apply_dminus(nab, F0, dF), dF)
    rhs = apply_box(nab, F0, d2F)
    assert (lhs - rhs).linf() <= 1e-10 * max(rhs.linf(), 1.0)


@pytest.mark.parametrize("scheme", Nabla.schemes)
def test_quaternion_gradient_is_minus_div_plus_grad_curl(scheme):
    """nabla o F = -div F + (grad f + curl F): exact on central4, round-off on spectral."""
    g = cube(12)
    nab = Nabla(g, scheme=scheme)
    F = random_band_limited_bq(g, np.random.default_rng(13))
    got = nab.quaternion_gradient(F)
    want = Biquaternion(-nab.div(F.vector), nab.grad(F.scalar) + nab.curl(F.vector))
    if scheme == "central4":
        assert np.array_equal(got.scalar, want.scalar)
        assert np.array_equal(got.vector, want.vector)
    else:
        assert (got - want).linf() <= 1e-13 * want.linf()


def test_dealias_idempotent_and_bandpass():
    g = cube(12)
    nab = Nabla(g)
    rng = np.random.default_rng(10)
    f = rng.standard_normal(g.shape)
    fd = nab.dealias(f)
    np.testing.assert_allclose(nab.dealias(fd), fd, atol=1e-13)
    # a retained low mode passes through untouched
    X, _, _ = g.meshgrid()
    low = np.cos(2 * X)
    np.testing.assert_allclose(nab.dealias(low), low, atol=1e-13)
    # the Nyquist-adjacent mode is removed
    hi = np.cos(5 * X)
    assert np.abs(nab.dealias(hi)).max() <= 1e-13


@pytest.mark.parametrize("n", [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (9, 9, 9), (12, 12, 12),
                               (8, 9, 12), (2, 5, 3)])
def test_band_gather_and_scatter_are_the_two_thirds_rule(n):
    """The spectral band holds the wavenumbers |k_i| <= n_i/3 in fftn order:
    from_band(to_band(f)) is the 2/3 filter, and band derivatives agree with the full
    grid's.  Grid asks for n >= 4, so the tiny axes use a stand-in; Nabla
    reads only n and h."""
    grid = SimpleNamespace(n=n, h=tuple(2 * np.pi / m for m in n))
    nab = Nabla(grid)
    rng = np.random.default_rng(sum(n))
    F = rng.standard_normal((3,) + n) + 1j * rng.standard_normal((3,) + n)
    Fh = np.fft.fftn(F, axes=(-3, -2, -1))
    freq = [np.fft.fftfreq(m, 1.0 / m) for m in n]
    kept = [np.flatnonzero(np.abs(k) <= m / 3) for k, m in zip(freq, n)]
    band = nab.to_band(F)
    assert band.shape == (3,) + tuple(2 * (m // 3) + 1 for m in n)
    assert np.allclose(band, Fh[(...,) + np.ix_(*kept)], rtol=0, atol=1e-12)
    mask = np.ones(n, bool)
    for a, k in enumerate(freq):
        mask &= np.expand_dims(np.abs(k) <= n[a] / 3, [b for b in range(3) if b != a])
    want = np.fft.ifftn(Fh * mask, axes=(-3, -2, -1))
    assert np.abs(nab.from_band(band) - want).max() <= 1e-14 * np.abs(F).max()
    assert np.abs(nab.dealias(F) - want).max() <= 1e-14 * np.abs(F).max()
    assert np.abs(nab.from_band(nab._curl(band)) - nab.curl(want)).max() <= 1e-13 * np.abs(F).max()


def helicity_box():
    """A box with three different sides and one odd n, its spectral Nabla,
    and its band wavevectors k, shape (3,) + band."""
    nab = Nabla(Grid(n=(8, 9, 12), L=(2 * np.pi, 3.0, 5.0), dtau=0.05))
    axes = [nab._ik[a][m].imag.ravel() for a, m in enumerate(nab._band_shape)]
    return nab, np.stack(np.meshgrid(*axes, indexing="ij"))


def helicity_unit(nab, coefficients):
    """The band vector field whose helicity components are ``coefficients``
    (h+, h-, h0) at every wavenumber."""
    H = np.zeros((3,) + nab._band_shape, complex)
    H[:] = np.reshape(coefficients, (3, 1, 1, 1))
    return nab.from_helicity(H)


def test_helicity_frame_is_right_handed_and_orthonormal_everywhere():
    """u, w and n, made back from the helicity components (1, 1, 0),
    (i, -i, 0) and (0, 0, 1), are real, orthonormal and right-handed at
    every band wavenumber, the k_x axis line and k = 0 included, with
    k = s n and s = |k|."""
    nab, k = helicity_box()
    u, w, n = (helicity_unit(nab, c) for c in ((1, 1, 0), (1j, -1j, 0), (0, 0, 1)))
    assert all(np.abs(v.imag).max() == 0 for v in (u, w, n))
    u, w, n = u.real, w.real, n.real
    for a, b, want in ((u, u, 1), (w, w, 1), (n, n, 1), (u, w, 0), (w, n, 0), (n, u, 0)):
        assert np.abs((a * b).sum(axis=0) - want).max() <= 1e-15
    assert np.abs(np.cross(u, w, axis=0) - n).max() <= 1e-15
    s = nab.band_frame()[-1]
    assert np.abs(s * n - k).max() <= 1e-15 * np.abs(k).max()
    assert np.array_equal(s, np.sqrt(nab.band_k2()))


def test_band_curl_is_diagonal_in_the_helicity_frame():
    """The band curl i k x maps e+ (components (1, 0, 0)) to -s e+ and e-
    (components (0, 1, 0)) to s e-, so maxwell's L = -i curl acts on them as
    i s and -i s, and n to 0; to_helicity reads each back alone."""
    nab, _ = helicity_box()
    s = nab.band_frame()[-1]
    for c, eig in (((1, 0, 0), -s), ((0, 1, 0), s), ((0, 0, 1), 0 * s)):
        e = helicity_unit(nab, c)
        assert np.abs(nab._curl(e) - eig * e).max() <= 1e-14 * np.abs(s).max()
        want = np.reshape(c, (3, 1, 1, 1)) * np.ones(s.shape)
        assert np.abs(nab.to_helicity(e) - want).max() <= 1e-15


def test_helicity_components_round_trip():
    """Cartesian -> helicity -> Cartesian gives the stack back to 1e-15
    relative, for a stack of fields as the stepper holds."""
    nab, _ = helicity_box()
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 3) + nab._band_shape) + 1j * rng.standard_normal((2, 3) + nab._band_shape)
    H = nab.to_helicity(X)
    assert H.shape == X.shape
    assert np.abs(nab.from_helicity(H) - X).max() <= 1e-15 * np.abs(X).max()


def test_from_band_rotates_helicity_components_back_slab_by_slab():
    """from_band on helicity components, rotated back a few k_x planes at a
    time as they are scattered, gives what rotating the whole band first
    gives, for a stack of two fields on a box whose slabs split the band's
    runs of k_x planes."""
    nab = Nabla(Grid(n=(12, 96, 81), L=(2 * np.pi, 3.0, 5.0), dtau=0.05))
    rng = np.random.default_rng(5)
    shape = (2, 3) + nab._band_shape
    H = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = nab.from_band(nab.from_helicity(H))
    assert np.abs(nab.from_band(H, helical=True) - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", [8, 12])
def test_first_derivatives_of_real_data_stay_real(n):
    """The spectral ik zeroes the odd Nyquist wavenumber on an even n: real
    data with Nyquist content has real gradient, divergence and curl (ik at
    Nyquist turns that real coefficient into an imaginary one)."""
    g = cube(n)
    nab = Nabla(g)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(g.shape)
    F = rng.standard_normal((3,) + g.shape)
    assert np.abs(np.fft.fftn(f)[n // 2, 0, 0]) > 1e-3  # it has Nyquist content
    for d in (nab.grad(f), nab.div(F), nab.curl(F)):
        assert np.abs(d.imag).max() <= 1e-13 * np.abs(d.real).max()


def test_central4_scheme_skips_dealias():
    g = cube(12)
    nab = Nabla(g, scheme="central4")
    rng = np.random.default_rng(12)
    f = rng.standard_normal(g.shape)
    assert nab.dealias(f) is f


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="upwind"):
        Nabla(cube(8), scheme="upwind")
    # the check is not an assert, so it holds under python -O too
    code = (
        "from bqfield import Grid, Nabla\n"
        "try: Nabla(Grid(n=(8, 8, 8), L=(1.0, 1.0, 1.0), dtau=0.01), scheme='upwind')\n"
        "except ValueError: raise SystemExit(7)"
    )
    assert subprocess.run([sys.executable, "-O", "-c", code]).returncode == 7



@pytest.mark.parametrize("workers, want", [(1.5, None), ("2", None), (True, None), (None, None), (0, None),
                                           (1, 1), (np.int64(2), 2), (-1, -1)])
def test_workers_is_a_nonzero_integer(workers, want):
    """workers follows the package's integer rule (no float, string or bool),
    and 0 is refused when the Nabla is built, not at its first transform.
    Positive counts and scipy's negative ones (-1: every CPU) are kept as
    ints and give the single-threaded transform's numbers."""
    g = cube(8)
    if want is None:
        with pytest.raises(ValueError, match="workers must be a nonzero integer"):
            Nabla(g, workers=workers)
        return
    nab = Nabla(g, workers=workers)
    assert type(nab.workers) is int and nab.workers == want
    f = np.random.default_rng(3).standard_normal(g.shape)
    np.testing.assert_array_equal(nab.grad(f), Nabla(g).grad(f))
