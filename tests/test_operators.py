"""Derivative bundle tests: spectral and 4th-order central differences on
analytic fields, vector-calculus identities, the mutual gradients D+- and
the wave-operator factorization D- D+ = dtau^2 - Laplacian.
"""

import subprocess
import sys
import time

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


def test_central4_convergence_rate():
    """Halving h should shrink the central4 gradient error about 16-fold."""
    errs = []
    for n in (16, 32):
        g = cube(n)
        nab = Nabla(g, scheme="central4")
        f, gf, _ = trig_scalar(g)
        errs.append(np.abs(nab.grad(f) - gf).max())
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


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
