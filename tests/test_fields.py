"""State containers: medium constants, grid metadata, the complex packings
of (E, H) and (rho, j) and their exact inverses.
"""

import numpy as np
import pytest

from bqfield import (
    AField,
    ChargeCurrent,
    Grid,
    Medium,
    Nabla,
    assemble_afield,
    assemble_theta,
    decompose_afield,
    decompose_force,
    decompose_theta,
    from_vector,
    velocity_current,
)


def small_grid(n=8):
    return Grid(n=(n,) * 3, L=(2 * np.pi,) * 3, dtau=0.05)


def test_medium_defaults_and_speed():
    m = Medium()
    assert m.epsilon == 1.0 and m.mu == 1.0 and m.kappa == 1.0
    assert m.c == 1.0
    m2 = Medium(epsilon=4.0, mu=0.25)
    assert m2.c == pytest.approx(1.0, abs=0)
    m3 = Medium(epsilon=2.0, mu=8.0)
    assert m3.c == pytest.approx(0.25)


# each constant must be a real number > 0, finite as a float, and not a bool
NOT_POSITIVE = [0.0, -1.0, np.inf, 10**400, np.nan, True, "1", None, 1j]


def test_medium_rejects_nonpositive():
    for name in ("epsilon", "mu", "kappa"):
        for bad in NOT_POSITIVE:
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                Medium(**{name: bad})


@pytest.mark.parametrize("kwargs,fragment", [
    *[({"dtau": bad}, "dtau must be positive") for bad in NOT_POSITIVE],
    *[({"L": L}, "L must be positive") for L in [(np.inf, 1.0, 1.0), (1.0, "1", 1.0), (1.0, 1.0), 2.0]],
    *[({"n": n}, "n must be 3 cell counts") for n in [(8.9, 8, 8), ("8", 8, 8), (8, 8), 8, (3, 8, 8)]],
])
def test_grid_rejects_what_it_cannot_use(kwargs, fragment):
    """n must be 3 integers >= 4 (a float count is not truncated), L 3 and
    dtau one finite real number > 0; anything else raises ValueError."""
    given = {"n": (8, 8, 8), "L": (1.0, 1.0, 1.0), "dtau": 0.1, **kwargs}
    with pytest.raises(ValueError, match=fragment):
        Grid(**given)


def test_grid_and_medium_hold_python_numbers():
    g = Grid(n=(np.int64(8), 8, 8), L=(1, 2, np.float32(3)), dtau=np.float32(0.5))
    m = Medium(epsilon=2, mu=np.float64(0.5))
    assert g.n == (8, 8, 8) and type(g.n[0]) is int
    assert [type(v) for v in (*g.L, g.dtau, m.epsilon, m.mu, m.kappa)] == [float] * 7


def test_grid_spacing_and_axes():
    g = small_grid(16)
    assert g.shape == (16, 16, 16)
    hx, hy, hz = g.h
    assert hx == pytest.approx(2 * np.pi / 16)
    x, y, z = g.axes()
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(2 * np.pi - hx)


def test_afield_packing_roundtrip():
    g = small_grid()
    rng = np.random.default_rng(3)
    E = rng.standard_normal((3,) + g.shape)
    H = rng.standard_normal((3,) + g.shape)
    for med in (Medium(), Medium(epsilon=2.0, mu=0.5)):
        a = assemble_afield(g, E, H, med)
        np.testing.assert_allclose(
            a.A, np.sqrt(med.epsilon) * E + 1j * np.sqrt(med.mu) * H
        )
        E2, H2 = decompose_afield(a, med)
        np.testing.assert_allclose(E2, E, atol=1e-15)
        np.testing.assert_allclose(H2, H, atol=1e-15)


def test_theta_packing_roundtrip():
    """rho = rho_E/sqrt(eps) - i rho_H/sqrt(mu), J = sqrt(mu) j_E - i sqrt(eps) j_H."""
    g = small_grid()
    rng = np.random.default_rng(5)
    rho_E = rng.standard_normal(g.shape)
    rho_H = rng.standard_normal(g.shape)
    j_E = rng.standard_normal((3,) + g.shape)
    j_H = rng.standard_normal((3,) + g.shape)
    med = Medium(epsilon=3.0, mu=0.7)
    th = assemble_theta(g, rho_E, rho_H, j_E, j_H, med)
    np.testing.assert_allclose(
        th.rho, rho_E / np.sqrt(3.0) - 1j * rho_H / np.sqrt(0.7)
    )
    np.testing.assert_allclose(
        th.J, np.sqrt(0.7) * j_E - 1j * np.sqrt(3.0) * j_H
    )
    back = decompose_theta(th, med)
    for got, want in zip(back, (rho_E, rho_H, j_E, j_H)):
        np.testing.assert_allclose(got, want, atol=1e-14)


def test_theta_biquaternion_has_imaginary_charge_scalar():
    g = small_grid(4)
    th = ChargeCurrent(g, rho=np.ones(g.shape, complex), J=g.zeros_vector())
    bq = th.as_biquaternion()
    # Theta = i rho + J
    np.testing.assert_array_equal(bq.scalar, 1j * np.ones(g.shape))
    assert np.abs(bq.vector).max() == 0.0


def test_afield_shape_validation():
    g = small_grid(4)
    with pytest.raises(ValueError):
        AField(g, np.zeros((3, 4, 4, 5), dtype=complex))
    with pytest.raises(ValueError):
        ChargeCurrent(g, rho=np.zeros((4, 4, 4)), J=np.zeros((2, 4, 4, 4)))


def test_velocity_current_potential_flow_warning_metric():
    # rho moving with a uniform velocity: j = rho V has curl j = (grad rho) x V,
    # nonzero for a generic rho; a constant rho gives curl j = 0 exactly.
    g = small_grid(16)
    nab = Nabla(g)
    med = Medium()
    X, Y, Z = g.meshgrid()
    V = np.zeros((3,) + g.shape)
    V[0] = 0.3
    rho_u = np.ones(g.shape)
    th, warn = velocity_current(g, rho_u, 0.0 * rho_u, V, med, nabla=nab)
    assert warn <= 1e-13
    rho_w = np.cos(Y)
    th2, warn2 = velocity_current(g, rho_w, 0.0 * rho_w, V, med, nabla=nab)
    # (grad cos y) x (0.3 x-hat) has magnitude 0.3 |sin y| along z
    assert warn2 == pytest.approx(0.3, rel=1e-10)
    th3, warn3 = velocity_current(g, rho_w, 0.0 * rho_w, V, med)
    assert np.isinf(warn3)
    np.testing.assert_allclose(th3.J, th2.J)


def test_decompose_force_conventions():
    # vector part stores -iF: F_H = Re(i*vector), F_E = Im(i*vector)
    F = np.array([1.0 + 2.0j, 0.0, -3.0j])
    fbq = from_vector(-1j * F)
    pf = decompose_force(fbq)
    np.testing.assert_allclose(pf.F_H, F.real)
    np.testing.assert_allclose(pf.F_E, F.imag)
    assert pf.M.shape == ()
