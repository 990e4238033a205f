"""Diagnostics tests: energy-momentum and current-energy densities with
independent physical-variable oracles, law residuals on analytic solutions
with their exact centred-difference truncation levels, interaction energy,
sub-box weights, and the four integral identities.
"""

import numpy as np
import pytest

from bqfield import (
    AField,
    BoxRegion,
    ChargeCurrent,
    DiagnosticsEngine,
    FluxSurface,
    Grid,
    Medium,
    Nabla,
    ResidualSeries,
    SimState,
    assemble_afield,
    assemble_theta,
    box_rho_residual,
    charge_conservation_residual,
    cumulative_integral,
    current_energy,
    decompose_afield,
    decompose_theta,
    energy_momentum,
    field_totals,
    first_law_residual,
    integral_laws,
    interaction_energy,
    power_force,
    poynting_residual,
    reciprocity_residual,
)
from bqfield.diagnostics import _interp_weights, _source_power
from bqfield.evolution import _force_biquaternion


def cube(n, dtau=0.05):
    return Grid(n=(n,) * 3, L=(2 * np.pi,) * 3, dtau=dtau)


def circular_afield(grid, k=1.0, tau=0.0, amp=1.0):
    _, _, Z = grid.meshgrid()
    phase = amp * np.exp(1j * k * (Z - tau))
    A = np.zeros((3,) + grid.shape, dtype=complex)
    A[0] = phase
    A[1] = 1j * phase
    return AField(grid, A)


def charge_wave_theta(grid, tau=0.0, amp=1.0):
    _, _, Z = grid.meshgrid()
    phase = amp * np.exp(1j * (Z - tau))
    J = np.zeros((3,) + grid.shape, dtype=complex)
    J[2] = phase
    return ChargeCurrent(grid, phase.copy(), J)


# -- densities --------------------------------------------------------------------


def test_energy_momentum_circular_wave():
    """The unit circular wave carries W = 1 and P = z-hat everywhere."""
    g = cube(8)
    em = energy_momentum(circular_afield(g))
    np.testing.assert_allclose(em.W, 1.0, atol=1e-14)
    np.testing.assert_allclose(em.P[2], 1.0, atol=1e-14)
    np.testing.assert_allclose(em.P[:2], 0.0, atol=1e-14)
    # Xi = W + iP packaged as a biquaternion
    np.testing.assert_allclose(em.Xi.scalar, em.W, atol=1e-14)
    np.testing.assert_allclose(em.Xi.vector, 1j * em.P, atol=1e-14)


@pytest.fixture(scope="module")
def united_states():
    """Every state of a short two-field ``united`` run sampled by the engine
    with all series, in a medium other than vacuum."""
    from bqfield import StepperConfig, step_rk4
    from bqfield.diagnostics import DIAGNOSTIC_NAMES

    g = cube(8, dtau=0.25 * 2 * np.pi / 8)
    med = Medium(epsilon=1.3, mu=0.8, kappa=1.5)
    nab = Nabla(g)
    rng = np.random.default_rng(37)
    U = 0.2 * nab.dealias(rng.standard_normal((2, 7) + g.shape) + 1j * rng.standard_normal((2, 7) + g.shape))
    states = [SimState(0.0, U, g, med, "united")]
    eng = DiagnosticsEngine(nab, [{"name": n} for n in DIAGNOSTIC_NAMES])
    eng.sample(states[0], 0)
    for i in range(3):
        states.append(step_rk4(states[-1], nab, StepperConfig(), i)[0])
        eng.sample(states[-1], i + 1)
    return states


def within_route_bound(P, other):
    """The two momentum routes agree to 1e-12 max(1, |P|) on a run's states."""
    return np.abs(P - other).max() <= 1e-12 * max(1.0, float(np.abs(P).max()))


def test_energy_momentum_poynting_route(united_states):
    # P must equal E x H / c for any medium, here checked from the outside
    g = cube(8)
    rng = np.random.default_rng(21)
    E = rng.standard_normal((3,) + g.shape)
    H = rng.standard_normal((3,) + g.shape)
    med = Medium(epsilon=2.5, mu=0.3)
    em = energy_momentum(assemble_afield(g, E, H, med))
    np.testing.assert_allclose(em.P, np.cross(E, H, axis=0) / med.c, atol=1e-12)
    np.testing.assert_allclose(em.W, 0.5 * (2.5 * (E**2).sum(0) + 0.3 * (H**2).sum(0)), atol=1e-12)
    # and on every field and total of a run's states
    for s in united_states:
        for a in [s.afield(k) for k in range(s.n_fields)] + [field_totals(s)[0]]:
            E, H = decompose_afield(a, s.medium)
            assert within_route_bound(energy_momentum(a).P, np.cross(E, H, axis=0) / s.medium.c)


def test_energy_xi_is_half_a_times_a_conjugate(united_states):
    """Reference: Xi = 0.5 A o A* through the biquaternion product, for
    energy_momentum and for every term of interaction_energy."""
    g = cube(6)
    rng = np.random.default_rng(33)
    random = [
        AField(g, rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape))
        for _ in range(3)
    ]
    runs = [random] + [[s.afield(k) for k in range(s.n_fields)] for s in united_states]
    for afields in runs:
        b = [a.as_biquaternion() for a in afields]
        tot = AField(afields[0].grid, sum(a.A for a in afields)).as_biquaternion()
        ie = interaction_energy(afields)
        xi = [0.5 * (x @ x.conj()) for x in b]
        pairs = [(ie.xi_total, 0.5 * (tot @ tot.conj()))]
        pairs += zip(ie.xi_fields, xi)
        pairs += zip([energy_momentum(a).Xi for a in afields], xi)
        pairs += [(v, 0.5 * (b[k] @ b[l].conj() + b[l] @ b[k].conj())) for (k, l), v in ie.xi_cross.items()]
        assert len(pairs) == 1 + 2 * len(b) + len(b) * (len(b) - 1) // 2
        for got, want in pairs:
            assert (got - want).linf() <= 1e-13 * max(want.linf(), 1.0)


def test_current_energy_pinned_example():
    """j_E = x-hat, j_H = y-hat in vacuum: Q = 1 and P_J = -z-hat."""
    g = cube(8)
    med = Medium()
    zero = np.zeros(g.shape)
    j_E = np.zeros((3,) + g.shape)
    j_H = np.zeros((3,) + g.shape)
    j_E[0] = 1.0
    j_H[1] = 1.0
    ce = current_energy(assemble_theta(g, zero, zero, j_E, j_H, med))
    np.testing.assert_allclose(ce.Q, 1.0, atol=1e-14)
    np.testing.assert_allclose(ce.P_J[2], -1.0, atol=1e-14)
    np.testing.assert_allclose(ce.P_J[:2], 0.0, atol=1e-14)
    np.testing.assert_allclose(ce.charge_energy, 0.0, atol=1e-14)


def test_current_energy_full_biquaternion_route():
    # 0.5 Theta o Theta* assembled from parts equals the direct product
    g = cube(6)
    rng = np.random.default_rng(23)
    rho = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    J = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
    th = ChargeCurrent(g, rho, J)
    ce = current_energy(th)
    bq = th.as_biquaternion()
    direct = (bq @ bq.conj()) * 0.5
    full = ce.full()
    assert (full - direct).linf() <= 1e-13 * max(direct.linf(), 1.0)


def test_current_energy_cross_route_any_medium(united_states):
    g = cube(6)
    rng = np.random.default_rng(25)
    for eps, mu in ((1.0, 1.0), (3.0, 0.2), (0.5, 5.0)):
        med = Medium(epsilon=eps, mu=mu)
        j_E = rng.standard_normal((3,) + g.shape)
        j_H = rng.standard_normal((3,) + g.shape)
        zero = np.zeros(g.shape)
        ce = current_energy(assemble_theta(g, zero, zero, j_E, j_H, med))
        np.testing.assert_allclose(
            ce.P_J, np.cross(j_H, j_E, axis=0) / med.c, atol=1e-12
        )
    # and on every field and total of a run's states
    for s in united_states:
        for th in [s.theta(k) for k in range(s.n_fields)] + [field_totals(s)[1]]:
            _, _, j_E, j_H = decompose_theta(th, s.medium)
            P_J = current_energy(th).P_J
            assert within_route_bound(P_J, np.cross(j_H, j_E, axis=0) / s.medium.c)


def power_force_oracle(rho_E, rho_H, j_E, j_H, E1, H1, med):
    """Physical-variable force law, written without the algebra layer."""
    c = med.c
    B1 = med.mu * H1
    D1 = med.epsilon * E1
    F_H = rho_E * E1 + rho_H * H1 + np.cross(j_E, B1, axis=0) - np.cross(j_H, D1, axis=0)
    F_E = c * (rho_E * B1 - rho_H * D1) + (np.cross(E1, j_E, axis=0) + np.cross(H1, j_H, axis=0)) / c
    M = np.sqrt(med.epsilon * med.mu) * ((E1 * j_E).sum(0) + (H1 * j_H).sum(0)) + 1j * (
        med.mu * (H1 * j_E).sum(0) - med.epsilon * (E1 * j_H).sum(0)
    )
    return M, F_H, F_E


def test_power_force_random_states_against_oracle():
    g = cube(4)
    rng = np.random.default_rng(27)
    for _ in range(100):
        med = Medium(epsilon=float(rng.uniform(0.3, 3.0)), mu=float(rng.uniform(0.3, 3.0)))
        rho_E = rng.standard_normal(g.shape)
        rho_H = rng.standard_normal(g.shape)
        j_E = rng.standard_normal((3,) + g.shape)
        j_H = rng.standard_normal((3,) + g.shape)
        E1 = rng.standard_normal((3,) + g.shape)
        H1 = rng.standard_normal((3,) + g.shape)
        th = assemble_theta(g, rho_E, rho_H, j_E, j_H, med)
        ap = assemble_afield(g, E1, H1, med)
        pf = power_force(th, ap)
        M, F_H, F_E = power_force_oracle(rho_E, rho_H, j_E, j_H, E1, H1, med)
        scale = max(np.abs(M).max(), np.abs(F_H).max(), np.abs(F_E).max(), 1.0)
        assert np.abs(pf.M - M).max() <= 1e-12 * scale
        assert np.abs(pf.F_H - F_H).max() <= 1e-12 * scale
        assert np.abs(pf.F_E - F_E).max() <= 1e-12 * scale


def test_power_force_pure_charge_and_pure_current():
    g = cube(4)
    med = Medium()
    zero = np.zeros(g.shape)
    zv = np.zeros((3,) + g.shape)
    # electrostatic: static charge in a pure-E partner feels rho_E * E'
    rho_E = np.ones(g.shape)
    E1 = np.zeros((3,) + g.shape)
    E1[0] = 2.0
    pf = power_force(assemble_theta(g, rho_E, zero, zv, zv, med), assemble_afield(g, E1, 0 * E1, med))
    np.testing.assert_allclose(pf.M, 0.0, atol=1e-15)
    np.testing.assert_allclose(pf.F_H, rho_E * E1, atol=1e-14)
    np.testing.assert_allclose(pf.F_E, 0.0, atol=1e-14)
    # magnetostatic: current in a pure-H partner feels j_E x B'
    j_E = np.zeros((3,) + g.shape)
    j_E[0] = 1.0
    H1 = np.zeros((3,) + g.shape)
    H1[1] = 3.0
    pf2 = power_force(assemble_theta(g, zero, zero, j_E, zv, med), assemble_afield(g, 0 * H1, H1, med))
    np.testing.assert_allclose(pf2.F_H, np.cross(j_E, H1, axis=0), atol=1e-14)
    np.testing.assert_allclose(pf2.M.real, 0.0, atol=1e-15)


def test_reciprocity_residual_action_reaction():
    g = cube(6)
    rng = np.random.default_rng(29)
    A1 = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
    rho = rng.standard_normal(g.shape) + 0j
    J = rng.standard_normal((3,) + g.shape) + 0j
    th1 = ChargeCurrent(g, rho, J)
    a1 = AField(g, A1)
    # mirror pair Theta2 = -Theta1, A2 = A1 satisfies action = -reaction
    th2 = ChargeCurrent(g, -rho, -J)
    linf, _ = reciprocity_residual(th1, a1, th2, a1)
    assert linf <= 1e-13
    # generic partner violates it
    linf2, _ = reciprocity_residual(th1, a1, th1, a1)
    assert linf2 > 0.1


# -- history-based law residuals ---------------------------------------------------


def test_charge_residual_truncation_level():
    """On the exact wave the residual is exactly the sinc defect delta^2/6."""
    g = cube(16)
    nab = Nabla(g)
    d = 0.05
    th_m = charge_wave_theta(g, tau=-d)
    th_0 = charge_wave_theta(g, tau=0.0)
    th_p = charge_wave_theta(g, tau=+d)
    linf, _ = charge_conservation_residual(nab, th_m.rho, th_p.rho, th_0.J, d)
    assert linf == pytest.approx(d**2 / 6, rel=1e-3)
    # negative control: a sign-flipped current is off by O(1)
    wrong, _ = charge_conservation_residual(nab, th_m.rho, th_p.rho, -th_0.J, d)
    assert wrong > 1.0


def test_box_rho_residual_truncation_level():
    g = cube(16)
    nab = Nabla(g)
    d = 0.05
    rhos = [charge_wave_theta(g, tau=t).rho for t in (-d, 0.0, d)]
    linf, _ = box_rho_residual(nab, rhos[0], rhos[1], rhos[2], d)
    assert linf == pytest.approx(d**2 / 12, rel=1e-3)


def test_poynting_residual_eigenmode_and_control():
    g = cube(16)
    nab = Nabla(g)
    d = 0.05
    a = [circular_afield(g, tau=t) for t in (-d, 0.0, d)]
    th0 = ChargeCurrent(g, np.zeros(g.shape, complex), np.zeros((3,) + g.shape, complex))
    linf, _ = poynting_residual(nab, a[0], a[1], a[2], th0, d)
    assert linf <= 1e-12
    bad = AField(g, 1.1 * a[2].A)
    linf2, _ = poynting_residual(nab, a[0], a[1], bad, th0, d)
    assert linf2 > 1.0


@pytest.mark.parametrize("eps,mu", [(2.5, 0.3), (1e-3, 7.0), (4.0, 0.5)])
def test_source_power_is_the_physical_power_in_any_medium(eps, mu):
    """The sources' power -Re(J, A*) needs no medium: it is (j_H . H - j_E . E)/c
    of the physical fields in every medium, and the real scalar of Theta o A*,
    minus the power-force -Theta o A* formed by the stepper's force body."""
    g, med = cube(6), Medium(epsilon=eps, mu=mu)
    rng = np.random.default_rng(31)
    E, H, j_E, j_H = rng.standard_normal((4, 3) + g.shape)
    rho_E, rho_H = rng.standard_normal((2,) + g.shape)
    a = assemble_afield(g, E, H, med)
    th = assemble_theta(g, rho_E, rho_H, j_E, j_H, med)
    got = _source_power(a, th)
    E, H = decompose_afield(a, med)
    _, _, j_E, j_H = decompose_theta(th, med)
    physical = ((j_H * H).sum(axis=0) - (j_E * E).sum(axis=0)) / med.c
    assert np.abs(got - physical).max() <= 1e-14 * np.abs(physical).max()
    force = _force_biquaternion(th.rho, th.J, a.A.conj())
    assert np.abs(got + force.scalar.real).max() <= 1e-14 * np.abs(got).max()


def test_first_law_free_wave_truncation():
    """Real longitudinal wave: P_J = 0 and the law reduces to dQ/dtau = -(grad rho, J)."""
    g = cube(16)
    nab = Nabla(g)
    med = Medium()
    d = 0.03
    _, _, Z = g.meshgrid()

    def real_wave(tau):
        u = np.cos(Z - tau) + 0j
        J = np.zeros((3,) + g.shape, dtype=complex)
        J[2] = u
        return ChargeCurrent(g, u.copy(), J)

    ths = [real_wave(t) for t in (-d, 0.0, d)]
    linf, _ = first_law_residual(nab, med, ths[0], ths[1], ths[2], d)
    # d^3/dtau^3 of Q = 0.25(1 + cos 2u) has magnitude 2: truncation 2 d^2/6
    assert linf == pytest.approx(d**2 / 3, rel=2e-3)
    # negative control: flipped current direction breaks the balance at O(1)
    bad = ChargeCurrent(g, ths[1].rho, -ths[1].J)
    linf2, _ = first_law_residual(nab, med, ths[0], bad, ths[2], d)
    assert linf2 > 0.5


def test_first_law_forced_uniform_state():
    """Uniform Theta in a uniform partner: forced law closes at truncation level."""
    import scipy.linalg

    g = cube(4)
    med = Medium()
    nab = Nabla(g)
    a = np.array([0.0, 0.0, 0.8])
    G = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        y = np.zeros(4, complex)
        y[col] = 1.0
        G[0, col] = -1j * (y[1:] @ a)
        G[1:, col] = -1j * y[0] * a - np.cross(y[1:], a)
    y0 = np.array([0.3, 1.0, -0.5j, 0.2])

    def uniform_theta(tau):
        y = scipy.linalg.expm(tau * G) @ y0
        rho = np.full(g.shape, y[0])
        J = np.zeros((3,) + g.shape, dtype=complex)
        J += y[1:].reshape(3, 1, 1, 1)
        return ChargeCurrent(g, rho, J)

    ap = AField(g, np.zeros((3,) + g.shape, complex) + a.reshape(3, 1, 1, 1))
    d = 0.01
    ths = [uniform_theta(0.1 + s) for s in (-d, 0.0, d)]
    linf, _ = first_law_residual(nab, med, ths[0], ths[1], ths[2], d, aprime_mid=ap)
    assert linf <= 1e-6
    # dropping the force term leaves the full exchange power unbalanced
    linf2, _ = first_law_residual(nab, med, ths[0], ths[1], ths[2], d)
    assert linf2 > 1e-3


# -- interaction energy ------------------------------------------------------------


def test_interaction_energy_identical_fields():
    g = cube(8)
    a1 = circular_afield(g)
    ie = interaction_energy([a1, AField(g, a1.A.copy())])
    # delta Xi for identical fields is exactly twice the single-field Xi
    diff = ie.delta_xi - ie.xi_fields[0] * 2.0
    assert diff.linf() <= 1e-13
    assert ie.decomposition_residual <= 1e-13
    assert ie.classification == "release"


def test_interaction_energy_opposite_fields():
    g = cube(8)
    a1 = circular_afield(g)
    ie = interaction_energy([a1, AField(g, -a1.A)])
    assert ie.xi_total.linf() <= 1e-13
    assert ie.classification == "absorb"
    assert ie.delta_w_integral == pytest.approx(-2.0 * (2 * np.pi) ** 3, rel=1e-12)


def test_interaction_energy_orthogonal_fields_conserve():
    g = cube(8)
    _, _, Z = g.meshgrid()
    phase = np.exp(1j * Z)
    A1 = np.zeros((3,) + g.shape, complex)
    A2 = np.zeros((3,) + g.shape, complex)
    A1[0] = phase
    A2[1] = phase
    ie = interaction_energy([AField(g, A1), AField(g, A2)])
    assert abs(ie.delta_w_integral) <= 1e-12
    assert ie.classification == "conserve"
    assert ie.decomposition_residual <= 1e-13


def test_interaction_energy_classifies_a_small_exchange():
    """The classification tolerance is round-off sized: a delta W of about
    1e-9 over the box is a release, not conservation."""
    g = cube(8)
    a1 = circular_afield(g)
    ie = interaction_energy([a1, AField(g, 2e-12 * a1.A)])
    assert 5e-10 < ie.delta_w_integral < 2e-9
    assert ie.classification == "release"


def test_interaction_energy_classifies_a_nan_exchange_as_non_finite():
    """A NaN delta W fails both ``dw > tol`` and ``dw < -tol``, so it read
    "conserve"; "conserve" is |delta W| <= tol, and a NaN is non-finite."""
    g = cube(4)
    rng = np.random.default_rng(3)
    A1, A2 = (rng.standard_normal((3,) + g.shape) + 0j for _ in range(2))
    A2[1, 1, 2, 3] = np.nan
    ie = interaction_energy([AField(g, A1), AField(g, A2)])
    assert np.isnan(ie.delta_w_integral)
    assert ie.classification == "non-finite"


def test_interaction_energy_three_fields_decomposition():
    g = cube(6)
    rng = np.random.default_rng(31)
    fields = [
        AField(g, rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape))
        for _ in range(3)
    ]
    ie = interaction_energy(fields)
    assert len(ie.xi_fields) == 3
    assert set(ie.xi_cross) == {(0, 1), (0, 2), (1, 2)}
    scale = max(ie.xi_total.linf(), 1.0)
    assert ie.decomposition_residual <= 1e-13 * scale
    # every cross scalar is real: pairwise exchange density is an energy
    for v in ie.xi_cross.values():
        assert np.abs(v.scalar.imag).max() <= 1e-13 * scale


def test_interaction_energy_needs_a_field():
    with pytest.raises(ValueError, match="at least one field"):
        interaction_energy([])


# -- sub-box weights ---------------------------------------------------------------


def test_interp_weights_integrate_band_limited_exactly():
    n, L = 16, 2 * np.pi
    x = np.arange(n) * (L / n)
    w = _interp_weights(n, L, 0, 8)  # [0, pi)
    np.testing.assert_allclose((w * np.sin(x)).sum(), 2.0, atol=1e-13)
    np.testing.assert_allclose((w * np.cos(x)).sum(), 0.0, atol=1e-13)
    np.testing.assert_allclose((w * np.ones(n)).sum(), np.pi, atol=1e-13)
    np.testing.assert_allclose((w * np.sin(3 * x)).sum(), 2.0 / 3.0, atol=1e-13)
    w2 = _interp_weights(n, L, 4, 12)  # [pi/2, 3pi/2)
    np.testing.assert_allclose((w2 * np.sin(x)).sum(), 0.0, atol=1e-13)
    np.testing.assert_allclose((w2 * np.cos(x)).sum(), -2.0, atol=1e-13)


def test_box_region_volume_and_flux():
    g = cube(16)
    X, _, _ = g.meshgrid()
    whole = BoxRegion(g)
    np.testing.assert_allclose(whole.volume_integral(np.ones(g.shape)), (2 * np.pi) ** 3, rtol=1e-13)
    # fully periodic box: zero net flux of anything
    F = np.stack([np.cos(X), 0 * X, 0 * X])
    assert abs(whole.boundary_flux(F)) <= 1e-12
    half = BoxRegion(g, lo=(0, 0, 0), hi=(8, 16, 16))
    got = half.boundary_flux(F)
    # faces at x=0 and x=pi: cos(pi) * (2pi)^2 - cos(0) * (2pi)^2
    np.testing.assert_allclose(got, -2 * (2 * np.pi) ** 2, rtol=1e-12)
    np.testing.assert_allclose(
        half.volume_integral(np.cos(X)), 0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        half.volume_integral(np.sin(X)), 2 * (2 * np.pi) ** 2, rtol=1e-12
    )


@pytest.mark.parametrize("lo,hi", [
    ((0, 0, 0), (8, 8, 12)), ((4, 0, 0), (4, 8, 8)), ((-1, 0, 0), (8, 8, 8)),
    # exactly 3 integers each: no fourth entry kept, none missing, none truncated
    ((0, 0, 0, 5), None), ((0, 0), None), ((0, 0, 0), (8, 8)),
    ((0.5, 0, 0), (4.9, 4, 4)), ((0, 0, 0), (4.0, 4, 4)), (None, None), ("abc", None),
])
def test_box_region_rejects_bad_bounds(lo, hi):
    with pytest.raises(ValueError, match="bad region bounds"):
        BoxRegion(cube(8), lo=lo, hi=hi)


@pytest.mark.parametrize("axis,part_axis", [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
def test_flux_surface_stokes_consistency(axis, part_axis):
    """Circulation around the rectangle boundary equals the curl flux through
    it, in every orientation: A = sin(x_part) e_full has curl A = cos(x_part)
    e_part x e_full, whose component along the normal carries the sign."""
    g = cube(16)
    full = 3 - axis - part_axis
    A = np.zeros((3,) + g.shape)
    A[full] = np.sin(g.meshgrid()[part_axis])
    curl = Nabla(g).curl(A)
    # partial run x_part in [pi/4, pi), full along the third axis
    s = FluxSurface(g, axis=axis, index=3, part_axis=part_axis, j0=2, j1=8)
    circ = s.contour_integral(A)
    flux = s.surface_integral(curl[axis])
    sign = np.cross(np.eye(3)[part_axis], np.eye(3)[full])[axis]
    np.testing.assert_allclose(circ, flux, atol=1e-12)
    np.testing.assert_allclose(circ, sign * 2 * np.pi * (0.0 - np.sin(np.pi / 4)), rtol=1e-12)


@pytest.mark.parametrize("m", [1, 10**18, 10**400], ids=["1", "1e18", "1e400"])
def test_flux_surface_shifted_by_whole_periods_is_the_same_surface(m):
    """The grid is periodic, so a surface moved by m n cells in its plane
    index and along its run integrates the same cells, bit for bit, however
    far from the origin it lies: unreduced, its weights came out 0 at
    j0 = 4e18 and overflowed a float at 10**400."""
    g = cube(8)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
    s = FluxSurface(g, axis=2, index=3, part_axis=0, j0=2, j1=7)
    shifted = FluxSurface(g, axis=2, index=3 + m * 8, part_axis=0, j0=2 + m * 8, j1=7 + m * 8)
    assert (shifted.index, shifted.j0, shifted.j1) == (3, 2, 7)
    assert shifted.surface_integral(A[2]) == s.surface_integral(A[2])
    assert shifted.contour_integral(A) == s.contour_integral(A)


@pytest.mark.parametrize(
    "kw,match",
    [
        (dict(axis=1, part_axis=1, j0=0, j1=4), "distinct"),
        (dict(axis=3, part_axis=0, j0=0, j1=4), "distinct"),
        (dict(axis=2, part_axis=0, j0=5, j1=3), "run"),
        (dict(axis=2, part_axis=0, j0=3, j1=3), "run"),
        (dict(axis=2, part_axis=0, j0=0, j1=9), "run"),
        (dict(axis=2, part_axis=0, j0=0.5, j1=4), "integers"),
        (dict(axis=2, part_axis=0, j0=0, j1=4.0), "integers"),
        (dict(axis=2.0, part_axis=0, j0=0, j1=4), "integers"),
        (dict(axis=2, part_axis="0", j0=0, j1=4), "integers"),
        (dict(axis=2, part_axis=0, j0=None, j1=4), "integers"),
        (dict(axis=2, part_axis=0, j0=0, j1=4, index=1.5), "integers"),
    ],
)
def test_flux_surface_rejects_bad_orientation_and_runs(kw, match):
    with pytest.raises(ValueError, match=match):
        FluxSurface(cube(8), **{"index": 0, **kw})


def test_cumulative_integral_fourth_order_convergence():
    errs = []
    for m in (32, 64):
        tau = np.linspace(0.0, 2 * np.pi, m + 1)
        f = np.cos(tau)
        got = cumulative_integral(tau, f)
        errs.append(np.abs(got - np.sin(tau)).max())
    assert errs[0] / errs[1] > 12.0
    # h^4/720-level floor: about 1.3e-7 at 64 panels on a unit cosine
    assert errs[1] <= 5e-7


def test_cumulative_integral_nonuniform_falls_back():
    tau = np.array([0.0, 0.1, 0.35, 0.5])
    f = 2 * tau
    got = cumulative_integral(tau, f)
    np.testing.assert_allclose(got, tau**2, atol=1e-14)


# -- integral identities on analytic trajectories ----------------------------------


def test_integral_laws_static_source_exact():
    """Uniform J with A = -J tau: laws 2 and 4 close to machine precision."""
    g = cube(8, dtau=0.05)
    med = Medium()
    J0 = np.array([0.3, -0.2, 0.5])
    states = []
    for i in range(9):
        tau = 0.05 * i
        U = np.zeros((1, 7) + g.shape, dtype=complex)
        U[0, 0:3] = -J0.reshape(3, 1, 1, 1) * tau
        U[0, 4:7] = J0.reshape(3, 1, 1, 1)
        states.append(SimState(tau, U, g, med, "maxwell"))
    rows = integral_laws(states, Nabla(g))
    # quadratic-in-tau energy integral: corrected trapezoid is exact on cubics
    assert rows["energy"][-1][1] <= 1e-12
    assert rows["volume"][-1][1] <= 1e-12
    assert rows["charge"][-1][1] <= 1e-14


def test_integral_laws_charge_wave_half_box():
    """Analytic longitudinal wave, half box along z: residual sits at the
    tau-quadrature floor, far below the wave's own flux scale."""
    g = cube(16, dtau=0.05)
    med = Medium()
    states = []
    for i in range(25):
        tau = 0.05 * i
        th = charge_wave_theta(g, tau=tau)
        U = np.zeros((1, 7) + g.shape, dtype=complex)
        U[0, 3] = th.rho
        U[0, 4:7] = th.J
        states.append(SimState(tau, U, g, med, "free_theta"))
    rows = integral_laws(states, Nabla(g), lo=(0, 0, 0), hi=(16, 16, 8))
    final = rows["charge"][-1][1]
    assert final <= 1e-6
    # the flux itself is O(10): the identity is tested against a real signal
    reg = BoxRegion(g, hi=(16, 16, 8))
    assert abs(reg.boundary_flux(states[0].U[0, 4:7])) > 10.0


def test_integral_laws_need_two_samples():
    g = cube(8)
    st = SimState(0.0, np.zeros((1, 7) + g.shape, dtype=complex), g, Medium(), "maxwell")
    with pytest.raises(ValueError, match="two samples"):
        integral_laws([st], Nabla(g))


@pytest.mark.parametrize("mode", ["maxwell", "free_theta", "interaction", "strong_field", "united"])
def test_integral_laws_follow_the_modes_equations(mode):
    """The integral laws read the mode's own equations on a half box.  Where
    the mode holds A (free_theta, strong_field), its energy, flux and volume
    balances sit at zero rate and read 0 exactly (the held field's curl and
    boundary flux once piled up to O(1) here).  Where it advances A, the
    charge in the box is the outward flux of A, which the current's flux
    balances: exactly in maxwell, whose J is held, and at the RK4 floor in
    the force modes, where rho's own balance misses by O(0.1) (its force
    source is not div J)."""
    from bqfield import StepperConfig, step_rk4

    n = 12
    g = cube(n, dtau=0.25 * 2 * np.pi / n)
    med = Medium(epsilon=2.0, mu=0.7)
    nab = Nabla(g)
    rng = np.random.default_rng(3)

    def smooth(shape):
        return 0.2 * nab.dealias(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    M = 2 if mode in ("interaction", "united") else 1
    background = smooth((3,) + g.shape) if mode == "strong_field" else None
    states = [SimState(0.0, smooth((M, 7) + g.shape), g, med, mode, background)]
    for i in range(8):
        states.append(step_rk4(states[-1], nab, StepperConfig(), i)[0])
    laws = integral_laws(states, nab, hi=(n, n, n // 2), surface=FluxSurface(g, 0, 1, 2, 1, 6))
    worst = {key: max(r[1] for r in rows) for key, rows in laws.items()}
    if mode in ("free_theta", "strong_field"):
        assert worst["energy"] == worst["flux"] == worst["volume"] == 0.0
    else:
        assert worst["charge"] <= (1e-12 if mode == "maxwell" else 2e-3)
        assert min(worst["energy"], worst["flux"], worst["volume"]) > 0.0


def test_flux_law_holds_on_a_partial_surface():
    """The flux law, d/dtau of A's flux through a surface = -i times A's
    circulation around its edge minus J's flux, on a surface over part of
    the plane x = 3 (y in [2, 9)), where the circulation does not cancel.
    Over a 32-step 16^3 maxwell run from smooth random data (every |k_i| <=
    1, held J included) it holds at the RK4 floor, 1.9e-6; with the
    circulation's sign flipped it misses by 6."""
    from bqfield import StepperConfig, step_rk4

    n = 16
    g = cube(n, dtau=0.25 * 2 * np.pi / n)
    nab = Nabla(g)
    rng = np.random.default_rng(16)
    k = np.abs(np.fft.fftfreq(n, 1 / n))
    low = (k[:, None, None] <= 1) & (k[None, :, None] <= 1) & (k[None, None, :] <= 1)
    Uh = (rng.standard_normal((1, 7) + g.shape) + 1j * rng.standard_normal((1, 7) + g.shape)) * low
    states = [SimState(0.0, np.fft.ifftn(Uh, axes=(-3, -2, -1)) * n**1.5, g, Medium(), "maxwell")]
    for i in range(32):
        states.append(step_rk4(states[-1], nab, StepperConfig(), i)[0])
    surface = FluxSurface(g, axis=0, index=3, part_axis=1, j0=2, j1=9)
    laws = integral_laws(states, nab, lo=(0, 2, 0), hi=(n, 9, n), surface=surface)
    assert max(r[1] for r in laws["flux"]) <= 1e-5


@pytest.mark.parametrize("hi", [None, (8, 8, 4)], ids=["whole-box", "half-box"])
def test_engine_and_integral_laws_take_one_default_surface(united_states, hi):
    """Given no surface, the engine and ``integral_laws`` both take the flux
    law through the region's ``default_surface``: their integral_flux rows are
    equal bit for bit.  On the whole box that is the full plane x = 0, so the
    series is measured (here at the RK4 floor), not a structural 0 that no
    tolerance can catch."""
    nab = Nabla(united_states[0].grid)
    spec = {"name": "integral_flux", "tolerance": 1e-30}
    if hi is not None:
        spec["region"] = {"lo": (0, 0, 0), "hi": hi}
    eng = DiagnosticsEngine(nab, [spec])
    for i, s in enumerate(united_states):
        eng.sample(s, i)
    series = eng.finalize()["integral_flux"]
    assert series.rows == integral_laws(united_states, nab, hi=hi)["flux"]
    assert series.breached and np.isfinite(series.max_linf)


def _strong_field_charge_laws(g, med, U, background, steps, region):
    """Max L_inf of the charge and integral_charge series of a strong_field run."""
    from bqfield import StepperConfig, step_rk4

    nab = Nabla(g)
    st = SimState(0.0, U, g, med, "strong_field", background)
    specs = [{"name": "charge"}, {"name": "integral_charge", "region": region}]
    eng = DiagnosticsEngine(nab, specs)
    eng.sample(st, 0)
    for i in range(steps):
        st, _ = step_rk4(st, nab, StepperConfig(), i)
        eng.sample(st, i + 1)
    series = eng.finalize()
    return series["charge"], series["integral_charge"]


def test_strong_field_charge_laws_carry_the_force_source_uniform():
    """A uniform Theta in a uniform A': div J = 0, so d(rho)/dtau is the
    force's source -i (J, A')/kappa alone.  The window law sits at its
    centred-difference truncation, computed from the exact trajectory, and
    the integral law at its fourth-order floor (without the source both read
    O(0.1) and more)."""
    import scipy.linalg

    kappa, dtau, steps = 2.0, 0.01, 100
    g, med = cube(4, dtau), Medium(kappa=kappa)
    a = np.array([0.4, -0.3, 0.8])
    G = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        y = np.zeros(4, complex)
        y[col] = 1.0
        G[0, col] = -1j * (y[1:] @ a) / kappa
        G[1:, col] = (-1j * y[0] * a - np.cross(y[1:], a)) / kappa
    y0 = np.array([0.7 - 0.2j, 0.1j, 1.0, -0.5 + 0.3j])
    U = np.zeros((1, 7) + g.shape, dtype=complex)
    U[0, 3:7] = y0.reshape(4, 1, 1, 1)
    background = np.zeros((3,) + g.shape, complex) + a.reshape(3, 1, 1, 1)
    charge, integral = _strong_field_charge_laws(
        g, med, U, background, steps, {"lo": [0, 0, 0], "hi": [4, 4, 2]})
    assert len(charge.rows) == steps - 1
    for tau, linf, _ in charge.rows:
        y_m, y_0, y_p = (scipy.linalg.expm((tau + s) * G) @ y0 for s in (-dtau, 0.0, dtau))
        truncation = abs((y_p[0] - y_m[0]) / (2 * dtau) - (G @ y_0)[0])
        assert abs(linf - truncation) <= 1e-9, tau
    assert max(r[1] for r in charge.rows) > 1e-7  # a real truncation, not zero
    assert integral.max_linf <= 1e-9


def test_strong_field_charge_laws_converge():
    """Band-limited strong_field data on a half box, dtau halved twice: the
    window law converges at second order and the integral law at fourth.
    Without the force's source both stall at O(0.1)."""
    n = 12
    med = Medium(epsilon=2.0, mu=0.7)
    worst = []
    for div in (1, 2, 4):
        g = cube(n, dtau=0.25 * 2 * np.pi / n / div)
        rng = np.random.default_rng(3)
        nab = Nabla(g)

        def smooth(shape):
            return 0.2 * nab.dealias(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        U, background = smooth((1, 7) + g.shape), smooth((3,) + g.shape)
        charge, integral = _strong_field_charge_laws(
            g, med, U, background, 8 * div, {"lo": [0, 0, 0], "hi": [n, n, n // 2]})
        worst.append((charge.max_linf, integral.max_linf))
    (c1, i1), (c2, i2), (c4, i4) = worst
    assert c1 / c2 > 3.0 and c2 / c4 > 3.5  # second order: 4
    assert i1 / i2 > 12.0 and i2 / i4 > 12.0  # fourth order: 16
    assert i1 <= 1e-3


@pytest.mark.parametrize(
    "mode,M,transforms,totals,partners",
    [("united", 2, 42, 3, 4), ("maxwell", 1, 33, 3, 2), ("strong_field", 1, 34, 3, 2)],
    ids=["united", "maxwell", "strong_field"],  # stable when a count changes
)
def test_engine_sample_forms_each_derived_field_once(monkeypatch, mode, M, transforms, totals,
                                                     partners):
    """One steady-state sample with all 14 series at cadence 1 makes one
    record of each state in the window, and the laws share each record's
    totals and partners.  Where the mode advances A, the charge law is one
    divergence of the total current; where A is held, the middle state's rho
    source is formed again.  Windows hold only the sampled states."""
    from bqfield import StepperConfig, diagnostics, step_rk4

    g = cube(12)
    nab = Nabla(g)
    rng = np.random.default_rng(3)
    bg = nab.dealias(rng.standard_normal((3,) + g.shape) + 0j) if mode == "strong_field" else None
    st = SimState(0.0, nab.dealias(rng.standard_normal((M, 7) + g.shape) + 0j), g, Medium(), mode, bg)
    eng = DiagnosticsEngine(nab, [{"name": n} for n in diagnostics.DIAGNOSTIC_NAMES])
    for step in range(4):
        eng.sample(st, step)
        st, _ = step_rk4(st, nab, StepperConfig(), step)

    calls = {"transforms": 0, "totals": 0, "partners": 0}

    def counted(key, fn, units=lambda *a: 1):
        def wrapper(*args):
            calls[key] += units(*args)
            return fn(*args)
        return wrapper

    def channels(self, f):
        return int(np.prod(np.shape(f)[:-3]))

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(Nabla, name, counted("transforms", getattr(Nabla, name), channels))
    monkeypatch.setattr(diagnostics, "field_totals", counted("totals", diagnostics.field_totals))
    monkeypatch.setattr(diagnostics, "partner_field", counted("partners", diagnostics.partner_field))
    eng.sample(st, 4)
    assert calls == {"transforms": transforms, "totals": totals, "partners": partners}
    assert all(isinstance(s, SimState) for win in eng._windows.values() for s in win)


@pytest.mark.parametrize("mode", ["maxwell", "free_theta", "strong_field"])
def test_engine_sample_leaves_a_one_field_state_unchanged(mode):
    """A one-field state's totals are views of its U, and no series writes
    into them: every sampled state's U is bit-unchanged after all 14 series
    sampled it, windows included."""
    from bqfield import StepperConfig, diagnostics, step_rk4

    g = cube(8)
    nab = Nabla(g)
    rng = np.random.default_rng(11)
    bg = nab.dealias(rng.standard_normal((3,) + g.shape) + 0j) if mode == "strong_field" else None
    U = nab.dealias(rng.standard_normal((1, 7) + g.shape) + 1j * rng.standard_normal((1, 7) + g.shape))
    st = SimState(0.0, U, g, Medium(epsilon=1.3, mu=0.8, kappa=1.5), mode, bg)
    eng = DiagnosticsEngine(nab, [{"name": n} for n in diagnostics.DIAGNOSTIC_NAMES])
    states, kept = [], []
    for step in range(4):
        states.append(st)
        kept.append(st.U.copy())
        eng.sample(st, step)
        st, _ = step_rk4(st, nab, StepperConfig(), step)
    eng.finalize()
    assert all(np.array_equal(s.U, u) for s, u in zip(states, kept))


def test_engine_evaluates_every_window_and_raises_on_an_uneven_one():
    """Windows of a stepped run are uniform to round-off, even deep into a
    long run where tau carries an ulp of drift per step (5e-13 at tau = 6667,
    dtau = 1/3; 7e-12 at tau = 33333): every one is evaluated.  A window that
    is really uneven raises instead of being dropped."""
    from bqfield import StepperConfig, step_rk4

    g, med = cube(4, dtau=0.05), Medium()
    nab = Nabla(g)
    rng = np.random.default_rng(5)
    U = nab.dealias(rng.standard_normal((1, 7) + g.shape) + 0j)
    specs = [{"name": "charge"}, {"name": "freeness", "cadence": 2}, {"name": "box_rho", "cadence": 3}]
    eng = DiagnosticsEngine(nab, specs)
    st = SimState(0.0, U, g, med, "free_theta")
    eng.sample(st, 0)
    for i in range(12):
        st, _ = step_rk4(st, nab, StepperConfig(), i)
        eng.sample(st, i + 1)
    eng.finalize()
    assert [len(eng.series[n].rows) for n in ("charge", "freeness", "box_rho")] == [11, 5, 3]

    tau, taus = 0.0, []
    for _ in range(100000):
        tau += 1 / 3
        taus.append(tau)
    late = [SimState(t, U, g, med, "free_theta") for t in taus[-6:]]
    eng = DiagnosticsEngine(nab, specs[:1])
    for step, s in enumerate(late):
        eng.sample(s, step)
    assert len(eng.finalize()["charge"].rows) == 4

    eng = DiagnosticsEngine(nab, specs[:1])
    eng.sample(SimState(0.0, U, g, med, "free_theta"), 0)
    eng.sample(SimState(0.1, U, g, med, "free_theta"), 1)
    with pytest.raises(ValueError, match="uniformly spaced"):
        eng.sample(SimState(0.25, U, g, med, "free_theta"), 2)


def test_window_refuses_steps_a_millionth_apart():
    """Equal steps may differ by round-off in tau only: snapshots whose two
    steps differ by 1e-6 relative are not a centred window."""
    g = cube(8)
    U = np.zeros((1, 7) + g.shape, complex)
    eng = DiagnosticsEngine(Nabla(g), [{"name": "charge"}])
    eng.sample(SimState(0.0, U, g, Medium(), "free_theta"), 0)
    eng.sample(SimState(0.1, U, g, Medium(), "free_theta"), 1)
    with pytest.raises(ValueError, match="uniformly spaced"):
        eng.sample(SimState(0.2 + 1e-7, U, g, Medium(), "free_theta"), 2)


def zero_step_maxwell_states():
    """Three copies of one band-limited maxwell state at one tau: steps of 0."""
    g = cube(8)
    nab = Nabla(g)
    U = nab.dealias(np.random.default_rng(3).standard_normal((1, 7) + g.shape) + 0j)
    return nab, [SimState(0.0, U, g, Medium(), "maxwell")] * 3


def test_window_refuses_steps_of_zero():
    """Three snapshots at one tau are not a centred window: the engine
    raises its own ValueError, not a division by the zero step."""
    nab, states = zero_step_maxwell_states()
    eng = DiagnosticsEngine(nab, [{"name": "charge"}])
    eng.sample(states[0], 0)
    eng.sample(states[1], 1)
    with pytest.raises(ValueError, match="uniformly spaced"):
        eng.sample(states[2], 2)


def test_integral_laws_over_steps_of_zero_stay_finite():
    """A trail of one tau is not uniformly spaced, so its rates integrate by
    the plain trapezoid: zero, with no 0/0 slope estimate."""
    nab, states = zero_step_maxwell_states()
    with np.errstate(all="raise"):
        rows = integral_laws(states, nab)
    assert all(np.isfinite(row).all() for law in rows.values() for row in law)


def test_residual_series_bookkeeping(tmp_path):
    s = ResidualSeries("charge", tolerance=1e-6)
    s.append(0.0, 1e-9, 1e-10)
    s.append(0.1, 5e-7, 1e-8)
    assert s.max_linf == 5e-7
    assert not s.breached
    assert s.first_breach_tau is None
    s.append(0.2, 2e-6, 1e-7)
    assert s.breached and s.first_breach_tau == 0.2
    p = tmp_path / "charge.csv"
    s.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "tau,linf,l2"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == 1e-9
    free = ResidualSeries("poynting")
    free.append(0.0, 100.0, 1.0)
    assert not free.breached
    # a non-finite row is a breach wherever it sits; NaN propagates to max_linf
    for rows, first in (([np.nan, 1e-9], 0.0), ([1e-9, np.nan], 0.1), ([1e-9, np.inf], 0.1)):
        s = ResidualSeries("charge", tolerance=1e-6)
        for i, linf in enumerate(rows):
            s.append(0.1 * i, linf, linf)
        assert s.breached, rows
        assert s.first_breach_tau == first
        assert not np.isfinite(s.max_linf)
        assert np.isnan(s.max_linf) == any(np.isnan(rows))
    free.append(0.1, np.nan, np.nan)
    assert np.isnan(free.max_linf) and not free.breached and free.first_breach_tau is None


def test_diagnostics_engine_run_level():
    """Mini maxwell run: engine samples at the right cadence and the charge
    and poynting series stay at machine level on the eigenmode."""
    from bqfield import StepperConfig, step_rk4

    g = cube(8, dtau=0.05)
    med = Medium()
    nab = Nabla(g)
    specs = [
        {"name": "charge", "cadence": 1, "tolerance": 1e-8},
        {"name": "poynting", "cadence": 1, "tolerance": 1e-8},
        {"name": "constraint_drift", "cadence": 2},
    ]
    eng = DiagnosticsEngine(nab, specs)
    U = np.zeros((1, 7) + g.shape, dtype=complex)
    U[0, 0:3] = circular_afield(g).A
    st = SimState(0.0, U, g, med, "maxwell")
    eng.sample(st, 0)
    for i in range(10):
        st, _ = step_rk4(st, nab, StepperConfig(), i)
        eng.sample(st, i + 1)
    eng.finalize()
    charge = eng.series["charge"]
    poynt = eng.series["poynting"]
    drift = eng.series["constraint_drift"]
    # 11 samples: centred windows produce 9 charge rows, cadence-2 gives 6 drift rows
    assert len(charge.rows) == 9
    assert len(drift.rows) == 6
    assert charge.max_linf <= 1e-10
    assert poynt.max_linf <= 1e-8
    assert not charge.breached and not poynt.breached
    # rho = div A = 0 on this mode
    assert drift.max_linf <= 1e-12


@pytest.mark.parametrize("mode", ["maxwell", "free_theta", "interaction", "strong_field", "united"])
def test_diagnostics_engine_rows_match_residual_functions(mode):
    """Every engine row equals, to the last bit, the public residual function
    called on the same states: this pins the engine's mode dispatch (charge
    pair, first-law A', freeness) and its window bookkeeping."""
    from bqfield import (
        StepperConfig,
        freeness_residual,
        interaction_power_bd,
        interaction_power_eh,
        step_rk4,
    )
    from bqfield.diagnostics import _norms

    g = cube(10, dtau=0.25 * 2 * np.pi / 10)
    med = Medium(epsilon=1.3, mu=0.8, kappa=1.5)
    nab = Nabla(g)
    M = 2 if mode in ("interaction", "united") else 1
    rng = np.random.default_rng(7)

    def smooth(shape):
        return 0.2 * nab.dealias(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    background = smooth((3,) + g.shape) if mode == "strong_field" else None
    states = [SimState(0.0, smooth((M, 7) + g.shape), g, med, mode, background)]
    names = ["charge", "poynting", "first_law", "box_rho", "freeness", "reciprocity",
             "constraint_drift", "interaction_power_eh", "interaction_power_bd",
             "energy_decomposition"]
    lo, hi = (0, 2, 0), (10, 7, 5)
    surface = {"axis": 0, "index": 1, "part_axis": 2, "j0": 1, "j1": 6}
    integral = ["integral_charge", "integral_energy", "integral_flux", "integral_volume"]
    specs = [{"name": n} for n in names] + [
        {"name": n, "region": {"lo": lo, "hi": hi}, "surface": surface} for n in integral
    ]
    eng = DiagnosticsEngine(nab, specs)
    eng.sample(states[0], 0)
    for i in range(4):
        st, _ = step_rk4(states[-1], nab, StepperConfig(), i)
        states.append(st)
        eng.sample(st, i + 1)
        assert all(len(w) == 2 for w in eng._windows.values())  # references, not a trail
    eng.finalize()

    def worst(pairs):
        return max([0.0] + [p[0] for p in pairs]), max([0.0] + [p[1] for p in pairs])

    def aprime(s, k):
        if mode == "strong_field":
            return AField(g, s.background)
        if M >= 2:
            return AField(g, s.U[:, 0:3].sum(axis=0) - s.U[k, 0:3])
        return None

    expect = {n: [] for n in names}
    for s_m, s_0, s_p in zip(states, states[1:], states[2:]):
        d = s_p.tau - s_0.tau
        (a_m, t_m), (a_0, t_0), (a_p, t_p) = (field_totals(s) for s in (s_m, s_0, s_p))
        if mode == "free_theta":
            charge = charge_conservation_residual(nab, t_m.rho, t_p.rho, t_0.J, d)
        elif mode == "strong_field":
            # rho also moves by the force's source -i (J, A')/kappa, 2/3-filtered,
            # taken out of the centred difference at the middle state
            src = -1j * nab.dealias((s_0.U[0, 4:7] * s_0.background).sum(axis=0)) / med.kappa
            charge = charge_conservation_residual(nab, t_m.rho + d * src, t_p.rho - d * src, t_0.J, d)
        else:
            # the charge that sources A is div A: the total current J + dA/dtau is divergence-free
            charge = charge_conservation_residual(nab, 0.0, 0.0, t_0.J + (a_p.A - a_m.A) / (2 * d), d)
        first = [
            first_law_residual(nab, med, s_m.theta(k), s_0.theta(k), s_p.theta(k), d,
                               aprime_mid=aprime(s_0, k))
            for k in range(M)
        ]
        for name, r in (
            ("charge", charge),
            ("poynting", poynting_residual(nab, a_m, a_0, a_p, t_0, d)),
            ("first_law", worst(first)),
            ("box_rho", box_rho_residual(nab, t_m.rho, t_0.rho, t_p.rho, d)),
            ("freeness", freeness_residual(nab, t_m, t_0, t_p, d)),
        ):
            expect[name].append((s_0.tau, *r))
    for s in states:
        recip = [
            reciprocity_residual(s.theta(k), s.afield(l), s.theta(l), s.afield(k))
            for k in range(M) for l in range(k + 1, M)
        ]
        drift = [_norms(s.U[k, 3] - nab.div(s.U[k, 0:3])) for k in range(M)]
        eh, bd = [], []
        for k in range(M):
            ap = aprime(s, k)
            if ap is None:
                continue
            eh.append(interaction_power_eh(s.theta(k), ap, med))
            bd.append(interaction_power_bd(s.theta(k), ap))
            # the laws read the force's scalar (J, A'); in physical variables
            # they are the partner's E/H powers on the current pair
            Ep, Hp = decompose_afield(ap, med)
            _, _, j_E, j_H = decompose_theta(s.theta(k), med)
            eh_phys = _norms((Ep * j_E).sum(axis=0) + (Hp * j_H).sum(axis=0))
            bd_phys = _norms(med.mu * (Hp * j_E).sum(axis=0) - med.epsilon * (Ep * j_H).sum(axis=0))
            np.testing.assert_allclose(eh[-1] + bd[-1], eh_phys + bd_phys, rtol=1e-13, atol=0)
        ie = interaction_energy([s.afield(k) for k in range(M)])
        expect["reciprocity"].append((s.tau, *worst(recip)))
        expect["constraint_drift"].append((s.tau, *worst(drift)))
        expect["interaction_power_eh"].append((s.tau, *worst(eh)))
        expect["interaction_power_bd"].append((s.tau, *worst(bd)))
        expect["energy_decomposition"].append((s.tau, ie.decomposition_residual, ie.decomposition_residual))
    laws = integral_laws(states, nab, lo, hi, surface=FluxSurface(g, **surface))
    for name in integral:
        expect[name] = laws[name.removeprefix("integral_")]

    assert len(expect["charge"]) == 3 and len(expect["reciprocity"]) == 5
    for name in names + integral:
        assert eng.series[name].rows == expect[name], name
    # the dispatch reaches the partner field exactly where the mode has one
    assert (eng.series["interaction_power_eh"].max_linf > 0) == (mode in ("interaction", "strong_field", "united"))


def test_diagnostics_engine_rejects_bad_specs():
    nab = Nabla(cube(8))
    with pytest.raises(ValueError):
        DiagnosticsEngine(nab, [{"name": "entropy"}])
    with pytest.raises(ValueError):
        DiagnosticsEngine(nab, [{"name": "charge"}, {"name": "charge"}])
    with pytest.raises(ValueError):
        DiagnosticsEngine(nab, [{"name": "charge", "cadence": 0}])
    # the integral series share one region and one surface for every caller
    box = {"lo": (0, 0, 0), "hi": (8, 8, 4)}
    surface = {"axis": 0, "index": 0, "part_axis": 1, "j0": 0, "j1": 4}
    for key, other in (("region", dict(box, hi=(8, 4, 8))), ("surface", dict(surface, j1=2))):
        first = {"region": box, "surface": surface}[key]
        specs = [{"name": "integral_charge", key: first}, {"name": "integral_energy", key: other}]
        with pytest.raises(ValueError, match=rf"diagnostics\[1\]\.{key}: .*share one {key}"):
            DiagnosticsEngine(nab, specs)
    # malformed specs from Python are ValueErrors that name the spec
    for spec, where in (({"name": "charge", "cadence": "2"}, "cadence"),
                        ({"name": "charge", "cadence": 1.5}, "cadence"),
                        ({"name": "charge", "tolerance": "1e-3"}, "tolerance"),
                        ({"name": "integral_charge", "region": {"lo": (0, 0, 0), "high": (8, 8, 4)}}, "region"),
                        ({"name": "integral_charge", "surface": {"axis": 0}}, "surface")):
        with pytest.raises(ValueError, match=rf"diagnostics\[0\]\.{where}"):
            DiagnosticsEngine(nab, [spec])
    # check_specs reads the whole entry, as the scenario parser does: a
    # misspelt key, a bool or infinite number, a missing or list name
    for spec, fragment in (({"name": "poynting", "tolerence": 1e-8},
                            "unknown key(s) at diagnostics[0]: 'tolerence'"),
                           ({"name": "charge", "tolerance": True}, "diagnostics[0].tolerance"),
                           ({"name": "charge", "tolerance": float("inf")}, "diagnostics[0].tolerance"),
                           ({"name": "charge", "cadence": True}, "diagnostics[0].cadence"),
                           ({"cadence": 1}, "diagnostics[0].name must be a string"),
                           (["charge"], "diagnostics[0] must be an object"),
                           ({"name": ["charge"]}, "diagnostics[0].name must be a string")):
        with pytest.raises(ValueError) as exc:
            DiagnosticsEngine(nab, [spec])
        assert fragment in str(exc.value)
    with pytest.raises(ValueError, match="bad region bounds"):
        BoxRegion(cube(8), lo=(False, 0, 0))
