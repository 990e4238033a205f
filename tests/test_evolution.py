"""Evolution tests: right-hand sides on analytic eigenmodes, RK4 period
return with the expected 4th-order convergence, the uniform strong-field
system against a matrix-exponential oracle, steps that leave their input
unwritten, abort on non-finite values, and united-field freeness.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from bqfield import (
    DiagnosticsEngine,
    Grid,
    Medium,
    Nabla,
    NumericalAbort,
    SimState,
    StepperConfig,
    field_totals,
    free_theta_rhs,
    rk4_gain,
    state_rhs,
    step_rk4,
)
from bqfield import evolution, runner
from bqfield.evolution import MODES
from bqfield.runner import build_state
from bqfield.scenario import parse_scenario


def cube(n, dtau):
    return Grid(n=(n,) * 3, L=(2 * np.pi,) * 3, dtau=dtau)


def circular_afield(grid, k=1.0, tau=0.0):
    """A = (1, i, 0) exp(i k (z - tau)): exact transport eigenmode."""
    _, _, Z = grid.meshgrid()
    phase = np.exp(1j * k * (Z - tau))
    A = np.zeros((3,) + grid.shape, dtype=complex)
    A[0] = phase
    A[1] = 1j * phase
    return A


def charge_wave(grid, tau=0.0):
    """(rho, J) = (1, z-hat) exp(i (z - tau)): exact source-free current wave."""
    _, _, Z = grid.meshgrid()
    phase = np.exp(1j * (Z - tau))
    J = np.zeros((3,) + grid.shape, dtype=complex)
    J[2] = phase
    return phase.copy(), J


def pack_state(grid, medium, mode, A=None, rho=None, J=None, background=None, m=1):
    U = np.zeros((m, 7) + grid.shape, dtype=complex)
    if A is not None:
        U[0, 0:3] = A
    if rho is not None:
        U[0, 3] = rho
    if J is not None:
        U[0, 4:7] = J
    return SimState(0.0, U, grid, medium, mode, background)


def test_maxwell_rhs_eigenmode():
    g = cube(16, 0.05)
    nab = Nabla(g)
    A = circular_afield(g, k=1.0)
    rhs = state_rhs(pack_state(g, Medium(), "maxwell", A=A), nab)[0, 0:3]
    np.testing.assert_allclose(rhs, -1j * A, atol=1e-12)


def test_maxwell_rhs_static_source():
    # zero A, static J: dA/dtau = -J exactly
    g = cube(8, 0.05)
    nab = Nabla(g)
    rng = np.random.default_rng(1)
    J = rng.standard_normal((3,) + g.shape) + 0j
    rhs = state_rhs(pack_state(g, Medium(), "maxwell", J=J), nab)[0, 0:3]
    np.testing.assert_array_equal(rhs, -J)


def test_free_rhs_charge_wave_is_eigenmode():
    g = cube(16, 0.05)
    nab = Nabla(g)
    rho, J = charge_wave(g)
    drho, dJ = free_theta_rhs(nab, rho, J)
    np.testing.assert_allclose(drho, -1j * rho, atol=1e-12)
    np.testing.assert_allclose(dJ, -1j * J, atol=1e-12)


def test_free_rhs_transverse_rotation():
    # divergence-free circular J with rho = 0: dJ = i curl J = i k J here
    g = cube(16, 0.05)
    nab = Nabla(g)
    J = circular_afield(g, k=2.0)
    drho, dJ = free_theta_rhs(nab, np.zeros(g.shape, complex), J)
    assert np.abs(drho).max() <= 1e-12
    np.testing.assert_allclose(dJ, 2j * J, atol=1e-11)


def run_period(n, cfl, k=1.0):
    steps = int(round(2 * np.pi / (cfl * 2 * np.pi / n)))
    g = cube(n, 2 * np.pi / steps)
    nab = Nabla(g)
    cfg = StepperConfig(cfl=cfl + 1e-9)
    st = pack_state(g, Medium(), "maxwell", A=circular_afield(g, k))
    ref = st.U[0, 0:3].copy()
    for i in range(steps):
        st, _ = step_rk4(st, nab, cfg, i)
    return float(np.abs(st.U[0, 0:3] - ref).max())


def test_period_return_fourth_order():
    """One full period of the circular eigenmode returns to the start.

    At n=16, cfl=0.25 the RK4 phase truncation is 2*pi*(k*dtau)^4/120,
    about 4.9e-6; halving dtau must shrink it about 16x.
    """
    e1 = run_period(16, 0.25)
    e2 = run_period(16, 0.125)
    assert e1 <= 6.0e-6
    assert e1 >= 1.0e-6  # the error is real, not rounding noise
    assert 14.0 < e1 / e2 < 18.0


def strong_field_generator(a, kappa):
    """Column-built 4x4 complex matrix for d(rho, J)/dtau in a uniform A' = a.

    Independent statement of the force law: d rho = -i (J . a) / kappa,
    d J = (-i rho a - J x a) / kappa.
    """
    G = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        y = np.zeros(4, dtype=complex)
        y[col] = 1.0
        rho, J = y[0], y[1:]
        drho = -1j * (J @ a) / kappa
        dJ = (-1j * rho * a - np.cross(J, a)) / kappa
        G[0, col] = drho
        G[1:, col] = dJ
    return G


def test_uniform_strong_field_matches_expm():
    g = cube(4, 0.02)
    med = Medium(kappa=2.0)
    nab = Nabla(g)
    a = np.array([0.4, -0.3, 0.8])
    background = np.zeros((3,) + g.shape, dtype=complex)
    background += a.reshape(3, 1, 1, 1)
    rho0, J0 = 0.7 - 0.2j, np.array([0.1j, 1.0, -0.5 + 0.3j])
    st = pack_state(
        g,
        med,
        "strong_field",
        rho=np.full(g.shape, rho0),
        J=J0.reshape(3, 1, 1, 1) * np.ones(g.shape),
        background=background,
    )
    cfg = StepperConfig()
    G = strong_field_generator(a, med.kappa)
    y0 = np.array([rho0, *J0])
    for i in range(50):
        st, _ = step_rk4(st, nab, cfg, i)
        if (i + 1) % 10 == 0:
            y = scipy.linalg.expm(st.tau * G) @ y0
            got_rho = st.U[0, 3, 0, 0, 0]
            got_J = st.U[0, 4:7, 0, 0, 0]
            assert abs(got_rho - y[0]) <= 1e-10
            assert np.abs(got_J - y[1:]).max() <= 1e-10
    # fields stay spatially uniform
    assert np.abs(st.U[0, 3] - st.U[0, 3, 0, 0, 0]).max() <= 1e-13


@pytest.mark.parametrize("mode,m,fragment", [("interaction", 1, "needs at least two fields"),
                                             ("united", 1, "needs at least two fields"),
                                             ("plasma", 2, "mode must be one of")])
def test_state_refuses_a_mode_it_cannot_run(mode, m, fragment):
    """interaction and united force each field by the others' A: a one-field
    state has no partner and would run as free transport, so it is refused,
    as is an unknown mode."""
    with pytest.raises(ValueError, match=fragment):
        pack_state(cube(4, 0.05), Medium(), mode, m=m)


def test_strong_field_state_needs_background():
    with pytest.raises(ValueError, match="background"):
        pack_state(cube(4, 0.05), Medium(), "strong_field")


@pytest.mark.parametrize("mode", [m for m in MODES if m != "strong_field"])
def test_only_strong_field_takes_a_background(mode):
    """maxwell and free_theta would ignore a frozen A', and interaction and
    united would add it to the partner sum: every mode but strong_field
    refuses one."""
    g = cube(4, 0.05)
    with pytest.raises(ValueError, match="only mode 'strong_field' takes a background"):
        pack_state(g, Medium(), mode, background=np.ones((3,) + g.shape, dtype=complex), m=2)


class CountingNabla(Nabla):
    """Nabla that counts single-channel 3-D transforms."""

    transforms = 0

    def fftn(self, f):
        self.transforms += int(np.prod(np.shape(f)[:-3]))
        return super().fftn(f)

    def ifftn(self, fh):
        self.transforms += int(np.prod(np.shape(fh)[:-3]))
        return super().ifftn(fh)


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize(
    "mode,per_field",
    [("maxwell", 6), ("free_theta", 8), ("strong_field", 16), ("interaction", 22), ("united", 22)],
)
def test_state_rhs_transforms_per_field(scheme, mode, per_field):
    """Transforms per field per state_rhs call on spectral: curl 6, nabla o
    Theta 8, force dealias 8.  central4 differentiates on the same Fourier
    coefficients, but its dealias is the identity, which transforms nothing."""
    g = cube(12, 0.05)
    rng = np.random.default_rng(14)
    U = rng.standard_normal((2, 7) + g.shape) + 1j * rng.standard_normal((2, 7) + g.shape)
    bg = rng.standard_normal((3,) + g.shape) + 0j if mode == "strong_field" else None
    nab = CountingNabla(g, scheme=scheme)
    state_rhs(SimState(0.0, U, g, Medium(), mode, bg), nab)
    dealias = 8 if mode in evolution._FORCED and scheme == "central4" else 0
    assert nab.transforms == 2 * (per_field - dealias)


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", MODES)
def test_state_rhs_is_the_modes_symbol(mode, scheme):
    """state_rhs on one Fourier mode of field 0 with A' = 0 (so no force;
    interaction and united get a second, zero field as the partner they
    need) equals each mode's symbol, stated here on its own: dA = k x A - J
    where A advances, drho = -i k.J and dJ = -i k rho - k x J where Theta
    does, zero where held, with k the scheme's first-derivative symbol."""
    g = cube(8, 0.05)
    k, h = np.array([1, -2, 3]), g.h[0]
    kd = k if scheme == "spectral" else (8 * np.sin(k * h) - np.sin(2 * k * h)) / (6 * h)
    rng = np.random.default_rng(41)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    X, Y, Z = g.meshgrid()
    wave = np.exp(1j * (k[0] * X + k[1] * Y + k[2] * Z))
    bg = np.zeros((3,) + g.shape, complex) if mode == "strong_field" else None
    U = (c[:, None, None, None] * wave)[None]
    if mode in ("interaction", "united"):
        U = np.concatenate([U, np.zeros_like(U)])
    st = SimState(0.0, U, g, Medium(kappa=1.5), mode, bg)
    A, rho, J = c[:3], c[3], c[4:]
    d = np.zeros(7, complex)
    if mode not in ("free_theta", "strong_field"):
        d[:3] = np.cross(kd, A) - J
    if mode != "maxwell":
        d[3] = -1j * kd @ J
        d[4:] = -1j * kd * rho - np.cross(kd, J)
    expect = d[:, None, None, None] * wave
    got = state_rhs(st, Nabla(g, scheme=scheme))
    assert np.abs(got[0] - expect).max() <= 1e-12 * np.abs(expect).max()


def random_state(g, mode, seed=14, m=2, scheme="spectral"):
    """White noise under the scheme's 2/3 rule, as build_state filters the
    initial data: the spectral stepper holds only the band."""
    rng = np.random.default_rng(seed)
    dealias = Nabla(g, scheme=scheme).dealias
    U = dealias(rng.standard_normal((m, 7) + g.shape) + 1j * rng.standard_normal((m, 7) + g.shape))
    bg = dealias(rng.standard_normal((3,) + g.shape) + 0j) if mode == "strong_field" else None
    return SimState(0.0, U, g, Medium(kappa=1.5), mode, bg)


# Per field on spectral: (a step from physical U, a step from the state it
# returned, the first read of that state's U, a step from the state read).
STEP_TRANSFORMS = {
    "maxwell": (6, 0, 3, 0),
    "free_theta": (4, 0, 4, 0),
    "strong_field": (36, 32, 0, 32),
    "interaction": (51, 44, 0, 44),
    "united": (51, 44, 0, 44),
}


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize(
    "mode,per_field",
    [("maxwell", 9), ("free_theta", 8), ("strong_field", 36), ("interaction", 51), ("united", 51)],
)
def test_step_rk4_transforms_per_field(scheme, mode, per_field):
    """Transforms per field to step once from physical U and read the result.

    The step takes the advanced channels in once (and maxwell's J, once per
    run).  Every step returns its coefficients, and a state keeps them past a
    read of U until the next step takes them, so no later step takes the
    advanced channels in again.  maxwell and free_theta do no other transform
    in a step, and the first read of U takes the advanced channels back.  A
    force mode takes 4 in per stage plus (stages 2-4) rho, J and the
    partner's A back, and makes U in the step.  central4 steps on the
    whole grid's Fourier coefficients and counts as spectral in every mode.
    """
    g = cube(12, 0.05)
    nab = CountingNabla(g, scheme=scheme)
    counts = []
    st = random_state(g, mode)

    def counted(act):
        before = nab.transforms
        act()
        counts.append(nab.transforms - before)

    def step():
        nonlocal st
        st, _ = step_rk4(st, nab, StepperConfig())

    counted(step)
    counted(step)
    counted(lambda: st.U is st.U)
    counted(step)
    expect = STEP_TRANSFORMS[mode]
    assert counts == [2 * c for c in expect]
    assert expect[0] + expect[2] == per_field


def reference_rk4(state, nabla):
    """Classical RK4 on physical stage states built from state_rhs."""
    dt, U = state.grid.dtau, state.U

    def at(tau, V):
        return SimState(tau, V, state.grid, state.medium, state.mode, state.background)

    k1 = state_rhs(state, nabla)
    k2 = state_rhs(at(state.tau + dt / 2, U + (dt / 2) * k1), nabla)
    k3 = state_rhs(at(state.tau + dt / 2, U + (dt / 2) * k2), nabla)
    k4 = state_rhs(at(state.tau + dt, U + dt * k3), nabla)
    return at(state.tau + dt, U + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4))


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", ["maxwell", "free_theta", "strong_field", "interaction", "united"])
def test_step_rk4_matches_reference_rk4(scheme, mode):
    """Three steps agree with RK4 on physical stages: held channels bit-equal,
    advanced ones to round-off (the stages on the band transform where the
    reference's right-hand sides transform apart)."""
    g = cube(12, 0.05)
    nab = Nabla(g, scheme=scheme)
    cfg = StepperConfig()
    got = ref = random_state(g, mode, seed=23, scheme=scheme)
    for i in range(3):
        got, _ = step_rk4(got, nab, cfg, i)
        ref = reference_rk4(ref, nab)
    held = {"maxwell": slice(3, 7), "free_theta": slice(0, 3), "strong_field": slice(0, 3)}
    if mode in held:
        assert np.array_equal(got.U[:, held[mode]], ref.U[:, held[mode]])
    assert got.tau == ref.tau
    assert np.abs(got.U - ref.U).max() <= 1e-13 * np.abs(ref.U).max()


def relabelled(st):
    """The state with its axes relabelled cyclically as (y, z, x), and its
    vector components (A, J and the background) with them: a rotation, so
    curl, cross products and the modes' laws keep their form."""
    def turn(F, rows):  # F's vector rows in the new order, its grid axes (x, y, z) -> (y, z, x)
        return np.moveaxis(F[..., rows, :, :, :], -3, -1)

    g = st.grid
    bg = None if st.background is None else turn(st.background, [1, 2, 0])
    return SimState(st.tau, turn(st.U, [1, 2, 0, 3, 5, 6, 4]),
                    Grid(n=g.n[1:] + g.n[:1], L=g.L[1:] + g.L[:1], dtau=g.dtau), st.medium, st.mode, bg)


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", MODES)
def test_cyclic_relabelling_commutes_with_steps(scheme, mode):
    """Relabelling the axes cyclically, with the vector components, then
    stepping equals stepping then relabelling, on a box whose n and L differ
    per axis: each field's force and each component's derivative is taken
    on its own axis and rows (measured <= 4.4e-16 relative over the modes
    and schemes)."""
    g = Grid(n=(8, 10, 12), L=(2 * np.pi, 5.0, 3.0), dtau=0.05)
    st = random_state(g, mode, seed=31, scheme=scheme)
    turned = relabelled(st)
    nab, nab_turned = Nabla(g, scheme=scheme), Nabla(turned.grid, scheme=scheme)
    for i in range(3):
        st, _ = step_rk4(st, nab, StepperConfig(), i)
        turned, _ = step_rk4(turned, nab_turned, StepperConfig(), i)
    want = relabelled(st).U
    assert turned.tau == st.tau
    assert np.abs(turned.U - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("mode,scheme", [("maxwell", "spectral"), ("free_theta", "spectral"),
                                         ("maxwell", "central4"), ("free_theta", "central4")],
                         ids=["maxwell", "free_theta", "maxwell-central4", "free_theta-central4"])
def test_linear_steps_match_reference_rk4_over_200_steps(mode, scheme):
    """The closed-form step (the kept gains on both schemes) stays on
    classical RK4's map over a long run (maxwell
    with a nonzero held J), where three steps hide a drift."""
    g = cube(8, 0.25 * 2 * np.pi / 8)
    nab, cfg = Nabla(g, scheme=scheme), StepperConfig()
    got = ref = random_state(g, mode, seed=29, scheme=scheme)
    for i in range(200):
        got, _ = step_rk4(got, nab, cfg, i)
        ref = reference_rk4(ref, nab)
    assert got.tau == ref.tau
    assert np.abs(got.U - ref.U).max() <= 1e-12 * np.abs(ref.U).max()


def cross_matrix(s):
    """The matrix of v -> s x v, for wavevectors s on the last axis."""
    S = np.zeros(s.shape[:-1] + (3, 3), complex)
    S[..., 0, 1], S[..., 0, 2] = -s[..., 2], s[..., 1]
    S[..., 1, 0], S[..., 1, 2] = s[..., 2], -s[..., 0]
    S[..., 2, 0], S[..., 2, 1] = -s[..., 1], s[..., 0]
    return S


def derivative_symbol(g, scheme):
    """s(k) with d/dx -> i s per axis, on the (nx, ny, nz, 3) grid of
    wavenumbers: k itself on spectral, its odd Nyquist zeroed; the 5-point
    stencil's d(k) = (8 sin kh - sin 2kh) / (6h) on central4."""
    axes = []
    for n, L in zip(g.n, g.L):
        h = L / n
        k = 2 * np.pi * np.fft.fftfreq(n, h)
        if scheme == "spectral":
            k[np.abs(np.fft.fftfreq(n, 1 / n)) == n / 2] = 0.0
        else:
            k = (8 * np.sin(k * h) - np.sin(2 * k * h)) / (6 * h)
        axes.append(k)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def linear_generator(s, mode):
    """G(k) of d/dtau on one wavenumber's advanced channels and held source,
    from the equations as written: maxwell on (A, J), dA = -i curl A - J and
    dJ = 0, so [[s x, -I], [0, 0]]; free transport on (rho, J) in the other
    modes, drho = -div J and dJ = -grad rho + i curl J, so
    [[0, -i s^T], [-i s, -s x]]."""
    if mode == "maxwell":
        G = np.zeros(s.shape[:-1] + (6, 6), complex)
        G[..., :3, :3] = cross_matrix(s)
        G[..., :3, 3:] = -np.eye(3)
    else:
        G = np.zeros(s.shape[:-1] + (4, 4), complex)
        G[..., 0, 1:] = G[..., 1:, 0] = -1j * s
        G[..., 1:, 1:] = -cross_matrix(s)
    return G


def assert_on_rk4s_map(st, U0, steps, scheme, extra=0):
    """``st`` stepped ``steps`` times on ``scheme``, having asserted that each
    wavenumber's channels went from ``U0``'s by R(h G(k))^steps, with R
    classical RK4's gain 1 + z + z^2/2 + z^3/6 + z^4/24 and G(k) the mode's
    generator built here (``linear_generator``, plus ``extra``), not from the
    stepper's L or force."""
    g, mode = st.grid, st.mode
    channels = [0, 1, 2, 4, 5, 6] if mode == "maxwell" else [3, 4, 5, 6]
    Z = g.dtau * (linear_generator(derivative_symbol(g, scheme), mode) + extra)
    R = term = np.eye(len(channels))
    for p in range(1, 5):
        term = term @ Z / p
        R = R + term
    nab, cfg = Nabla(g, scheme=scheme), StepperConfig()
    for i in range(steps):
        st, _ = step_rk4(st, nab, cfg, i)

    def modes(U):  # (M, nx, ny, nz, channels)
        return np.moveaxis(np.fft.fftn(U[:, channels], axes=(-3, -2, -1)), 1, -1)

    want = modes(U0)
    for _ in range(steps):
        want = np.einsum("...ij,...j->...i", R, want)
    assert np.abs(modes(st.U) - want).max() <= 1e-12 * np.abs(want).max()
    return st


BOX = Grid(n=(8, 8, 8), L=(2 * np.pi, 3.0, 5.0), dtau=0.09)  # three different sides


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", ["maxwell", "free_theta", "strong_field"])
def test_linear_steps_are_rk4s_map_per_wavenumber(mode, scheme):
    """N steps take each wavenumber's channels by R(h G(k))^N
    (``assert_on_rk4s_map``): an oracle for the closed form on both schemes,
    on a box with three different sides.  strong_field in a uniform
    background A' = a is linear too: free transport plus the constant force
    ``strong_field_generator(a, kappa)`` (the 2/3 filter of Theta a is
    exact), stepped by the four stages."""
    st = random_state(BOX, mode, seed=41, scheme=scheme)
    extra = 0
    if mode == "strong_field":
        a = np.array([0.4, -0.3 + 0.2j, 0.8])
        extra = strong_field_generator(a, st.medium.kappa)
        bg = a[:, None, None, None] * np.ones(BOX.n)
        st = SimState(0.0, st.U, BOX, st.medium, mode, bg)
    assert_on_rk4s_map(st, st.U, 7, scheme, extra)


def plane_wave_scenario(scheme, n=BOX.n, L=BOX.L):
    """maxwell from a plane wave in A alone, as the benchmark's maxwell-64
    runs: Theta has no term, so the held J is zero.  Three steps, by
    default on ``BOX``'s three different sides."""
    k = [2 * np.pi * m / side for m, side in zip((1, -2, 1), L)]
    wave = {"type": "plane_wave", "k": k, "polarization": {"re": [1, 0, 0.5], "im": [0, 1, 0]}}
    dtau = 0.25 * min(side / m for side, m in zip(L, n))
    return parse_scenario({"mode": "maxwell", "grid": {"n": list(n), "L": list(L)}, "nabla": scheme,
                           "duration": 3 * dtau, "initial_conditions": [{"afield": wave}]})


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("given", ["scenario", "U"])
def test_a_zero_j_has_no_source(given, scheme):
    """maxwell whose held J has an all-zero band has no source: the kept map
    is the gains alone (``closed[1]`` None), and three steps, which add
    nothing, stay on RK4's map per wavenumber.  On both schemes, for
    build_state's block (spectral's with terms, central4's as arrays) from a
    plane wave in A alone, and for a block taken in from a state's U with
    J = 0 and random A and rho."""
    sc = plane_wave_scenario(scheme)
    if given == "scenario":
        st, U0 = build_state(sc)[0], build_state(sc)[0].U
    else:
        U0 = random_state(sc.grid, "maxwell", seed=47, scheme=scheme).U.copy()
        U0[:, 4:7] = 0
        st = SimState(0.0, U0, sc.grid, sc.medium, "maxwell")
    st = assert_on_rk4s_map(st, U0, sc.steps, scheme)
    assert st._coef.held.closed[1] is None


def kept_source(nab, h, J):
    """maxwell's kept source as ``_closed_form`` must make it, bit for bit:
    -h phi(+-i h s) J+- and -h J_n, with J+- and J_n the
    ``Nabla.to_helicity`` components of J's band and phi ``_rk4_phi``."""
    z = 1j * h * nab.band_frame()[-1]
    want = nab.to_helicity(nab.to_spectrum(J))
    want[:, 0] *= evolution._rk4_phi(z)
    want[:, 1] *= evolution._rk4_phi(-z)
    want *= -h
    return want


@pytest.mark.parametrize("scheme", Nabla.schemes)
def test_a_j_at_one_wavenumber_keeps_its_source(scheme):
    """A held J non-zero at one band wavenumber alone, (2, -2, 2) on 8^3,
    is not a zero J: its kept source is the one evaluator's
    (``kept_source``), and three steps stay on RK4's map per wavenumber."""
    nab = Nabla(BOX, scheme=scheme)
    U = random_state(BOX, "maxwell", seed=53, m=1, scheme=scheme).U.copy()
    ix, iy, iz = np.indices(BOX.n)
    U[0, 4:7] = np.array([0.3, -1j, 0.7])[:, None, None, None] * 1j ** ((ix - iy + iz) % 4)
    assert np.count_nonzero(nab.to_spectrum(U[:, 4:7])) == 3
    st = assert_on_rk4s_map(SimState(0.0, U, BOX, Medium(), "maxwell"), U, 3, scheme)
    assert np.array_equal(st._coef.held.closed[1], kept_source(nab, BOX.dtau, U[:, 4:7]))


@pytest.mark.parametrize("mode", ["maxwell", "free_theta"])
def test_closed_form_follows_a_dtau_change(mode):
    """The closed-form constants (a, b and maxwell's held source) belong to
    one run's step length: a run continued at another dtau (a new SimState on
    a new frozen Grid) steps on RK4's map at the new dtau, and the first run,
    stepped again, still steps at its own."""
    g = cube(8, 0.15)
    nab, cfg = Nabla(g), StepperConfig()
    st, _ = step_rk4(random_state(g, mode, seed=37), nab, cfg)
    got = ref = SimState(st.tau, st.U.copy(), dataclasses.replace(g, dtau=0.05), st.medium, mode)
    for i in range(2):
        got, _ = step_rk4(got, nab, cfg, i)
        ref = reference_rk4(ref, nab)
    assert got.tau == ref.tau == 0.15 + 2 * 0.05
    assert np.abs(got.U - ref.U).max() <= 1e-13 * np.abs(ref.U).max()
    old, _ = step_rk4(st, nab, cfg)
    ref = reference_rk4(SimState(st.tau, st.U.copy(), g, st.medium, mode), nab)
    assert old.tau == ref.tau == 2 * 0.15
    assert np.abs(old.U - ref.U).max() <= 1e-13 * np.abs(ref.U).max()


def test_grid_is_frozen():
    """grid.dtau is a run's one step length, the one the closed-form
    constants (a, b and maxwell's held source) kept on its states belong to:
    it cannot change mid-run."""
    g = cube(8, 0.15)
    st, _ = step_rk4(random_state(g, "maxwell", seed=37), Nabla(g), StepperConfig())
    for name, value in (("dtau", 0.05), ("n", (4, 4, 4)), ("L", (1.0, 1.0, 1.0))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, value)
    assert (g.dtau, g.n) == (0.15, (8, 8, 8))
    assert step_rk4(st, Nabla(g), StepperConfig())[0].tau == 2 * 0.15


@pytest.mark.parametrize("mode", ["maxwell", "free_theta"])
def test_state_grid_and_mode_are_read_only(mode):
    """A stepped state keeps its run's closed-form constants, which belong to
    one grid and one mode: neither can be rebound (a rebound dtau stepped on
    the old map, a rebound mode read Theta's coefficients as A's).  Another
    dtau or mode is another SimState."""
    g = cube(8, 0.15)
    st, _ = step_rk4(random_state(g, mode, seed=37), Nabla(g), StepperConfig())
    with pytest.raises(AttributeError):
        st.grid = dataclasses.replace(g, dtau=0.05)
    with pytest.raises(AttributeError):
        st.mode = "maxwell" if mode == "free_theta" else "free_theta"
    assert (st.grid, st.mode) == (g, mode)
    ref = reference_rk4(SimState(st.tau, st.U.copy(), g, st.medium, mode), Nabla(g))
    nxt, _ = step_rk4(st, Nabla(g), StepperConfig())
    assert np.abs(nxt.U - ref.U).max() <= 1e-13 * np.abs(ref.U).max()


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", ["maxwell", "free_theta"])
def test_linear_steps_run_no_stage_loop(monkeypatch, mode, scheme):
    """maxwell and free_theta step by their closed form on both schemes: the
    four-stage loop serves force modes alone."""
    def stages(*args):
        raise AssertionError("the four-stage loop ran")

    monkeypatch.setattr(evolution, "_stages", stages)
    g = cube(8, 0.05)
    st = random_state(g, mode, scheme=scheme)
    for i in range(2):
        st, _ = step_rk4(st, Nabla(g, scheme=scheme), StepperConfig(), i)
    assert st.tau == 2 * 0.05


class DerivativeCountingNabla(Nabla):
    """Nabla that counts its single-axis derivatives ``_d``."""

    derivatives = 0

    def _d(self, fh, a):
        self.derivatives += 1
        return super()._d(fh, a)


@pytest.mark.parametrize("mode,scheme", [("free_theta", "spectral"), ("maxwell", "central4"),
                                         ("free_theta", "central4")])
def test_linear_steps_take_no_derivative(mode, scheme):
    """maxwell and free_theta step by their kept gains on both schemes: no
    step takes a derivative, step 1 included, even past a read (spectral
    free_theta applied L once per step, and central4's Horner's rule four
    times, and three times more to maxwell's held J in step 1)."""
    g = cube(12, 0.05)
    nab, counts = DerivativeCountingNabla(g, scheme=scheme), []
    st = random_state(g, mode, scheme=scheme)
    for i in range(3):
        before = nab.derivatives
        st, _ = step_rk4(st, nab, StepperConfig(), i)
        counts.append(nab.derivatives - before)
        st.U
    assert counts == [0, 0, 0]


def test_spectral_maxwell_steps_by_its_kept_map():
    """Spectral maxwell keeps RK4's map as its two helicity gains g+- per
    band wavenumber, complex of shape (2,) + band, and its held source in
    the same basis.  Both come from the band's wavenumbers and frame, so no
    step takes a derivative, step 1 included, even past a read."""
    g = cube(12, 0.05)
    nab, counts = DerivativeCountingNabla(g), []
    st = random_state(g, "maxwell", m=2)
    for i in range(3):
        before = nab.derivatives
        st, _ = step_rk4(st, nab, StepperConfig(), i)
        counts.append(nab.derivatives - before)
        st.U
    assert counts == [0, 0, 0]
    gain = st._coef.held.closed[0]
    assert gain.dtype == np.complex128 and gain.shape == (2, 9, 9, 9)


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", ["maxwell", "free_theta"])
def test_kept_map_is_the_one_evaluator(mode, scheme):
    """The run's kept map, made a chunk of k_x planes at a time, is
    rk4_gain's and _rk4_phi's arithmetic bit for bit, on a box with three
    different sides: the gain rows are R(+-i h s), s the band's |symbol|,
    and maxwell's source is -h phi(+-i h s) J+- and -h J_n, with J+- and J_n
    the ``Nabla.to_helicity`` components of its held J's band."""
    g = Grid(n=(12, 10, 9), L=(2 * np.pi, 3.0, 5.0), dtau=0.05)
    nab, h = Nabla(g, scheme=scheme), g.dtau
    st = random_state(g, mode, seed=43, scheme=scheme)
    gains, source = step_rk4(st, nab, StepperConfig())[0]._coef.held.closed
    z = 1j * h * nab.band_frame()[-1]
    assert np.array_equal(gains, np.stack([rk4_gain(z), rk4_gain(-z)]))
    if mode == "free_theta":
        assert source is None
    else:
        assert np.array_equal(source, kept_source(nab, h, st.U[:, 4:7]))


def traced_peak(run) -> int:
    """tracemalloc's peak over run(), in bytes above what was traced when
    it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("mode,scheme,m,pin", [("free_theta", "central4", 1, 15),
                                             ("free_theta", "spectral", 1, 3),
                                             ("maxwell", "spectral", 1, 2),
                                             ("maxwell", "central4", 1, 12),
                                             ("united", "central4", 2, 74),
                                             ("united", "spectral", 2, 47),
                                             ("strong_field", "central4", 2, 47),
                                             ("strong_field", "spectral", 2, 28)])
def test_step_allocation_peak(mode, scheme, m, pin):
    """tracemalloc's peak over one step on 16^3, in channels of 16^3 complex
    values.  A stage step (united) holds three stacks of the advanced
    channels, one rhs's temporaries and the new state: measured 73.1 on
    central4, whose band is the whole grid and whose stage states are made
    by inverse transforms, and 42.0 on spectral (63.2 and 46.0 when central4
    stepped on the stencil, its stage states the stage arrays themselves,
    and the force's biquaternion lived on through its transform; the
    stages' temporaries per stage made it 77.2 and 50.5).  Filling one
    (M, 4) + n force stack for all fields and taking it in with one call
    made them 77.0 and 48.7.  A strong_field stage reads its advanced
    channels, rho and J, made physical, and the background: measured 46.0
    on central4 and 27.1 on spectral (a stage state of all 7 channels, the
    held A copied in, made them 52.0 and 33.2).  A
    linear step by its kept gains holds the new stack of the advanced
    channels, on the band, and no scratch: measured 4.03 in free_theta and
    3.03 in maxwell on central4, whose band is the whole grid (Horner's
    rule on the stencil made them 14.4 and 11.3), and 1.33 and 1.00 on
    spectral's 11^3 band (one L per step made free_theta's 2.6, and a 3x3
    matrix per wavenumber maxwell's 1.7).  The pins are measured values
    rounded up to a whole channel: those of the older steps, but for
    central4 united and both strong_field rows, whose pins round up the
    values measured now."""
    g = cube(16, 0.05)
    nab = Nabla(g, scheme=scheme)
    st, _ = step_rk4(random_state(g, mode, m=m, scheme=scheme), nab, StepperConfig())
    assert traced_peak(lambda: step_rk4(st, nab, StepperConfig(), 1)) <= pin * 16**3 * 16


@pytest.mark.parametrize("mode,scheme,pin,map_pin", [("maxwell", "spectral", 5, 2), ("free_theta", "spectral", 3, 1),
                                                     ("maxwell", "central4", 11, 9), ("free_theta", "central4", 9, 3)])
def test_first_step_allocation_peak(mode, scheme, pin, map_pin):
    """tracemalloc's peak over step 1 from build_state on 16^3, in channels
    of 16^3 complex values.  Step 1 also makes the run's kept map (the band
    frame, the gains and maxwell's source from its held J's band), and it
    rotates build_state's coefficients straight into the new state's array,
    where the gains multiply them: measured 4.45 for maxwell and 2.73 for
    free_theta on spectral's 11^3 band, 10.04 and 8.02 on central4, whose
    band is the whole grid.  A whole rotated copy next to the new array,
    and maxwell's held rho taken onto the band with J, made them 5.35 and
    3.99 on spectral, 12.65 and 11.62 on central4.  The kept map alone, made
    again on step 1's held block, holds the gains and the source and
    temporaries of a chunk of k_x planes: measured 1.91 and 0.81 on
    spectral, 8.44 and 2.33 on central4 (central4 maxwell takes its held J
    in again); band-sized Horner temporaries and stacked copies of the gains
    and of phi made them 3.61 and 1.64, 11.04 and 5.02.  The pins are the
    measured values rounded up to a whole channel."""
    st, nab = build_state(pulse_scenario(mode, scheme, n=16))
    assert traced_peak(lambda: step_rk4(st, nab, StepperConfig())) <= pin * 16**3 * 16
    adv, held = evolution._advanced(mode), st._coef.held
    assert traced_peak(lambda: evolution._closed_form(nab, adv, st.grid.dtau, held)) <= map_pin * 16**3 * 16


@pytest.mark.parametrize("scheme,pin", [("spectral", 1), ("central4", 3)])
def test_zero_source_map_allocation_peak(scheme, pin):
    """tracemalloc's peak over the kept map of a zero-J maxwell run (a plane
    wave in A alone) made again on step 1's held block, on 16^3, in
    channels of 16^3 complex values.  A held J whose band is all zero has
    no source, and that is found once for the run, so the map holds the
    gains and a chunk of k_x planes' temporaries alone, as free_theta's
    does: measured 0.81 on spectral's 11^3 band and 2.32 on central4, whose
    band is the whole grid.  Rotating and scaling the zero J into a kept
    source of 3 band channels made them 1.91 and 8.44 (central4 took J in
    again).  The pins are the measured values rounded up to a whole
    channel."""
    sc = plane_wave_scenario(scheme, n=(16,) * 3, L=(2 * np.pi,) * 3)
    st, nab = build_state(sc)
    st, _ = step_rk4(st, nab, sc.stepper)
    adv, held = evolution._advanced("maxwell"), st._coef.held
    assert traced_peak(lambda: evolution._closed_form(nab, adv, st.grid.dtau, held)) <= pin * 16**3 * 16


@pytest.mark.parametrize("mode,scheme,pin", [("maxwell", "spectral", 8), ("free_theta", "spectral", 8),
                                             ("maxwell", "central4", 8), ("free_theta", "central4", 8)])
def test_read_allocation_peak(mode, scheme, pin):
    """tracemalloc's peak over the first read of a stepped state's U on
    16^3, in channels of 16^3 complex values.  The read makes one U and
    fills it: the held rows copied in, and the advanced rows scattered and
    transformed in their own slice, rotated back from the characteristic
    components a chunk of k_x planes at a time on the way (measured 7.33
    for maxwell and 7.39 for free_theta on spectral, 7.60 and 7.73 on
    central4, whose band is the whole grid; rotating spectral maxwell's
    whole band first made it 7.99, and a transformed stack joined to the
    held rows 10.0 and 11.0 on spectral).  The pins are the measured values
    rounded up to a whole channel."""
    g = cube(16, 0.05)
    nab = Nabla(g, scheme=scheme)
    st, _ = step_rk4(random_state(g, mode, m=1, scheme=scheme), nab, StepperConfig())
    assert traced_peak(lambda: st.U) <= pin * 16**3 * 16


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", ["maxwell", "free_theta", "strong_field", "interaction", "united"])
def test_resident_steps_match_steps_read_every_step(scheme, mode):
    """Steps that never read U agree with steps that read it after each one:
    held channels bit-equal, advanced ones to round-off on spectral."""
    g = cube(12, 0.05)
    nab, cfg = Nabla(g, scheme=scheme), StepperConfig()
    kept = read = random_state(g, mode, seed=31, scheme=scheme)
    for i in range(3):
        kept, _ = step_rk4(kept, nab, cfg, i)
        read, _ = step_rk4(read, nab, cfg, i)
        read.U
    held = slice(3, 7) if mode == "maxwell" else slice(0, 3)
    if mode in ("maxwell", "free_theta", "strong_field"):
        assert np.array_equal(kept.U[:, held], read.U[:, held])
    assert kept.tau == read.tau
    tol = 0.0 if scheme == "central4" else 1e-13
    assert np.abs(kept.U - read.U).max() <= tol * np.abs(read.U).max()


def out_of_band(nab, U):
    """max |coefficient| outside the 2/3 band over max |coefficient| inside it."""
    Uh = np.fft.fftn(U, axes=(-3, -2, -1))
    keep = np.ones(nab.grid.n, bool)
    for a, n in enumerate(nab.grid.n):
        shape = [1, 1, 1]
        shape[a] = -1
        keep = keep & (np.abs(np.fft.fftfreq(n, 1.0 / n)) <= n / 3).reshape(shape)
    return np.abs(Uh[..., ~keep]).max() / np.abs(Uh[..., keep]).max()


ADVANCED = {"maxwell": slice(0, 3), "free_theta": slice(3, 7), "strong_field": slice(3, 7),
            "interaction": slice(0, 7), "united": slice(0, 7)}


@pytest.mark.parametrize("mode", ["maxwell", "free_theta", "strong_field", "interaction", "united"])
def test_spectral_step_projects_onto_the_band(mode):
    """On spectral a step holds only the 2/3 band: the advanced channels come
    out band-limited from white noise, and in the modes without a force
    (whose stages read no physical state) stepping the noise equals stepping
    its Nabla.dealias.  A force mode's first stage reads the input as given."""
    g = cube(12, 0.05)
    nab, cfg, adv = Nabla(g), StepperConfig(), ADVANCED[mode]
    rng = np.random.default_rng(5)
    U = rng.standard_normal((2, 7) + g.shape) + 1j * rng.standard_normal((2, 7) + g.shape)
    bg = nab.dealias(rng.standard_normal((3,) + g.shape) + 0j) if mode == "strong_field" else None
    got, _ = step_rk4(SimState(0.0, U, g, Medium(kappa=1.5), mode, bg), nab, cfg)
    assert out_of_band(nab, got.U[:, adv]) <= 1e-14
    if mode in ("maxwell", "free_theta"):
        ref, _ = step_rk4(SimState(0.0, nab.dealias(U), g, Medium(kappa=1.5), mode), nab, cfg)
        assert np.abs(got.U[:, adv] - ref.U[:, adv]).max() <= 1e-13 * np.abs(ref.U[:, adv]).max()


def pulse_scenario(mode, scheme="spectral", n_fields=None, n=12):
    """Three steps on n^3 (12^3 unless given) from off-centre Gaussian
    pulses (not band-limited): two fields where the mode needs a partner,
    else one."""
    pulse = {"type": "gaussian_pulse", "width": 0.7, "polarization": {"re": [1, 0, 0.5], "im": [0, 1, 0]}}
    fields = [{"afield": dict(pulse, center=[c] * 3), "theta": dict(pulse, center=[c] * 3, scalar=0.6)}
              for c in (2.8, 3.6)]
    doc = {"mode": mode, "grid": {"n": [n] * 3}, "duration": 3 * 0.25 * 2 * np.pi / n,
           "medium": {"kappa": 0.5}, "nabla": scheme,
           "initial_conditions": fields[: n_fields or (2 if mode in ("interaction", "united") else 1)]}
    if mode == "strong_field":
        doc["background"] = dict(pulse, center=[3.6] * 3)
    return parse_scenario(doc)


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", MODES)
def test_build_state_u_is_the_dealiased_initial_data(mode, scheme):
    """build_state holds spectral data as a stepped state does, the advanced
    channels as band coefficients made from the presets' 1-D factors; the U
    made from them on first read is Nabla.dealias of the assembled initial
    data to 1e-15 relative (2.5e-16 measured, the 3-D and the 1-D transforms
    rounding apart), and so is strong_field's background.  central4 holds
    the whole grid's coefficients likewise, in every mode (its dealias is
    the identity)."""
    sc = pulse_scenario(mode, scheme)
    st, nab = build_state(sc)
    assert st._U is None
    pairs = [(st.U, nab.dealias(sc.initial))]
    if mode == "strong_field":
        pairs.append((st.background, nab.dealias(sc.background)))
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("mode,n_fields,made,step1", [("maxwell", 1, 0, 3), ("free_theta", 1, 0, 0),
                                                      ("united", 2, 0, 102)])
def test_build_state_takes_the_advanced_channels_in_once(monkeypatch, mode, n_fields, made, step1):
    """On spectral build_state makes no 3-D transform: the advanced
    channels' band comes from the presets' 1-D factors.  Step 1 starts from
    those coefficients: maxwell takes its held J onto the band, where its
    source reads it, once per run (its held rho, which no step reads, stays
    as data), free_theta takes nothing (no step reads its held A), and
    united makes U in its first stage as a step from physical U would read
    it."""
    monkeypatch.setattr(runner, "Nabla", CountingNabla)
    st, nab = build_state(pulse_scenario(mode, n_fields=n_fields))
    assert nab.transforms == made
    step_rk4(st, nab, StepperConfig())
    assert nab.transforms - made == step1


def test_a_maxwell_run_transforms_its_data_once(monkeypatch):
    """A spectral maxwell run from build_state through three steps does 3
    transforms in all (none in set-up, and its held J's 3 in step 1), none
    after step 1.  The first read of U makes the held block's physical
    form, once for the run's states: it adds 3 for A, 3 for J from its band
    and 2 for rho's 2/3 rule, and a read of a later state 3."""
    monkeypatch.setattr(runner, "Nabla", CountingNabla)
    sc = pulse_scenario("maxwell")
    st, nab = build_state(sc)
    counts = []
    for i in range(3):
        st, _ = step_rk4(st, nab, sc.stepper, i)
        counts.append(nab.transforms)
    assert counts == [3, 3, 3]
    st.U
    assert nab.transforms == 3 + 3 + 3 + 2
    st.U
    st, _ = step_rk4(st, nab, sc.stepper, 3)
    st.U
    assert nab.transforms == 3 + 3 + 3 + 2 + 3


@pytest.mark.parametrize("scheme,step1,read", [("spectral", 3, 3 + 0 + 0), ("central4", 3, 3)])
def test_a_zero_j_maxwell_run_transforms_its_data_once(monkeypatch, scheme, step1, read):
    """A maxwell run from build_state whose held J is zero (a plane wave in
    A alone, as the benchmark's maxwell-64) makes J's 3 forward transforms
    in step 1, none in set-up and none in steps 2-3: it has no source, so
    no step adds one.  The first read of U adds, on spectral, 3 for A and
    none for the zero J and rho (rows with no term, and J's all-zero band,
    are written as zeros, not transformed); on central4, whose held block
    is given as arrays, 3 for A.  Step 1 still takes J onto the band, as
    finding the zero reads the band; build_state's terms alone would show
    it (ROADMAP item 1(b)), but the benchmark's smoke test asks a non-zero
    transform count per step of every gated workload but free-64-central4
    (``perfbench/test_smoke.py``)."""
    monkeypatch.setattr(runner, "Nabla", CountingNabla)
    sc = plane_wave_scenario(scheme, n=(12,) * 3, L=(2 * np.pi,) * 3)
    st, nab = build_state(sc)
    counts = []
    for i in range(3):
        st, _ = step_rk4(st, nab, sc.stepper, i)
        counts.append(nab.transforms)
    assert counts == [step1] * 3
    st.U
    assert nab.transforms == step1 + read
    assert st._coef.held.closed[1] is None


def test_a_central4_free_theta_run_transforms_only_on_a_read(monkeypatch):
    """A central4 free_theta run from build_state makes no 3-D transform in
    set-up (its Theta comes onto the whole grid's coefficients from the
    preset's 1-D factors, and its held A stays as given) nor in 3 steps, as
    the benchmark's free-64-central4 makes none per step; the first read of
    U adds Theta's 4 and none for the held A."""
    monkeypatch.setattr(runner, "Nabla", CountingNabla)
    sc = pulse_scenario("free_theta", "central4")
    st, nab = build_state(sc)
    assert nab.transforms == 0
    for i in range(3):
        st, _ = step_rk4(st, nab, sc.stepper, i)
    assert nab.transforms == 0
    st.U
    assert nab.transforms == 4


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", ["strong_field", "interaction", "united"])
def test_only_the_newest_state_holds_both_forms(mode, scheme):
    """A force-mode step makes U and keeps its coefficients for the next
    step, which takes them and drops them from the state it stepped: after
    two steps the first returned state holds U alone and the newest both."""
    g = cube(12, 0.05)
    nab, cfg = Nabla(g, scheme=scheme), StepperConfig()
    s1, _ = step_rk4(random_state(g, mode, scheme=scheme), nab, cfg)
    s2, _ = step_rk4(s1, nab, cfg, 1)
    assert s1._coef is None and s1._U is not None
    assert s2._U is not None and s2._coef is not None


def test_a_central4_force_run_checks_its_held_block_once(monkeypatch):
    """A central4 strong_field run keeps its coefficients from step to step,
    as spectral does, so three steps check the held A for finiteness once,
    for the run (on the stencil every step took U in again, with a new held
    block, and checked it)."""
    g = cube(12, 0.05)
    nab, cfg = Nabla(g, scheme="central4"), StepperConfig()
    shapes, all_finite = [], evolution._all_finite
    monkeypatch.setattr(evolution, "_all_finite", lambda X: shapes.append(X.shape) or all_finite(X))
    st = random_state(g, "strong_field", scheme="central4")
    for i in range(3):
        st, _ = step_rk4(st, nab, cfg, i)
    assert shapes.count((2, 3) + g.n) == 1 and shapes.count((2, 4) + g.n) == 3


@pytest.mark.parametrize("mode", ["maxwell", "free_theta", "strong_field", "interaction", "united"])
def test_steps_from_build_state_stay_in_the_band(mode):
    """Three spectral steps from build_state data leave the coefficients
    outside the 2/3 band at round-off of the ones inside, in every mode."""
    sc = pulse_scenario(mode)
    st, nab = build_state(sc)
    for i in range(sc.steps):
        st, _ = step_rk4(st, nab, sc.stepper, i)
    assert out_of_band(nab, st.U) <= 1e-13


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", ["maxwell", "free_theta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_numerical_abort_fires_on_one_bad_cell(scheme, mode, bad):
    """One non-finite cell of an advanced channel aborts the step, whether it
    sits in the physical input or arises inside a step from a stepped state
    (from the kept gain g+, as the step takes no derivative); the abort
    gives back the last good U."""
    g = cube(12, 0.05)
    nab, cfg = Nabla(g, scheme=scheme), StepperConfig()
    st = random_state(g, mode)
    st.U[0, 1 if mode == "maxwell" else 5, 4, 5, 6] = bad
    with pytest.raises(NumericalAbort) as exc, np.errstate(invalid="ignore"):
        step_rk4(st, nab, cfg)
    assert exc.value.state is st and exc.value.steps == 1

    good, _ = step_rk4(random_state(g, mode), nab, cfg)
    expect = step_rk4(random_state(g, mode), nab, cfg)[0].U
    good._coef.held.closed[0][0, 1, 2, 3] = bad
    with pytest.raises(NumericalAbort) as exc, np.errstate(invalid="ignore"):
        step_rk4(good, nab, cfg, steps_done=1)
    assert exc.value.state is good and exc.value.steps == 2
    assert np.array_equal(exc.value.state.U, expect)


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode,channel", [("maxwell", 3), ("maxwell", 5), ("free_theta", 0)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_numerical_abort_fires_on_one_bad_held_cell(scheme, mode, channel, bad):
    """A held channel no rhs reads (maxwell's rho, free_theta's A) aborts the
    first step as well; the abort carries the input state."""
    g = cube(12, 0.05)
    st = random_state(g, mode)
    st.U[1, channel, 4, 5, 6] = bad
    with pytest.raises(NumericalAbort) as exc, np.errstate(invalid="ignore"):
        step_rk4(st, Nabla(g, scheme=scheme), StepperConfig(), steps_done=4)
    assert exc.value.state is st and exc.value.steps == 5


@pytest.mark.parametrize("bad", [1e308, -1e308, np.nan, np.inf, -np.inf])
def test_finiteness_check_survives_an_overflowing_sum(bad):
    """The per-step check sums the new coefficients first and checks them
    value by value only where that sum is not finite: finite +-1e308
    entries, whose sum overflows, step on, and NaN, +inf and -inf abort."""
    g = cube(12, 0.05)
    nab, cfg = Nabla(g), StepperConfig()
    st, _ = step_rk4(random_state(g, "maxwell"), nab, cfg)
    st._coef.X[0, 0, 1:5, 2, 3] = bad
    if np.isfinite(bad):
        new, _ = step_rk4(st, nab, cfg, 1)
        with np.errstate(over="ignore"):
            assert not np.isfinite(new._coef.X.sum())
        assert np.isfinite(new._coef.X).all()
    else:
        with pytest.raises(NumericalAbort) as exc, np.errstate(invalid="ignore"):
            step_rk4(st, nab, cfg, 1)
        assert exc.value.state is st and exc.value.steps == 2


def test_state_u_has_no_setter():
    """A stepped state shares its held channels and the closed form's
    constants with its run, so U cannot be assigned: another U is another
    SimState."""
    g = cube(12, 0.05)
    st, _ = step_rk4(random_state(g, "maxwell"), Nabla(g), StepperConfig())
    U = st.U
    with pytest.raises(AttributeError):
        st.U = U.copy()
    assert st.U is U


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", MODES)
def test_a_real_u_steps_as_the_same_u_given_complex(mode, scheme):
    """SimState holds U as complex128, so a real U steps bit-equal to the
    same values given as complex (on central4 the force modes raised on it,
    and free_theta dropped the imaginary part of its step)."""
    g = cube(8, 0.05)
    nab, cfg = Nabla(g, scheme=scheme), StepperConfig()
    rng = np.random.default_rng(8)
    U = rng.standard_normal((2, 7) + g.shape)
    bg = rng.standard_normal((3,) + g.shape) + 0j if mode == "strong_field" else None
    real, given = (step_rk4(SimState(0.0, V, g, Medium(), mode, bg), nab, cfg)[0] for V in (U, U + 0j))
    assert real.U.dtype == np.complex128 and np.array_equal(real.U, given.U)


@pytest.mark.parametrize("use", ["step_rk4", "state_rhs", "diagnostics"])
def test_a_nabla_of_another_box_is_refused(use):
    """A Nabla differentiates on its own grid's n and L: one on a box twice
    as long stepped the state percents off the right step, and the
    diagnostics measured its derivatives at half their size.  A step, a
    right-hand side and a diagnostics record refuse it."""
    g = cube(8, 0.05)
    st = random_state(g, "maxwell", seed=5)
    nab = Nabla(dataclasses.replace(g, L=(4 * np.pi,) * 3))
    with pytest.raises(ValueError, match="is not the state's"):
        if use == "step_rk4":
            step_rk4(st, nab, StepperConfig())
        elif use == "state_rhs":
            state_rhs(st, nab)
        else:
            DiagnosticsEngine(nab, [{"name": "constraint_drift"}]).sample(st, 0)


@pytest.mark.parametrize("mode", ["maxwell", "united"])
def test_a_step_on_another_scheme_takes_u_in(mode):
    """A state stepped on spectral keeps band coefficients; a step on
    central4 reads U, bit-equal to a step of a fresh state (the band was
    read as physical arrays and the shapes did not broadcast)."""
    g = cube(12, 0.05)
    st, _ = step_rk4(random_state(g, mode, seed=41), Nabla(g), StepperConfig())
    c4 = Nabla(g, scheme="central4")
    got, _ = step_rk4(st, c4, StepperConfig())
    ref, _ = step_rk4(SimState(st.tau, st.U.copy(), g, st.medium, mode, st.background), c4, StepperConfig())
    assert got.tau == ref.tau and np.array_equal(got.U, ref.U)


@pytest.mark.parametrize("shape", [(8, 8, 8), (3, 8, 8, 1), (3, 1, 1, 1)])
def test_state_refuses_a_background_of_another_shape(shape):
    """A background is (3,) + grid.n: an (8, 8, 8) one was read as three
    equal components, and the others stepped by broadcasting."""
    g = cube(8, 0.05)
    with pytest.raises(ValueError, match="background shape"):
        pack_state(g, Medium(), "strong_field", background=np.ones(shape))
    st = pack_state(g, Medium(), "strong_field", background=np.ones((3,) + g.n))
    assert st.background.dtype == np.complex128


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, "0", True, None, 1j,
                                 pytest.param(10**400, id="10**400")])
def test_state_refuses_a_tau_it_cannot_use(tau):
    """tau is a finite real number: NaN made the first window fail on its
    spacing, and "0" raised TypeError in the step."""
    g = cube(8, 0.05)
    with pytest.raises(ValueError, match="tau must be a finite real number"):
        SimState(tau, np.zeros((1, 7) + g.n), g, Medium(), "maxwell")
    assert SimState(np.float32(0.5), np.zeros((1, 7) + g.n), g, Medium(), "maxwell").tau == 0.5



@pytest.mark.parametrize("shape", [(7, 8, 8, 8), (1, 6, 8, 8, 8), (1, 7, 8, 8, 4), (1, 1, 7, 8, 8, 8)])
def test_state_refuses_a_u_of_another_shape(shape):
    """U is (M, 7) + grid.n: a missing field axis, a channel short, another
    box or an extra axis is a ValueError at construction."""
    g = cube(8, 0.05)
    with pytest.raises(ValueError, match=r"is not \(M, 7\) \+ grid n"):
        SimState(0.0, np.zeros(shape), g, Medium(), "maxwell")


def test_state_copy_is_a_separate_snapshot():
    """``copy`` of a resident spectral maxwell state makes U from its
    coefficients into an array of its own: writing the copy leaves the
    original's next step bit-equal to that step of a fresh run."""
    g = cube(12, 0.05)
    nab, cfg = Nabla(g), StepperConfig()

    def two_steps():
        st = random_state(g, "maxwell")
        for i in range(2):
            st, _ = step_rk4(st, nab, cfg, i)
        return st

    st = two_steps()
    assert st._coef is not None  # resident: the copy is the read that makes U
    cp = st.copy()
    assert np.array_equal(cp.U, st.U)
    assert not np.shares_memory(cp.U, st.U)
    cp.U[...] = np.nan
    fresh = two_steps()
    fresh.U  # the same read; both step from the coefficients they keep
    got, _ = step_rk4(st, nab, cfg, 2)
    ref, _ = step_rk4(fresh, nab, cfg, 2)
    assert np.array_equal(got.U, ref.U)


def test_cfl_guard_rejects_large_dtau():
    g = cube(8, 1.0)  # dtau far above 0.25 * h
    nab = Nabla(g)
    st = pack_state(g, Medium(), "maxwell", A=circular_afield(g))
    with pytest.raises(ValueError):
        step_rk4(st, nab, StepperConfig(cfl=0.25))


def test_step_bound_allows_round_off_only():
    """dtau <= cfl * min(h) has slack for round-off alone: a dtau 0.05 %
    over the bound is refused, one 1e-13 relative over it passes."""
    bound = 0.25 * 2 * np.pi / 8
    with pytest.raises(ValueError, match="violates the step bound"):
        StepperConfig().check_step(cube(8, bound * (1 + 5e-4)))
    StepperConfig().check_step(cube(8, bound * (1 + 1e-13)))


@pytest.mark.parametrize("bad", [0.0, -0.25, np.inf, np.nan, True, "0.25", None])
def test_stepper_config_rejects_a_cfl_it_cannot_use(bad):
    """cfl must be a finite real number > 0 and not a bool: an infinite one
    would let any dtau pass the step bound."""
    with pytest.raises(ValueError, match="cfl must be positive"):
        StepperConfig(cfl=bad)


def test_numerical_abort_carries_last_good_state():
    # an overflow-scale amplitude blows up the quadratic force immediately
    g = cube(8, 0.05)
    nab = Nabla(g)
    rho, J = charge_wave(g)
    U = np.zeros((2, 7) + g.shape, dtype=complex)
    for k in range(2):
        U[k, 0:3] = 1e200 * circular_afield(g)
        U[k, 3] = 1e200 * rho
        U[k, 4:7] = 1e200 * J
    st = SimState(0.0, U, g, Medium(), "interaction")
    with pytest.raises(NumericalAbort) as exc, np.errstate(over="ignore", invalid="ignore"):
        cur = st
        for i in range(4):
            cur, _ = step_rk4(cur, nab, StepperConfig(), i)
    err = exc.value
    assert err.steps >= 1
    assert np.isfinite(err.state.U).all()


# the channels each mode's step holds: maxwell Theta, free_theta and strong_field A
HELD = {"maxwell": slice(3, 7), "free_theta": slice(0, 3), "strong_field": slice(0, 3),
        "interaction": slice(0, 0), "united": slice(0, 0)}


@pytest.mark.parametrize("scheme", Nabla.schemes)
@pytest.mark.parametrize("mode", MODES)
def test_stepping_never_writes_its_input(mode, scheme):
    """A stepped state shares its input's held channels (in maxwell also the
    held J's coefficients), so no step writes them: stepping twice and then
    the first state again leaves its U bit-equal, and every stepped state's
    held channels equal its input's."""
    g = cube(12, 0.05)
    nab, cfg = Nabla(g, scheme=scheme), StepperConfig()
    s0 = random_state(g, mode, scheme=scheme)
    U0 = s0.U.copy()
    s1, _ = step_rk4(s0, nab, cfg)
    s2, _ = step_rk4(s1, nab, cfg)
    s3, _ = step_rk4(s0, nab, cfg)
    assert np.array_equal(s0.U, U0)
    for st in (s1, s2, s3):
        assert np.array_equal(st.U[:, HELD[mode]], U0[:, HELD[mode]])


def test_united_field_freeness_residual_measures_truncation():
    """The engine's freeness series is max |D- Theta_total| of the united
    field, with a centred tau difference of the neighbouring snapshots."""
    g = cube(16, 0.01)
    nab = Nabla(g)
    med = Medium()

    def freeness(snaps):
        eng = DiagnosticsEngine(nab, [{"name": "freeness"}])
        for step, s in enumerate(snaps):
            eng.sample(s, step)
        (row,) = eng.finalize()["freeness"].rows
        return row[1]

    def snap(tau):
        rho, J = charge_wave(g, tau)
        U = np.zeros((2, 7) + g.shape, dtype=complex)
        U[0, 3], U[0, 4:7] = rho, J
        rho2, J2 = charge_wave(g, tau)
        U[1, 3], U[1, 4:7] = 0.5 * rho2, 0.5 * J2
        return SimState(tau, U, g, med, "united")

    d = 0.01
    resid = freeness([snap(0.1 - d), snap(0.1), snap(0.1 + d)])
    th_tot = field_totals(snap(0.1))[1]
    # exact solution: residual is the centred-difference truncation d^2/6 * amp
    amp = 1.5
    expect = d**2 / 6 * amp
    assert resid == pytest.approx(expect, rel=5e-3)
    assert np.abs(th_tot.rho).max() == pytest.approx(amp, rel=1e-12)
    # equal and opposite pair: the total vanishes and so does the residual
    def snap_cancel(tau):
        rho, J = charge_wave(g, tau)
        U = np.zeros((2, 7) + g.shape, dtype=complex)
        U[0, 3], U[0, 4:7] = rho, J
        U[1, 3], U[1, 4:7] = -rho, -J
        return SimState(tau, U, g, med, "united")

    r0 = freeness([snap_cancel(0.0), snap_cancel(d), snap_cancel(2 * d)])
    th0 = field_totals(snap_cancel(d))[1]
    assert np.abs(th0.rho).max() == 0.0
    assert r0 == 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_totals_add_the_fields_in_order(m):
    """The totals are U.sum(axis=0) bit for bit, and one field's totals are
    its own rows of U, with no copy."""
    g = cube(8, 0.05)
    rng = np.random.default_rng(40 + m)
    U = rng.standard_normal((m, 7) + g.shape) + 1j * rng.standard_normal((m, 7) + g.shape)
    st = SimState(0.0, U, g, Medium(), "united" if m > 1 else "maxwell")
    a_tot, th_tot = field_totals(st)
    for got, c in ((a_tot.A, slice(0, 3)), (th_tot.rho, 3), (th_tot.J, slice(4, 7))):
        assert np.array_equal(got, st.U[:, c].sum(axis=0))
        assert np.shares_memory(got, st.U) == (m == 1)


def test_field_totals_sums_components():
    g = cube(8, 0.05)
    rng = np.random.default_rng(4)
    U = rng.standard_normal((3, 7) + g.shape) + 1j * rng.standard_normal((3, 7) + g.shape)
    st = SimState(0.0, U, g, Medium(), "interaction")
    a_tot, th_tot = field_totals(st)
    np.testing.assert_allclose(a_tot.A, U[:, 0:3].sum(axis=0))
    np.testing.assert_allclose(th_tot.rho, U[:, 3].sum(axis=0))
    np.testing.assert_allclose(th_tot.J, U[:, 4:7].sum(axis=0))
