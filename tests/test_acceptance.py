"""Whole-system acceptance gate.

Each numbered test exercises one end-to-end guarantee and prints a single
PASS/FAIL line with the measured numbers; the lines are echoed again in the
terminal summary block.  Each criterion asserts what the documented method
promises: plane-wave transport is held to the exact discrete transport of
classical RK4 (its 3.04e-7 one-period floor against the exact solution is
predicted and pinned by a companion test), and the characteristic speeds are
the +-1 pairs that the factorization D+ D- = box forces on the symbol.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import ACCEPTANCE_LINES

from bqfield import (
    AField,
    Biquaternion,
    DiagnosticsEngine,
    Grid,
    Medium,
    Nabla,
    SimState,
    StepperConfig,
    assemble_afield,
    assemble_theta,
    field_totals,
    interaction_energy,
    power_force,
    step_rk4,
)
from bqfield.biquaternion import basis_vector, one
from bqfield.diagnostics import (
    BoxRegion,
    IntegralLawAccumulator,
    charge_conservation_residual,
    poynting_residual,
)
from bqfield.operators import apply_box, apply_dminus, apply_dplus
from bqfield.scenario import parse_scenario
from bqfield.runner import run_scenario
from bqfield.shock import (
    FrontData,
    afield_jump_energy,
    characteristic_matrix,
    characteristic_roots,
)

TWO_PI = 2.0 * np.pi


def record(num, label, ok, detail):
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


def cube(n, dtau):
    return Grid(n=(n,) * 3, L=(TWO_PI,) * 3, dtau=dtau)


# -- 1: algebra ------------------------------------------------------------------


def test_criterion_01_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)

    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    table_ok = True
    for j in range(3):
        for k in range(3):
            prod = basis_vector(j) @ basis_vector(k)
            want_s = -1.0 if j == k else 0.0
            table_ok = table_ok and complex(prod.scalar) == want_s
            table_ok = table_ok and np.array_equal(prod.vector, eps[j, k])
        left = one() @ basis_vector(j)
        right = basis_vector(j) @ one()
        for p in (left, right):
            table_ok = table_ok and complex(p.scalar) == 0.0
            table_ok = table_ok and np.array_equal(p.vector, basis_vector(j).vector)

    def rand_bq(shape):
        return Biquaternion(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape),
        )

    a, b, c = rand_bq((1000,)), rand_bq((1000,)), rand_bq((1000,))
    lhs = (a @ b) @ c
    rhs = a @ (b @ c)
    assoc = max(
        float(np.abs(lhs.scalar - rhs.scalar).max()),
        float(np.abs(lhs.vector - rhs.vector).max()),
    )

    def sigma(x):
        return x.scalar**2 + (x.vector**2).sum(axis=0)

    sig_err = float(np.abs(sigma(a @ b) - sigma(a) * sigma(b)).max())
    wall = time.perf_counter() - t0

    ok = table_ok and assoc <= 1e-12 and sig_err <= 1e-12 and wall < 1.0
    record(
        1,
        "biquaternion algebra",
        ok,
        f"basis table exact, associativity {assoc:.2e} and norm form {sig_err:.2e} "
        f"on 1000 random triples, wall {wall:.2f}s",
    )
    assert table_ok
    assert assoc <= 1e-12
    assert sig_err <= 1e-12
    assert wall < 1.0


# -- 2: operator factorization -----------------------------------------------------


def test_criterion_02_wave_factorization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    n = 32
    g = cube(n, 0.01)
    nab = Nabla(g)

    def band_limited(shape):
        fh = np.zeros(shape + g.shape, dtype=np.complex128)
        fh[..., :5, :5, :5] = rng.standard_normal(shape + (5, 5, 5)) + 1j * rng.standard_normal(
            shape + (5, 5, 5)
        )
        f = np.fft.ifftn(fh, axes=(-3, -2, -1))
        return f / np.abs(f).max()

    F0 = Biquaternion(band_limited(()), band_limited((3,)))
    om = 1.7
    dF = (-1j * om) * F0
    d2F = (-(om**2)) * F0

    inner = apply_dplus(nab, F0, dF)
    inner_dtau = apply_dplus(nab, dF, d2F)
    lhs = apply_dminus(nab, inner, inner_dtau)
    box = apply_box(nab, F0, d2F)
    resid = max(
        float(np.abs(lhs.scalar - box.scalar).max()),
        float(np.abs(lhs.vector - box.vector).max()),
    )
    wall = time.perf_counter() - t0

    ok = resid <= 1e-10 and wall < 5.0
    record(
        2,
        "second-order factorization",
        ok,
        f"Linf {resid:.2e} vs bound 1e-10 on a 32^3 band-limited field, wall {wall:.2f}s",
    )
    assert resid <= 1e-10
    assert wall < 5.0


# -- 3 and 4: plane-wave transport and its conservation residuals -------------------


@pytest.fixture(scope="module")
def eigenmode_period():
    """One period of the circular plane wave at 32^3, plus a halved-step rerun.

    ``ends`` maps each step count to the initial and the final field vector.
    """
    n = 32
    med = Medium()
    out = {}
    t0 = time.perf_counter()
    for steps, with_diag in ((128, True), (256, False)):
        g = cube(n, TWO_PI / steps)
        nab = Nabla(g)
        _, _, Z = g.meshgrid()
        ph = np.exp(1j * Z)
        U = np.zeros((1, 7) + g.shape, dtype=np.complex128)
        U[0, 0] = ph
        U[0, 1] = 1j * ph
        st = SimState(0.0, U, g, med, "maxwell")
        A0 = st.U[0, 0:3].copy()
        eng = None
        if with_diag:
            eng = DiagnosticsEngine(
                g,
                med,
                "maxwell",
                nab,
                [{"name": "charge", "cadence": 1}, {"name": "poynting", "cadence": 1}],
            )
            eng.sample(st, 0)
        cfg = StepperConfig(cfl=0.25 * (1 + 1e-9))
        for i in range(steps):
            st, _ = step_rk4(st, nab, cfg, i)
            if eng is not None:
                eng.sample(st, i + 1)
        err = float(np.abs(st.U[0, 0:3] - A0).max())
        out.setdefault("ends", {})[steps] = (A0, st.U[0, 0:3])
        if with_diag:
            eng.finalize()
            out["err"] = err
            out["charge"] = eng.series["charge"].max_linf
            out["poynting"] = eng.series["poynting"].max_linf
        else:
            out["err_half"] = err
    out["wall"] = time.perf_counter() - t0
    return out


def _rk4_gain(z):
    """Classical RK4's one-step amplification of dy/dtau = lam y, z = lam dtau."""
    return sum(z**j / math.factorial(j) for j in range(5))


def test_criterion_03_eigenmode_transport(eigenmode_period):
    r = eigenmode_period
    ratio = r["err"] / r["err_half"]

    # The fixture's mode A = p e^{i k.x}, k = (0, 0, 1), p = (1, i, 0), has
    # curl A = (i k x p) e^{i k.x} = A, so dA/dtau = -i curl A gives lam = -i.
    k = np.array([0.0, 0.0, 1.0])
    p = np.array([1.0, 1j, 0.0])
    A0 = r["ends"][128][0]
    assert np.array_equal(A0[:, 0, 0, 0], p)
    assert np.array_equal(1j * np.cross(k, p), p)
    lam = -1j

    # RK4 multiplies the mode by R(lam dtau) each step, so after N steps the
    # state must be R^N A0 (the scheme's exact discrete transport), and its
    # error against the exact solution A0 is the floor |R^N - 1| max|A0|.
    gain = {steps: _rk4_gain(lam * TWO_PI / steps) ** steps for steps in r["ends"]}
    departure = {
        steps: float(np.abs(a_end - gain[steps] * a0).max())
        for steps, (a0, a_end) in r["ends"].items()
    }
    floor = abs(gain[128] - 1.0) * float(np.abs(A0).max())
    floor_gap = abs(r["err"] - floor)

    ok = (
        max(departure.values()) <= 1e-8
        and floor_gap <= 1e-8
        and 15.0 <= ratio <= 17.0
        and r["wall"] < 60.0
    )
    record(
        3,
        "plane-wave transport",
        ok,
        f"departure from RK4 transport R^N A0 {departure[128]:.2e} (N=128) and "
        f"{departure[256]:.2e} (N=256) vs 1e-08; one-period Linf {r['err']:.4e} vs "
        f"predicted floor {floor:.4e}, halved-step ratio {ratio:.2f}, wall {r['wall']:.1f}s",
    )
    assert 15.0 <= ratio <= 17.0
    assert r["wall"] < 60.0
    assert departure[128] <= 1e-8
    assert departure[256] <= 1e-8
    assert floor_gap <= 1e-8


def test_criterion_03_companion_measured_floor(eigenmode_period):
    # Pins the actual one-period error against the exact solution, the RK4
    # floor that criterion 03 predicts.
    assert 1e-7 <= eigenmode_period["err"] <= 5e-7


def test_criterion_04_conservation_residuals(eigenmode_period):
    r = eigenmode_period

    # Negative controls on an analytic sample triple: flip the current sign in
    # the charge law and mis-scale one endpoint in the energy law.
    n = 16
    delta = 0.05
    g = cube(n, delta)
    nab = Nabla(g)
    _, _, Z = g.meshgrid()
    ph = np.exp(1j * Z)
    rho_m = ph * np.exp(1j * delta)
    rho_p = ph * np.exp(-1j * delta)
    J_mid = np.zeros((3,) + g.shape, dtype=np.complex128)
    J_mid[2] = ph
    ctrl_charge, _ = charge_conservation_residual(nab, rho_m, rho_p, -J_mid, delta)

    med = Medium()
    amp = np.zeros((3,) + g.shape, dtype=np.complex128)
    amp[0] = ph
    amp[1] = 1j * ph
    a_mid = AField(g, amp * np.exp(-1j * 0.0))
    a_m = AField(g, amp * np.exp(1j * delta))
    a_p = AField(g, 1.1 * amp * np.exp(-1j * delta))
    th0 = field_totals(SimState(0.0, np.zeros((1, 7) + g.shape, np.complex128), g, med, "maxwell"))[1]
    ctrl_poynting, _ = poynting_residual(nab, med, a_m, a_mid, a_p, th0, delta)

    ok = (
        r["charge"] <= 1e-8
        and r["poynting"] <= 1e-8
        and ctrl_charge > 0.1
        and ctrl_poynting > 0.1
    )
    record(
        4,
        "charge and energy residuals",
        ok,
        f"charge {r['charge']:.2e}, poynting {r['poynting']:.2e} vs bound 1e-08; "
        f"controls {ctrl_charge:.2f} / {ctrl_poynting:.2f}",
    )
    assert r["charge"] <= 1e-8
    assert r["poynting"] <= 1e-8
    assert ctrl_charge > 0.1
    assert ctrl_poynting > 0.1


# -- 5: integral balances over sub-boxes --------------------------------------------


def test_criterion_05_integral_balances():
    t0 = time.perf_counter()
    n, steps = 32, 128
    g = cube(n, TWO_PI / steps)
    nab = Nabla(g)
    med = Medium()
    _, _, Z = g.meshgrid()
    ph = np.exp(1j * Z)
    U = np.zeros((1, 7) + g.shape, dtype=np.complex128)
    U[0, 3] = 0.3 + 0.5 * ph  # uniform background charge plus a travelling wave
    U[0, 6] = 0.5 * ph
    st = SimState(0.0, U, g, med, "free_theta")
    whole = IntegralLawAccumulator(g, med, BoxRegion(g))
    half = IntegralLawAccumulator(g, med, BoxRegion(g, hi=(n, n, n // 2)))
    cfg = StepperConfig(cfl=0.25 * (1 + 1e-9))
    whole.sample(st)
    half.sample(st)
    for i in range(steps):
        st, _ = step_rk4(st, nab, cfg, i)
        whole.sample(st)
        half.sample(st)
    rw = whole.finalize()
    rh = half.finalize()
    whole_charge = max(row[1] for row in rw["charge"])
    half_charge = max(row[1] for row in rh["charge"])
    wall = time.perf_counter() - t0

    ok = whole_charge <= 1e-9 and half_charge <= 1e-5
    record(
        5,
        "integral charge balance",
        ok,
        f"whole box {whole_charge:.2e} vs 1e-09, half box {half_charge:.2e} vs 1e-05, "
        f"wall {wall:.1f}s",
    )
    assert whole_charge <= 1e-9
    assert half_charge <= 1e-5


# -- 6: free gaussian pulse ----------------------------------------------------------


def test_criterion_06_free_pulse():
    t0 = time.perf_counter()
    n, cfl, steps = 32, 0.08, 63
    dtau = cfl * (TWO_PI / n)
    g = cube(n, dtau)
    nab = Nabla(g)
    med = Medium()
    X, Y, Z = g.meshgrid()
    sig, amp = 0.7, 1e-4
    r2 = (X - np.pi) ** 2 + (Y - np.pi) ** 2 + (Z - np.pi) ** 2
    gauss = np.exp(-r2 / (2 * sig**2))
    U = np.zeros((1, 7) + g.shape, dtype=np.complex128)
    U[0, 4:7] = amp * nab.grad(gauss)  # curl-free current burst, zero charge
    st = SimState(0.0, U, g, med, "free_theta")
    eng = DiagnosticsEngine(
        g,
        med,
        "free_theta",
        nab,
        [{"name": "box_rho", "cadence": 1}, {"name": "first_law", "cadence": 1}],
    )
    cfg = StepperConfig(cfl=cfl * (1 + 1e-9))
    hvol = g.h[0] * g.h[1] * g.h[2]

    def total_q(state):
        th = field_totals(state)[1]
        dens = np.abs(th.rho) ** 2 + (np.abs(th.J) ** 2).sum(axis=0)
        return float(0.5 * dens.sum() * hvol)

    q_series = [total_q(st)]
    eng.sample(st, 0)
    for i in range(steps):
        st, _ = step_rk4(st, nab, cfg, i)
        eng.sample(st, i + 1)
        q_series.append(total_q(st))
    eng.finalize()
    box_rho = eng.series["box_rho"].max_linf
    first_law = eng.series["first_law"].max_linf
    dq = np.diff(np.array(q_series))
    monotone = bool(np.all(dq <= 0.0))
    wall = time.perf_counter() - t0

    ok = box_rho <= 1e-6 and first_law <= 1e-6 and monotone
    record(
        6,
        "free gaussian pulse",
        ok,
        f"wave residual {box_rho:.2e} and first-law residual {first_law:.2e} vs 1e-06, "
        f"energy non-increasing {monotone} over {steps} steps, wall {wall:.1f}s",
    )
    assert box_rho <= 1e-6
    assert first_law <= 1e-6
    assert monotone


# -- 7: power-force oracle and the uniform background run ----------------------------


def _uniform_generator(a, kappa):
    G = np.zeros((4, 4), dtype=np.complex128)
    for col in range(4):
        basis = np.zeros(4)
        basis[col] = 1.0
        rho, J = basis[0], basis[1:].astype(np.complex128)
        G[0, col] = -1j * (J @ a) / kappa
        G[1:, col] = (-1j * rho * a - np.cross(J, a)) / kappa
    return G


def test_criterion_07_power_force(tmp_path):
    rng = np.random.default_rng(23)
    g = cube(4, 0.01)

    # Pointwise power-force against the physical-variable oracle.
    worst = 0.0
    for _ in range(100):
        med = Medium(
            epsilon=float(10 ** rng.uniform(-0.5, 0.5)),
            mu=float(10 ** rng.uniform(-0.5, 0.5)),
        )
        rho_E, rho_H = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
        j_E, j_H = rng.standard_normal((3,) + g.shape), rng.standard_normal((3,) + g.shape)
        E1, H1 = rng.standard_normal((3,) + g.shape), rng.standard_normal((3,) + g.shape)
        th = assemble_theta(g, rho_E, rho_H, j_E, j_H, med)
        ap = assemble_afield(g, E1, H1, med)
        pf = power_force(th, ap)
        c = med.c
        B1, D1 = med.mu * H1, med.epsilon * E1
        F_H = rho_E * E1 + rho_H * H1 + np.cross(j_E, B1, axis=0) - np.cross(j_H, D1, axis=0)
        F_E = c * (rho_E * B1 - rho_H * D1) + (
            np.cross(E1, j_E, axis=0) + np.cross(H1, j_H, axis=0)
        ) / c
        M = np.sqrt(med.epsilon * med.mu) * ((E1 * j_E).sum(0) + (H1 * j_H).sum(0)) + 1j * (
            med.mu * (H1 * j_E).sum(0) - med.epsilon * (E1 * j_H).sum(0)
        )
        worst = max(
            worst,
            float(np.abs(pf.M - M).max()),
            float(np.abs(pf.F_H - F_H).max()),
            float(np.abs(pf.F_E - F_E).max()),
        )

    # Uniform background trajectory against the matrix exponential.
    kappa = 2.0
    med = Medium(kappa=kappa)
    a = np.array([0.4, -0.3, 0.8])
    G = _uniform_generator(a, kappa)
    y0 = np.array([0.7 - 0.2j, 0.1j, 1.0, -0.5 + 0.3j])
    dtau, steps = 0.01, 100
    grid = cube(4, dtau)
    U = np.zeros((1, 7) + grid.shape, dtype=np.complex128)
    U[0, 3] = y0[0]
    for k in range(3):
        U[0, 4 + k] = y0[1 + k]
    bg = np.zeros((3,) + grid.shape, dtype=np.complex128)
    for k in range(3):
        bg[k] = a[k]
    st = SimState(0.0, U, grid, med, "strong_field", background=bg)
    nab = Nabla(grid)
    cfg = StepperConfig(cfl=0.25)
    expm_err = 0.0
    for i in range(steps):
        st, _ = step_rk4(st, nab, cfg, i)
        if (i + 1) % 10 == 0:
            y = expm(G * st.tau) @ y0
            got = np.array(
                [st.U[0, 3, 0, 0, 0], st.U[0, 4, 0, 0, 0], st.U[0, 5, 0, 0, 0], st.U[0, 6, 0, 0, 0]]
            )
            expm_err = max(expm_err, float(np.abs(got - y).max()))

    # The same run through the scenario layer, with the primed-field power
    # reported as a series and checked against the exponential trajectory.
    doc = {
        "mode": "strong_field",
        "grid": {"n": [4, 4, 4], "dtau": dtau},
        "medium": {"kappa": kappa},
        "duration": 1.0,
        "initial_conditions": [
            {
                "theta": {
                    "type": "uniform",
                    "value": {"re": [0.0, 1.0, -0.5], "im": [0.1, 0.0, 0.3]},
                    "scalar": {"re": 0.7, "im": -0.2},
                }
            }
        ],
        "background": {"type": "uniform", "value": [0.4, -0.3, 0.8]},
        "diagnostics": [{"name": "interaction_power_eh", "cadence": 1}],
    }
    rep = run_scenario(parse_scenario(doc), out_dir=str(tmp_path))
    rows = rep.series["interaction_power_eh"].rows
    eh_err = 0.0
    for tau, linf, _ in rows:
        y = expm(G * tau) @ y0
        eh_err = max(eh_err, abs(linf - abs(a @ y[1:].real)))

    ok = worst <= 1e-12 and expm_err <= 1e-8 and len(rows) == steps + 1 and eh_err <= 1e-8
    record(
        7,
        "power-force and uniform run",
        ok,
        f"oracle gap {worst:.2e} vs 1e-12 on 100 random states, exponential gap "
        f"{expm_err:.2e} vs 1e-08, power series {len(rows)} rows matched to {eh_err:.2e}",
    )
    assert worst <= 1e-12
    assert expm_err <= 1e-8
    assert rep.exit_code == 0
    assert len(rows) == steps + 1
    assert eh_err <= 1e-8


# -- 8: two-pulse interaction run ----------------------------------------------------


def test_criterion_08_interaction_run(tmp_path):
    t0 = time.perf_counter()
    amp, sig = 0.01, 0.5
    centers = ([np.pi / 2, np.pi, np.pi], [3 * np.pi / 2, np.pi, np.pi])
    pols = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    doc = {
        "mode": "united",
        "grid": {"n": [32, 32, 32], "dtau": 1e-3},
        "duration": 0.05,
        "initial_conditions": [
            {
                "afield": {
                    "type": "gaussian_pulse",
                    "center": centers[k],
                    "width": sig,
                    "amplitude": amp,
                    "polarization": {"re": pols[k], "im": [0.0, 0.0, 0.0]},
                },
                "theta": {
                    "type": "gaussian_pulse",
                    "center": centers[k],
                    "width": sig,
                    "amplitude": amp,
                    "gradient": True,
                },
            }
            for k in range(2)
        ],
        "diagnostics": [{"name": "freeness", "cadence": 1, "tolerance": 1e-6}],
    }
    rep = run_scenario(parse_scenario(doc), out_dir=str(tmp_path))
    freeness = rep.series["freeness"].max_linf

    # Pointwise energy decomposition of the same pulse pair, and of a random
    # order-one pair.
    g = cube(32, 1e-3)
    med = Medium()
    X, Y, Z = g.meshgrid()
    afields = []
    for k in range(2):
        r2 = (X - centers[k][0]) ** 2 + (Y - centers[k][1]) ** 2 + (Z - centers[k][2]) ** 2
        gauss = amp * np.exp(-r2 / (2 * sig**2))
        A = np.zeros((3,) + g.shape, dtype=np.complex128)
        A[k] = gauss
        afields.append(AField(g, A))
    ie = interaction_energy(afields, med)
    dec_pulse = ie.decomposition_residual

    rng = np.random.default_rng(3)
    rand_pair = [
        AField(g, rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape))
        for _ in range(2)
    ]
    dec_rand = interaction_energy(rand_pair, med).decomposition_residual

    ie_same = interaction_energy([rand_pair[0], rand_pair[0]], med)
    d = ie_same.delta_xi - 2.0 * ie_same.xi_fields[0]
    identical_gap = d.linf()
    wall = time.perf_counter() - t0

    ok = (
        rep.exit_code == 0
        and freeness <= 1e-6
        and dec_pulse <= 1e-13
        and dec_rand <= 1e-13
        and identical_gap <= 1e-13
    )
    record(
        8,
        "two-pulse interaction",
        ok,
        f"total freeness {freeness:.2e} vs 1e-06 at dtau 1e-3, decomposition "
        f"{max(dec_pulse, dec_rand):.2e} vs 1e-13, identical-field gap {identical_gap:.2e}, "
        f"wall {wall:.1f}s",
    )
    assert rep.exit_code == 0
    assert freeness <= 1e-6
    assert dec_pulse <= 1e-13
    assert dec_rand <= 1e-13
    assert identical_gap <= 1e-13


# -- 9: front relations ---------------------------------------------------------------


def test_criterion_09_front_relations():
    rng = np.random.default_rng(17)

    def rand_unit():
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    # The complex jump relation must equal the real pair of relations exactly.
    worst_eq = 0.0
    for _ in range(100):
        med = Medium(
            epsilon=float(10 ** rng.uniform(-0.5, 0.5)),
            mu=float(10 ** rng.uniform(-0.5, 0.5)),
        )
        fr = FrontData(
            m=rand_unit(),
            jump_E=rng.standard_normal(3),
            jump_H=rng.standard_normal(3),
            medium=med,
        )
        se, sm = np.sqrt(med.epsilon), np.sqrt(med.mu)
        pair_e = se * fr.jump_E - sm * np.cross(fr.jump_H, fr.m)
        pair_h = sm * fr.jump_H + se * np.cross(fr.jump_E, fr.m)
        r = fr.jump_A + 1j * np.cross(fr.jump_A, fr.m)
        worst_eq = max(worst_eq, float(np.abs(r - (pair_e + 1j * pair_h)).max()))

    # On admissible fronts the energy flux and speed laws follow with zero
    # residual.
    worst_energy = 0.0
    for _ in range(100):
        med = Medium(
            epsilon=float(10 ** rng.uniform(-0.5, 0.5)),
            mu=float(10 ** rng.uniform(-0.5, 0.5)),
        )
        m = rand_unit()
        jH = rng.standard_normal(3)
        jH -= (jH @ m) * m
        jE = np.sqrt(med.mu / med.epsilon) * np.cross(jH, m)
        fr = FrontData(m=m, jump_E=jE, jump_H=jH, medium=med)
        laws = afield_jump_energy(fr)
        scale = max(1.0, float(np.abs(jH).max()) ** 2)
        worst_energy = max(
            worst_energy,
            laws["pair_e"] / scale,
            laws["pair_h"] / scale,
            laws["energy_flux"] / scale,
            laws["energy_speed"] / scale,
        )

    # The lam = 0 symbol S(m) = characteristic_matrix(m, 0) is the plane-wave
    # symbol of D+- as the operators apply it: on F e^{i k.x} the space part
    # of D+- acts as i|k| T S(+-k/|k|) T^-1 with T = diag(1, i, i, i).
    g = cube(8, 0.01)
    nab = Nabla(g)
    kvec = np.array([1.0, 2.0, 2.0])
    kn = np.linalg.norm(kvec)
    X, Y, Z = g.meshgrid()
    ph = np.exp(1j * (kvec[0] * X + kvec[1] * Y + kvec[2] * Z))
    T = np.diag([1.0, 1j, 1j, 1j])
    worst_sym = 0.0
    for op, sign in ((apply_dplus, 1.0), (apply_dminus, -1.0)):
        got = np.zeros((4, 4), dtype=np.complex128)
        for col in range(4):
            e = np.eye(4)[col]
            F = Biquaternion(e[0] * ph, e[1:, None, None, None] * ph)
            DF = op(nab, F, Biquaternion(0.0 * ph, 0.0 * F.vector))
            got[0, col] = DF.scalar[0, 0, 0]
            got[1:, col] = DF.vector[:, 0, 0, 0]
        want_sym = 1j * kn * T @ characteristic_matrix(sign * kvec / kn, 0.0) @ np.linalg.inv(T)
        worst_sym = max(worst_sym, float(np.abs(got - want_sym).max()))

    # Characteristic speeds for 100 random normals are the eigenvalues of S.
    # D+ D- = box makes the symbols multiply to (lam^2 - 1) I, i.e. S^2 = I, so
    # every speed is +1 or -1; trace S counts +1s minus -1s, and |det S| = 1
    # excludes a zero speed.  The expected multiset is read off the symbol.
    worst_sq = worst_tr = worst_det = worst_roots = 0.0
    measured = want = None
    for _ in range(100):
        m = rand_unit()
        S = characteristic_matrix(m, 0.0)
        tr = complex(np.trace(S))
        worst_sq = max(worst_sq, float(np.abs(S @ S - np.eye(4)).max()))
        worst_tr = max(worst_tr, abs(tr))
        worst_det = max(worst_det, abs(abs(np.linalg.det(S)) - 1.0))
        n_plus = round((4 + tr.real) / 2)
        want = np.array([-1.0] * (4 - n_plus) + [1.0] * n_plus)
        measured = np.sort(characteristic_roots(m))
        worst_roots = max(worst_roots, float(np.abs(measured - want).max()))

    ok = (
        worst_eq <= 1e-13
        and worst_energy <= 1e-12
        and worst_sym <= 1e-12
        and worst_sq <= 1e-12
        and worst_tr <= 1e-12
        and worst_det <= 1e-12
        and worst_roots <= 1e-10
    )
    record(
        9,
        "front jump relations",
        ok,
        f"complex-pair equivalence {worst_eq:.2e} vs 1e-13, energy-law residual "
        f"{worst_energy:.2e} vs 1e-12, symbol vs D+- {worst_sym:.2e}, |S^2 - I| "
        f"{worst_sq:.2e}, |trace S| {worst_tr:.2e}, ||det S| - 1| {worst_det:.2e} vs 1e-12; "
        f"speeds {np.round(measured, 12).tolist()} vs {want.tolist()} off by {worst_roots:.2e}",
    )
    assert worst_eq <= 1e-13
    assert worst_energy <= 1e-12
    assert worst_sym <= 1e-12
    assert worst_sq <= 1e-12
    assert worst_tr <= 1e-12
    assert worst_det <= 1e-12
    assert worst_roots <= 1e-10


# -- 10: command-line contract ---------------------------------------------------------


def _cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "bqfield.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        **kw,
    )


def test_criterion_10_cli_contract(tmp_path):
    n = 8
    dtau = 0.25 * TWO_PI / n
    doc = {
        "mode": "maxwell",
        "grid": {"n": [n, n, n]},
        "duration": 8 * dtau,
        "initial_conditions": [
            {
                "afield": {
                    "type": "plane_wave",
                    "k": [0.0, 0.0, 1.0],
                    "polarization": {"re": [1.0, 0.0, 0.0], "im": [0.0, 1.0, 0.0]},
                }
            }
        ],
        "diagnostics": [
            {"name": "charge", "cadence": 1, "tolerance": 1e-8},
            {"name": "poynting", "cadence": 1, "tolerance": 1e-5},
        ],
    }
    scen = tmp_path / "wave.json"
    scen.write_text(json.dumps(doc))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_a = _cli(["run", str(scen), "--out", str(out_a), "--reference"])
    run_b = _cli(["run", str(scen), "--out", str(out_b), "--reference"])
    csv_match = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("charge.csv", "poynting.csv")
    )
    header_ok = (out_a / "charge.csv").read_text().splitlines()[0] == "tau,linf,l2"

    breach_doc = dict(doc)
    breach_doc["diagnostics"] = [{"name": "poynting", "cadence": 1, "tolerance": 1e-30}]
    breach = tmp_path / "breach.json"
    breach.write_text(json.dumps(breach_doc))
    rc_breach = _cli(["run", str(breach), "--out", str(tmp_path / "c")]).returncode

    rc_missing = _cli(["run", str(tmp_path / "absent.json")]).returncode
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc_bad = _cli(["run", str(bad)]).returncode
    rc_usage = _cli(["frobnicate"]).returncode

    abort_doc = {
        "mode": "strong_field",
        "grid": {"n": [4, 4, 4], "dtau": 0.05},
        "duration": 0.2,
        "initial_conditions": [
            {"theta": {"type": "uniform", "value": [0.0, 1.0, 0.0], "scalar": 1.0}}
        ],
        "background": {"type": "uniform", "value": [1e160, 0.0, 0.0]},
        "diagnostics": [{"name": "charge", "cadence": 1, "tolerance": 1e-2}],
    }
    ab = tmp_path / "abort.json"
    ab.write_text(json.dumps(abort_doc))
    rc_abort = _cli(["run", str(ab), "--out", str(tmp_path / "d")]).returncode

    ok = (
        run_a.returncode == 0
        and run_b.returncode == 0
        and csv_match
        and header_ok
        and rc_breach == 1
        and rc_missing == 2
        and rc_bad == 2
        and rc_usage == 2
        and rc_abort == 3
    )
    record(
        10,
        "command-line contract",
        ok,
        f"reference CSVs byte-identical {csv_match}, exits ok={run_a.returncode} "
        f"breach={rc_breach} missing={rc_missing} badjson={rc_bad} usage={rc_usage} "
        f"abort={rc_abort}",
    )
    assert run_a.returncode == 0 and run_b.returncode == 0
    assert csv_match
    assert header_ok
    assert rc_breach == 1
    assert rc_missing == 2
    assert rc_bad == 2
    assert rc_usage == 2
    assert rc_abort == 3
