"""Built-in smoke checks: fast invariants runnable from the command line.

Each check prints one ``ok``/``FAIL`` line with the measured number, so a
breakage is visible at a glance.  The whole suite sticks to small grids and
finishes in a few seconds.
"""

from __future__ import annotations

import numpy as np

from .biquaternion import Biquaternion, basis_vector
from .evolution import SimState, StepperConfig, rk4_gain, state_rhs, step_rk4
from .fields import Grid, Medium
from .operators import Nabla, apply_dminus, apply_dplus
from .runner import build_state
from .scenario import _preset_terms, build_preset, parse_scenario
from .shock import FrontData, admissible_jump, afield_jump_residual, characteristic_roots

__all__ = ["run_selftest"]


def _check(name: str, value: float, tol: float, lines: list) -> bool:
    ok = value <= tol
    lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {value:.3e} (tol {tol:.1e})")
    return ok


def _random_bq(rng, shape=()) -> Biquaternion:
    def c(sh):
        return rng.standard_normal(sh) + 1j * rng.standard_normal(sh)

    return Biquaternion(c(shape), c((3,) + shape))


def _rk4_stages(U, sc, nabla):
    """U after one classical RK4 step of ``sc``'s mode by its four stages on
    ``state_rhs`` (autonomous modes only: the stages share one tau)."""
    def rhs(V):
        return state_rhs(SimState(0.0, V, sc.grid, sc.medium, sc.mode), nabla)

    h = sc.grid.dtau
    k1 = rhs(U)
    k2 = rhs(U + h / 2 * k1)
    k3 = rhs(U + h / 2 * k2)
    k4 = rhs(U + h * k3)
    return U + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def run_selftest(verbose: bool = True) -> int:
    lines: list[str] = []
    failures = 0
    rng = np.random.default_rng(20240817)

    # product ring: associativity and the involution anti-homomorphism
    worst_assoc = 0.0
    worst_inv = 0.0
    for _ in range(50):
        a, b, c = (_random_bq(rng) for _ in range(3))
        worst_assoc = max(worst_assoc, ((a @ b) @ c - a @ (b @ c)).linf())
        worst_inv = max(worst_inv, ((a @ b).conj() - b.conj() @ a.conj()).linf())
    failures += not _check("product associativity", worst_assoc, 1e-12, lines)
    failures += not _check("involution reverses products", worst_inv, 1e-12, lines)

    # basis squares: e_k o e_k = -1
    worst = 0.0
    for k in range(3):
        e = basis_vector(k)
        sq = e @ e
        worst = max(worst, abs(sq.scalar + 1.0), float(np.abs(sq.vector).max()))
    failures += not _check("basis squares", worst, 1e-15, lines)

    # gradient operator factorises the wave operator on an eigenmode
    grid = Grid(n=(16, 16, 16), L=(2 * np.pi,) * 3, dtau=0.05)
    nabla = Nabla(grid)
    X = grid.meshgrid()
    phase = np.exp(1j * (X[0] + 2 * X[1]))
    F = Biquaternion(phase.astype(np.complex128), np.zeros((3,) + grid.n, np.complex128))
    zero = Biquaternion(np.zeros_like(F.scalar), np.zeros_like(F.vector))
    once = apply_dplus(nabla, F, zero)
    twice = apply_dminus(nabla, once, zero)
    resid = (twice.scalar - (-nabla.laplacian(F.scalar))).copy()
    failures += not _check(
        "D- D+ = -Laplacian on static field", float(np.abs(resid).max()), 1e-10, lines
    )

    # plane-wave transport: one period of the circularly polarised eigenmode,
    # which each scheme steps by RK4's exact discrete map A0 R(-i s dtau)^N,
    # R RK4's gain and s the scheme's symbol: k itself on spectral, the
    # stencil's d(k) = (8 sin kh - sin 2kh) / (6h) on central4
    k = 1.0
    pol = np.array([1.0, 1j, 0.0], dtype=np.complex128)
    A0 = pol[:, None, None, None] * np.exp(1j * k * X[2])
    U = np.zeros((1, 7) + grid.n, dtype=np.complex128)
    U[0, 0:3] = A0
    cfg = StepperConfig(cfl=0.25)
    steps = int(round(2 * np.pi / grid.dtau))
    grid2 = Grid(n=grid.n, L=grid.L, dtau=2 * np.pi / steps)
    h = grid2.h[2]
    d = (8 * np.sin(k * h) - np.sin(2 * k * h)) / (6 * h)
    for scheme, symbol in (("spectral", k), ("central4", d)):
        gain = rk4_gain(-1j * symbol * grid2.dtau)
        state = SimState(tau=0.0, U=U.copy(), grid=grid2, medium=Medium(), mode="maxwell")
        nabla2 = Nabla(grid2, scheme=scheme)
        for _ in range(steps):
            state, _ = step_rk4(state, nabla2, cfg)
        err = float(np.abs(state.U[0, 0:3] - gain**steps * A0).max())
        failures += not _check(f"{scheme} plane wave is RK4's discrete map", err, 1e-12, lines)

    # free transport of a charge-current pulse on a box with three different
    # sides, from build_state's band coefficients: each scheme's step by its
    # kept gains against classical RK4's four stages on its own right-hand
    # side in physical space, state_rhs
    for scheme in Nabla.schemes:
        sc = parse_scenario({
            "mode": "free_theta", "nabla": scheme, "duration": 0.4,
            "grid": {"n": [12, 10, 9], "L": [2 * np.pi, 5.0, 3.0], "dtau": 0.05},
            "initial_conditions": [{"theta": {
                "type": "gaussian_pulse", "center": [1.0, 4.0, 0.5], "width": 0.7, "scalar": 0.6,
                "polarization": {"re": [1.0, 0.0, 0.5], "im": [0.0, 1.0, 0.0]}}}]})
        state, nabla4 = build_state(sc)
        ref = state.U
        for i in range(sc.steps):
            state, _ = step_rk4(state, nabla4, sc.stepper, i)
            ref = _rk4_stages(ref, sc, nabla4)
        err = float(np.abs(state.U - ref).max() / np.abs(ref).max())
        failures += not _check(f"{scheme} free_theta pulse is RK4's discrete map", err, 1e-12, lines)

    # initial data onto the band from the presets' 1-D factors, as build_state
    # takes them, against the 3-D transform of the multiplied-out data, on a
    # box with three different sides; relative to the data's l1 norm, which
    # bounds every coefficient
    box = Grid(n=(12, 10, 9), L=(2 * np.pi, 5.0, 3.0), dtau=0.05)
    nabla3 = Nabla(box)
    worst = 0.0
    for preset in ({"type": "gaussian_pulse", "center": [1.0, 4.0, 0.5], "width": 0.7,
                    "polarization": {"re": [1.0, 0.0, 0.5], "im": [0.0, 1.0, 0.0]}},
                   {"type": "plane_wave", "k": [1.0, 0.8 * np.pi, -2 * np.pi / 3], "polarization": [0, 1, 1]}):
        dense = build_preset(preset, box, "selftest", "vector")
        band = nabla3.band_of_terms([_preset_terms(preset, box, "selftest", "vector")])[0]
        worst = max(worst, float(np.abs(band - nabla3.to_band(dense)).max() / np.abs(dense).sum()))
    failures += not _check("preset band from 1-D factors", worst, 1e-13, lines)

    # front algebra: admissible jumps and light-speed characteristics
    m = np.array([0.0, 0.0, 1.0])
    jA = admissible_jump(m, amplitude=0.7 - 0.2j)
    front = FrontData(m=m, jump_E=jA.real, jump_H=jA.imag)
    failures += not _check(
        "admissible front jump", afield_jump_residual(front)["jump_relation"], 1e-12, lines
    )
    roots = characteristic_roots(m)
    failures += not _check(
        "characteristic speeds are +-1",
        float(np.abs(roots - np.array([-1.0, -1.0, 1.0, 1.0])).max()),
        1e-12,
        lines,
    )

    if verbose:
        for ln in lines:
            print(ln)
        print(f"{len(lines) - failures}/{len(lines)} checks passed")
    return failures
