"""Built-in smoke checks: fast invariants runnable from the command line.

Each check prints one ``ok``/``FAIL`` line with the measured number, so a
breakage is visible at a glance.  The whole suite sticks to small grids and
finishes in a few seconds.
"""

from __future__ import annotations

import numpy as np

from .biquaternion import Biquaternion, basis_vector
from .evolution import SimState, StepperConfig, step_rk4
from .fields import Grid, Medium
from .operators import Nabla, apply_dminus, apply_dplus
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
        z = -1j * symbol * grid2.dtau
        gain = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        state = SimState(tau=0.0, U=U.copy(), grid=grid2, medium=Medium(), mode="maxwell")
        nabla2 = Nabla(grid2, scheme=scheme)
        for _ in range(steps):
            state, _ = step_rk4(state, nabla2, cfg)
        err = float(np.abs(state.U[0, 0:3] - gain**steps * A0).max())
        failures += not _check(f"{scheme} plane wave is RK4's discrete map", err, 1e-12, lines)

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
