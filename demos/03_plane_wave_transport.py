"""Evolve the circular plane-wave eigenmode for one period and measure the error.

The mode A = (e_x + i e_y) exp(i(z - tau)) returns to itself after tau = 2 pi.
The stepper error shrinks sixteenfold when the step halves, the fourth-order
signature.

Run with: python3 demos/03_plane_wave_transport.py
"""

import time

import numpy as np

from bqfield import (DiagnosticsEngine, Grid, Medium, Nabla, SimState,
                     StepperConfig, step_rk4)

n = 32
medium = Medium()

for steps in (128, 256):
    grid = Grid(n=(n,) * 3, L=(2 * np.pi,) * 3, dtau=2 * np.pi / steps)
    nabla = Nabla(grid)
    _, _, Z = grid.meshgrid()
    phase = np.exp(1j * Z)
    U = np.zeros((1, 7) + grid.shape, dtype=np.complex128)
    U[0, 0] = phase
    U[0, 1] = 1j * phase
    state = SimState(0.0, U, grid, medium, "maxwell")
    start = state.U[0, 0:3].copy()

    engine = DiagnosticsEngine(nabla, [
        {"name": "charge", "cadence": 1},
        {"name": "poynting", "cadence": 1},
    ])
    engine.sample(state, 0)

    cfg = StepperConfig(cfl=0.25 * (1 + 1e-9))
    t0 = time.perf_counter()
    for i in range(steps):
        state, _ = step_rk4(state, nabla, cfg, i)
        engine.sample(state, i + 1)
    wall = time.perf_counter() - t0
    engine.finalize()

    err = np.abs(state.U[0, 0:3] - start).max()
    print(f"steps = {steps:4d}  period error = {err:.4e}  "
          f"charge residual = {engine.series['charge'].max_linf:.2e}  "
          f"poynting residual = {engine.series['poynting'].max_linf:.2e}  "
          f"wall = {wall:.1f}s")
    if steps == 128:
        base = err
print(f"halved-step ratio = {base / err:.2f}  (16 = fourth order)")
