"""A curl-free gaussian current burst evolving as a free charge-current field.

Every component of a free field satisfies the wave equation, so the measured
box residual of rho sits at the centred-difference floor, and the total
current energy decays monotonically under the dissipative stepper.

Run with: python3 demos/04_free_pulse.py
"""

import numpy as np

from bqfield import (DiagnosticsEngine, Grid, Medium, Nabla, SimState,
                     StepperConfig, field_totals, step_rk4)

n, cfl, steps = 32, 0.08, 63
grid = Grid(n=(n,) * 3, L=(2 * np.pi,) * 3, dtau=cfl * 2 * np.pi / n)
nabla = Nabla(grid)
medium = Medium()

X, Y, Z = grid.meshgrid()
sigma, amp = 0.7, 1e-4
r2 = (X - np.pi) ** 2 + (Y - np.pi) ** 2 + (Z - np.pi) ** 2
gauss = np.exp(-r2 / (2 * sigma ** 2))

U = np.zeros((1, 7) + grid.shape, dtype=np.complex128)
U[0, 4:7] = amp * nabla.grad(gauss)  # longitudinal current, no charge yet
state = SimState(0.0, U, grid, medium, "free_theta")

engine = DiagnosticsEngine(nabla, [
    {"name": "box_rho", "cadence": 1},
    {"name": "first_law", "cadence": 1},
])
cfg = StepperConfig(cfl=cfl * (1 + 1e-9))
hvol = grid.h[0] * grid.h[1] * grid.h[2]


def total_energy(s):
    theta = field_totals(s)[1]
    dens = np.abs(theta.rho) ** 2 + (np.abs(theta.J) ** 2).sum(axis=0)
    return 0.5 * float(dens.sum()) * hvol


energies = [total_energy(state)]
engine.sample(state, 0)
for i in range(steps):
    state, _ = step_rk4(state, nabla, cfg, i)
    engine.sample(state, i + 1)
    energies.append(total_energy(state))
engine.finalize()

print(f"pulse sigma = {sigma}, amplitude = {amp}, {steps} steps to tau = "
      f"{state.tau:.3f}")
print(f"wave-equation residual on rho: {engine.series['box_rho'].max_linf:.3e}")
print(f"first-law residual:            {engine.series['first_law'].max_linf:.3e}")
dq = np.diff(np.array(energies))
print(f"energy at start {energies[0]:.6e}, at end {energies[-1]:.6e}")
print(f"largest energy increment {dq.max():.2e} (negative means monotone decay)")

# The charge that develops is the time integral of -div J; after the run the
# peak charge shows the pulse has genuinely propagated.
theta = field_totals(state)[1]
print(f"peak |rho| after the run: {np.abs(theta.rho).max():.3e}")
