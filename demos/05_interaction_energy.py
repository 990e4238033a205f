"""Pairwise energy exchange between overlapping fields.

The energy-momentum of a superposition splits exactly into per-field terms
plus a cross term; the sign of the integrated cross scalar classifies the
configuration as releasing, absorbing, or conserving.  The pointwise
power-force on a charge-current in a partner field comes from the same
product.

Run with: python3 demos/05_interaction_energy.py
"""

import numpy as np

from bqfield import (AField, Grid, Medium, assemble_theta, interaction_energy,
                     power_force)

grid = Grid(n=(24,) * 3, L=(2 * np.pi,) * 3, dtau=0.05)
medium = Medium()
X, Y, Z = grid.meshgrid()
phase = np.exp(1j * Z)

base = np.zeros((3,) + grid.shape, dtype=np.complex128)
base[0], base[1] = phase, 1j * phase
a1 = AField(grid, base)

for label, factor in (("identical", 1.0), ("opposite", -1.0), ("orthogonal", 1j)):
    a2 = AField(grid, factor * base)
    ie = interaction_energy([a1, a2])
    print(f"{label:>10}: classification = {ie.classification:>8}, "
          f"integrated cross energy = {ie.delta_w_integral:+.3e}, "
          f"decomposition residual = {ie.decomposition_residual:.2e}")

# Power-force density on a charge-current sitting in a uniform partner field.
rho_E = np.full(grid.shape, 0.5)
zeros = np.zeros(grid.shape)
j_E = np.zeros((3,) + grid.shape)
j_E[0] = 1.0
j_H = np.zeros((3,) + grid.shape)
theta = assemble_theta(grid, rho_E, zeros, j_E, j_H, medium)

E1 = np.zeros((3,) + grid.shape)
H1 = np.zeros((3,) + grid.shape)
E1[2], H1[1] = 1.0, 2.0
aprime = AField(grid, np.sqrt(medium.epsilon) * E1 + 1j * np.sqrt(medium.mu) * H1)

pf = power_force(theta, aprime)
# For this configuration the force on the electric pair is
# rho_E E' + j_E x B', evaluated here at a single representative point.
B1 = medium.mu * H1
expected = rho_E * E1 + np.cross(j_E, B1, axis=0)
print("\nforce on the magnetic/electric pairs at one point:")
print("  F_H =", pf.F_H[:, 0, 0, 0], " expected", expected[:, 0, 0, 0])
print("  F_E =", pf.F_E[:, 0, 0, 0])
print("  power M =", pf.M[0, 0, 0], " (real part is the dissipated power)")
