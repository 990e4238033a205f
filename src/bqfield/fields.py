"""Physical field containers and (E, H, rho, j) <-> biquaternion conversions.

The complex field vector is A = sqrt(eps) E + i sqrt(mu) H; its sources sit in
the charge-current biquaternion Theta = i rho + J with

    rho = rho_E / sqrt(eps) - i rho_H / sqrt(mu)
    J   = sqrt(mu) j_E - i sqrt(eps) j_H

Time is measured in tau = c t, so the wave speed is 1 and c = 1/sqrt(eps mu)
only enters through the assembly weights above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from operator import index as _index

import numpy as np

from .biquaternion import Biquaternion, from_vector

__all__ = [
    "Medium",
    "Grid",
    "AField",
    "ChargeCurrent",
    "PowerForce",
    "assemble_afield",
    "decompose_afield",
    "assemble_theta",
    "decompose_theta",
    "velocity_current",
    "decompose_force",
]


def _finite(v) -> float | None:
    """``v`` as a float if it is a real number, finite as a float, and not a bool."""
    try:
        x = float(v) if isinstance(v, Real) and not isinstance(v, bool) else math.nan
    except OverflowError:  # an integer too large for a float
        x = math.inf
    return x if math.isfinite(x) else None


def _positive(v) -> float | None:
    """``v`` as a float if it is a real number > 0, finite as a float, and not a bool."""
    x = _finite(v)
    return x if x is not None and x > 0 else None


def _integer(v) -> int:
    """``operator.index(v)``, which raises TypeError on a bool too: True is no count."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is a bool, not an integer")
    return _index(v)


@dataclass(frozen=True, slots=True)
class Medium:
    """Homogeneous isotropic medium: permittivity, permeability, interaction constant."""

    epsilon: float = 1.0
    mu: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "mu", "kappa"):
            if (x := _positive(v := getattr(self, name))) is None:
                raise ValueError(f"{name} must be positive, got {v}")
            object.__setattr__(self, name, x)
        if not 0 < self.epsilon * self.mu < math.inf:  # c = 1/sqrt(epsilon mu) is finite and > 0
            raise ValueError(f"epsilon * mu must be a positive finite float, got {self.epsilon * self.mu}")

    @property
    def c(self) -> float:
        return 1.0 / np.sqrt(self.epsilon * self.mu)


@dataclass(frozen=True, slots=True, eq=False)
class Grid:
    """Uniform periodic box: n cells per axis over lengths L, step dtau in tau units (frozen)."""

    n: tuple[int, int, int]
    L: tuple[float, float, float]
    dtau: float

    def __post_init__(self):
        try:
            n = tuple(map(_integer, self.n))
        except TypeError:
            n = ()  # not integers: refused below
        if not (len(n) == 3 and all(v >= 4 for v in n)):
            raise ValueError(f"n must be 3 cell counts >= 4, got {self.n}")
        L = tuple(map(_positive, self.L)) if np.iterable(self.L) else ()
        if not (len(L) == 3 and None not in L):
            raise ValueError(f"L must be positive, got {self.L}")
        if (dtau := _positive(self.dtau)) is None:
            raise ValueError(f"dtau must be positive, got {self.dtau}")
        for name, v in (("n", n), ("L", L), ("dtau", dtau)):
            object.__setattr__(self, name, v)

    @property
    def h(self) -> tuple[float, float, float]:
        return tuple(L / n for L, n in zip(self.L, self.n))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.n

    def axes(self):
        """Per-axis coordinate vectors (cell-start sampling, periodic)."""
        return [np.arange(n) * (L / n) for n, L in zip(self.n, self.L)]

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def zeros_scalar(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.complex128)

    def zeros_vector(self) -> np.ndarray:
        return np.zeros((3,) + self.n, dtype=np.complex128)


@dataclass(eq=False)
class AField:
    """Complex field vector A on a grid, shape (3, nx, ny, nz); pure vector part."""

    grid: Grid
    A: np.ndarray

    def __post_init__(self):
        self.A = np.ascontiguousarray(self.A, dtype=np.complex128)
        if self.A.shape != (3,) + self.grid.n:
            raise ValueError(f"A shape {self.A.shape} does not match grid {(3,) + self.grid.n}")

    def as_biquaternion(self) -> Biquaternion:
        return from_vector(self.A)


@dataclass(eq=False)
class ChargeCurrent:
    """Charge-current biquaternion Theta = i rho + J sampled on a grid."""

    grid: Grid
    rho: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        self.rho = np.ascontiguousarray(self.rho, dtype=np.complex128)
        self.J = np.ascontiguousarray(self.J, dtype=np.complex128)
        if self.rho.shape != self.grid.n or self.J.shape != (3,) + self.grid.n:
            raise ValueError(f"rho {self.rho.shape}, J {self.J.shape} do not match grid {self.grid.n}")

    def as_biquaternion(self) -> Biquaternion:
        return Biquaternion(1j * self.rho, self.J)


@dataclass(eq=False)
class PowerForce:
    """Power-force density F = M - iF: complex power M, real force pair (F_H, F_E)."""

    M: np.ndarray
    F_H: np.ndarray
    F_E: np.ndarray


def assemble_afield(grid: Grid, E: np.ndarray, H: np.ndarray, medium: Medium) -> AField:
    """A = sqrt(eps) E + i sqrt(mu) H from real field intensities."""
    E = np.asarray(E, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    A = np.sqrt(medium.epsilon) * E + 1j * np.sqrt(medium.mu) * H
    return AField(grid, A)


def decompose_afield(a: AField, medium: Medium) -> tuple[np.ndarray, np.ndarray]:
    """Invert assemble_afield: returns (E, H) real arrays."""
    return (
        a.A.real / np.sqrt(medium.epsilon),
        a.A.imag / np.sqrt(medium.mu),
    )


def assemble_theta(
    grid: Grid,
    rho_E: np.ndarray,
    rho_H: np.ndarray,
    j_E: np.ndarray,
    j_H: np.ndarray,
    medium: Medium,
) -> ChargeCurrent:
    """Charge-current from the real electric/magnetic charge and current densities."""
    se, sm = np.sqrt(medium.epsilon), np.sqrt(medium.mu)
    rho = np.asarray(rho_E) / se - 1j * np.asarray(rho_H) / sm
    J = sm * np.asarray(j_E) - 1j * se * np.asarray(j_H)
    return ChargeCurrent(grid, rho, J)


def decompose_theta(theta: ChargeCurrent, medium: Medium):
    """Invert assemble_theta: returns (rho_E, rho_H, j_E, j_H) real arrays."""
    se, sm = np.sqrt(medium.epsilon), np.sqrt(medium.mu)
    return (
        theta.rho.real * se,
        -theta.rho.imag * sm,
        theta.J.real / sm,
        -theta.J.imag / se,
    )


def velocity_current(
    grid: Grid,
    rho_E: np.ndarray,
    rho_H: np.ndarray,
    V: np.ndarray,
    medium: Medium,
    nabla=None,
) -> tuple[ChargeCurrent, float]:
    """Currents carried by charges moving with a common velocity field V.

    j_E = rho_E V and j_H = rho_H V is an empirical closure that is only
    consistent for potential currents, so the discrete ``max |curl J|`` is
    returned alongside Theta as a warning metric (pass a Nabla to get it;
    otherwise it is reported as inf).
    """
    V = np.asarray(V, dtype=np.float64)
    j_E = np.asarray(rho_E) * V
    j_H = np.asarray(rho_H) * V
    theta = assemble_theta(grid, rho_E, rho_H, j_E, j_H, medium)
    if nabla is None:
        return theta, float("inf")
    curl_J = nabla.curl(theta.J)
    return theta, float(np.abs(curl_J).max())


def decompose_force(fbq: Biquaternion) -> PowerForce:
    """Split a power-force biquaternion F = M - iF into M and real F_H, F_E.

    The vector part stores -iF, so F = i * vector; F_H = Re F acts on the
    magnetic charge-current pair and F_E = Im F on the electric one.
    """
    F = 1j * fbq.vector
    return PowerForce(M=fbq.scalar, F_H=F.real.copy(), F_E=F.imag.copy())
