"""Energy, momentum, and conservation-law diagnostics.

Everything here *measures* and never feeds back into the evolution.  Pointwise
quantities (energy-momentum, power-force, reciprocity defect) are evaluated per
snapshot; law residuals that need d/dtau use three uniformly spaced history
samples and centred differences; each integral identity stores an amount and
its rate per sample and integrates the rate in tau with a fourth-order rule.

Volume and surface integrals over grid-aligned sub-boxes integrate the
trigonometric interpolant exactly along partially covered axes (plain
rectangle weights on fully covered ones, where periodicity already makes them
exact).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .biquaternion import Biquaternion, ccross, cdot
from .fields import (
    AField,
    ChargeCurrent,
    Grid,
    Medium,
    PowerForce,
    decompose_afield,
    decompose_force,
    decompose_theta,
)
from .evolution import SimState, _advanced, _force_biquaternion, field_totals, partner_field
from .operators import Nabla, apply_dminus

__all__ = [
    "EnergyMomentum",
    "CurrentEnergy",
    "InteractionEnergy",
    "ResidualSeries",
    "energy_momentum",
    "current_energy",
    "power_force",
    "reciprocity_residual",
    "constraint_drift_residual",
    "interaction_power_eh",
    "interaction_power_bd",
    "charge_conservation_residual",
    "poynting_residual",
    "first_law_residual",
    "box_rho_residual",
    "freeness_residual",
    "united_field",
    "interaction_energy",
    "BoxRegion",
    "FluxSurface",
    "IntegralLawAccumulator",
    "cumulative_integral",
    "integral_laws",
    "check_specs",
    "DiagnosticsEngine",
    "Law",
    "LAWS",
    "DIAGNOSTIC_NAMES",
]


def _norms(r) -> tuple[float, float]:
    """(L_inf, rms) over every component and point of a residual array."""
    a = np.abs(np.asarray(r))
    return float(a.max()), float(np.sqrt((a**2).mean()))


def _density(X: np.ndarray) -> np.ndarray:
    """0.5 sum_k |X_k|^2: the energy density W of A, or Q of J."""
    return 0.5 * (np.abs(X) ** 2).sum(axis=0)


def _momentum(X: np.ndarray) -> np.ndarray:
    """0.5 i [X, conj X]: the momentum density P of A, or P_J of J."""
    return (0.5j * ccross(X, X.conj())).real


def _cross_xi(X: np.ndarray, Y: np.ndarray) -> Biquaternion:
    """0.5 (X o Y* + Y o X*) of pure vectors, Re(X, conj Y) - i Im[X, conj Y]:
    the bilinear form of _density and _momentum, which it doubles at X = Y."""
    Yc = Y.conj()
    return Biquaternion(cdot(X, Yc).real, -1j * ccross(X, Yc).imag)


def _source_power(E, H, j_E, j_H, c: float) -> np.ndarray:
    """Power the sources put into the field, (j_H . H - j_E . E)/c."""
    return ((j_H * H).sum(axis=0) - (j_E * E).sum(axis=0)) / c


def _force(theta: ChargeCurrent, aprime: AField) -> Biquaternion:
    """-Theta o A' through the stepper's force body."""
    return _force_biquaternion(theta.rho, theta.J, aprime.A)


# -- pointwise quantities -------------------------------------------------------


@dataclass(eq=False)
class EnergyMomentum:
    """Field energy density W, momentum density P, and Xi = W + iP = 0.5 A o A*."""

    W: np.ndarray
    P: np.ndarray
    Xi: Biquaternion


def energy_momentum(a: AField, medium: Medium) -> EnergyMomentum:
    """W = 0.5 sum |A_k|^2 = 0.5(eps|E|^2 + mu|H|^2), P = 0.5 i [A, conj A] = E x H / c;
    A already carries the medium."""
    W, P = _density(a.A), _momentum(a.A)
    return EnergyMomentum(W=W, P=P, Xi=Biquaternion(W, 1j * P))


@dataclass(eq=False)
class CurrentEnergy:
    """Pieces of 0.5 Theta o Theta*: current energy Q, current momentum P_J,
    charge energy 0.5|rho|^2, and the mixed charge-current vector Re(rho conj(J))."""

    Q: np.ndarray
    P_J: np.ndarray
    charge_energy: np.ndarray
    mixed: np.ndarray

    def full(self) -> Biquaternion:
        return Biquaternion(
            self.charge_energy + self.Q, 1j * (self.P_J - self.mixed)
        )


def current_energy(theta: ChargeCurrent, medium: Medium) -> CurrentEnergy:
    """Q = 0.5 sum |J_k|^2, P_J = 0.5 i [J, conj J] = [j_H, j_E] / c; Theta
    already carries the medium."""
    J, rho = theta.J, theta.rho
    return CurrentEnergy(
        Q=_density(J),
        P_J=_momentum(J),
        charge_energy=0.5 * np.abs(rho) ** 2,
        mixed=(rho * J.conj()).real,
    )


def power_force(theta: ChargeCurrent, aprime: AField) -> PowerForce:
    """Power-force density F = -Theta o A' acting on theta in the partner field A'."""
    return decompose_force(_force(theta, aprime))


def reciprocity_residual(
    theta1: ChargeCurrent, a2: AField, theta2: ChargeCurrent, a1: AField
) -> tuple[float, float]:
    """Norms of Theta^1 o A^2 + Theta^2 o A^1 = -(F^12 + F^21) (zero when action equals reaction)."""
    r = _force(theta1, a2) + _force(theta2, a1)
    return r.linf(), r.l2()


def interaction_power_eh(theta: ChargeCurrent, aprime: AField, medium: Medium) -> tuple[float, float]:
    """Norms of E'.j_E + H'.j_H = c Re(J, A'), where (J, A') is the scalar of
    the force -Theta o A', taken alone (the vector part costs ten times more)."""
    return _norms(medium.c * cdot(theta.J, aprime.A).real)


def interaction_power_bd(theta: ChargeCurrent, aprime: AField) -> tuple[float, float]:
    """Norms of mu H'.j_E - eps E'.j_H = Im(J, A'), the force's scalar as above."""
    return _norms(cdot(theta.J, aprime.A).imag)


def constraint_drift_residual(nabla: Nabla, a: AField, theta: ChargeCurrent) -> tuple[float, float]:
    """Norms of rho - div A (zero while the field's own charge sources it)."""
    return _norms(theta.rho - nabla.div(a.A))


# -- history-based law residuals -------------------------------------------------


def charge_conservation_residual(
    nabla: Nabla, rho_minus, rho_plus, J_mid, delta: float
) -> tuple[float, float]:
    """Norms of d(rho)/dtau + div J with a centred tau derivative."""
    r = (rho_plus - rho_minus) / (2 * delta) + nabla.div(J_mid)
    return _norms(r)


def poynting_residual(
    nabla: Nabla,
    medium: Medium,
    a_minus: AField,
    a_mid: AField,
    a_plus: AField,
    theta_mid: ChargeCurrent,
    delta: float,
) -> tuple[float, float]:
    """Norms of dW/dtau + div P - (j_H . H - j_E . E)/c."""
    E, H = decompose_afield(a_mid, medium)
    _, _, j_E, j_H = decompose_theta(theta_mid, medium)
    src = _source_power(E, H, j_E, j_H, medium.c)
    dW = (_density(a_plus.A) - _density(a_minus.A)) / (2 * delta)
    r = dW + nabla.div(_momentum(a_mid.A)) - src
    return _norms(r)


def first_law_residual(
    nabla: Nabla,
    medium: Medium,
    th_minus: ChargeCurrent,
    th_mid: ChargeCurrent,
    th_plus: ChargeCurrent,
    delta: float,
    aprime_mid: AField | None = None,
) -> tuple[float, float]:
    """Norms of kappa(dQ/dtau - div P_J + Re(grad rho, conj J)) - Im(F, conj J).

    With no partner field the right side is zero and this is the free-current
    energy law dQ/dtau = -U, U = -div P_J + Re(grad rho, conj J).
    """
    grad_rho = nabla.grad(th_mid.rho)
    lhs = medium.kappa * (
        (_density(th_plus.J) - _density(th_minus.J)) / (2 * delta)
        - nabla.div(_momentum(th_mid.J))
        + cdot(grad_rho, th_mid.J.conj()).real
    )
    if aprime_mid is None:
        rhs = 0.0
    else:
        F = 1j * _force(th_mid, aprime_mid).vector
        rhs = cdot(F, th_mid.J.conj()).imag
    return _norms(lhs - rhs)


def box_rho_residual(
    nabla: Nabla, rho_minus, rho_mid, rho_plus, delta: float
) -> tuple[float, float]:
    """Norms of the wave-operator residual (d^2/dtau^2 - Laplacian) rho."""
    d2 = (rho_plus - 2 * rho_mid + rho_minus) / (delta * delta)
    return _norms(d2 - nabla.laplacian(rho_mid))


def freeness_residual(
    nabla: Nabla,
    th_minus: ChargeCurrent,
    th_mid: ChargeCurrent,
    th_plus: ChargeCurrent,
    delta: float,
) -> tuple[float, float]:
    """Norms of D- Theta with a centred tau derivative (zero for a free current)."""
    dtheta = Biquaternion(
        1j * (th_plus.rho - th_minus.rho) / (2 * delta),
        (th_plus.J - th_minus.J) / (2 * delta),
    )
    r = apply_dminus(nabla, th_mid.as_biquaternion(), dtheta)
    return r.linf(), r.l2()


def united_field(
    prev: SimState, mid: SimState, nxt: SimState, nabla: Nabla
) -> tuple[AField, ChargeCurrent, float]:
    """Summed field at ``mid`` plus the freeness residual max |D- Theta_total|.

    The tau derivative of Theta_total is taken as a centred difference of the
    neighbouring snapshots, so the residual measures how well the united field
    satisfies the source-free law without using the evolution equations.
    """
    delta = nxt.tau - mid.tau
    if not abs((mid.tau - prev.tau) - delta) < 1e-12 * max(1.0, abs(delta)):
        raise ValueError("united_field needs uniformly spaced snapshots")
    a_tot, th_tot = field_totals(mid)
    _, th_m = field_totals(prev)
    _, th_p = field_totals(nxt)
    return a_tot, th_tot, freeness_residual(nabla, th_m, th_tot, th_p, delta)[0]


# -- interaction energy ----------------------------------------------------------


@dataclass(eq=False)
class InteractionEnergy:
    """Total Xi split into per-field terms and the pairwise interaction part."""

    xi_fields: list
    xi_cross: dict
    delta_xi: Biquaternion
    xi_total: Biquaternion
    decomposition_residual: float
    delta_w_integral: float
    classification: str


def interaction_energy(
    afields: list[AField], medium: Medium, tol: float = 1e-12
) -> InteractionEnergy:
    """Xi(sum A) = sum Xi^k + delta Xi with delta Xi = sum_{k<l} Xi^{kl}.

    Xi^{kl} = 0.5 (A^k o A*^l + A^l o A*^k); delta W = Re scalar of delta Xi
    integrated over the box classifies the exchange: "release" (> tol),
    "absorb" (< -tol) or "conserve".  Every term is built from the densities
    W, P and their bilinear form, so the residual is a round-off check.
    """
    if not afields:
        raise ValueError("need at least one field")
    grid = afields[0].grid
    A = [a.A for a in afields]
    xi_fields = [energy_momentum(a, medium).Xi for a in afields]
    xi_cross = {(k, l): _cross_xi(A[k], A[l]) for k, l in combinations(range(len(A)), 2)}
    xi_total = energy_momentum(AField(grid, sum(A)), medium).Xi
    delta_xi = sum(xi_cross.values(), Biquaternion(grid.zeros_scalar(), grid.zeros_vector()))
    resid = (xi_total - sum(xi_fields, delta_xi)).linf()
    dV = float(np.prod(grid.h))
    dw = float(delta_xi.scalar.real.sum() * dV)
    if dw > tol:
        cls = "release"
    elif dw < -tol:
        cls = "absorb"
    else:
        cls = "conserve"
    return InteractionEnergy(
        xi_fields=xi_fields,
        xi_cross=xi_cross,
        delta_xi=delta_xi,
        xi_total=xi_total,
        decomposition_residual=resid,
        delta_w_integral=dw,
        classification=cls,
    )


# -- sub-box weights and the four integral identities -----------------------------


def _interp_weights(n: int, L: float, i0: int, i1: int) -> np.ndarray:
    """Weights integrating the trig interpolant of samples over [x_{i0}, x_{i1}]."""
    a = i0 * L / n
    b = i1 * L / n
    k = 2 * np.pi * np.fft.fftfreq(n, d=L / n)
    I = np.empty(n, dtype=np.complex128)
    I[0] = b - a
    nz = k != 0
    I[nz] = (np.exp(1j * k[nz] * b) - np.exp(1j * k[nz] * a)) / (1j * k[nz])
    w = np.fft.fft(I) / n
    return w.real.copy()


def _axis_weights(grid: Grid, a: int, i0: int, i1: int) -> np.ndarray:
    """Weights along axis ``a`` for the run [i0, i1): rectangle weights on a full
    period, where periodicity makes them exact, else the interpolant's integral."""
    if i1 - i0 == grid.n[a]:
        return np.full(grid.n[a], grid.h[a])
    return _interp_weights(grid.n[a], grid.L[a], i0, i1)


class BoxRegion:
    """Grid-aligned sub-box [lo, hi) in index space; hi_a == n_a covers axis a fully."""

    def __init__(self, grid: Grid, lo=(0, 0, 0), hi=None):
        hi = tuple(grid.n) if hi is None else tuple(int(v) for v in hi)
        lo = tuple(int(v) for v in lo)
        for a in range(3):
            if not 0 <= lo[a] < hi[a] <= grid.n[a]:
                raise ValueError(
                    f"bad region bounds axis {a}: [{lo[a]}, {hi[a]}) with n={grid.n[a]}"
                )
        self.grid, self.lo, self.hi = grid, lo, hi
        self.full = tuple(hi[a] - lo[a] == grid.n[a] for a in range(3))
        self.w = [_axis_weights(grid, a, lo[a], hi[a]) for a in range(3)]

    def volume_integral(self, f):
        """Integral over the box of a scalar (or leading-axes batched) field."""
        return np.einsum("...ijk,i,j,k->...", f, self.w[0], self.w[1], self.w[2])

    def _face_integral(self, f, axis: int, index: int):
        """Integral of f over the grid plane ``index`` orthogonal to ``axis``."""
        sl = [slice(None)] * f.ndim
        sl[f.ndim - 3 + axis] = index % self.grid.n[axis]
        plane = f[tuple(sl)]
        wb, wc = (self.w[a] for a in range(3) if a != axis)
        return np.einsum("...ij,i,j->...", plane, wb, wc)

    def boundary_flux(self, F):
        """Outward flux of a vector field through the box boundary.

        Fully covered axes contribute nothing (their opposite faces coincide
        periodically and cancel).
        """
        total = 0.0 + 0.0j
        for a in range(3):
            if self.full[a]:
                continue
            total += self._face_integral(F[a], a, self.hi[a])
            total -= self._face_integral(F[a], a, self.lo[a])
        return total

    def boundary_cross(self, F):
        """Integral of n x F over the box boundary (3-vector)."""
        out = np.zeros(3, dtype=np.complex128)
        for a in range(3):
            if self.full[a]:
                continue
            for index, sign in ((self.hi[a], 1.0), (self.lo[a], -1.0)):
                n_hat = np.zeros(3)
                n_hat[a] = sign
                face = np.array(
                    [self._face_integral(F[c], a, index) for c in range(3)]
                )
                out += np.cross(n_hat, face)
        return out


class FluxSurface:
    """Open rectangle S in the plane ``axis=index``: full along one tangent axis,
    a [j0, j1) run of 1..n cells along the other; oriented by +e_axis."""

    def __init__(self, grid: Grid, axis: int, index: int, part_axis: int, j0: int, j1: int):
        if axis == part_axis or not {axis, part_axis} <= {0, 1, 2}:
            raise ValueError(f"axis and part_axis must be distinct in 0..2, got {axis}, {part_axis}")
        if not 0 < j1 - j0 <= grid.n[part_axis]:
            raise ValueError(f"the run j1 - j0 must be in 1..{grid.n[part_axis]}, got [{j0}, {j1})")
        self.grid, self.axis, self.index = grid, axis, index
        self.part_axis = part_axis
        self.full_axis = 3 - axis - part_axis
        self.j0, self.j1 = j0, j1
        self.w_part = _axis_weights(grid, part_axis, j0, j1)
        self.w_full = _axis_weights(grid, self.full_axis, 0, grid.n[self.full_axis])
        # the contour runs along the full axis; +1 when (axis, part, full) is cyclic
        self.sign = 1.0 if (part_axis - axis) % 3 == 1 else -1.0

    def _plane(self, f):
        sl = [slice(None)] * 3
        sl[self.axis] = self.index % self.grid.n[self.axis]
        return f[tuple(sl)]

    def surface_integral(self, f):
        """Integral over S of a scalar field (e.g. one vector component)."""
        plane = self._plane(f)
        if self.part_axis < self.full_axis:
            return np.einsum("ij,i,j->", plane, self.w_part, self.w_full)
        return np.einsum("ij,i,j->", plane, self.w_full, self.w_part)

    def _line_integral(self, f, j: int):
        sl = [slice(None)] * 3
        sl[self.axis] = self.index % self.grid.n[self.axis]
        sl[self.part_axis] = j % self.grid.n[self.part_axis]
        return (f[tuple(sl)] * self.w_full).sum()

    def contour_integral(self, F):
        """Circulation of F around the boundary of S (Stokes-consistent sign)."""
        c = self.full_axis
        return self.sign * (
            self._line_integral(F[c], self.j1) - self._line_integral(F[c], self.j0)
        )


def _slopes4(f: np.ndarray, h: float) -> np.ndarray:
    """First-derivative estimates of uniformly sampled f, 4th order everywhere."""
    n = len(f)
    if n < 6:
        return np.gradient(f, h, axis=0, edge_order=2 if n >= 3 else 1)
    fp = np.empty_like(f)
    fp[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    fp[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    fp[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    fp[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * h)
    fp[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
    return fp


def cumulative_integral(tau: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples f(tau), fourth order on uniform spacing.

    Endpoint-corrected trapezoid (a Gregory-type rule): each interval gets
    h/2 (f_i + f_{i+1}) - h^2/12 (f'_{i+1} - f'_i) with 4th-order slope
    estimates, so the composite error telescopes to O(h^4).  Falls back to
    plain trapezoid when spacing is non-uniform or the trail is very short.
    """
    tau = np.asarray(tau, dtype=float)
    f = np.asarray(f)
    out = np.zeros_like(f)
    if len(tau) < 2:
        return out
    dt = np.diff(tau)
    pieces = 0.5 * dt.reshape((-1,) + (1,) * (f.ndim - 1)) * (f[:-1] + f[1:])
    h = dt[0]
    if len(tau) >= 3 and np.abs(dt - h).max() <= 1e-9 * max(1.0, abs(h)):
        fp = _slopes4(f, h)
        pieces = pieces - (h * h / 12.0) * (fp[1:] - fp[:-1])
    out[1:] = np.cumsum(pieces, axis=0)
    return out


class IntegralLawAccumulator:
    """Accumulates the four integral identities along a sampled trajectory.

    Each law is an *amount* (in the region, or through the surface) and a
    *rate* (boundary flux plus sources), both stored per sample; ``finalize``
    reports amount - amount_0 + int rate dtau, with the rate integrated by a
    fourth-order rule, so the rows land at that rule's O(dtau^4) floor rather
    than at trapezoid O(dtau^2).  Without a surface the flux law reads 0.
    """

    def __init__(self, grid: Grid, medium: Medium, region: BoxRegion,
                 surface: FluxSurface | None = None):
        self.grid, self.medium, self.region = grid, medium, region
        self.surface = surface
        self._tau: list[float] = []
        self._laws: dict[str, tuple[list, list]] = {
            key: ([], []) for key in ("charge", "energy", "flux", "volume")
        }
        self.rows: dict[str, list] = {}

    def sample(self, state: SimState):
        """Record each law's amount and rate at ``state``.

        The laws follow the mode's own equations.  Where the mode advances A,
        the charge in the region is the outward flux of A (Gauss: the charge
        that sources A is div A) and A's energy, flux and volume balances
        carry their rates; where A is held, the charge is that of rho and
        A's balances keep their amounts at zero rate.
        """
        reg, srf = self.region, self.surface
        a_tot, th_tot = field_totals(state)
        A, J = a_tot.A, th_tot.J
        amounts = {
            "energy": reg.volume_integral(_density(A)).real,
            "flux": 0.0j if srf is None else srf.surface_integral(A[srf.axis]),
            "volume": reg.volume_integral(A),
        }
        if _advanced(state.mode).start == 0:
            E, H = decompose_afield(a_tot, self.medium)
            _, _, j_E, j_H = decompose_theta(th_tot, self.medium)
            src = reg.volume_integral(_source_power(E, H, j_E, j_H, self.medium.c)).real
            rates = {
                "energy": reg.boundary_flux(_momentum(A)).real - src,
                "flux": 0.0j if srf is None else (
                    1j * srf.contour_integral(A) + srf.surface_integral(J[srf.axis])),
                "volume": 1j * reg.boundary_cross(A) + reg.volume_integral(J),
            }
            charge = reg.boundary_flux(A)
        else:
            rates = {key: np.zeros_like(amount) for key, amount in amounts.items()}
            charge = reg.volume_integral(th_tot.rho)
        laws = {"charge": (charge, reg.boundary_flux(J)),
                **{key: (amount, rates[key]) for key, amount in amounts.items()}}
        self._tau.append(float(state.tau))
        for key, (amount, rate) in laws.items():
            self._laws[key][0].append(amount)
            self._laws[key][1].append(rate)

    def finalize(self) -> dict[str, list]:
        """Rows (tau, L_inf, rms) of each law's residual, one per sample."""
        tau = np.asarray(self._tau)
        self.rows = {}
        for key, (amount, rate) in self._laws.items():
            amount = np.asarray(amount)
            res = amount - amount[:1] + cumulative_integral(tau, np.asarray(rate))
            self.rows[key] = [(float(t), *_norms(r)) for t, r in zip(tau, res)]
        return self.rows


def integral_laws(
    states: list[SimState],
    medium: Medium,
    lo=(0, 0, 0),
    hi=None,
    surface: FluxSurface | None = None,
):
    """Evaluate the four integral identities over a sampled trajectory.

    Returns {"charge", "energy", "flux", "volume"} -> list of
    (tau, |residual|_inf, |residual|_rms) rows; the last row is the full-window
    residual.
    """
    if len(states) < 2:
        raise ValueError("need at least two samples to integrate in tau")
    grid = states[0].grid
    acc = IntegralLawAccumulator(grid, medium, BoxRegion(grid, lo, hi), surface=surface)
    for s in states:
        acc.sample(s)
    return acc.finalize()


# -- residual series + engine ----------------------------------------------------


@dataclass
class ResidualSeries:
    """Named (tau, linf, l2) trail with an optional pass/fail tolerance."""

    name: str
    tolerance: float | None = None
    rows: list = field(default_factory=list)

    def append(self, tau: float, linf: float, l2: float):
        self.rows.append((float(tau), float(linf), float(l2)))

    @property
    def max_linf(self) -> float:
        """Largest L_inf row; NaN if any row is NaN."""
        return float(np.max([r[1] for r in self.rows])) if self.rows else 0.0

    @property
    def final(self):
        return self.rows[-1] if self.rows else None

    @property
    def breached(self) -> bool:
        return self.tolerance is not None and not (self.max_linf <= self.tolerance)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("tau,linf,l2\n")
            for tau, linf, l2 in self.rows:
                fh.write(f"{tau:.17g},{linf:.17g},{l2:.17g}\n")


def _worst(norms) -> tuple[float, float]:
    """Largest (L_inf, rms) over the fields or pairs of a series, NaN if any is;
    (0, 0) where there are none."""
    a = np.array([(0.0, 0.0), *norms])
    return float(a[:, 0].max()), float(a[:, 1].max())


def _partners(state: SimState) -> list[AField | None]:
    """Each field's partner A' (see partner_field), None where it has none."""
    aps = (partner_field(state, k) for k in range(state.n_fields))
    return [None if ap is None else AField(state.grid, ap) for ap in aps]


def _charge_law(e, s, a, th, d):
    if _advanced(e.mode).start == 0:  # the charge that sources A is div A
        rho_m, rho_p = e.nabla.div(a[0].A), e.nabla.div(a[2].A)
    else:
        rho_m, rho_p = th[0].rho, th[2].rho
    return charge_conservation_residual(e.nabla, rho_m, rho_p, th[1].J, d)


def _energy_law(e, s):
    ie = interaction_energy([s.afield(k) for k in range(s.n_fields)], e.medium)
    e.delta_w.append((s.tau, ie.delta_w_integral))
    e.classification = ie.classification
    return ie.decomposition_residual, ie.decomposition_residual


class Law(NamedTuple):
    """How the engine evaluates one series.

    ``kind`` "window": ``evaluate(engine, states, a, th, delta)`` on three
    uniformly spaced states, their summed A-fields and charge-currents; it
    returns (L_inf, rms).  "pointwise": ``evaluate(engine, state)``.
    "integral": ``evaluate(rows)`` picks the series' rows from the accumulator.
    Each calls its public residual function by its module-level name.
    """

    kind: str
    evaluate: Callable


LAWS = {
    "charge": Law("window", _charge_law),
    "poynting": Law("window", lambda e, s, a, th, d: poynting_residual(
        e.nabla, e.medium, *a, th[1], d)),
    "first_law": Law("window", lambda e, s, a, th, d: _worst(
        first_law_residual(e.nabla, e.medium, *(x.theta(k) for x in s), d, ap)
        for k, ap in enumerate(_partners(s[1])))),
    "box_rho": Law("window", lambda e, s, a, th, d: box_rho_residual(
        e.nabla, *(t.rho for t in th), d)),
    "freeness": Law("window", lambda e, s, a, th, d: freeness_residual(e.nabla, *th, d)),
    "reciprocity": Law("pointwise", lambda e, s: _worst(
        reciprocity_residual(s.theta(k), s.afield(l), s.theta(l), s.afield(k))
        for k, l in combinations(range(s.n_fields), 2))),
    "constraint_drift": Law("pointwise", lambda e, s: _worst(
        constraint_drift_residual(e.nabla, s.afield(k), s.theta(k)) for k in range(s.n_fields))),
    "interaction_power_eh": Law("pointwise", lambda e, s: _worst(
        interaction_power_eh(s.theta(k), ap, e.medium)
        for k, ap in enumerate(_partners(s)) if ap is not None)),
    "interaction_power_bd": Law("pointwise", lambda e, s: _worst(
        interaction_power_bd(s.theta(k), ap)
        for k, ap in enumerate(_partners(s)) if ap is not None)),
    "energy_decomposition": Law("pointwise", _energy_law),
    "integral_charge": Law("integral", itemgetter("charge")),
    "integral_energy": Law("integral", itemgetter("energy")),
    "integral_flux": Law("integral", itemgetter("flux")),
    "integral_volume": Law("integral", itemgetter("volume")),
}
DIAGNOSTIC_NAMES = tuple(LAWS)


def _bounds(v):
    """What makes two cadences, regions or surfaces the same."""
    if isinstance(v, BoxRegion):
        return v.lo, v.hi
    if isinstance(v, FluxSurface):
        return v.axis, v.index, v.part_axis, v.j0, v.j1
    return v


def check_specs(grid: Grid, specs) -> tuple[int | None, BoxRegion | None, FluxSurface | None]:
    """Check diagnostics specs on ``grid``; the one home of their rules.

    Every name is known and given once, cadence >= 1, tolerance > 0, and
    every region and surface given is built; the integral series share one
    cadence, one region and one surface.  Errors name the spec as
    ``diagnostics[i]``.  Returns the integral laws' cadence, region (the
    whole box by default) and surface (by default, with a region, an open
    rectangle on its lo face, else None); all None without integral series.
    """
    seen, shared = set(), {}
    for i, spec in enumerate(specs):
        p, name = f"diagnostics[{i}]", spec["name"]
        if name not in LAWS:
            raise ValueError(f"{p}.name: unknown diagnostic {name!r}")
        if name in seen:
            raise ValueError(f"{p}.name: duplicate diagnostic {name!r}")
        seen.add(name)
        given = {"cadence": spec.get("cadence", 1)}
        if not given["cadence"] >= 1:
            raise ValueError(f"{p}.cadence must be >= 1, got {given['cadence']}")
        if spec.get("tolerance") is not None and not spec["tolerance"] > 0:
            raise ValueError(f"{p}.tolerance must be positive, got {spec['tolerance']}")
        for key, make in (("region", BoxRegion), ("surface", FluxSurface)):
            if spec.get(key) is not None:
                try:
                    given[key] = make(grid, **spec[key])
                except ValueError as exc:
                    raise ValueError(f"{p}.{key}: {exc}") from exc
        if LAWS[name].kind == "integral":
            for key, v in given.items():
                first = _bounds(shared.setdefault(key, v))
                if first != _bounds(v):
                    raise ValueError(f"{p}.{key}: integral series must share one {key}, "
                                     f"got {first} and {_bounds(v)}")
    if "cadence" not in shared:
        return None, None, None
    region, surface = shared.get("region") or BoxRegion(grid), shared.get("surface")
    if surface is None and "region" in shared:
        # default open rectangle: normal along x at the region's lo face,
        # partial along the first partially covered axis
        part = next((a for a in range(3) if region.hi[a] - region.lo[a] < grid.n[a]), 2)
        axis = next(a for a in range(3) if a != part)
        surface = FluxSurface(grid, axis, region.lo[axis], part, region.lo[part], region.hi[part])
    return shared["cadence"], region, surface


class DiagnosticsEngine:
    """Evaluates a configured set of residual series along a run.

    ``specs`` is a list of dicts with keys name, cadence (in steps), tolerance,
    region ({"lo": [...], "hi": [...]}) and surface (FluxSurface's arguments),
    all but the name optional; ``check_specs`` checks them.  Call
    ``sample(state, step)`` every step; the engine keeps a three-deep window at
    each window cadence and a tau-integral accumulator for the integral laws,
    and evaluates each series by its entry in ``LAWS``.

    Windows hold references to the sampled states, not copies: between steps
    the engine keeps the last two states of each window, so a caller must not
    mutate a state in place after passing it to ``sample`` (rebind instead, as
    ``step_rk4`` does).  A series breaches its tolerance if any row is above
    it or is not finite.
    """

    def __init__(self, grid: Grid, medium: Medium, mode: str, nabla: Nabla, specs):
        self.grid, self.medium, self.mode, self.nabla = grid, medium, mode, nabla
        self.series: dict[str, ResidualSeries] = {}
        self.cadence: dict[str, int] = {}
        self._windows: dict[int, deque] = {}
        self._acc: IntegralLawAccumulator | None = None
        self.delta_w: list[tuple[float, float]] = []
        self.classification: str | None = None
        self._acc_cadence, region, surface = check_specs(grid, specs)
        for spec in specs:
            name, cad = spec["name"], spec.get("cadence", 1)
            self.series[name] = ResidualSeries(name, spec.get("tolerance"))
            self.cadence[name] = cad
            if LAWS[name].kind == "window":
                self._windows.setdefault(cad, deque(maxlen=3))
        if region is not None:
            self._acc = IntegralLawAccumulator(grid, medium, region, surface=surface)

    def _named(self, kind: str) -> list[str]:
        return [n for n in self.series if LAWS[n].kind == kind]

    def sample(self, state: SimState, step: int):
        for cad, win in self._windows.items():
            if step % cad == 0:
                win.append(state)
                if len(win) == 3:
                    self._eval_window(cad, win)
                    win.popleft()
        for name in self._named("pointwise"):
            if step % self.cadence[name] == 0:
                self.series[name].append(state.tau, *LAWS[name].evaluate(self, state))
        if self._acc is not None and step % self._acc_cadence == 0:
            self._acc.sample(state)

    def _eval_window(self, cad: int, win):
        states = prev, mid, nxt = tuple(win)
        delta = nxt.tau - mid.tau
        if abs((mid.tau - prev.tau) - delta) > 1e-9 * max(1.0, delta):
            return  # non-uniform tail sample; skip centred differences
        a, th = zip(*(field_totals(s) for s in states))
        for name in self._named("window"):
            if self.cadence[name] == cad:
                self.series[name].append(mid.tau, *LAWS[name].evaluate(self, states, a, th, delta))

    def finalize(self) -> dict[str, ResidualSeries]:
        if self._acc is not None:
            rows = self._acc.finalize()
            for name in self._named("integral"):
                for row in LAWS[name].evaluate(rows):
                    self.series[name].append(*row)
        return self.series
