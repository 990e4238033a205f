"""Energy, momentum, and conservation-law diagnostics.

Everything here *measures* and never feeds back into the evolution.  Pointwise
quantities (energy-momentum, power-force, reciprocity defect) are evaluated per
snapshot; law residuals that need d/dtau use three uniformly spaced history
samples and centred differences; the integral identities accumulate surface
fluxes with trapezoid quadrature in tau.

Volume and surface integrals over grid-aligned sub-boxes integrate the
trigonometric interpolant exactly along partially covered axes (plain
rectangle weights on fully covered ones, where periodicity already makes them
exact). Plain trapezoid weights are available for reference but carry an O(h^2)
endpoint error on half-covered axes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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
from .evolution import SimState, field_totals, partner_field
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
    "DiagnosticsEngine",
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


def _source_power(E, H, j_E, j_H, c: float) -> np.ndarray:
    """Power the sources put into the field, (j_H . H - j_E . E)/c."""
    return ((j_H * H).sum(axis=0) - (j_E * E).sum(axis=0)) / c


# -- pointwise quantities -------------------------------------------------------


@dataclass(eq=False)
class EnergyMomentum:
    """Field energy density W, momentum density P, and Xi = W + iP = 0.5 A o A*."""

    W: np.ndarray
    P: np.ndarray
    Xi: Biquaternion


def energy_momentum(a: AField, medium: Medium) -> EnergyMomentum:
    """W = 0.5 sum |A_k|^2 = 0.5(eps|E|^2 + mu|H|^2), P = 0.5 i [A, conj A] = E x H / c.

    The two momentum routes (complex bracket vs Poynting in physical
    variables) are cross-checked against each other on every call.
    """
    W = _density(a.A)
    P = _momentum(a.A)
    E, H = decompose_afield(a, medium)
    scale = max(1.0, float(np.abs(P).max()))
    assert np.abs(P - ccross(E, H).real / medium.c).max() <= 1e-12 * scale, (
        "momentum density routes disagree"
    )
    bq = a.as_biquaternion()
    Xi = 0.5 * (bq @ bq.conj())
    return EnergyMomentum(W=W, P=P, Xi=Xi)


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
    """Q = 0.5 sum |J_k|^2, P_J = 0.5 i [J, conj J] = [j_H, j_E] / c.

    Both P_J routes (complex bracket vs real current pair) are cross-checked
    against each other on every call.
    """
    J, rho = theta.J, theta.rho
    P_J = _momentum(J)
    _, _, j_E, j_H = decompose_theta(theta, medium)
    scale = max(1.0, float(np.abs(P_J).max()))
    assert np.abs(P_J - ccross(j_H, j_E) / medium.c).max() <= 1e-12 * scale, (
        "current momentum routes disagree"
    )
    return CurrentEnergy(
        Q=_density(J),
        P_J=P_J,
        charge_energy=0.5 * np.abs(rho) ** 2,
        mixed=(rho * J.conj()).real,
    )


def power_force(theta: ChargeCurrent, aprime: AField) -> PowerForce:
    """Power-force density F = -Theta o A' acting on theta in the partner field A'."""
    fbq = -(theta.as_biquaternion() @ aprime.as_biquaternion())
    return decompose_force(fbq)


def reciprocity_residual(
    theta1: ChargeCurrent, a2: AField, theta2: ChargeCurrent, a1: AField
) -> tuple[float, float]:
    """Norms of Theta^1 o A^2 + Theta^2 o A^1 (zero when action equals reaction)."""
    r = theta1.as_biquaternion() @ a2.as_biquaternion() + theta2.as_biquaternion() @ a1.as_biquaternion()
    return r.linf(), r.l2()


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
    ce = current_energy(th_mid, medium)
    grad_rho = nabla.grad(th_mid.rho)
    lhs = medium.kappa * (
        (_density(th_plus.J) - _density(th_minus.J)) / (2 * delta)
        - nabla.div(ce.P_J)
        + cdot(grad_rho, th_mid.J.conj()).real
    )
    if aprime_mid is None:
        rhs = 0.0
    else:
        fbq = -(th_mid.as_biquaternion() @ aprime_mid.as_biquaternion())
        F = 1j * fbq.vector
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
    assert abs((mid.tau - prev.tau) - delta) < 1e-12 * max(1.0, abs(delta)), (
        "united_field needs uniformly spaced snapshots"
    )
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
    "absorb" (< -tol) or "conserve".
    """
    assert len(afields) >= 1, "need at least one field"
    grid = afields[0].grid
    bqs = [a.as_biquaternion() for a in afields]
    xi_fields = [0.5 * (b @ b.conj()) for b in bqs]
    xi_cross = {}
    for k in range(len(bqs)):
        for l in range(k + 1, len(bqs)):
            xi_cross[(k, l)] = 0.5 * (
                bqs[k] @ bqs[l].conj() + bqs[l] @ bqs[k].conj()
            )
    total_vec = sum(a.A for a in afields)
    tot_bq = Biquaternion(np.zeros(grid.n, dtype=np.complex128), total_vec)
    xi_total = 0.5 * (tot_bq @ tot_bq.conj())
    delta_xi = Biquaternion(grid.zeros_scalar(), grid.zeros_vector())
    for v in xi_cross.values():
        delta_xi = delta_xi + v
    recon = delta_xi
    for v in xi_fields:
        recon = recon + v
    resid = (xi_total - recon).linf()
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


# -- sub-box quadrature and the four integral identities -------------------------


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


def _trapezoid_weights(n: int, L: float, i0: int, i1: int) -> np.ndarray:
    h = L / n
    w = np.zeros(n)
    idx = [(i0 + j) % n for j in range(i1 - i0 + 1)]
    for j, i in enumerate(idx):
        w[i] += h if 0 < j < len(idx) - 1 else h / 2
    return w


class BoxRegion:
    """Grid-aligned sub-box [lo, hi) in index space; hi_a == n_a covers axis a fully.

    quadrature: "spectral" (exact interpolant integral on partial axes) or
    "trapezoid".
    """

    def __init__(self, grid: Grid, lo=(0, 0, 0), hi=None, quadrature: str = "spectral"):
        hi = tuple(grid.n) if hi is None else tuple(int(v) for v in hi)
        lo = tuple(int(v) for v in lo)
        assert quadrature in ("spectral", "trapezoid"), quadrature
        for a in range(3):
            assert 0 <= lo[a] < hi[a] <= grid.n[a], (
                f"bad region bounds axis {a}: [{lo[a]}, {hi[a]}) with n={grid.n[a]}"
            )
        self.grid, self.lo, self.hi = grid, lo, hi
        self.full = tuple(hi[a] - lo[a] == grid.n[a] for a in range(3))
        self.w = []
        for a in range(3):
            if self.full[a]:
                self.w.append(np.full(grid.n[a], grid.h[a]))
            elif quadrature == "spectral":
                self.w.append(_interp_weights(grid.n[a], grid.L[a], lo[a], hi[a]))
            else:
                self.w.append(_trapezoid_weights(grid.n[a], grid.L[a], lo[a], hi[a]))

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


_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_i, _k, _j] = -1.0


class FluxSurface:
    """Open rectangle S in the plane ``axis=index``: full along one tangent axis,
    a [j0, j1) run along the other; oriented by +e_axis."""

    def __init__(self, grid: Grid, axis: int, index: int, part_axis: int, j0: int, j1: int,
                 quadrature: str = "spectral"):
        assert axis != part_axis
        self.grid, self.axis, self.index = grid, axis, index
        self.part_axis = part_axis
        self.full_axis = 3 - axis - part_axis
        self.j0, self.j1 = j0, j1
        if quadrature == "spectral" and 0 < j1 - j0 < grid.n[part_axis]:
            self.w_part = _interp_weights(grid.n[part_axis], grid.L[part_axis], j0, j1)
        else:
            self.w_part = (
                np.full(grid.n[part_axis], grid.h[part_axis])
                if j1 - j0 == grid.n[part_axis]
                else _trapezoid_weights(grid.n[part_axis], grid.L[part_axis], j0, j1)
            )
        self.w_full = np.full(grid.n[self.full_axis], grid.h[self.full_axis])
        self.sign = _EPS3[axis, part_axis, self.full_axis]

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

    Per sample it needs the charge pair (rho_c, J_c), the field A with the
    source J_a that actually drives it, and the (E, H, j_E, j_H) decomposition
    for the energy law.  Fluxes are stored per sample and integrated in tau at
    ``finalize`` with a fourth-order rule, so the residual rows land at the
    quadrature floor rather than at trapezoid O(dtau^2).
    """

    def __init__(self, grid: Grid, medium: Medium, region: BoxRegion,
                 surface: FluxSurface | None = None):
        self.grid, self.medium, self.region = grid, medium, region
        self.surface = surface
        self._tau: list[float] = []
        self._snap: dict[str, list] = {"charge": [], "energy": [], "volume": [], "flux": []}
        self._flux: dict[str, list] = {"charge": [], "energy": [], "energy_src": [],
                                       "volume": [], "flux": []}
        self.rows: dict[str, list] = {}

    def sample(self, tau, rho_c, J_c, A, J_a, E, H, j_E, j_H):
        reg = self.region
        src = _source_power(E, H, j_E, j_H, self.medium.c)
        self._tau.append(float(tau))
        self._snap["charge"].append(reg.volume_integral(rho_c))
        self._snap["energy"].append(reg.volume_integral(_density(A)).real)
        self._snap["volume"].append(reg.volume_integral(A))
        self._flux["charge"].append(reg.boundary_flux(J_c))
        self._flux["energy"].append(reg.boundary_flux(_momentum(A)).real)
        self._flux["energy_src"].append(reg.volume_integral(src).real)
        self._flux["volume"].append(1j * reg.boundary_cross(A) + reg.volume_integral(J_a))
        if self.surface is not None:
            self._snap["flux"].append(self.surface.surface_integral(A[self.surface.axis]))
            self._flux["flux"].append(
                1j * self.surface.contour_integral(A)
                + self.surface.surface_integral(J_a[self.surface.axis])
            )
        else:
            self._snap["flux"].append(0.0j)
            self._flux["flux"].append(0.0j)

    def finalize(self) -> dict[str, list]:
        tau = np.asarray(self._tau)
        rows: dict[str, list] = {"charge": [], "energy": [], "flux": [], "volume": []}
        if len(tau) == 0:
            self.rows = rows
            return rows
        res = {}
        for key in ("charge", "flux"):
            snap = np.asarray(self._snap[key])
            res[key] = (snap - snap[0]) + cumulative_integral(tau, np.asarray(self._flux[key]))
        snap = np.asarray(self._snap["energy"])
        res["energy"] = (
            (snap - snap[0])
            + cumulative_integral(tau, np.asarray(self._flux["energy"]))
            - cumulative_integral(tau, np.asarray(self._flux["energy_src"]))
        )
        snap = np.asarray(self._snap["volume"])
        res["volume"] = (snap - snap[0]) + cumulative_integral(
            tau, np.asarray(self._flux["volume"])
        )
        for key in ("charge", "energy", "flux"):
            for t, r in zip(tau, res[key]):
                rows[key].append((float(t), abs(r), abs(r)))
        for t, r in zip(tau, res["volume"]):
            ra = np.abs(r)
            rows["volume"].append((float(t), float(ra.max()), float(np.sqrt((ra**2).mean()))))
        self.rows = rows
        return rows


def _state_integral_inputs(state: SimState, medium: Medium):
    """Charge pair, A-field with its own source, and real decompositions."""
    a_tot, th_tot = field_totals(state)
    rho_c, J_c = th_tot.rho, th_tot.J
    if state.mode == "free_theta":
        J_a = np.zeros_like(a_tot.A)  # A carries no source in this mode
    else:
        J_a = th_tot.J
    E, H = decompose_afield(a_tot, medium)
    _, _, j_E, j_H = decompose_theta(th_tot, medium)
    return rho_c, J_c, a_tot.A, J_a, E, H, j_E, j_H


def integral_laws(
    states: list[SimState],
    medium: Medium,
    lo=(0, 0, 0),
    hi=None,
    surface: FluxSurface | None = None,
    quadrature: str = "spectral",
):
    """Evaluate the four integral identities over a sampled trajectory.

    Returns {"charge", "energy", "flux", "volume"} -> list of
    (tau, |residual|_inf, |residual|_rms) rows; the last row is the full-window
    residual.
    """
    assert len(states) >= 2, "need at least two samples to integrate in tau"
    grid = states[0].grid
    region = BoxRegion(grid, lo, hi, quadrature=quadrature)
    acc = IntegralLawAccumulator(grid, medium, region, surface=surface)
    for s in states:
        acc.sample(s.tau, *_state_integral_inputs(s, medium))
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


DIAGNOSTIC_NAMES = (
    "charge",
    "poynting",
    "first_law",
    "box_rho",
    "freeness",
    "reciprocity",
    "constraint_drift",
    "interaction_power_eh",
    "interaction_power_bd",
    "energy_decomposition",
    "integral_charge",
    "integral_energy",
    "integral_flux",
    "integral_volume",
)

_HISTORY_NAMES = {"charge", "poynting", "first_law", "box_rho", "freeness"}
_INTEGRAL_NAMES = {"integral_charge", "integral_energy", "integral_flux", "integral_volume"}


class DiagnosticsEngine:
    """Evaluates a configured set of residual series along a run.

    ``specs`` is a list of dicts with keys name, cadence (in steps), tolerance
    (optional), region (optional {"lo": [...], "hi": [...]}).  Call
    ``sample(state, step)`` every step; the engine keeps a three-deep window at
    each history cadence and a tau-integral accumulator for the integral laws.

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
        self._acc_names: list[str] = []
        self.delta_w: list[tuple[float, float]] = []
        self.classification: str | None = None
        region_lo, region_hi = (0, 0, 0), None
        surface = None
        for spec in specs:
            name = spec["name"]
            assert name in DIAGNOSTIC_NAMES, f"unknown diagnostic {name!r}"
            assert name not in self.series, f"duplicate diagnostic {name!r}"
            cad = int(spec.get("cadence", 1))
            assert cad >= 1, f"cadence must be >= 1, got {cad}"
            self.series[name] = ResidualSeries(name, spec.get("tolerance"))
            self.cadence[name] = cad
            if name in _HISTORY_NAMES:
                self._windows.setdefault(cad, deque(maxlen=3))
            if name in _INTEGRAL_NAMES:
                self._acc_names.append(name)
                if "region" in spec and spec["region"] is not None:
                    region_lo = tuple(spec["region"]["lo"])
                    region_hi = tuple(spec["region"]["hi"])
                if "surface" in spec and spec["surface"] is not None:
                    s = spec["surface"]
                    surface = FluxSurface(
                        grid, int(s["axis"]), int(s["index"]),
                        int(s["part_axis"]), int(s["j0"]), int(s["j1"]),
                    )
        if self._acc_names:
            cads = {self.cadence[n] for n in self._acc_names}
            assert len(cads) == 1, "integral laws must share one cadence"
            self._acc_cadence = cads.pop()
            region = BoxRegion(grid, region_lo, region_hi)
            if surface is None and region_hi is not None:
                # default open rectangle: normal along x at the region's lo face,
                # partial along the first partially covered axis
                part = next((a for a in range(3) if region.hi[a] - region.lo[a] < grid.n[a]), 2)
                axis = next(a for a in range(3) if a != part)
                surface = FluxSurface(grid, axis, region.lo[axis], part, region.lo[part], region.hi[part])
            self._acc = IntegralLawAccumulator(grid, medium, region, surface=surface)

    def sample(self, state: SimState, step: int):
        for cad, win in self._windows.items():
            if step % cad == 0:
                win.append(state)
                if len(win) == 3:
                    self._eval_window(cad, win)
                    win.popleft()
        for name in self.series:
            if name in _HISTORY_NAMES or name in _INTEGRAL_NAMES:
                continue
            if step % self.cadence[name] == 0:
                self._eval_pointwise(name, state)
        if self._acc is not None and step % self._acc_cadence == 0:
            self._acc.sample(state.tau, *_state_integral_inputs(state, self.medium))

    def _eval_window(self, cad: int, win):
        prev, mid, nxt = win
        delta = nxt.tau - mid.tau
        if abs((mid.tau - prev.tau) - delta) > 1e-9 * max(1.0, delta):
            return  # non-uniform tail sample; skip centred differences
        med, nab = self.medium, self.nabla
        (a_m, th_m), (a_0, th_0), (a_p, th_p) = (field_totals(s) for s in win)
        for name, ser in self.series.items():
            if self.cadence[name] != cad or name not in _HISTORY_NAMES:
                continue
            if name == "charge":
                if self.mode in ("free_theta", "strong_field"):
                    r = charge_conservation_residual(nab, th_m.rho, th_p.rho, th_0.J, delta)
                else:  # the charge that sources A is div A
                    r = charge_conservation_residual(
                        nab, nab.div(a_m.A), nab.div(a_p.A), th_0.J, delta
                    )
            elif name == "poynting":
                r = poynting_residual(nab, med, a_m, a_0, a_p, th_0, delta)
            elif name == "first_law":
                r = self._first_law(prev, mid, nxt, delta)
            elif name == "box_rho":
                r = box_rho_residual(nab, th_m.rho, th_0.rho, th_p.rho, delta)
            else:  # freeness
                r = freeness_residual(nab, th_m, th_0, th_p, delta)
            ser.append(mid.tau, *r)

    def _first_law(self, prev, mid, nxt, delta):
        worst = (0.0, 0.0)
        for k in range(mid.n_fields):
            ap = partner_field(mid, k)
            linf, l2 = first_law_residual(
                self.nabla, self.medium, prev.theta(k), mid.theta(k), nxt.theta(k), delta,
                aprime_mid=None if ap is None else AField(mid.grid, ap),
            )
            worst = (max(worst[0], linf), max(worst[1], l2))
        return worst

    def _eval_pointwise(self, name: str, state: SimState):
        ser = self.series[name]
        med = self.medium
        if name == "constraint_drift":
            worst = 0.0
            rms = 0.0
            for k in range(state.n_fields):
                r = state.U[k, 3] - self.nabla.div(state.U[k, 0:3])
                linf, l2 = _norms(r)
                worst, rms = max(worst, linf), max(rms, l2)
            ser.append(state.tau, worst, rms)
        elif name == "reciprocity":
            worst = (0.0, 0.0)
            M = state.n_fields
            for k in range(M):
                for l in range(k + 1, M):
                    linf, l2 = reciprocity_residual(
                        state.theta(k), state.afield(l), state.theta(l), state.afield(k)
                    )
                    worst = (max(worst[0], linf), max(worst[1], l2))
            ser.append(state.tau, *worst)
        elif name in ("interaction_power_eh", "interaction_power_bd"):
            worst = (0.0, 0.0)
            for k in range(state.n_fields):
                ap = partner_field(state, k)
                if ap is None:
                    continue
                Ep, Hp = decompose_afield(AField(state.grid, ap), med)
                _, _, j_E, j_H = decompose_theta(state.theta(k), med)
                if name == "interaction_power_eh":
                    r = (Ep * j_E).sum(axis=0) + (Hp * j_H).sum(axis=0)
                else:
                    r = med.mu * (Hp * j_E).sum(axis=0) - med.epsilon * (Ep * j_H).sum(axis=0)
                linf, l2 = _norms(r)
                worst = (max(worst[0], linf), max(worst[1], l2))
            ser.append(state.tau, *worst)
        elif name == "energy_decomposition":
            afields = [state.afield(k) for k in range(state.n_fields)]
            ie = interaction_energy(afields, med)
            ser.append(state.tau, ie.decomposition_residual, ie.decomposition_residual)
            self.delta_w.append((state.tau, ie.delta_w_integral))
            self.classification = ie.classification

    def finalize(self) -> dict[str, ResidualSeries]:
        if self._acc is not None:
            rows = self._acc.finalize()
            key = {"integral_charge": "charge", "integral_energy": "energy",
                   "integral_flux": "flux", "integral_volume": "volume"}
            for name in self._acc_names:
                for row in rows[key[name]]:
                    self.series[name].append(*row)
        return self.series
