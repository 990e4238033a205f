"""Energy, momentum, and conservation-law diagnostics.

Everything here *measures* and never feeds back into the evolution.  Pointwise
quantities (energy-momentum, power-force, reciprocity defect) are evaluated per
snapshot; law residuals that need d/dtau use three uniformly spaced history
samples and centred differences; each integral identity stores an amount and
its rate per sample and integrates the rate in tau with a fourth-order rule.
The engine makes one record per state it evaluates, and every law reads the
field totals and partner fields from it, each formed once.

Every volume, face, surface and line integral is one separable weighted sum,
``_integral``: per axis a weight vector (the trigonometric interpolant's exact
integral along a partial run, rectangle weights on a full period) or one fixed
plane index.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .biquaternion import Biquaternion, ccross, cdot
from .fields import AField, ChargeCurrent, Grid, Medium, PowerForce, _integer, _positive, decompose_force
from .fields import decompose_afield, decompose_theta  # unused: bindings perfbench's tracer wraps
from .evolution import SimState, _advanced, _check_box, _force_biquaternion, field_totals, partner_field
from . import operators
from .operators import Nabla

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


def _source_power(a: AField, theta: ChargeCurrent) -> np.ndarray:
    """Power the sources put into the field, -Re(J, A*): the real scalar of
    Theta o A*, with A* the field's own conjugate; (j_H . H - j_E . E)/c in
    every medium."""
    return -cdot(theta.J, a.A.conj()).real


def _force(theta: ChargeCurrent, aprime: AField) -> Biquaternion:
    """-Theta o A' through the stepper's force body."""
    return _force_biquaternion(theta.rho, theta.J, aprime.A)


class _Sample:
    """A sampled state and the derived fields the laws read, each formed once,
    on first use.  A record lives for one sample: windows keep the states."""

    def __init__(self, nabla: Nabla, state: SimState):
        _check_box(state, nabla)
        self.nabla, self.state = nabla, state

    @cached_property
    def totals(self) -> tuple[AField, ChargeCurrent]:
        return field_totals(self.state)

    @cached_property
    def partners(self) -> list[AField | None]:
        """Each field's partner A' (see partner_field), None where it has none."""
        aps = (partner_field(self.state, k) for k in range(self.state.n_fields))
        return [None if ap is None else AField(self.state.grid, ap) for ap in aps]

    @cached_property
    def rho_source(self) -> np.ndarray | None:
        """The force's source -i (J, A')/kappa in d(rho)/dtau, summed over the
        fields and 2/3-filtered as the stepper adds it; None without partners."""
        S = [self.nabla.dealias(cdot(self.state.theta(k).J, ap.A))
             for k, ap in enumerate(self.partners) if ap is not None]
        return -1j * sum(S) / self.state.medium.kappa if S else None


def _uniform(steps) -> bool:
    """Whether the tau steps are equal to 1e-9 relative and nonzero.  tau is
    accumulated in floating point, so equal steps differ by an ulp of tau
    (4.5e-13 after 20000 steps of 1/3)."""
    return bool(np.ptp(steps) <= 1e-9 * abs(steps[0]) and steps[0] != 0)


# -- pointwise quantities -------------------------------------------------------


@dataclass(eq=False)
class EnergyMomentum:
    """Field energy density W, momentum density P, and Xi = W + iP = 0.5 A o A*."""

    W: np.ndarray
    P: np.ndarray
    Xi: Biquaternion


def energy_momentum(a: AField) -> EnergyMomentum:
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


def current_energy(theta: ChargeCurrent) -> CurrentEnergy:
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
    a_minus: AField,
    a_mid: AField,
    a_plus: AField,
    theta_mid: ChargeCurrent,
    delta: float,
) -> tuple[float, float]:
    """Norms of dW/dtau + div P - s, with s = -Re(J, A*) the sources' power."""
    dW = (_density(a_plus.A) - _density(a_minus.A)) / (2 * delta)
    r = dW + nabla.div(_momentum(a_mid.A)) - _source_power(a_mid, theta_mid)
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
    # looked up at call time, so a wrapper on operators.apply_dminus sees the call
    r = operators.apply_dminus(nabla, th_mid.as_biquaternion(), dtheta)
    return r.linf(), r.l2()


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


def interaction_energy(afields: list[AField], tol: float = 1e-12) -> InteractionEnergy:
    """Xi(sum A) = sum Xi^k + delta Xi with delta Xi = sum_{k<l} Xi^{kl}.

    Xi^{kl} = 0.5 (A^k o A*^l + A^l o A*^k); delta W = Re scalar of delta Xi
    integrated over the box classifies the exchange: "release" (> tol),
    "absorb" (< -tol), "conserve" (|delta W| <= tol) or "non-finite" (NaN
    or infinite, which no comparison with tol classifies).  Every term is
    built from the densities W, P and their bilinear form, so the residual
    is a round-off check.
    """
    if not afields:
        raise ValueError("need at least one field")
    grid = afields[0].grid
    A = [a.A for a in afields]
    xi_fields = [energy_momentum(a).Xi for a in afields]
    xi_cross = {(k, l): _cross_xi(A[k], A[l]) for k, l in combinations(range(len(A)), 2)}
    xi_total = energy_momentum(AField(grid, sum(A))).Xi
    delta_xi = sum(xi_cross.values(), Biquaternion(grid.zeros_scalar(), grid.zeros_vector()))
    resid = (xi_total - sum(xi_fields, delta_xi)).linf()
    dV = float(np.prod(grid.h))
    dw = float(delta_xi.scalar.real.sum() * dV)
    cls = ("conserve" if abs(dw) <= tol else "release" if dw > tol
           else "absorb" if dw < -tol else "non-finite")
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


def _integral(f, w):
    """Separable weighted sum of f over its last three axes, batched over any
    leading ones: ``w[a]`` is axis a's weight vector, or an int naming the one
    plane (modulo n) that the sum reads along axis a."""
    planes = tuple(slice(None) if isinstance(v, np.ndarray) else v % n for v, n in zip(w, f.shape[-3:]))
    vecs = [v for v in w if isinstance(v, np.ndarray)]
    sub = "ijk"[:len(vecs)]
    return np.einsum(f"...{sub},{','.join(sub)}->...", f[(...,) + planes], *vecs)


class BoxRegion:
    """Grid-aligned sub-box [lo, hi) of 3 integers each; hi_a == n_a covers axis a fully."""

    def __init__(self, grid: Grid, lo=(0, 0, 0), hi=None):
        bounds = (lo, grid.n if hi is None else hi)
        try:
            lo, hi = (tuple(map(_integer, b)) for b in bounds)
        except TypeError:
            lo = hi = ()  # not integers: refused below
        if not len(lo) == len(hi) == 3:
            raise ValueError(f"bad region bounds: lo and hi must be 3 integers each, got {bounds}")
        for a in range(3):
            if not 0 <= lo[a] < hi[a] <= grid.n[a]:
                raise ValueError(f"bad region bounds axis {a}: [{lo[a]}, {hi[a]}) with n={grid.n[a]}")
        self.grid, self.lo, self.hi = grid, lo, hi
        self.full = tuple(hi[a] - lo[a] == grid.n[a] for a in range(3))
        self.w = [_axis_weights(grid, a, lo[a], hi[a]) for a in range(3)]

    def default_surface(self) -> "FluxSurface":
        """The flux law's surface where none is given: the open rectangle on the
        lo face normal to the first axis but ``part``, the first partially
        covered axis (z on the whole box: the full plane x = lo_x)."""
        part = next((a for a in range(3) if not self.full[a]), 2)
        axis = next(a for a in range(3) if a != part)
        return FluxSurface(self.grid, axis, self.lo[axis], part, self.lo[part], self.hi[part])

    def volume_integral(self, f):
        """Integral over the box of a scalar (or leading-axes batched) field."""
        return _integral(f, self.w)

    def _faces(self):
        """(axis, outward sign, weights) of each face of the box off the fully
        covered axes, whose opposite faces coincide periodically and cancel."""
        return [(a, sign, self.w[:a] + [i] + self.w[a + 1:])
                for a in range(3) if not self.full[a]
                for i, sign in ((self.hi[a], 1.0), (self.lo[a], -1.0))]

    def boundary_flux(self, F):
        """Outward flux of a vector field through the box boundary."""
        return sum((sign * _integral(F[a], w) for a, sign, w in self._faces()), 0j)

    def boundary_cross(self, F):
        """Integral of n x F over the box boundary (3-vector)."""
        return sum((sign * np.cross(np.eye(3)[a], _integral(F, w)) for a, sign, w in self._faces()),
                   np.zeros(3, dtype=np.complex128))


class FluxSurface:
    """Open rectangle S in the plane ``axis=index``: full along one tangent axis,
    a [j0, j1) run of 1..n cells along the other; oriented by +e_axis.  The
    grid is periodic: ``index`` and ``j0`` are kept modulo n, ``j1`` with j0.
    ``w`` is S's weights for ``_integral``, with the plane ``index`` on ``axis``."""

    def __init__(self, grid: Grid, axis: int, index: int, part_axis: int, j0: int, j1: int):
        given = (axis, index, part_axis, j0, j1)
        try:
            axis, index, part_axis, j0, j1 = map(_integer, given)
        except TypeError:
            raise ValueError(f"axis, index, part_axis, j0 and j1 must be integers, got {given}") from None
        if axis == part_axis or not {axis, part_axis} <= {0, 1, 2}:
            raise ValueError(f"axis and part_axis must be distinct in 0..2, got {axis}, {part_axis}")
        if not 0 < j1 - j0 <= grid.n[part_axis]:
            raise ValueError(f"the run j1 - j0 must be in 1..{grid.n[part_axis]}, got [{j0}, {j1})")
        self.grid, self.axis, self.index = grid, axis, index % grid.n[axis]
        self.part_axis, self.full_axis = part_axis, 3 - axis - part_axis
        self.j0 = j0 % grid.n[part_axis]
        self.j1 = self.j0 + (j1 - j0)
        self.w = [_axis_weights(grid, a, 0, grid.n[a]) for a in range(3)]
        self.w[axis], self.w[part_axis] = self.index, _axis_weights(grid, part_axis, self.j0, self.j1)
        # the contour runs along the full axis; +1 when (axis, part, full) is cyclic
        self.sign = 1.0 if (part_axis - axis) % 3 == 1 else -1.0

    def surface_integral(self, f):
        """Integral over S of a scalar field (e.g. one vector component)."""
        return _integral(f, self.w)

    def contour_integral(self, F):
        """Circulation of F around the boundary of S (Stokes-consistent sign)."""
        p, c = self.part_axis, self.full_axis
        at_j1, at_j0 = (_integral(F[c], self.w[:p] + [j] + self.w[p + 1:]) for j in (self.j1, self.j0))
        return self.sign * (at_j1 - at_j0)


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
    plain trapezoid when the spacing is not uniform (see ``_uniform``) or the
    trail is very short.
    """
    tau = np.asarray(tau, dtype=float)
    f = np.asarray(f)
    out = np.zeros_like(f)
    if len(tau) < 2:
        return out
    dt = np.diff(tau)
    pieces = 0.5 * dt.reshape((-1,) + (1,) * (f.ndim - 1)) * (f[:-1] + f[1:])
    h = dt[0]
    if len(tau) >= 3 and _uniform(dt):
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
    than at trapezoid O(dtau^2).  The flux law's surface is by default the
    region's ``default_surface``.
    """

    def __init__(self, nabla: Nabla, region: BoxRegion, surface: FluxSurface | None = None):
        self.nabla, self.region = nabla, region
        self.surface = region.default_surface() if surface is None else surface
        self._tau: list[float] = []
        self._laws: dict[str, tuple[list, list]] = {
            key: ([], []) for key in ("charge", "energy", "flux", "volume")
        }
        self.rows: dict[str, list] = {}

    def sample(self, state: SimState | _Sample):
        """Record each law's amount and rate at ``state``, or at the state of
        an engine's record, whose fields it shares.

        The laws follow the mode's own equations.  Where the mode advances A,
        the charge in the region is the outward flux of A (Gauss: the charge
        that sources A is div A) and A's energy, flux and volume balances
        carry their rates; where A is held, the charge is that of rho, moved
        also by the force's source where there is a partner field, and A's
        balances keep their amounts at zero rate.
        """
        rec = state if isinstance(state, _Sample) else _Sample(self.nabla, state)
        reg, srf, state = self.region, self.surface, rec.state
        a_tot, th_tot = rec.totals
        A, J = a_tot.A, th_tot.J
        amounts = {
            "energy": reg.volume_integral(_density(A)).real,
            "flux": srf.surface_integral(A[srf.axis]),
            "volume": reg.volume_integral(A),
        }
        if _advanced(state.mode).start == 0:
            src = reg.volume_integral(_source_power(a_tot, th_tot)).real
            rates = {
                "energy": reg.boundary_flux(_momentum(A)).real - src,
                "flux": 1j * srf.contour_integral(A) + srf.surface_integral(J[srf.axis]),
                "volume": 1j * reg.boundary_cross(A) + reg.volume_integral(J),
            }
            charge = (reg.boundary_flux(A), reg.boundary_flux(J))
        else:
            rates = {key: np.zeros_like(amount) for key, amount in amounts.items()}
            rho_src = rec.rho_source
            charge = (reg.volume_integral(th_tot.rho), reg.boundary_flux(J) if rho_src is None
                      else reg.boundary_flux(J) - reg.volume_integral(rho_src))
        laws = {"charge": charge,
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


def integral_laws(states: list[SimState], nabla: Nabla, lo=(0, 0, 0), hi=None,
                  surface: FluxSurface | None = None):
    """Evaluate the four integral identities over a sampled trajectory, the
    flux law through ``surface`` or the region's ``default_surface``.

    Returns {"charge", "energy", "flux", "volume"} -> list of
    (tau, |residual|_inf, |residual|_rms) rows; the last row is the full-window
    residual.
    """
    if len(states) < 2:
        raise ValueError("need at least two samples to integrate in tau")
    acc = IntegralLawAccumulator(nabla, BoxRegion(nabla.grid, lo, hi), surface=surface)
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


def _charge_law(e, r, a, th, d):
    if _advanced(r[1].state.mode).start == 0:
        # the charge that sources A is div A, so the total current J + dA/dtau is divergence-free
        return charge_conservation_residual(e.nabla, 0.0, 0.0, th[1].J + (a[2].A - a[0].A) / (2 * d), d)
    rho_m, rho_p = th[0].rho, th[2].rho
    if (rho_src := r[1].rho_source) is not None:
        # where A is held, rho's force source is taken out of the centred difference
        rho_m, rho_p = rho_m + d * rho_src, rho_p - d * rho_src
    return charge_conservation_residual(e.nabla, rho_m, rho_p, th[1].J, d)


def _energy_law(e, r):
    ie = interaction_energy([r.state.afield(k) for k in range(r.state.n_fields)])
    e.delta_w.append((r.state.tau, ie.delta_w_integral))
    e.classification = ie.classification
    return ie.decomposition_residual, ie.decomposition_residual


class Law(NamedTuple):
    """How the engine evaluates one series.

    ``kind`` "window": ``evaluate(engine, records, a, th, delta)`` on the
    records (``_Sample``) of three uniformly spaced states, their summed
    A-fields and charge-currents; it returns (L_inf, rms).  "pointwise":
    ``evaluate(engine, record)``.  "integral": ``evaluate(rows)`` picks the
    series' rows from the accumulator.  Each calls its public residual
    function by its module-level name.
    """

    kind: str
    evaluate: Callable


LAWS = {
    "charge": Law("window", _charge_law),
    "poynting": Law("window", lambda e, r, a, th, d: poynting_residual(e.nabla, *a, th[1], d)),
    "first_law": Law("window", lambda e, r, a, th, d: _worst(
        first_law_residual(e.nabla, r[1].state.medium, *(x.state.theta(k) for x in r), d, ap)
        for k, ap in enumerate(r[1].partners))),
    "box_rho": Law("window", lambda e, r, a, th, d: box_rho_residual(
        e.nabla, *(t.rho for t in th), d)),
    "freeness": Law("window", lambda e, r, a, th, d: freeness_residual(e.nabla, *th, d)),
    "reciprocity": Law("pointwise", lambda e, r: _worst(
        reciprocity_residual(r.state.theta(k), r.state.afield(l), r.state.theta(l), r.state.afield(k))
        for k, l in combinations(range(r.state.n_fields), 2))),
    "constraint_drift": Law("pointwise", lambda e, r: _worst(constraint_drift_residual(
        e.nabla, r.state.afield(k), r.state.theta(k)) for k in range(r.state.n_fields))),
    "interaction_power_eh": Law("pointwise", lambda e, r: _worst(
        interaction_power_eh(r.state.theta(k), ap, r.state.medium)
        for k, ap in enumerate(r.partners) if ap is not None)),
    "interaction_power_bd": Law("pointwise", lambda e, r: _worst(
        interaction_power_bd(r.state.theta(k), ap)
        for k, ap in enumerate(r.partners) if ap is not None)),
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


# what a spec's region and surface build, and the keys each one requires
_SELECTORS = {"region": (BoxRegion, ("lo", "hi")),
              "surface": (FluxSurface, ("axis", "index", "part_axis", "j0", "j1"))}


def check_specs(grid: Grid, specs):
    """Read diagnostics specs on ``grid``: the one reader of a spec and the
    one home of its rules.

    A spec is a mapping of name (a known series, given once), cadence (an
    integer >= 1, not a bool; default 1), tolerance (a real number > 0,
    finite as a float, not a bool; default None) and, on integral series
    only, region and surface with all their keys, built here; no other key.
    The integral series share one cadence, region and surface.  Errors are
    ValueErrors naming the spec as ``diagnostics[i]``.
    Returns ``{name: (cadence, tolerance)}`` in spec order and the integral
    laws' (cadence, region, surface), region the whole box and surface None
    (the region's ``default_surface``) by default; None without them.
    """
    laws, shared = {}, {}
    for i, spec in enumerate(specs):
        p = f"diagnostics[{i}]"
        if not isinstance(spec, Mapping):
            raise ValueError(f"{p} must be an object")
        if extra := set(spec) - {"name", "cadence", "tolerance", *_SELECTORS}:
            raise ValueError(f"unknown key(s) at {p}: {', '.join(sorted(map(repr, extra)))}")
        name, cadence, tol = spec.get("name"), spec.get("cadence", 1), spec.get("tolerance")
        if not isinstance(name, str):
            raise ValueError(f"{p}.name must be a string, got {name!r}")
        if name not in LAWS:
            raise ValueError(f"{p}.name: unknown diagnostic {name!r}")
        if name in laws:
            raise ValueError(f"{p}.name: duplicate diagnostic {name!r}")
        try:
            given = {"cadence": _integer(cadence)}
        except TypeError:
            given = {"cadence": 0}  # not an integer: refused as below 1
        if given["cadence"] < 1:
            raise ValueError(f"{p}.cadence must be an integer >= 1, got {cadence!r}")
        if tol is not None and _positive(tol) is None:
            raise ValueError(f"{p}.tolerance must be a positive number, finite as a float, got {tol!r}")
        laws[name] = given["cadence"], None if tol is None else _positive(tol)
        for key, (make, parts) in _SELECTORS.items():
            if (v := spec.get(key)) is None:
                continue
            if LAWS[name].kind != "integral":
                raise ValueError(f"{p}.{key}: only the integral series take a {key}")
            if not (isinstance(v, Mapping) and set(v) == set(parts)):
                raise ValueError(f"{p}.{key}: must be an object of the keys {', '.join(parts)}")
            try:
                given[key] = make(grid, **v)
            except ValueError as exc:
                raise ValueError(f"{p}.{key}: {exc}") from exc
        if LAWS[name].kind == "integral":
            for key, v in given.items():
                first = _bounds(shared.setdefault(key, v))
                if first != _bounds(v):
                    raise ValueError(f"{p}.{key}: integral series must share one {key}, "
                                     f"got {first} and {_bounds(v)}")
    if "cadence" not in shared:
        return laws, None
    return laws, (shared["cadence"], shared.get("region") or BoxRegion(grid), shared.get("surface"))


class DiagnosticsEngine:
    """Evaluates a configured set of residual series along a run.

    The grid is ``nabla.grid``; every law reads the medium and the mode from
    the state it samples, so one engine measures a run in that run's terms.
    ``specs`` is a list of mappings with keys name, cadence (in steps),
    tolerance, region ({"lo": [...], "hi": [...]}) and surface (FluxSurface's
    arguments), all but the name optional; ``check_specs`` reads them.  Call
    ``sample(state, step)`` every step; at each window cadence the engine
    keeps the last two sampled states, evaluates the window they make with the
    newest, and keeps a tau-integral accumulator for the integral laws; it
    evaluates each series by its entry in ``LAWS``.

    Windows hold the sampled states, not copies, so a caller must not mutate a
    state in place after passing it to ``sample`` (rebind instead, as
    ``step_rk4`` does).  A record of a state lives for one sample.  A series
    breaches its tolerance if any row is above it or is not finite.
    """

    def __init__(self, nabla: Nabla, specs):
        self.nabla = nabla
        self.series: dict[str, ResidualSeries] = {}
        self.cadence: dict[str, int] = {}
        self._windows: dict[int, deque] = {}
        self._acc: IntegralLawAccumulator | None = None
        self.delta_w: list[tuple[float, float]] = []
        self.classification: str | None = None
        laws, integral = check_specs(nabla.grid, specs)
        for name, (cad, tol) in laws.items():
            self.series[name] = ResidualSeries(name, tol)
            self.cadence[name] = cad
            if LAWS[name].kind == "window":
                self._windows.setdefault(cad, deque(maxlen=2))
        if integral is not None:
            self._acc_cadence, region, surface = integral
            self._acc = IntegralLawAccumulator(nabla, region, surface=surface)

    def _named(self, kind: str) -> list[str]:
        return [n for n in self.series if LAWS[n].kind == kind]

    def sample(self, state: SimState, step: int):
        rec = _Sample(self.nabla, state)
        for cad, win in self._windows.items():
            if step % cad == 0:
                if len(win) == 2:
                    self._eval_window(cad, (*(_Sample(self.nabla, s) for s in win), rec))
                win.append(state)
        for name in self._named("pointwise"):
            if step % self.cadence[name] == 0:
                self.series[name].append(state.tau, *LAWS[name].evaluate(self, rec))
        if self._acc is not None and step % self._acc_cadence == 0:
            self._acc.sample(rec)

    def _eval_window(self, cad: int, recs):
        t_m, t, t_p = (r.state.tau for r in recs)
        delta = t_p - t
        if not _uniform([t - t_m, delta]):  # run_scenario samples at a fixed cadence
            raise ValueError(f"centred differences need uniformly spaced snapshots, "
                             f"got tau = {t_m}, {t}, {t_p}")
        a, th = zip(*(r.totals for r in recs))
        for name in self._named("window"):
            if self.cadence[name] == cad:
                self.series[name].append(t, *LAWS[name].evaluate(self, recs, a, th, delta))

    def finalize(self) -> dict[str, ResidualSeries]:
        if self._acc is not None:
            rows = self._acc.finalize()
            for name in self._named("integral"):
                for row in LAWS[name].evaluate(rows):
                    self.series[name].append(*row)
        return self.series
