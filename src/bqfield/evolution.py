"""Method-of-lines evolution for the field/current systems.

State layout: one complex array U of shape (M, 7, nx, ny, nz) holding, per
interacting field, channels [0:3] = A, [3] = rho, [4:7] = J.  Modes:

* ``maxwell``      -- dA/dtau = -i curl A - J with Theta held fixed,
* ``free_theta``   -- drho = -div J,  dJ = -grad rho + i curl J,
* ``interaction``  -- each field couples through kappa D- Theta_k = -Theta_k o A'_k
                      with A'_k the sum of the other fields' A,
* ``strong_field`` -- like interaction but A' is a frozen background and the
                      field's own A is not advanced,
* ``united``       -- interaction dynamics; the summed field is diagnosed as free.

Time stepping is classical RK4 under dtau <= cfl * min(h) (wave speed 1 in tau
units), its stages in derivative space (Fourier coefficients on spectral).  The
quadratic coupling -Theta o A', the only nonlinear term, is formed in physical
space and filtered with the 2/3 rule, so band-limited data stays alias-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .biquaternion import Biquaternion, ccross, cdot
from .fields import AField, ChargeCurrent, Grid, Medium
from .operators import DerivativeSpace, Nabla

__all__ = [
    "MODES",
    "StepperConfig",
    "SimState",
    "NumericalAbort",
    "maxwell_rhs",
    "free_theta_rhs",
    "interaction_rhs",
    "partner_field",
    "state_rhs",
    "step_rk4",
    "field_totals",
]

MODES = ("maxwell", "free_theta", "interaction", "strong_field", "united")

_A = slice(0, 3)
_RHO = 3
_J = slice(4, 7)
_FORCED = ("strong_field", "interaction", "united")


@dataclass(frozen=True, slots=True)
class StepperConfig:
    """Classical RK4 stepper settings."""

    scheme: str = "rk4"
    cfl: float = 0.25
    constraint_projection: bool = False
    dealias: bool = True

    def __post_init__(self):
        if self.scheme != "rk4":
            raise ValueError(f"only the classical rk4 scheme is provided, got {self.scheme!r}")
        if not self.cfl > 0:
            raise ValueError(f"cfl must be positive, got {self.cfl}")

    def max_dtau(self, grid: Grid) -> float:
        return self.cfl * min(grid.h)


class NumericalAbort(RuntimeError):
    """Raised when the state stops being finite; carries the last good state."""

    def __init__(self, tau: float, steps: int, state: "SimState"):
        super().__init__(f"non-finite state after step {steps} (last good tau = {tau:.6g})")
        self.tau = tau
        self.steps = steps
        self.state = state


@dataclass(eq=False)
class SimState:
    """Snapshot of all interacting fields at one tau."""

    tau: float
    U: np.ndarray  # (M, 7, nx, ny, nz) complex
    grid: Grid
    medium: Medium
    mode: str
    background: np.ndarray | None = None  # frozen A' for strong_field, (3, nx, ny, nz)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.U.ndim != 5 or self.U.shape[1] != 7 or self.U.shape[2:] != self.grid.n:
            raise ValueError(f"state shape {self.U.shape} is not (M, 7) + grid n {self.grid.n}")
        if self.mode == "strong_field" and self.background is None:
            raise ValueError("strong_field mode needs a background A'")

    @property
    def n_fields(self) -> int:
        return self.U.shape[0]

    def afield(self, k: int = 0) -> AField:
        return AField(self.grid, self.U[k, _A])

    def theta(self, k: int = 0) -> ChargeCurrent:
        return ChargeCurrent(self.grid, self.U[k, _RHO], self.U[k, _J])

    def copy(self) -> "SimState":
        return SimState(
            self.tau, self.U.copy(), self.grid, self.medium, self.mode, self.background
        )


# -- right-hand sides ---------------------------------------------------------


def maxwell_rhs(nabla: Nabla, A: np.ndarray, J: np.ndarray) -> np.ndarray:
    """dA/dtau from dA/dtau + i curl A + J = 0."""
    return -1j * nabla.curl(A) - J


def free_theta_rhs(nabla: Nabla, rho: np.ndarray, J: np.ndarray):
    """(drho, dJ) for the source-free current system D- Theta = 0.

    With Theta = i rho + J this is dTheta/dtau = i nabla o Theta.
    """
    g = nabla.quaternion_gradient(Biquaternion(1j * rho, J))
    return g.scalar, 1j * g.vector


def _force_biquaternion(rho, J, Aprime) -> Biquaternion:
    """Power-force density F = -Theta o A' for pure-vector A'."""
    # scalar: -(i rho * 0 - (J, A')) = (J, A'); vector: -(i rho A' + [J, A'])
    return Biquaternion(cdot(J, Aprime), -1j * rho * Aprime - ccross(J, Aprime))


def interaction_rhs(
    nabla: Nabla,
    medium: Medium,
    rho: np.ndarray,
    J: np.ndarray,
    Aprime: np.ndarray,
    config: StepperConfig,
    physical: tuple[np.ndarray, np.ndarray] | None = None,
):
    """(drho, dJ) for kappa D- Theta = -Theta o A' with A' given.

    The scalar part gives drho = -div J - i S / kappa and the vector part
    dJ = -grad rho + i curl J + V / kappa, where S + V = -Theta o A'.  The
    force reads ``physical`` = (rho, J) where nabla is a ``DerivativeSpace``.
    """
    drho, dJ = free_theta_rhs(nabla, rho, J)
    fbq = _force_biquaternion(*(physical or (rho, J)), Aprime)
    SV = nabla.product_term(np.concatenate([fbq.scalar[None], fbq.vector]), config.dealias)
    return drho - 1j * SV[0] / medium.kappa, dJ + SV[1:] / medium.kappa


def partner_field(state: SimState, k: int) -> np.ndarray | None:
    """Partner field A' acting on field k, or None where the mode has none.

    The frozen background in ``strong_field``; the sum of the other fields' A
    (plus any background) in ``interaction`` and ``united``.
    """
    if state.mode not in _FORCED:
        return None
    if state.mode == "strong_field":
        return state.background
    Ap = state.U[:, _A].sum(axis=0) - state.U[k, _A]
    return Ap if state.background is None else Ap + state.background


def _advanced(mode: str) -> slice:
    """The block of channels a mode advances: A and/or Theta."""
    return slice(3 if mode in ("free_theta", "strong_field") else 0, 3 if mode == "maxwell" else 7)


def _blocks(X: np.ndarray, adv: slice, J=None):
    """(A, rho, J) views of a stack of the channels adv, else None (or the given J)."""
    theta = adv.stop == 7
    return X[:, :3] if adv.start == 0 else None, X[:, -4] if theta else None, X[:, -3:] if theta else J


def _fields_rhs(nabla, state: SimState, src, dst, config: StepperConfig) -> None:
    """Fill dst = (dA, drho, dJ) (None where held) from src = (A, rho, J),
    field stacks in nabla's space; the force reads ``state``, in physical space.

    A advances by the Maxwell law except in ``free_theta`` and
    ``strong_field``; Theta is held in ``maxwell`` and otherwise moves by free
    transport plus the force of its partner field, where it has one.
    """
    (A, rho, J), (dA, drho, dJ) = src, dst
    for k in range(state.n_fields):
        if dA is not None:
            dA[k] = maxwell_rhs(nabla, A[k], J[k])
        if drho is None:
            continue
        Ap = partner_field(state, k)
        if Ap is None:
            drho[k], dJ[k] = free_theta_rhs(nabla, rho[k], J[k])
        else:
            drho[k], dJ[k] = interaction_rhs(
                nabla, state.medium, rho[k], J[k], Ap, config, (state.U[k, _RHO], state.U[k, _J])
            )


def state_rhs(state: SimState, nabla: Nabla, config: StepperConfig) -> np.ndarray:
    """Time derivative of the full state array (zero in the channels held)."""
    dU = np.zeros_like(state.U)
    _fields_rhs(nabla, state, _blocks(state.U, slice(0, 7)), _blocks(dU, _advanced(state.mode)), config)
    return dU


# -- stepping ------------------------------------------------------------------


def step_rk4(
    state: SimState, nabla: Nabla, config: StepperConfig, steps_done: int = 0
) -> tuple[SimState, float | None]:
    """One classical RK4 step of length grid.dtau, in derivative space.

    Returns (new_state, constraint_drift).  With constraint_projection on, the
    evolved rho of every field is replaced by div A after the step and the
    pre-projection max |rho - div A| is reported; otherwise drift is None.
    Raises NumericalAbort (carrying the last good state) on non-finite values.
    """
    dt = state.grid.dtau
    if not dt <= config.max_dtau(state.grid) * (1 + 1e-12):
        raise ValueError(f"dtau={dt} violates cfl bound {config.max_dtau(state.grid)}")
    U, space, adv = state.U, DerivativeSpace(nabla), _advanced(state.mode)
    X0 = space.to(U[:, adv])
    held_J = None if adv.stop == 7 else space.to(U[:, _J])  # maxwell's source

    def physical(X) -> np.ndarray:
        return np.concatenate([U[:, : adv.start], space.back(X), U[:, adv.stop :]], axis=1)

    def rhs(X, tau):
        at = state  # force modes read stages 2-4 back in physical space
        if state.mode in _FORCED and X is not X0:
            at = SimState(tau, physical(X), state.grid, state.medium, state.mode, state.background)
        dX = np.empty_like(X)
        _fields_rhs(space, at, _blocks(X, adv, held_J), _blocks(dX, adv), config)
        return dX

    # acc gathers k1 + 2 k2 + 2 k3 + k4 in that order; k is rebound before acc changes
    acc = k = rhs(X0, state.tau)
    for c, w in ((dt / 2, 2), (dt / 2, 2), (dt, 1)):
        k = rhs(X0 + c * k, state.tau + c)
        acc += w * k
    Unew = physical(X0 + (dt / 6) * acc)
    if not np.isfinite(Unew).all():
        raise NumericalAbort(state.tau, steps_done + 1, state)
    new = SimState(state.tau + dt, Unew, state.grid, state.medium, state.mode, state.background)
    drift = None
    if config.constraint_projection and state.mode not in ("free_theta", "strong_field"):
        drift = 0.0
        for k in range(new.n_fields):
            div_a = nabla.div(new.U[k, _A])
            drift = max(drift, float(np.abs(new.U[k, _RHO] - div_a).max()))
            new.U[k, _RHO] = div_a
    return new, drift


# -- field totals ---------------------------------------------------------------


def field_totals(state: SimState) -> tuple[AField, ChargeCurrent]:
    """Summed field and summed charge-current over all interacting fields."""
    A = state.U[:, _A].sum(axis=0)
    rho = state.U[:, _RHO].sum(axis=0)
    J = state.U[:, _J].sum(axis=0)
    return AField(state.grid, A), ChargeCurrent(state.grid, rho, J)
