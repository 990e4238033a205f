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
units).  The quadratic coupling -Theta o A' is the only nonlinear term and is
filtered with the 2/3 rule, so band-limited data stays alias-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .biquaternion import Biquaternion, ccross, cdot
from .fields import AField, ChargeCurrent, Grid, Medium
from .operators import Nabla

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


@dataclass(frozen=True, slots=True)
class StepperConfig:
    """Classical RK4 stepper settings."""

    scheme: str = "rk4"
    cfl: float = 0.25
    constraint_projection: bool = False
    dealias: bool = True

    def __post_init__(self):
        assert self.scheme == "rk4", f"only the classical rk4 scheme is provided, got {self.scheme!r}"
        assert self.cfl > 0, f"cfl must be positive, got {self.cfl}"

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
        assert self.mode in MODES, f"unknown mode {self.mode!r}"
        assert self.U.ndim == 5 and self.U.shape[1] == 7, f"bad state shape {self.U.shape}"
        assert self.U.shape[2:] == self.grid.n, "state does not match grid"
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
):
    """(drho, dJ) for kappa D- Theta = -Theta o A' with A' given.

    The scalar part gives drho = -div J - i S / kappa and the vector part
    dJ = -grad rho + i curl J + V / kappa, where S + V = -Theta o A'.
    """
    drho, dJ = free_theta_rhs(nabla, rho, J)
    fbq = _force_biquaternion(rho, J, Aprime)
    S, V = fbq.scalar, fbq.vector
    if config.dealias:
        SV = nabla.dealias(np.concatenate([S[None], V]))
        S, V = SV[0], SV[1:]
    drho = drho - 1j * S / medium.kappa
    dJ = dJ + V / medium.kappa
    return drho, dJ


def partner_field(state: SimState, k: int) -> np.ndarray | None:
    """Partner field A' acting on field k, or None where the mode has none.

    The frozen background in ``strong_field``; the sum of the other fields' A
    (plus any background) in ``interaction`` and ``united``.
    """
    if state.mode == "strong_field":
        return state.background
    if state.mode not in ("interaction", "united"):
        return None
    Ap = state.U[:, _A].sum(axis=0) - state.U[k, _A]
    return Ap if state.background is None else Ap + state.background


def state_rhs(state: SimState, nabla: Nabla, config: StepperConfig) -> np.ndarray:
    """Time derivative of the full state array for the state's mode.

    A advances by the Maxwell law except in ``free_theta`` and
    ``strong_field``; Theta is held in ``maxwell`` and otherwise moves by free
    transport plus the force of its partner field, where it has one.
    """
    U, mode = state.U, state.mode
    dU = np.zeros_like(U)
    for k in range(state.n_fields):
        if mode not in ("free_theta", "strong_field"):
            dU[k, _A] = maxwell_rhs(nabla, U[k, _A], U[k, _J])
        if mode == "maxwell":
            continue
        Ap = partner_field(state, k)
        if Ap is None:
            dU[k, _RHO], dU[k, _J] = free_theta_rhs(nabla, U[k, _RHO], U[k, _J])
        else:
            dU[k, _RHO], dU[k, _J] = interaction_rhs(
                nabla, state.medium, U[k, _RHO], U[k, _J], Ap, config
            )
    return dU


# -- stepping ------------------------------------------------------------------


def step_rk4(
    state: SimState, nabla: Nabla, config: StepperConfig, steps_done: int = 0
) -> tuple[SimState, float | None]:
    """One classical RK4 step of length grid.dtau.

    Returns (new_state, constraint_drift).  With constraint_projection on, the
    evolved rho of every field is replaced by div A after the step and the
    pre-projection max |rho - div A| is reported; otherwise drift is None.
    Raises NumericalAbort (carrying the last good state) on non-finite values.
    """
    dt = state.grid.dtau
    assert dt <= config.max_dtau(state.grid) * (1 + 1e-12), (
        f"dtau={dt} violates cfl bound {config.max_dtau(state.grid)}"
    )
    k1 = state_rhs(state, nabla, config)
    s2 = SimState(state.tau + dt / 2, state.U + (dt / 2) * k1, state.grid, state.medium, state.mode, state.background)
    k2 = state_rhs(s2, nabla, config)
    s3 = SimState(state.tau + dt / 2, state.U + (dt / 2) * k2, state.grid, state.medium, state.mode, state.background)
    k3 = state_rhs(s3, nabla, config)
    s4 = SimState(state.tau + dt, state.U + dt * k3, state.grid, state.medium, state.mode, state.background)
    k4 = state_rhs(s4, nabla, config)
    Unew = state.U + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
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
