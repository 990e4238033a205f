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
units), its stages in the Nabla's derivative space: on spectral the Fourier
coefficients of the 2/3 band |k_i| <= n_i/3, on central4 physical space.  The
quadratic coupling -Theta o A', the only nonlinear term, is formed in physical
space and taken into that space by the scheme's ``dealias`` (the 2/3 rule on
spectral, none on central4).  So on spectral a step projects the advanced
channels, and maxwell's held J, onto the band, as ``build_state`` does the
initial data; a force mode's first stage reads the input's physical values
as they are.

A state holds one representation of its advanced channels.  In the modes
without a force (``maxwell``, ``free_theta``) on the spectral scheme,
``step_rk4`` returns a state that keeps the band coefficients it produced,
and the next step starts from them with no transform; physical ``U`` is made
on first read and the coefficients are dropped.  A stepped state shares its
input's held channels and, in maxwell, the coefficients of the held J, which
it keeps past a read; so no step writes them, and a caller must not write a
state's ``U`` in place once it has been stepped (assign ``state.U`` instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
_HOLDS_A = ("free_theta", "strong_field")  # the modes whose step does not advance A


@dataclass(frozen=True, slots=True)
class StepperConfig:
    """Classical RK4 stepper settings."""

    scheme: str = "rk4"
    cfl: float = 0.25

    def __post_init__(self):
        if self.scheme != "rk4":
            raise ValueError(f"scheme must be 'rk4' (classical RK4), got {self.scheme!r}")
        if not self.cfl > 0:
            raise ValueError(f"cfl must be positive, got {self.cfl}")

    def check_step(self, grid: Grid) -> None:
        """Raise ValueError unless grid.dtau keeps the step bound cfl * min(h)."""
        bound = self.cfl * min(grid.h)
        if not grid.dtau <= bound * (1 + 1e-12):
            raise ValueError(f"dtau = {grid.dtau} violates the step bound cfl * min(h) = {bound}")


class NumericalAbort(RuntimeError):
    """Raised when the state stops being finite; carries the last good state."""

    def __init__(self, tau: float, steps: int, state: "SimState"):
        super().__init__(f"non-finite state after step {steps} (last good tau = {tau:.6g})")
        self.tau = tau
        self.steps = steps
        self.state = state


class _Coefficients(NamedTuple):
    """A stepped state before its first read: the advanced channels in
    derivative space and views of the held channels before (``lo``) and after
    (``hi``) them."""

    space: DerivativeSpace
    X: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def physical(self) -> np.ndarray:
        return np.concatenate([self.lo, self.space.back(self.X), self.hi], axis=1)


class SimState:
    """Snapshot of all interacting fields at one tau.

    ``U`` is the (M, 7, nx, ny, nz) complex state.  A state that ``step_rk4``
    returned may instead hold the coefficients it produced; then ``U`` is made
    on first read, and the state keeps it and drops the coefficients.  The
    states of one run share their held channels and maxwell's held-J
    coefficients, so ``U`` is read-only by contract: assigning ``state.U``
    drops all of them, writing into it in place corrupts the later states.
    """

    def __init__(self, tau: float, U: np.ndarray, grid: Grid, medium: Medium, mode: str,
                 background: np.ndarray | None = None):
        self.tau, self.grid, self.medium, self.mode = tau, grid, medium, mode
        self.background = background  # frozen A' for strong_field, (3, nx, ny, nz)
        self._U, self._coef, self._held_J = U, None, None
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if U.ndim != 5 or U.shape[1] != 7 or U.shape[2:] != grid.n:
            raise ValueError(f"state shape {U.shape} is not (M, 7) + grid n {grid.n}")
        if mode == "strong_field" and background is None:
            raise ValueError("strong_field mode needs a background A'")

    def _stepped(self, tau: float, coef: _Coefficients, held_J=None) -> "SimState":
        """The state at ``tau`` of this run, held as ``coef``."""
        new = object.__new__(SimState)
        new.tau, new.grid, new.medium, new.mode = tau, self.grid, self.medium, self.mode
        new.background, new._U, new._coef, new._held_J = self.background, None, coef, held_J
        return new

    @property
    def U(self) -> np.ndarray:
        if self._U is None:
            self._U, self._coef = self._coef.physical(), None
        return self._U

    @U.setter
    def U(self, U: np.ndarray) -> None:
        self._U, self._coef, self._held_J = U, None, None

    @property
    def n_fields(self) -> int:
        return (self._coef.X if self._U is None else self._U).shape[0]

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


def interaction_rhs(nabla: Nabla, medium: Medium, rho: np.ndarray, J: np.ndarray, Aprime: np.ndarray,
                    physical: tuple[np.ndarray, np.ndarray] | None = None):
    """(drho, dJ) for kappa D- Theta = -Theta o A' with A' given.

    The scalar part gives drho = -div J - i S / kappa and the vector part
    dJ = -grad rho + i curl J + V / kappa, where S + V = -Theta o A'.  The
    force reads ``physical`` = (rho, J) where nabla is a ``DerivativeSpace``,
    and is 2/3-filtered by the scheme's ``dealias``.
    """
    drho, dJ = free_theta_rhs(nabla, rho, J)
    fbq = _force_biquaternion(*(physical or (rho, J)), Aprime)
    SV = nabla.dealias(np.concatenate([fbq.scalar[None], fbq.vector]))
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
    return slice(3 if mode in _HOLDS_A else 0, 3 if mode == "maxwell" else 7)


def _blocks(X: np.ndarray, adv: slice, J=None):
    """(A, rho, J) views of a stack of the channels adv, else None (or the given J)."""
    theta = adv.stop == 7
    return X[:, :3] if adv.start == 0 else None, X[:, -4] if theta else None, X[:, -3:] if theta else J


def _fields_rhs(nabla, state: SimState, src, dst) -> None:
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
                nabla, state.medium, rho[k], J[k], Ap, (state.U[k, _RHO], state.U[k, _J])
            )


def state_rhs(state: SimState, nabla: Nabla) -> np.ndarray:
    """Time derivative of the full state array (zero in the channels held)."""
    dU = np.zeros_like(state.U)
    _fields_rhs(nabla, state, _blocks(state.U, slice(0, 7)), _blocks(dU, _advanced(state.mode)))
    return dU


# -- stepping ------------------------------------------------------------------


def _resident(mode: str, nabla: Nabla) -> bool:
    """Whether step_rk4 returns its coefficients rather than physical U.

    Only where that removes transforms: on spectral, in the modes whose
    stages never read the physical state.  A force mode reads physical rho, J
    and A' in stage 1 anyway, and central4's derivative space is physical.
    Returning coefficients everywhere was measured (perfbench, 4 alternating
    pairs, 2-core host) to cost free-64-central4 a 10-17 % slower step and
    peak RSS 213.7 -> 225.6 MiB, and united-32-diag 133.4 -> 136.3 MiB with
    the step level.
    """
    return nabla.scheme == "spectral" and mode not in _FORCED


def step_rk4(
    state: SimState, nabla: Nabla, config: StepperConfig, steps_done: int = 0
) -> tuple[SimState, None]:
    """One classical RK4 step of length grid.dtau, in nabla's derivative space
    (the 2/3 band on spectral).

    Returns (new_state, None): the pair is kept only because benchmark
    harnesses that wrap this function read the state as ``[0]``.
    Raises NumericalAbort (carrying the last good state) on non-finite values.
    """
    config.check_step(state.grid)
    dt = state.grid.dtau
    space, adv, resident = nabla.space, _advanced(state.mode), _resident(state.mode, nabla)
    if resident and state._coef is not None:
        _, X0, lo, hi = state._coef
    else:
        U = state.U
        X0, lo, hi = space.to(U[:, adv]), U[:, : adv.start], U[:, adv.stop :]
        # held channels never change, and a rhs need not read them all
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise NumericalAbort(state.tau, steps_done + 1, state)
    held_J = None
    if adv.stop < 7:  # maxwell's source, the same in every state of the run
        held_J = state._held_J if resident and state._held_J is not None else space.to(hi[:, 1:])

    def rhs(X, tau):
        at = state  # force modes read stages 2-4 back in physical space
        if state.mode in _FORCED and X is not X0:
            at = state._stepped(tau, _Coefficients(space, X, lo, hi))
        dX = np.empty_like(X)
        _fields_rhs(space, at, _blocks(X, adv, held_J), _blocks(dX, adv))
        return dX

    # acc gathers k1 + 2 k2 + 2 k3 + k4 in that order; k is rebound before acc changes
    acc = k = rhs(X0, state.tau)
    for c, w in ((dt / 2, 2), (dt / 2, 2), (dt, 1)):
        k = rhs(X0 + c * k, state.tau + c)
        acc += w * k
    X = X0 + (dt / 6) * acc
    # a non-finite value in physical space spreads to every coefficient
    if not np.isfinite(X).all():
        raise NumericalAbort(state.tau, steps_done + 1, state)
    new = state._stepped(state.tau + dt, _Coefficients(space, X, lo, hi), held_J if resident else None)
    if not resident:
        new.U  # made here, as _resident says there is nothing to save
    return new, None


# -- field totals ---------------------------------------------------------------


def field_totals(state: SimState) -> tuple[AField, ChargeCurrent]:
    """Summed field and summed charge-current over all interacting fields."""
    A = state.U[:, _A].sum(axis=0)
    rho = state.U[:, _RHO].sum(axis=0)
    J = state.U[:, _J].sum(axis=0)
    return AField(state.grid, A), ChargeCurrent(state.grid, rho, J)
