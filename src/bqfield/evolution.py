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

Every mode's right-hand side is dX/dtau = L X + f over the channels it
advances (``_rhs``).  The one linear operator L (``_linear``) moves A by
-i curl A, minus J where J also advances, and Theta by free transport
i nabla o Theta; f is maxwell's held -J, or the force -Theta o A' / kappa of
a partner field, the only nonlinear term.

Time stepping is classical RK4 under dtau <= cfl * min(h) (wave speed 1 in tau
units), its stages in the Nabla's derivative space: on spectral the Fourier
coefficients of the 2/3 band |k_i| <= n_i/3, on central4 physical space.  The
force is formed in physical space and taken into that space by the scheme's
``dealias`` (the 2/3 rule on spectral, none on central4).  So on spectral a
step projects the advanced channels, and maxwell's held J, onto the band, as
``build_state`` does the initial data; a force mode's first stage reads the
input's physical values as they are.

In ``maxwell`` and ``free_theta`` f is constant, and on spectral
``step_rk4`` applies classical RK4's map in closed form, X <- X + a L X +
b L L X + S: the same discrete map as the four stages, to round-off, for two
applications of L in place of four.  The per-wavenumber a, b and maxwell's
held source S are made once per run (``_closed_form``).
Force modes and central4 evaluate the four stages.

On spectral a state keeps the band coefficients of its advanced channels,
next to ``U``, until the next step takes them: ``build_state`` and every
step return them, and a step starts from them with no transform.  Without a
force (``maxwell``, ``free_theta``) a stepped state holds them alone and
makes ``U`` on first read; a force mode makes ``U`` in the step.  A step
drops the coefficients it took from its input if that input holds ``U``
too, so only the newest state holds both.  On central4 the coefficients are
``U``'s own channels, and a state holds ``U`` alone.  A stepped state shares
its input's held channels and the closed form's constants; so no step
writes them, and a caller must not write a stepped state's ``U`` in place
(build a new ``SimState`` instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .biquaternion import Biquaternion, ccross, cdot
from .fields import AField, ChargeCurrent, Grid, Medium, _positive
from .operators import DerivativeSpace, Nabla

__all__ = [
    "MODES",
    "StepperConfig",
    "SimState",
    "check_mode",
    "NumericalAbort",
    "free_theta_rhs",
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
        if _positive(self.cfl) is None:
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
    """A state's advanced channels in derivative space, kept until the next
    step takes them, and its physical held channels before (``lo``) and
    after (``hi``) them."""

    space: DerivativeSpace
    X: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def physical(self) -> np.ndarray:
        X = self.space.back(self.X)
        if not (self.lo.shape[1] or self.hi.shape[1]):  # the mode holds no channel
            return X
        return np.concatenate([self.lo, X, self.hi], axis=1)


def _take_in(space: DerivativeSpace, adv: slice, U: np.ndarray, held=lambda h: h) -> _Coefficients:
    """U's advanced channels ``adv`` taken into ``space``, and its held
    channels, physical, through ``held``."""
    return _Coefficients(space, space.to(U[:, adv]), held(U[:, : adv.start]), held(U[:, adv.stop :]))


class SimState:
    """Snapshot of all interacting fields at one tau.

    ``U`` is the (M, 7, nx, ny, nz) complex128 state, and ``background``
    strong_field's frozen A', (3, nx, ny, nz), given in no other mode.  A
    state that ``build_state`` or ``step_rk4`` returned on spectral also
    holds the band coefficients the next step starts from; where it holds
    only those, ``U`` is made on first read, next to them, and the step that
    takes them drops them.  The states of one run share their held channels
    and the closed form's constants, so ``U`` has no setter, and writing
    into it in place corrupts the later states.  ``grid`` and ``mode`` are
    fixed for the run and read-only: a new dtau or mode is a new SimState.
    """

    def __init__(self, tau: float, U: np.ndarray, grid: Grid, medium: Medium, mode: str,
                 background: np.ndarray | None = None):
        U = np.asarray(U, dtype=np.complex128)
        self.tau, self._grid, self.medium, self._mode = tau, grid, medium, mode
        self.background, self._U, self._coef, self._closed = background, U, None, None
        if U.ndim != 5 or U.shape[1] != 7 or U.shape[2:] != grid.n:
            raise ValueError(f"state shape {U.shape} is not (M, 7) + grid n {grid.n}")
        check_mode(mode, U.shape[0], background)

    def _stepped(self, tau: float, coef: _Coefficients, closed=None) -> "SimState":
        """The state at ``tau`` of this run, held as ``coef``, with the run's
        closed-form constants ``closed``."""
        new = object.__new__(SimState)
        new.tau, new._grid, new.medium, new._mode = tau, self.grid, self.medium, self.mode
        new.background, new._U, new._coef, new._closed = self.background, None, coef, closed
        return new

    grid = property(lambda self: self._grid)
    mode = property(lambda self: self._mode)

    @property
    def U(self) -> np.ndarray:
        if self._U is None:
            self._U = self._coef.physical()
        return self._U

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


def check_mode(mode: str, n_fields: int, background) -> None:
    """Raise ValueError unless ``mode`` is one of MODES, has two or more fields
    where its force needs a partner (interaction, united), and a background A'
    in strong_field and in no other mode: the one home of the mode rules."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode in ("interaction", "united") and n_fields < 2:
        raise ValueError(f"mode {mode!r} needs at least two fields, got {n_fields}")
    if (background is None) == (mode == "strong_field"):
        raise ValueError("mode 'strong_field' needs a background A'" if background is None
                         else f"only mode 'strong_field' takes a background A', not {mode!r}")


# -- right-hand sides ---------------------------------------------------------


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


def partner_field(state: SimState, k: int) -> np.ndarray | None:
    """Partner field A' acting on field k, or None where the mode has none.

    The frozen background in ``strong_field``; the sum of the other fields' A
    in ``interaction`` and ``united``, which take no background.
    """
    if state.mode not in _FORCED:
        return None
    if state.mode == "strong_field":
        return state.background
    return state.U[:, _A].sum(axis=0) - state.U[k, _A]


def _advanced(mode: str) -> slice:
    """The block of channels a mode advances: A and/or Theta."""
    return slice(3 if mode in _HOLDS_A else 0, 3 if mode == "maxwell" else 7)


def _linear(space, adv: slice, Y: np.ndarray) -> np.ndarray:
    """L Y for a field stack Y of the channels adv, in space's representation
    (a Nabla's physical arrays or its ``DerivativeSpace``'s).

    A moves by -i curl A, minus J where J also advances; Theta by free
    transport, i nabla o Theta (``free_theta_rhs``).
    """
    LY = np.empty_like(Y)
    for y, ly in zip(Y, LY):
        if adv.start == 0:
            np.multiply(space.curl(y[:3]), -1j, out=ly[:3])
            if adv.stop == 7:
                ly[:3] -= y[-3:]
        if adv.stop == 7:
            ly[-4], ly[-3:] = free_theta_rhs(space, y[-4], y[-3:])
    return LY


def _rhs(space, state: SimState, X: np.ndarray, held_J=None) -> np.ndarray:
    """L X + f for a field stack X of the channels the mode advances, in
    space's representation.

    f is maxwell's -J for the ``held_J`` given, or in a force mode
    -Theta o A' / kappa of each field's partner, formed from ``state`` in
    physical space and taken into space's representation by its ``dealias``.
    """
    dX = _linear(space, _advanced(state.mode), X)
    if held_J is not None:
        dX -= held_J
    if state.mode not in _FORCED:
        return dX
    for k in range(len(X)):
        fbq = _force_biquaternion(state.U[k, _RHO], state.U[k, _J], partner_field(state, k))
        SV = space.dealias(np.concatenate([fbq.scalar[None], fbq.vector]))
        dX[k, -4] -= 1j * SV[0] / state.medium.kappa
        dX[k, -3:] += SV[1:] / state.medium.kappa
    return dX


def state_rhs(state: SimState, nabla: Nabla) -> np.ndarray:
    """Time derivative of the full state array (zero in the channels held)."""
    U, adv = state.U, _advanced(state.mode)
    dU = np.zeros_like(U)
    dU[:, adv] = _rhs(nabla, state, U[:, adv], U[:, _J] if adv.stop < 7 else None)
    return dU


# -- stepping ------------------------------------------------------------------


def _resident(mode: str, nabla: Nabla) -> bool:
    """Whether step_rk4 returns its coefficients alone, with U made on first
    read, and steps by RK4's closed form.

    Only where that removes transforms: on spectral, in the modes whose
    stages never read the physical state.  A force mode reads physical rho, J
    and A' in stage 1 anyway, so it makes U in the step and keeps the
    coefficients next to it; central4's derivative space is physical.
    Returning coefficients alone everywhere was measured (perfbench, 4
    alternating pairs, 2-core host) to cost free-64-central4 a 10-17 % slower
    step and peak RSS 213.7 -> 225.6 MiB, and united-32-diag 133.4 -> 136.3
    MiB with the step level.
    """
    return nabla.scheme == "spectral" and mode not in _FORCED


class _ClosedForm(NamedTuple):
    """The closed form's constants for a run's grid.dtau (source: None in free_theta)."""

    a: np.ndarray
    b: np.ndarray
    source: np.ndarray | None


def _closed_form(space: DerivativeSpace, adv: slice, h: float, hi: np.ndarray) -> _ClosedForm:
    """Classical RK4's constants on the band for step h.

    For y' = L y + f with f constant, four stages make the polynomial
    y + (hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24) y + h (1 + hL/2 + (hL)^2/6 + (hL)^3/24) f.
    Where L^3 = -|k|^2 L it reduces to y + a L y + b L L y + h (f + p1 L f + p2 L L f).
    maxwell's f is -J of the held channels ``hi``.
    """
    k2 = space.k2()
    source = None
    if adv.stop < 7:
        source = _rk4_polynomial(space, adv, space.to(hi[:, 1:]), h / 2 - h**3 * k2 / 24, h**2 / 6)
        source *= -h
    return _ClosedForm(h - h**3 * k2 / 6, h**2 / 2 - h**4 * k2 / 24, source)


def _rk4_polynomial(space: DerivativeSpace, adv: slice, Y: np.ndarray, c1, c2) -> np.ndarray:
    """Y + c1 L Y + c2 L L Y, with per-wavenumber c1 and c2."""
    LY = _linear(space, adv, Y)
    out = _linear(space, adv, LY)
    out *= c2
    LY *= c1
    out += LY
    out += Y
    return out


def step_rk4(
    state: SimState, nabla: Nabla, config: StepperConfig, steps_done: int = 0
) -> tuple[SimState, None]:
    """One classical RK4 step of length grid.dtau, in nabla's derivative space
    (the 2/3 band on spectral).

    Where ``_resident`` holds (maxwell and free_theta on spectral) the system
    is linear with constant coefficients, so the four stages and their
    combine collapse into one per-wavenumber update,

        X <- X + a L X + b L L X + S,
        a = h - h^3 |k|^2 / 6,  b = h^2 / 2 - h^4 |k|^2 / 24,

    with L = -i curl (maxwell) or i nabla o (free_theta), the L of every
    stage.  On the band L^3 = -|k|^2 L (maxwell: L = k x; free transport:
    L^2 = -|k|^2), which folds the cubic and quartic terms of RK4's
    polynomial into a and b: it is classical RK4's own discrete map, to
    round-off, with half the derivative work of the stages.
    S = -h (J + p1 L J + p2 L L J), p1 = h/2 - h^3 |k|^2 / 24, p2 = h^2 / 6,
    is maxwell's held source; free_theta has none.  a, b and S are made once
    per run, for its frozen grid's dtau, and kept on its states.  Force modes
    and central4 (where |d(k)|^2 is no stencil) run the four stages on the
    same L X + f.

    A step starts from its input's band coefficients where it holds them,
    else from ``U``, and checks the held channels for finiteness once per
    run where the closed form is kept, else on every step.

    Returns (new_state, None): the pair is kept only because benchmark
    harnesses that wrap this function read the state as ``[0]``.
    Raises NumericalAbort (carrying the last good state) on non-finite values.
    """
    config.check_step(state.grid)
    dt = state.grid.dtau
    space, adv, resident = nabla.space, _advanced(state.mode), _resident(state.mode, nabla)
    _, X0, lo, hi = state._coef or _take_in(space, adv, state.U)
    closed = state._closed if resident else None
    # held channels never change, and a rhs need not read them all: checked
    # once per run where the closed form is kept, else on every step
    if closed is None and not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise NumericalAbort(state.tau, steps_done + 1, state)
    if resident:
        if closed is None:
            closed = _closed_form(space, adv, dt, hi)
        X = _rk4_polynomial(space, adv, X0, closed.a, closed.b)
        if closed.source is not None:
            X += closed.source
    else:
        held_J = space.to(hi[:, 1:]) if adv.stop < 7 else None

        def rhs(X, tau):
            at = state  # force modes read stages 2-4 back in physical space
            if state.mode in _FORCED and X is not X0:
                at = state._stepped(tau, _Coefficients(space, X, lo, hi))
            return _rhs(space, at, X, held_J)

        # acc gathers k1 + 2 k2 + 2 k3 + k4 in that order; k is rebound before acc changes
        acc = k = rhs(X0, state.tau)
        for c, w in ((dt / 2, 2), (dt / 2, 2), (dt, 1)):
            k = rhs(X0 + c * k, state.tau + c)
            acc += w * k
        X = X0 + (dt / 6) * acc
    # a non-finite value in physical space spreads to every coefficient
    if not np.isfinite(X).all():
        raise NumericalAbort(state.tau, steps_done + 1, state)
    new = state._stepped(state.tau + dt, _Coefficients(space, X, lo, hi), closed)
    if not resident:
        new.U  # made here, as _resident says there is nothing to save
        if nabla.scheme != "spectral":
            new._coef = None  # central4's coefficients are U's channels: hold one copy
    if state._U is not None:
        state._coef = None  # taken: only the newest state holds both forms
    return new, None


# -- field totals ---------------------------------------------------------------


def field_totals(state: SimState) -> tuple[AField, ChargeCurrent]:
    """Summed field and summed charge-current over all interacting fields."""
    A = state.U[:, _A].sum(axis=0)
    rho = state.U[:, _RHO].sum(axis=0)
    J = state.U[:, _J].sum(axis=0)
    return AField(state.grid, A), ChargeCurrent(state.grid, rho, J)
