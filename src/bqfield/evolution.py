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
advances.  The one linear operator L (``_linear``) moves A by -i curl A,
minus J where J also advances, and Theta by free transport i nabla o Theta;
f is maxwell's held -J, or the force -Theta o A' / kappa of a partner field
(``_add_f``), the only nonlinear term.

Time stepping is classical RK4 under dtau <= cfl * min(h) (wave speed 1 in tau
units), in the Nabla's band representation: on spectral the Fourier
coefficients of the 2/3 band |k_i| <= n_i/3, on central4 physical space.
The force is formed in physical space and taken onto the band by
``Nabla.to_band`` (the 2/3 rule on spectral, none on central4).  So on
spectral a step projects the advanced channels onto the band, as
``build_state`` does the initial data; a force mode's first stage reads the
input's physical values as they are.

In ``maxwell`` and ``free_theta`` f is constant, so one RK4 step is one
polynomial in L, applied with no stage loop and made once per run
(``_closed_form``, kept on the run's held block).  Spectral maxwell steps
A in the helicity basis of the band curl (``Nabla.to_helicity``), where the
map is two complex gains g+- per band wavenumber and 1 on the longitudinal
component, with no derivative; step 1 rotates the coefficients into it,
and a read of ``U`` rotates the whole band back (``Nabla.from_helicity``)
and scatters it (``Nabla.from_band``).  free_theta on spectral and both
modes on central4 apply it by one Horner evaluator (``_horner``) on
coefficients the scheme picks (central4 holds physical arrays, not
wavenumbers).  Force modes evaluate the four stages; besides its input
state, a stage step holds three stacks of the advanced channels (the sum
of the k, one stage input that is also the scratch for w k, and the
current k) and one right-hand side's temporaries.

A state keeps the band coefficients of its advanced channels, next to
``U``, until the next step takes them: on spectral ``build_state`` and every
step return them, and on both schemes maxwell and free_theta steps do.  A
step on their scheme starts from them with no transform (a step on another
scheme takes ``U`` in).  maxwell and free_theta hold them alone and make
``U`` on first read; a force mode makes ``U`` in the step, and on central4,
where the coefficients are ``U``'s own channels, holds ``U`` alone.  A step
drops the coefficients it took from its input if that input holds ``U``
too, so only the newest state holds both.

The held channels (maxwell's Theta, A where Theta alone advances) never
change, so a run keeps them once, as one block (``_Held``) its states share,
with the run's closed form; no step writes them, and a caller must not
write a stepped state's ``U`` in place (build a new ``SimState`` instead).
A block of ``build_state``'s initial data goes onto the band in step 1, where
maxwell's source reads J, and its physical form is made from the band on
first need; a block taken from a state's ``U`` is those arrays (on central4,
in a run that keeps its coefficients, a copy of its own).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .biquaternion import Biquaternion, ccross, cdot
from .fields import AField, ChargeCurrent, Grid, Medium, _finite, _positive
from .operators import Nabla

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
        if (cfl := _positive(self.cfl)) is None:
            raise ValueError(f"cfl must be positive, got {self.cfl}")
        object.__setattr__(self, "cfl", cfl)

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


def _all_finite(X: np.ndarray) -> bool:
    """Whether every value of X is finite.  One sum decides where it is
    finite, as an IEEE sum with a NaN or infinite term never is; only a sum
    that is not (a NaN, or an overflow of finite values) is checked value
    by value."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(X.sum()):
            return True
    return bool(np.isfinite(X).all())


class _Held:
    """A run's held channels ``rows``, one block shared by its states.

    ``band`` and ``physical`` are made once each, on first need.  A block of
    initial data (``filtered``, from ``build_state``) goes onto the band
    whole and then lets go of the array it was given; its physical form is
    made from the band, so it is the data's ``Nabla.dealias``.  Any other
    block is physical as given.  ``closed`` is the run's RK4 map
    (``_closed_form``) in maxwell and free_theta, set by their first step:
    spectral maxwell's two gains g+- per wavenumber, else ``_horner``'s
    stage coefficients, next to maxwell's held source (in the helicity
    basis on spectral).
    """

    def __init__(self, nabla: Nabla, rows: slice, given: np.ndarray, filtered: bool):
        self.nabla, self.rows, self.filtered = nabla, rows, filtered
        self._given, self._band, self._finite, self.closed = given, None, None, None
        self._physical = None if filtered else given

    def band(self) -> np.ndarray:
        if self._band is None:
            self._band, self._given = self.nabla.to_band(self._given), None
        return self._band

    def physical(self) -> np.ndarray:
        if self._physical is None:
            self._physical = self.nabla.from_band(self.band())
        return self._physical

    def finite(self) -> bool:
        """Whether the block is finite, checked once: on the band where
        filtered (a non-finite value spreads to all its coefficients)."""
        if self._finite is None:
            self._finite = _all_finite(self.band() if self.filtered else self._physical)
        return self._finite

    def band_J(self) -> np.ndarray:
        """maxwell's held J on the band: from the whole block's band where
        filtered, else J alone taken in."""
        return self.band()[:, 1:] if self.filtered else self.nabla.to_band(self._physical[:, 1:])


class _Coefficients(NamedTuple):
    """A state's advanced channels on its Nabla's band, kept until the next
    step takes them, and its run's held block (None where the mode holds no
    channel).  ``helical`` where X holds A's ``Nabla.to_helicity``
    components (a spectral maxwell step's), else the Cartesian ones."""

    nabla: Nabla
    X: np.ndarray
    held: _Held | None
    helical: bool = False

    def physical(self) -> np.ndarray:
        """``U`` as one array: the held rows copied in, and the advanced
        ones (rotated back where helical) transformed in their own slice."""
        X = self.nabla.from_helicity(self.X) if self.helical else self.X
        if self.held is None:
            return self.nabla.from_band(X)
        H = self.held.physical()
        U = np.empty((len(X), 7) + self.nabla.grid.n, np.result_type(H, X))
        U[:, self.held.rows] = H
        self.nabla.from_band(X, out=U[:, 3:] if self.held.rows.start == 0 else U[:, :3])
        return U


def _take_in(nabla: Nabla, adv: slice, U: np.ndarray, filtered: bool = False,
             copy: bool = False) -> _Coefficients:
    """U's advanced channels ``adv`` taken onto ``nabla``'s band, and its held
    block: initial data to filter, or physical as given (a copy where ``copy``)."""
    rows = slice(adv.stop, 7) if adv.start == 0 else slice(0, adv.start)
    held = None
    if rows.start < rows.stop:
        held = _Held(nabla, rows, U[:, rows].copy() if copy else U[:, rows], filtered)
    return _Coefficients(nabla, nabla.to_band(U[:, adv]), held)


class SimState:
    """Snapshot of all interacting fields at one tau.

    ``U`` is the (M, 7, nx, ny, nz) complex128 state, and ``background``
    strong_field's frozen A', complex128 of shape (3, nx, ny, nz), given in
    no other mode; ``tau`` a finite real number, held as a float.  A state
    that ``build_state`` returned on spectral, or ``step_rk4`` on spectral
    or in maxwell and free_theta, also holds the band coefficients the next
    step starts from; where it holds only those,
    ``U`` is made on first read, next to them, and the step that takes them
    drops them.  The states of one run share their held channels and the
    closed form's constants, so ``U`` has no setter, and writing into it in
    place corrupts the later states.  ``grid`` and ``mode`` are fixed for
    the run and read-only: a new dtau or mode is a new SimState.
    """

    def __init__(self, tau: float, U: np.ndarray, grid: Grid, medium: Medium, mode: str,
                 background: np.ndarray | None = None):
        U = np.asarray(U, dtype=np.complex128)
        if background is not None:
            background = np.asarray(background, dtype=np.complex128)
            if background.shape != (3,) + grid.n:
                raise ValueError(f"background shape {background.shape} is not (3,) + grid n {grid.n}")
        if (t := _finite(tau)) is None:
            raise ValueError(f"tau must be a finite real number, got {tau!r}")
        self.tau, self._grid, self.medium, self._mode = t, grid, medium, mode
        self.background, self._U, self._coef = background, U, None
        if U.ndim != 5 or U.shape[1] != 7 or U.shape[2:] != grid.n:
            raise ValueError(f"state shape {U.shape} is not (M, 7) + grid n {grid.n}")
        check_mode(mode, U.shape[0], background)

    def _stepped(self, tau: float, coef: _Coefficients) -> "SimState":
        """The state at ``tau`` of this run, held as ``coef``."""
        new = object.__new__(SimState)
        new.tau, new._grid, new.medium, new._mode = tau, self.grid, self.medium, self.mode
        new.background, new._U, new._coef = self.background, None, coef
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


def _check_box(state: SimState, nabla: Nabla) -> None:
    """Raise ValueError unless ``nabla``'s grid is the state's box: one n and L."""
    if (nabla.grid.n, nabla.grid.L) != (state.grid.n, state.grid.L):
        raise ValueError(f"the Nabla's box (n {nabla.grid.n}, L {nabla.grid.L}) is not "
                         f"the state's (n {state.grid.n}, L {state.grid.L})")


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


def _linear(nabla: Nabla, adv: slice, Y: np.ndarray) -> np.ndarray:
    """L Y for a field stack Y of the channels adv in nabla's derivative
    representation (its physical arrays on central4, Fourier coefficients on
    spectral, of the full grid or of its 2/3 band).

    A moves by -i curl A, minus J where J also advances; Theta by free
    transport, i nabla o Theta (``free_theta_rhs``).  Each operator writes
    into LY's rows, which are then multiplied by -i or i in place.
    """
    LY = np.empty_like(Y)
    for y, ly in zip(Y, LY):
        if adv.start == 0:
            nabla._curl(y[:3], out=ly[:3])
            ly[:3] *= -1j
            if adv.stop == 7:
                ly[:3] -= y[-3:]
        if adv.stop == 7:  # (drho, dJ) = (g.scalar, i g.vector), g = nabla o (i rho + J)
            nabla._quaternion_gradient(1j * y[-4], y[-3:], out=ly[-4:])
            ly[-3:] *= 1j
    return LY


def _add_f(dX: np.ndarray, state: SimState, take) -> np.ndarray:
    """dX + f in place, for a field stack dX of the channels the mode advances.

    In a force mode f is -Theta o A' / kappa of each field's partner, formed
    from ``state`` in physical space and taken into dX's representation by
    ``take``; in the other modes this adds nothing (maxwell's held -J is
    ``state_rhs``'s, and the closed form's source in a step).
    """
    if state.mode not in _FORCED:
        return dX
    for k in range(len(dX)):
        fbq = _force_biquaternion(state.U[k, _RHO], state.U[k, _J], partner_field(state, k))
        SV = take(np.concatenate([fbq.scalar[None], fbq.vector]))
        dX[k, -4] -= 1j * SV[0] / state.medium.kappa
        dX[k, -3:] += SV[1:] / state.medium.kappa
    return dX


def state_rhs(state: SimState, nabla: Nabla) -> np.ndarray:
    """Time derivative of the full state array (zero in the channels held)."""
    _check_box(state, nabla)
    U, adv = state.U, _advanced(state.mode)
    dU = np.zeros_like(U)
    dX = nabla._back(_linear(nabla, adv, nabla._to(U[:, adv])))
    if adv.stop < 7:  # maxwell's f, the held -J
        dX -= U[:, _J]
    dU[:, adv] = _add_f(dX, state, nabla.dealias)
    return dU


# -- stepping ------------------------------------------------------------------


def _closed_form(nabla: Nabla, adv: slice, h: float, held: _Held):
    """Classical RK4's map for step h as (advance, source), made once per
    run: X <- advance X + source, where advance is stage data for
    ``_horner`` or, in spectral maxwell, the map's two helicity gains.

    For y' = L y + f with f constant, four stages make the polynomial
    y + (hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24) y + h (1 + hL/2 + (hL)^2/6 + (hL)^3/24) f,
    with maxwell's f the held -J and none in free_theta (source None).
    On central4 it is Horner's rule, y + hL(y + (h/2)L(y + (h/3)L(y +
    (h/4)L y))), four applications of L as the stages make, and three to f.
    On spectral's band L^3 = -|k|^2 L (maxwell: L = k x; free transport:
    L^2 = -|k|^2) folds the cubic and quartic terms into
    y + L(a y + b L y) + h (f + L(p1 f + p2 L f)), with
    a = h - h^3 |k|^2 / 6, b = h^2 / 2 - h^4 |k|^2 / 24,
    p1 = h/2 - h^3 |k|^2 / 24, p2 = h^2 / 6.  free_theta folds b L L y
    into y too, (1 - b |k|^2) y + a L y, and applies L once.

    Spectral maxwell's L = k x is diagonal in the band curl's eigenbasis
    (``Nabla.band_frame``): i s, -i s and 0 on the helicity components of
    ``Nabla.to_helicity``.  So its advance is the two gains
    g+- = 1 - b |k|^2 +- i a s, complex of shape (2,) + band, with 1 on the
    longitudinal component, and its source the held J's helicity
    components times -h (1 +- i p1 s - p2 |k|^2) and -h: a step is two
    multiplies and the source's add, with no derivative.  free_theta keeps
    its one-L fold (its 4x4 symbol diagonalises likewise), and central4
    Horner's rule, as it holds no Fourier coefficients to index a map by.
    """
    if nabla.scheme != "spectral":
        advance = tuple((c, None) for c in (h / 4, h / 3, h / 2, h))
        if adv.stop == 7:
            return advance, None
        source = _horner(nabla, adv, held.band_J(), advance[:3])
    else:
        k2 = nabla.band_k2()
        a, b = h - h**3 * k2 / 6, h**2 / 2 - h**4 * k2 / 24
        if adv.stop == 7:
            return ((a, 1 - b * k2),), None
        s = nabla.band_frame()[-1]
        advance = 1 - b * k2 + 1j * np.stack([a * s, -a * s])
        p1s = (h / 2 - h**3 * k2 / 24) * s
        source = nabla.to_helicity(held.band_J())
        source[:, :2] *= 1 - h**2 / 6 * k2 + 1j * np.stack([p1s, -p1s])
    source *= -h
    return advance, source


def _horner(nabla: Nabla, adv: slice, Y: np.ndarray, stages) -> np.ndarray:
    """Z <- c L Z + w Y for each (c, w) of ``stages``, from Z = Y, in two
    stacks: the running term and the L of it being made, with w Y made one
    channel at a time where w is not None.  c and w are numbers or
    per-wavenumber arrays, and None stands for 1, with no multiply."""
    Z = Y
    for c, w in stages:
        Z = _linear(nabla, adv, Z)
        if c is not None:
            Z *= c
        if w is None:
            Z += Y
        else:
            for z, y in zip(Z, Y):
                for zc, yc in zip(z, y):
                    zc += w * yc
    return Z


def _stages(rhs, X0: np.ndarray, tau: float, dt: float) -> np.ndarray:
    """Classical RK4's X0 + (dt/6)(k1 + 2 k2 + 2 k3 + k4) for dX/dtau = rhs(X, tau),
    in three stacks of X0's shape: ``acc`` gathers the k in that order, one
    stage input Y, X0 + c k, is reused as the scratch for w k, and the
    current k is dropped once Y is formed from it."""
    acc = k = rhs(X0, tau)
    Y = np.empty_like(X0)
    for c, w in ((dt / 2, 2), (dt / 2, 2), (dt, 1)):
        np.multiply(k, c, out=Y)
        Y += X0
        del k  # k1 lives on as acc
        k = rhs(Y, tau + c)
        np.multiply(k, w, out=Y)
        acc += Y
    acc *= dt / 6
    acc += X0
    return acc


def step_rk4(
    state: SimState, nabla: Nabla, config: StepperConfig, steps_done: int = 0
) -> tuple[SimState, None]:
    """One classical RK4 step of length grid.dtau, on nabla's band (the 2/3
    band of Fourier coefficients on spectral, physical space on central4).

    In maxwell and free_theta the system is linear with constant
    coefficients, so the four stages and their combine are one polynomial in
    L (-i curl in maxwell, i nabla o in free_theta), RK4's own discrete map,
    which ``_closed_form`` made once per run, for its frozen grid's dtau, and
    kept on the run's held block.  On spectral maxwell the step is
    X <- (g+ h+, g- h-, h0) + S on A's helicity components (no derivative;
    step 1 rotates Cartesian coefficients in, and a read of ``U`` rotates
    back), and X <- _horner(X, advance) + S otherwise, with stage
    coefficients ``advance``; S is maxwell's held source (none in
    free_theta).  Their right-hand side never reads the physical state, so
    they return their coefficients alone and make ``U`` on first read.
    Force modes run the four stages on L X + f, and make ``U`` in the step,
    as the next step's first stage reads it anyway; besides its input state
    a stage step holds three stacks of the advanced channels (the sum of the
    k, one stage input reused as scratch, and the current k) and the
    temporaries of one rhs.

    A step starts from its input's kept coefficients where they were made on
    ``nabla``'s scheme, else from ``U``, and checks the run's held block for
    finiteness once (once per step in a central4 force mode, which takes
    ``U`` in every step).  It raises ValueError unless ``nabla`` is on the
    state's box.

    Returns (new_state, None): the pair is kept only because benchmark
    harnesses that wrap this function read the state as ``[0]``.
    Raises NumericalAbort (carrying the last good state) on non-finite values.
    """
    _check_box(state, nabla)
    config.check_step(state.grid)
    dt = state.grid.dtau
    adv, linear = _advanced(state.mode), state.mode not in _FORCED
    coef = state._coef
    if coef is None or coef.nabla.scheme != nabla.scheme:  # made on another scheme
        # a run that keeps its coefficients on central4 owns its held block,
        # so no view of a U it was given outlives step 1
        coef = _take_in(nabla, adv, state.U, copy=linear and nabla.scheme != "spectral")
    X0, held = coef.X, coef.held
    if held is not None and not held.finite():  # no rhs need read all of it
        raise NumericalAbort(state.tau, steps_done + 1, state)
    if linear and held.closed is None:
        held.closed = _closed_form(nabla, adv, dt, held)
    advance, source = held.closed if linear else (None, None)
    helical = isinstance(advance, np.ndarray)  # spectral maxwell's g+-
    if helical:  # (g+ h+, g- h-, h0) + S on A's helicity components
        H = X0 if coef.helical else nabla.to_helicity(X0)
        X = np.empty_like(H)
        np.multiply(advance, H[:, :2], out=X[:, :2])
        np.add(H[:, 2], source[:, 2], out=X[:, 2])
        X[:, :2] += source[:, :2]
    elif linear:
        X = _horner(nabla, adv, X0, advance)
        if source is not None:
            X += source
    else:
        def rhs(X, tau):  # stages 2-4 read rho, J and A' back in physical space
            at = state if X is X0 else state._stepped(tau, _Coefficients(nabla, X, held))
            return _add_f(_linear(nabla, adv, X), at, nabla.to_band)

        X = _stages(rhs, X0, state.tau, dt)
    # a non-finite value in physical space spreads to every coefficient
    if not _all_finite(X):
        raise NumericalAbort(state.tau, steps_done + 1, state)
    new = state._stepped(state.tau + dt, _Coefficients(nabla, X, held, helical))
    if not linear:
        new.U  # made here: the next step's first stage reads it anyway
        if nabla.scheme != "spectral":
            new._coef = None  # central4's coefficients are U's channels: hold one copy
    if state._U is not None:
        state._coef = None  # taken: only the newest state holds both forms
    return new, None


# -- field totals ---------------------------------------------------------------


def field_totals(state: SimState) -> tuple[AField, ChargeCurrent]:
    """Summed field and summed charge-current over all interacting fields, as
    ``sum(axis=0)`` adds them; for one field, views of ``U`` not to write into."""
    U = state.U
    A, rho, J = (sum(U[1:, c], U[0, c]) for c in (_A, _RHO, _J))
    return AField(state.grid, A), ChargeCurrent(state.grid, rho, J)
