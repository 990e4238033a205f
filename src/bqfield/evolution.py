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
units).  Every mode steps on Fourier coefficients of the band, the
wavenumbers the scheme's derivative symbol acts on: spectral's 2/3 band
|k_i| <= n_i/3 with symbol k, and central4's whole grid with the 5-point
stencil's symbol d(k) = (8 sin kh - sin 2kh) / (6h) per axis.  In
``maxwell`` and ``free_theta`` f is constant and L is diagonal in the
characteristic basis of the symbol (``Nabla.to_helicity``), so one RK4 step
is two complex gains g+- = R(+-i h s) per band wavenumber, made once per
run (``_closed_form``, kept on the run's held block), plus maxwell's held
source where its J's band is non-zero: no stage loop, no derivative and no
transform.  A held J whose band is all zero has no source
(``_Held.band_J`` is None), so that step is one gain multiply.  Step 1
rotates the coefficients into that basis straight into the new state's
array and multiplies the gains in there, so it holds no more than a later
step but the run's kept map; a read of ``U`` rotates them back as it
scatters them (``Nabla.from_spectrum``).  Force modes run the four stages
on the same band.  A stage reads its advanced channels made physical (the
first, the input's ``U`` as it is) and A', forms the force there, and takes
it in by ``Nabla.to_spectrum`` (the 2/3 rule on spectral, none on
central4).  Besides its input state, a stage step holds three stacks of the
advanced channels (the sum of the k, one stage input that is also the
scratch for w k, and the current k) and one right-hand side's temporaries.

A state keeps the coefficients of its advanced channels, next to ``U``,
until the next step takes them: ``build_state`` (which makes no dense
array of them; from the presets' 1-D factors, ``Nabla.band_of_terms``)
and every step return them.  A step on their scheme starts from them with
no transform (a step on another scheme takes ``U`` in).  maxwell and
free_theta hold them alone and make ``U`` on first read; a force mode makes
``U`` in the step.  A step drops the coefficients it took from its input if
that input holds ``U`` too, so only the newest state holds both.

The held channels (maxwell's Theta, A where Theta alone advances) never
change, so a run keeps them once, as one block (``_Held``) its states share,
with the run's closed form; no step writes them, and a caller must not
write a stepped state's ``U`` in place (build a new ``SimState`` instead).
A block of ``build_state``'s initial data arrives multiplied out, the only
rows of it that do: step 1 takes maxwell's J onto the band, where its
source reads it, and no other row (rho, a held A), as no step reads them;
the block's physical form, the data's ``Nabla.dealias``, is made on the
first read of ``U``.  A row with no term is zero and is not transformed,
and neither is J's where its band is all zero, so in spectral maxwell that
read adds 3 + 0 + 0 transforms (A, J, rho) for a plane wave in A alone,
and 3 + 3 + 2 where J and rho have terms and J's band is non-zero.  On
central4, which has no 2/3 rule, the block is its own physical form and
the read adds A's 3.  A block taken from a state's ``U`` is those arrays.
"""

from __future__ import annotations

import math
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
    "rk4_gain",
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

    ``given`` is the block's data, physical as given unless ``terms`` come
    with it: ``build_state``'s held rows, multiplied out from their rank-1
    terms, whose physical form is the data's ``Nabla.dealias``.  Where the
    band is the whole grid (central4) there is no 2/3 rule, so the data is
    its own physical form and the block is held as given.  Of a block with
    terms only maxwell's J goes onto the band (``band_J``), in step 1, for
    the source, and stays there; no step reads the other rows (maxwell's
    rho, a held A), so they stay as data until the first read of ``U``
    makes the physical form in the data's own array and the block lets go
    of the data: J from its band, the other rows by their 2/3 rule, and a
    row with no term, zero as given, left as it is.  ``closed`` is the
    run's RK4 map (``_closed_form``) in maxwell and free_theta, set by
    their first step: the two gains g+- per band wavenumber, plus
    maxwell's held source in the same basis where its J's band is
    non-zero.  An all-zero band has no source (``band_J`` is None): no
    step adds one, and the physical form writes J's rows as zeros, so a
    maxwell plane wave in A alone adds 3 + 0 + 0 transforms (A, J, rho) on
    its first read of ``U``.
    """

    def __init__(self, nabla: Nabla, rows: slice, given: np.ndarray, terms: list | None = None):
        if nabla._band_shape == nabla.grid.n:  # no 2/3 rule: the data is its physical form
            terms = None
        self.nabla, self.rows, self.closed = nabla, rows, None
        self._given, self._terms, self._finite = given, terms, None
        self._physical = given if terms is None else None
        self._J = ...  # not taken in yet
        self._reads_J = rows.start == _RHO  # maxwell's held Theta, whose J its source reads
        self._idle = slice(0, 1) if self._reads_J else slice(0, 3)  # the rows no step reads

    def band_J(self) -> np.ndarray | None:
        """maxwell's held J on the band, taken in and kept where the physical
        form is made from it; None where that band is all zero, found once
        for the run: there is then no source, and the physical form writes
        J's rows as zeros.  Finding the zero reads the band, so J's 3
        forward transforms stay in step 1 either way."""
        if self._J is not ...:
            return self._J
        J = self.nabla.to_spectrum(self._given[:, 1:])
        if not J.any():
            J = self._J = None
        elif self._physical is None:
            self._J = J
        return J

    def _has_terms(self, rows: slice) -> bool:
        """Whether some field has a term in the block's ``rows``: a row with
        none is zero as given."""
        return any(t is not None for row in self._terms for t in row[rows])

    def physical(self) -> np.ndarray:
        if self._physical is None:
            nabla, P = self.nabla, self._given
            if self._has_terms(self._idle):  # their 2/3 rule, in place
                idle = P[:, self._idle]
                nabla.from_spectrum(nabla.to_spectrum(idle), out=idle)
            if self._reads_J:
                if (J := self.band_J()) is not None:
                    nabla.from_spectrum(J, out=P[:, 1:])
                elif self._has_terms(slice(1, 4)):
                    P[:, 1:] = 0
            self._physical, self._given = P, None
        return self._physical

    def finite(self) -> bool:
        """Whether the block is finite, checked once.  A block held as given
        is checked whole.  Of build_state's data, maxwell's J is checked on
        its band (a non-finite value spreads to all its coefficients), and
        the rows no step reads on their terms, where those bound them below
        f_max / (4 N^2), N grid points, which a forward-then-inverse
        transform cannot overflow: zero rows, which have no term, are never
        read.  Rows the terms do not bound are checked in the physical form,
        made here if no read of ``U`` has made it yet, where an overflow of
        their 2/3 rule shows."""
        if self._finite is None:
            if self._terms is None:
                self._finite = _all_finite(self._given)
            else:
                checked = [J] if self._reads_J and (J := self.band_J()) is not None else []
                limit = np.finfo(float).max / (4 * math.prod(self.nabla.grid.n) ** 2)
                if not all(t is None or t.bound() < limit for row in self._terms for t in row[self._idle]):
                    checked.append(self.physical()[:, self._idle])
                self._finite = all(map(_all_finite, checked))
        return self._finite


class _Coefficients(NamedTuple):
    """A state's advanced channels on its Nabla, kept until the next step
    takes them, and its run's held block (None where the mode holds no
    channel).  X holds the Cartesian band coefficients
    (``Nabla.to_spectrum``: build_state's, a force mode step's), or where
    ``helical`` their ``Nabla.to_helicity`` components (a linear step's)."""

    nabla: Nabla
    X: np.ndarray
    held: _Held | None
    helical: bool = False

    def physical(self) -> np.ndarray:
        """``U`` as one array: the held rows copied in, and the advanced
        ones (rotated back on the way where helical) transformed in their
        own slice."""
        nabla, X, held = self.nabla, self.X, self.held
        if held is None:
            return nabla.from_spectrum(X, helical=self.helical)
        H = held.physical()
        U = np.empty((len(X), 7) + nabla.grid.n, np.result_type(H, X))
        U[:, held.rows] = H
        nabla.from_spectrum(X, out=U[:, 3:] if held.rows.start == 0 else U[:, :3], helical=self.helical)
        return U


def _take_in(nabla: Nabla, adv: slice, U: np.ndarray) -> _Coefficients:
    """U's advanced channels ``adv`` taken onto ``nabla``'s band, and its
    held block, physical as given."""
    rows = _held_rows(adv)
    held = _Held(nabla, rows, U[:, rows]) if rows.start < rows.stop else None
    return _Coefficients(nabla, nabla.to_spectrum(U[:, adv]), held)


class SimState:
    """Snapshot of all interacting fields at one tau.

    ``U`` is the (M, 7, nx, ny, nz) complex128 state, and ``background``
    strong_field's frozen A', complex128 of shape (3, nx, ny, nz), given in
    no other mode; ``tau`` a finite real number, held as a float.  A state
    that ``build_state`` or ``step_rk4`` returned also holds the band
    coefficients the next step starts from; where it holds only those,
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

    @classmethod
    def _held_as(cls, tau: float, coef: _Coefficients, grid: Grid, medium: Medium, mode: str,
                 background: np.ndarray | None) -> "SimState":
        """A state held as ``coef`` alone, its ``U`` made on first read."""
        new = object.__new__(cls)
        new.tau, new._grid, new.medium, new._mode = tau, grid, medium, mode
        new.background, new._U, new._coef = background, None, coef
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


def _partner(P: np.ndarray, k: int, background: np.ndarray | None) -> np.ndarray:
    """The partner A' of field k of a force mode's physical field stack P:
    the frozen ``background`` where there is one (strong_field), else the
    sum of the other fields' A, P's first three rows."""
    return background if background is not None else P[:, _A].sum(axis=0) - P[k, _A]


def partner_field(state: SimState, k: int) -> np.ndarray | None:
    """Partner field A' acting on field k, or None where the mode has none.

    The frozen background in ``strong_field``; the sum of the other fields' A
    in ``interaction`` and ``united``, which take no background (``_partner``).
    """
    return _partner(state.U, k, state.background) if state.mode in _FORCED else None


def _advanced(mode: str) -> slice:
    """The block of channels a mode advances: A and/or Theta."""
    return slice(3 if mode in _HOLDS_A else 0, 3 if mode == "maxwell" else 7)


def _held_rows(adv: slice) -> slice:
    """The channels a mode holds, next to the block ``adv`` it advances
    (empty where it advances all seven)."""
    return slice(adv.stop, 7) if adv.start == 0 else slice(0, adv.start)


def _linear(nabla: Nabla, adv: slice, Y: np.ndarray) -> np.ndarray:
    """L Y for a field stack Y of the channels adv as Fourier coefficients
    on nabla's grid or on its band.

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


def _add_f(dX: np.ndarray, P: np.ndarray, background: np.ndarray | None, kappa: float, take) -> np.ndarray:
    """dX + f in place, f = -Theta o A' / kappa, for a force mode's field
    stack dX of the channels it advances and P, the same in physical space:
    each field's force is formed from its rho and J, P's last four rows, and
    its partner (``_partner``), and taken onto dX's band or grid by ``take``."""
    for k in range(len(dX)):
        fbq = _force_biquaternion(P[k, -4], P[k, -3:], _partner(P, k, background))
        F = np.concatenate([fbq.scalar[None], fbq.vector])
        del fbq  # before the force is taken in
        SV = take(F)
        del F
        dX[k, -4] -= 1j * SV[0] / kappa
        dX[k, -3:] += SV[1:] / kappa
    return dX


def state_rhs(state: SimState, nabla: Nabla) -> np.ndarray:
    """Time derivative of the full state array (zero in the channels held)."""
    _check_box(state, nabla)
    U, adv = state.U, _advanced(state.mode)
    dU = np.zeros_like(U)
    dU[:, adv] = nabla.ifftn(_linear(nabla, adv, nabla.fftn(U[:, adv])))
    if adv.stop < 7:  # maxwell's f, the held -J
        dU[:, adv] -= U[:, _J]
    elif state.mode in _FORCED:
        _add_f(dU[:, adv], U[:, adv], state.background, state.medium.kappa, nabla.dealias)
    return dU


# -- stepping ------------------------------------------------------------------


def _rk4_phi(z):
    """1 + z/2 + z^2/6 + z^3/24: h times it is classical RK4's response to a
    constant source over one step of y' = (z/h) y + f."""
    return 1 + z / 2 * (1 + z / 3 * (1 + z / 4))


def rk4_gain(z):
    """Classical RK4's amplification R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 of
    one step of y' = lam y, z = lam h: of a number or of an array of them."""
    return 1 + z * _rk4_phi(z)


def _closed_form(nabla: Nabla, adv: slice, h: float, held: _Held):
    """Classical RK4's map for step h as (gains, source), made once per run:
    X <- gains X + source on the characteristic components of the band
    coefficients (``Nabla.to_helicity``): the gains, plus maxwell's held
    source (from its f, the held -J) where its J's band is non-zero.  There
    is none (source None) in free_theta, nor where ``_Held.band_J`` is None.

    For y' = L y + f with f constant, four stages make
    y <- R(hL) y + h phi(hL) f, with R = ``rk4_gain`` and phi = (R - 1)/z.
    L is built from first derivatives alone, so on the band it is the
    scheme's symbol s_a per axis (k on spectral, the stencil's d(k) on
    central4), and ``band_frame`` diagonalises it: maxwell's L = k x acts on
    A's helicity components as i s, -i s and 0, and free transport on
    Theta's (rho - J_n, J+, J-, rho + J_n) as -i s (-1, 1, -1, 1).  So the
    map is the two gains g+- = R(+-i h s), complex of shape (2,) + band:
    (g+, g-, 1) on maxwell's A, (g+, g-, g+, g-) on free_theta's Theta, and
    maxwell's source the held J's components times -h phi(+-i h s) and -h.
    A step is these multiplies and the source's add, with no derivative.
    The gains are one array, filled a chunk of k_x planes at a time by
    ``rk4_gain``, and ``_rk4_phi`` scales the source a chunk at a time, so
    no temporary is band-sized.
    """
    s = nabla.band_frame()[-1]
    gains = np.empty((2,) + s.shape, np.complex128)
    J = None if adv.stop == 7 else held.band_J()
    source = None if J is None else nabla.to_helicity(J)
    for bx in nabla._band_rows:  # a chunk of k_x planes at a time: no band-sized temporary
        z = 1j * h * s[bx]
        gains[0, bx] = rk4_gain(z)
        np.conjugate(gains[0, bx], out=gains[1, bx])  # R(-z), z being imaginary
        if source is not None:
            phi = _rk4_phi(z)
            source[:, 0, bx] *= phi
            source[:, 1, bx] *= phi.conj()
            source[:, :, bx] *= -h
    return gains, source


def _stages(rhs, X0: np.ndarray, dt: float) -> np.ndarray:
    """Classical RK4's X0 + (dt/6)(k1 + 2 k2 + 2 k3 + k4) for dX/dtau = rhs(X),
    in three stacks of X0's shape: ``acc`` gathers the k in that order, one
    stage input Y, X0 + c k, is reused as the scratch for w k, and the
    current k is dropped once Y is formed from it."""
    acc = k = rhs(X0)
    Y = np.empty_like(X0)
    for c, w in ((dt / 2, 2), (dt / 2, 2), (dt, 1)):
        np.multiply(k, c, out=Y)
        Y += X0
        del k  # k1 lives on as acc
        k = rhs(Y)
        np.multiply(k, w, out=Y)
        acc += Y
    acc *= dt / 6
    acc += X0
    return acc


def step_rk4(
    state: SimState, nabla: Nabla, config: StepperConfig, steps_done: int = 0
) -> tuple[SimState, None]:
    """One classical RK4 step of length grid.dtau, on nabla's band.

    In maxwell and free_theta the system is linear with constant
    coefficients, so the four stages and their combine are RK4's own
    discrete map, which ``_closed_form`` made once per run, for its frozen
    grid's dtau, and kept on the run's held block: the gains g+- times the
    band coefficients' characteristic components (``Nabla.to_helicity``),
    plus maxwell's held source where its J's band is non-zero.  Step 1
    rotates Cartesian coefficients straight into the new state's array and
    multiplies the gains in there (never over its input's coefficients,
    which stay that state's), and a read of ``U`` rotates them back as it
    scatters (``Nabla.from_spectrum``).  No derivative and no transform:
    their right-hand side never reads the physical state, so they return
    their coefficients alone and make ``U`` on first read.  Force modes run
    the four stages on L X + f on the band: a stage reads its advanced
    channels made physical (the first, the input's ``U``) and A' (``_add_f``),
    and holds one rhs's temporaries next to three stacks of the advanced
    channels (the sum of the k, one stage input reused as scratch, and the
    current k).  They make ``U`` in the step, as the next step's first stage
    reads it anyway.

    A step starts from its input's kept coefficients where they were made on
    ``nabla``'s scheme, else from ``U``, and checks the run's held block for
    finiteness once per run (``_Held.finite``).  It raises ValueError unless
    ``nabla`` is on the state's box.

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
        coef = _take_in(nabla, adv, state.U)
    X0, held = coef.X, coef.held
    if held is not None and not held.finite():  # no rhs need read all of it
        raise NumericalAbort(state.tau, steps_done + 1, state)
    if linear:
        if held.closed is None:
            held.closed = _closed_form(nabla, adv, dt, held)
        gains, source = held.closed
        if coef.helical:
            H, X = X0, np.empty_like(X0)
        else:  # step 1: rotated straight into the new state's array, then multiplied there
            H = X = nabla.to_helicity(X0)
        if adv.stop == 7:  # (g+, g-, g+, g-) on (rho - J_n, J+, J-, rho + J_n)
            pairs = (-1, 2) + H.shape[2:]  # one multiply per pair: numpy buffered a whole-stack broadcast
            for x, y in zip(X.reshape(pairs), H.reshape(pairs)):
                np.multiply(gains, y, out=x)
        else:  # (g+ A+, g- A-, A_n) + S, where J's band is non-zero
            np.multiply(gains, H[:, :2], out=X[:, :2])
            if X is not H:
                X[:, 2] = H[:, 2]
            if source is not None:
                X += source
    else:
        def rhs(X):  # stages 2-4 take their advanced channels back to physical space
            P = state.U[:, adv] if X is X0 else nabla.from_spectrum(X)
            return _add_f(_linear(nabla, adv, X), P, state.background, state.medium.kappa, nabla.to_spectrum)

        X = _stages(rhs, X0, dt)
    # a non-finite value in physical space spreads to every coefficient
    if not _all_finite(X):
        raise NumericalAbort(state.tau, steps_done + 1, state)
    new = SimState._held_as(state.tau + dt, _Coefficients(nabla, X, held, linear), state.grid,
                            state.medium, state.mode, state.background)
    if not linear:
        new.U  # made here: the next step's first stage reads it anyway
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
