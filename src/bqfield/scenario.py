"""Scenario files: strict JSON configuration for simulation runs.

A scenario pins everything a run needs: mode, grid, medium, stepper settings,
initial data presets per field, an optional frozen background, the run length,
and the diagnostics to record.  Parsing is strict; unknown keys anywhere are
an error, so a typo cannot silently fall back to a default.

Complex numbers are spelled {"re": x, "im": y} (``im`` optional); complex
3-vectors the same way with lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .evolution import StepperConfig, check_mode
from .fields import Grid, Medium, _finite, _positive
from .diagnostics import LAWS, check_specs
from .operators import Nabla

__all__ = ["Scenario", "ScenarioError", "Term", "load_scenario", "parse_scenario", "build_preset"]

# The most steps a run may take: a finite duration past it (1e18 at the 8^3
# default dtau is 5.1e18 steps) would parse into a run that cannot end.
MAX_STEPS = 10**9


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario input."""


def _ctx(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _take(d: dict, key: str, path: str, default=None, required=False):
    if key in d:
        return d.pop(key)
    if required:
        raise ScenarioError(f"missing required key {_ctx(path, key)!r}")
    return default


def _done(d: dict, path: str):
    if d:
        extra = ", ".join(sorted(repr(k) for k in d))
        raise ScenarioError(f"unknown key(s) at {path or 'top level'}: {extra}")


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError re-raised as a ScenarioError
    at the JSON ``path``: the object owns its rule, the parser names where."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}" if path else str(exc)) from exc


def _number(v, path: str) -> float:
    """``v`` under the package's number rule (``_finite``), named at ``path``."""
    if (x := _finite(v)) is None:
        raise ScenarioError(f"{path} must be a finite number, got {v!r}")
    return x


def _complex_scalar(v, path: str) -> complex:
    if v is None:
        return 0.0 + 0.0j
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(_number(v, path))
    if isinstance(v, dict):
        d = dict(v)
        re = _number(_take(d, "re", path, default=0.0), _ctx(path, "re"))
        im = _number(_take(d, "im", path, default=0.0), _ctx(path, "im"))
        _done(d, path)
        return complex(re, im)
    raise ScenarioError(f"{path} must be a number or {{re, im}}, got {v!r}")


def _real_vector(v, path: str) -> np.ndarray:
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise ScenarioError(f"{path} must be a 3-element list")
    return np.array([_number(x, f"{path}[{i}]") for i, x in enumerate(v)], dtype=float)


def _complex_vector(v, path: str) -> np.ndarray:
    if v is None:
        return np.zeros(3, dtype=np.complex128)
    if isinstance(v, (list, tuple)):
        return _real_vector(v, path).astype(np.complex128)
    if isinstance(v, dict):
        d = dict(v)
        re = _take(d, "re", path, default=[0.0, 0.0, 0.0])
        im = _take(d, "im", path, default=[0.0, 0.0, 0.0])
        _done(d, path)
        return _real_vector(re, _ctx(path, "re")) + 1j * _real_vector(im, _ctx(path, "im"))
    raise ScenarioError(f"{path} must be a list or {{re, im}} of lists, got {v!r}")


def _int_vector(v, path: str) -> tuple[int, ...]:
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise ScenarioError(f"{path} must be a 3-element list")
    for i, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ScenarioError(f"{path}[{i}] must be an integer")
    return tuple(v)


def _object(v, path: str) -> dict:
    """A copy of the JSON object at ``path``, for _take to consume."""
    if not isinstance(v, dict):
        raise ScenarioError(f"{path} must be an object")
    return dict(v)


def _medium(md, path: str) -> Medium:
    md = _object(md, path)
    consts = {k: _take(md, k, path, default=1.0) for k in ("epsilon", "mu", "kappa")}
    _done(md, path)
    return _build(path, Medium, **consts)


# -- initial-data presets ---------------------------------------------------------


class Term(NamedTuple):
    """One channel of a preset, a rank-1 term: ``coef`` times the product
    f_x(x) f_y(y) f_z(z) of three 1-D ``factors``, each sampled on its axis
    of the grid.  Channels of one preset share their factor arrays."""

    coef: complex
    factors: tuple

    def dense(self, out: np.ndarray) -> np.ndarray:
        """The term on the grid, written into ``out``, multiplied out in one
        order: coef * ((f_x f_y) f_z)."""
        fx, fy, fz = self.factors
        return np.multiply(self.coef, (fx[:, None, None] * fy[:, None]) * fz, out=out)

    def bound(self) -> float:
        """An upper bound on the term's modulus on the grid, up to the
        rounding of ``dense``: |coef| times each factor's largest modulus
        (inf or NaN where one is)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.abs(self.coef) * math.prod(np.abs(f).max() for f in self.factors))


def _densify(terms: list, n: tuple) -> np.ndarray:
    """The complex array of a list of rows of terms, shape (rows, channels) + n,
    written only where a term is given: a channel with none (a null preset's)
    stays fresh zeros, unwritten pages that cost no resident memory."""
    out = np.zeros((len(terms), len(terms[0])) + n, dtype=np.complex128)
    for row, o in zip(terms, out):
        for t, oc in zip(row, o):
            if t is not None:
                t.dense(oc)
    return out


def _gaussian_factor(x: np.ndarray, L: float, center: float, width: float):
    """The periodic gaussian's factor on one axis, (g, g'), at the points x
    of a side L: the sum over whole shifts s of exp(-(x - c + s L)^2 / 2 w^2)
    and its x derivative, with the centre c counted modulo L.

    Up to width L/2 the sum runs over the images s = -K..K: the three
    nearest, and more while the next pair's largest value on the axis exceeds
    2^-53 of the peak, 1.  A wider pulse is the same sum in Fourier form
    (Poisson summation), (w sqrt(2 pi) / L) sum_m q_m exp(i kappa_m (x - c))
    with kappa_m = 2 pi m / L and q_m = exp(-(kappa_m w)^2 / 2), its terms
    taken while q_m exceeds 2^-53.  A pulse too narrow for the arithmetic
    (2 w^2 underflows below w = 1e-154 or so) gives values that are not
    finite.
    """
    c = center % L
    if width <= L / 2:
        far = 1
        while any(np.exp(-np.abs(x - c + s * L).min() ** 2 / (2 * width**2)) > 2.0**-53
                  for s in (-far - 1, far + 1)):
            far += 1
        g, dg = np.zeros_like(x), np.zeros_like(x)
        for shift in range(-far, far + 1):
            xa = x - c + shift * L
            e = np.exp(-(xa**2) / (2 * width**2))
            g += e
            dg += e * (-xa / width**2)
        return g, dg
    g, dg, m = np.ones_like(x), np.zeros_like(x), 1
    while (q := np.exp(-((2 * np.pi * m * width / L) ** 2) / 2)) > 2.0**-53:
        kappa = 2 * np.pi * m / L
        g += 2 * q * np.cos(kappa * (x - c))
        dg -= 2 * q * kappa * np.sin(kappa * (x - c))
        m += 1
    scale = width * np.sqrt(2 * np.pi) / L
    return scale * g, scale * dg


def _preset_terms(preset: dict | None, grid: Grid, path: str, want: str) -> list:
    """The rank-1 terms of a preset dict: amplitude x one constant
    biquaternion, i scalar + polarization, x one scalar profile.

    The profile is the plane wave's phase, the periodic gaussian g, or 1 for
    ``uniform``, whose polarization is its ``value`` and amplitude 1; a
    gradient pulse's vector part is amplitude x grad g.  Each is a product
    of 1-D factors: the phase of exp(i k_a x_a), within eps sum_a |k_a| L_a
    of one exp of the summed k.x (3.7e-15 at 64^3 with k = (2, 1, 1)), and
    g of ``_gaussian_factor``'s g_a, with g_a' on axis a in the gradient's
    component a.  want = "vector" gives the three terms of a field strength,
    want = "pair" the four (rho, J) of a charge-current; ``null`` is the
    zero preset, whose channels have no term (None).
    """
    if preset is None:
        return [None] * (3 if want == "vector" else 4)
    if not isinstance(preset, dict):
        raise ScenarioError(f"{path} must be an object or null")
    d = dict(preset)
    kind = _take(d, "type", path, required=True)
    if kind == "plane_wave":
        k = _real_vector(_take(d, "k", path, required=True), _ctx(path, "k"))
    elif kind == "gaussian_pulse":
        center = _real_vector(
            _take(d, "center", path, default=[L / 2 for L in grid.L]), _ctx(path, "center")
        )
        width = _number(_take(d, "width", path, default=min(grid.L) / 8), _ctx(path, "width"))
        if _positive(width) is None:
            raise ScenarioError(f"{_ctx(path, 'width')} must be positive")
    elif kind != "uniform":
        raise ScenarioError(f"{path}: unknown preset type {kind!r}")
    pkey = "value" if kind == "uniform" else "polarization"
    pol = _take(d, pkey, path)
    amp = 1.0 if kind == "uniform" else _complex_scalar(
        _take(d, "amplitude", path, default=1.0), _ctx(path, "amplitude"))
    gradient = _take(d, "gradient", path, default=False) if kind == "gaussian_pulse" else False
    sc = _complex_scalar(_take(d, "scalar", path), _ctx(path, "scalar"))
    _done(d, path)
    if not isinstance(gradient, bool):
        raise ScenarioError(f"{_ctx(path, 'gradient')} must be a boolean")
    if gradient and pol is not None:
        raise ScenarioError(f"{path}: gradient pulses take no polarization (they point along grad g)")
    pol = _complex_vector(pol, _ctx(path, pkey))
    if kind == "plane_wave":
        for a in range(3):
            kL = k[a] * grid.L[a] / (2 * np.pi)
            if abs(kL - round(kL)) > 1e-9:
                raise ScenarioError(
                    f"{path}: wave vector component {a} does not fit the box "
                    f"(k*L/2pi = {kL})"
                )
        profile = tuple(np.exp(1j * k[a] * x) for a, x in enumerate(grid.axes()))
    elif kind == "gaussian_pulse":
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked next
            g, dg = zip(*(_gaussian_factor(x, L, c, width) for x, L, c in zip(grid.axes(), grid.L, center)))
        if not all(np.isfinite(f).all() for f in (g + dg if gradient else g)):
            raise ScenarioError(f"{_ctx(path, 'width')} = {width} is too narrow to sample: "
                                f"its profile is not finite on the grid")
        profile = g
    else:
        profile = tuple(np.ones(n) for n in grid.n)
    if gradient:
        vec = [Term(amp, tuple(dg[b] if b == a else g[b] for b in range(3))) for a in range(3)]
    else:  # the coefficients as one array product, which numpy may round apart from scalar ones
        vec = [Term(c, profile) for c in amp * pol]
    scalar = Term(amp * sc, profile)
    if want == "pair":
        return [scalar] + vec
    if scalar.coef != 0 and np.abs(scalar.dense(np.empty(grid.n, np.complex128))).max() > 0:
        raise ScenarioError(f"{path}: a field strength preset cannot carry a scalar part")
    return vec


def build_preset(preset: dict | None, grid: Grid, path: str, want: str):
    """``_preset_terms`` multiplied out on the grid: a complex (3, nx, ny, nz)
    array for want = "vector", and (scalar, vector) for want = "pair"."""
    dense = _densify([_preset_terms(preset, grid, path, want)], grid.n)[0]
    return dense if want == "vector" else (dense[0], dense[1:])


# -- scenario ---------------------------------------------------------------------


_UNMADE = object()  # Scenario.initial before its first read


@dataclass(eq=False)
class Scenario:
    """A parsed scenario.  Its initial data are rank-1 ``Term``s: ``terms``
    holds, per field, the seven channels A (0:3), rho (3), J (4:7), and
    ``background_terms`` strong_field's three of A' (None in other modes);
    a channel with no term (None) is zero.  ``initial`` and ``background``
    are the same data multiplied out on the grid."""

    mode: str
    grid: Grid
    medium: Medium
    stepper: StepperConfig
    nabla_scheme: str
    duration: float
    steps: int
    terms: list
    background_terms: list | None
    diagnostics: list = field(default_factory=list)
    description: str = ""
    output_dir: str | None = None
    _initial: object = field(default=_UNMADE, init=False, repr=False)

    @property
    def initial(self) -> np.ndarray | None:
        """(M, 7) + n complex: ``terms`` multiplied out, made on first read
        and kept; None once a run has let go of it by setting it so."""
        if self._initial is _UNMADE:
            self._initial = _densify(self.terms, self.grid.n)
        return self._initial

    @initial.setter
    def initial(self, value: np.ndarray | None):
        self._initial = value

    @property
    def background(self) -> np.ndarray | None:
        """strong_field's A' multiplied out, complex (3,) + n; None in other modes."""
        return None if self.background_terms is None else _densify([self.background_terms], self.grid.n)[0]


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    d = dict(doc)
    description = _take(d, "description", "", default="")
    if not isinstance(description, str):
        raise ScenarioError("description must be a string")

    mode = _take(d, "mode", "", required=True)

    output_dir = _take(d, "output_dir", "")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError("output_dir must be a string path")

    gd = _object(_take(d, "grid", "", required=True), "grid")
    n = _int_vector(_take(gd, "n", "grid", required=True), "grid.n")
    L = _take(gd, "L", "grid", default=2 * np.pi)
    L = L if isinstance(L, (list, tuple)) else (L,) * 3
    dtau = _take(gd, "dtau", "grid")
    _done(gd, "grid")

    medium = _medium(_take(d, "medium", "", default={}), "medium")

    sd = _object(_take(d, "stepper", "", default={}), "stepper")
    scheme = _take(sd, "scheme", "stepper", default="rk4")
    cfl = _take(sd, "cfl", "stepper", default=0.25)
    _done(sd, "stepper")
    stepper = _build("stepper", StepperConfig, scheme=scheme, cfl=cfl)

    nabla_scheme = _take(d, "nabla", "", default="spectral")
    if nabla_scheme not in Nabla.schemes:
        raise ScenarioError(f"nabla must be one of {Nabla.schemes}, got {nabla_scheme!r}")

    grid = _build("grid", Grid, n, L, 1.0 if dtau is None else dtau)
    if dtau is None:  # the largest step the bound allows
        grid = _build("grid", replace, grid, dtau=stepper.cfl * min(grid.h))
    _build("grid.dtau", stepper.check_step, grid)

    duration = _number(_take(d, "duration", "", required=True), "duration")
    if _positive(duration) is None:
        raise ScenarioError("duration must be positive")
    if not duration / grid.dtau <= MAX_STEPS:
        raise ScenarioError(f"duration = {duration} overflows the step count cap "
                            f"MAX_STEPS = {MAX_STEPS} at dtau = {grid.dtau}")
    steps = int(round(duration / grid.dtau))
    if steps < 1 or abs(steps * grid.dtau - duration) > 1e-9 * max(1.0, duration):
        raise ScenarioError(
            f"duration = {duration} is not an integer number of steps of dtau = {grid.dtau}"
        )

    fd = _take(d, "initial_conditions", "", required=True)
    if not isinstance(fd, list) or len(fd) < 1:
        raise ScenarioError("initial_conditions must be a non-empty list")
    bg_preset = _take(d, "background", "")
    _build("", check_mode, mode, len(fd), bg_preset)
    terms = []
    for i, fdict in enumerate(fd):
        p = f"initial_conditions[{i}]"
        fdict = _object(fdict, p)
        a_preset = _take(fdict, "afield", p)
        t_preset = _take(fdict, "theta", p)
        _done(fdict, p)
        terms.append(_preset_terms(a_preset, grid, f"{p}.afield", "vector")
                     + _preset_terms(t_preset, grid, f"{p}.theta", "pair"))
    background_terms = None if bg_preset is None else _preset_terms(bg_preset, grid, "background", "vector")

    diag = _take(d, "diagnostics", "", default=[])
    if not isinstance(diag, list):
        raise ScenarioError("diagnostics must be a list")
    specs = [dict(spec) if isinstance(spec, dict) else spec for spec in diag]
    laws, _ = _build("", check_specs, grid, specs)
    for i, (name, (cadence, _)) in enumerate(laws.items()):
        # a window needs three samples, steps 0, c and 2c; an integral two
        need = {"window": 2, "integral": 1}.get(LAWS[name].kind, 0) * cadence
        if need > steps:
            raise ScenarioError(f"diagnostics[{i}].cadence: {name!r} at cadence "
                                f"{cadence} needs {need} steps, the run has {steps}")

    _done(d, "")
    return Scenario(
        mode=mode,
        grid=grid,
        medium=medium,
        stepper=stepper,
        nabla_scheme=nabla_scheme,
        duration=duration,
        steps=steps,
        terms=terms,
        background_terms=background_terms,
        diagnostics=specs,
        description=description,
        output_dir=output_dir,
    )


def _read_json(path):
    """The JSON document in the file at ``path``; a ScenarioError if the file
    holds none, or one nested too deeply to decode."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    return parse_scenario(_read_json(path))
