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
from dataclasses import dataclass, field, replace

import numpy as np

from .evolution import _A, _J, _RHO, StepperConfig, check_mode
from .fields import Grid, Medium, _finite, _positive
from .diagnostics import LAWS, check_specs
from .operators import Nabla

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario", "build_preset"]

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


def _periodic_gaussian(grid: Grid, center, width: float, gradient: bool = False) -> np.ndarray:
    """Product gaussian periodised with three images per axis, or its gradient.

    The gaussian is separable: each axis contributes a 1-D image sum g_a (and
    its derivative g_a'), and the factors are combined by broadcasting.
    """
    g, dg = [], []
    for a, x in enumerate(grid.axes()):
        acc, dacc = np.zeros_like(x), np.zeros_like(x)
        for shift in (-1.0, 0.0, 1.0):
            xa = x - center[a] + shift * grid.L[a]
            e = np.exp(-(xa**2) / (2 * width**2))
            acc += e
            dacc += e * (-xa / width**2)
        shape = [1, 1, 1]
        shape[a] = -1
        g.append(acc.reshape(shape))
        dg.append(dacc.reshape(shape))
    if not gradient:
        return g[0] * g[1] * g[2]
    return np.stack([dg[0] * g[1] * g[2], g[0] * dg[1] * g[2], g[0] * g[1] * dg[2]])


def build_preset(preset: dict | None, grid: Grid, path: str, want: str):
    """Build initial data from a preset dict: amplitude x one constant
    biquaternion, i scalar + polarization, x one scalar profile.

    The profile is the plane wave's phase, the periodic gaussian g, or 1 for
    ``uniform``, whose polarization is its ``value`` and amplitude 1; a
    gradient pulse's vector part is amplitude x grad g.  ``null`` is the zero
    preset.  want = "vector" returns a complex (3, nx, ny, nz) array; want =
    "pair" returns (scalar, vector) for a charge-current field.
    """
    if preset is None:  # fresh zeros: unwritten, their pages cost no resident memory
        vec = np.zeros((3,) + grid.n, dtype=np.complex128)
        return vec if want == "vector" else (np.zeros(grid.n, dtype=np.complex128), vec)
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
        X = grid.meshgrid()
        profile = np.exp(1j * sum(k[a] * X[a] for a in range(3)))
    else:
        profile = _periodic_gaussian(grid, center, width) if kind == "gaussian_pulse" else np.ones(grid.n)
    if gradient:
        vec = amp * _periodic_gaussian(grid, center, width, gradient=True)
    else:
        vec = amp * pol[:, None, None, None] * profile
    scalar = amp * sc * profile
    if want == "vector":
        if np.abs(scalar).max() > 0:
            raise ScenarioError(f"{path}: a field strength preset cannot carry a scalar part")
        return vec
    return scalar, vec


# -- scenario ---------------------------------------------------------------------


@dataclass(eq=False)
class Scenario:
    mode: str
    grid: Grid
    medium: Medium
    stepper: StepperConfig
    nabla_scheme: str
    duration: float
    steps: int
    initial: np.ndarray  # (M, 7) + n complex: per field A (0:3), rho (3), J (4:7)
    background: np.ndarray | None
    diagnostics: list = field(default_factory=list)
    description: str = ""
    output_dir: str | None = None


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
    # written only where a preset is given: a null preset's channels stay unwritten pages
    initial = np.zeros((len(fd), 7) + grid.n, dtype=np.complex128)
    for i, fdict in enumerate(fd):
        p = f"initial_conditions[{i}]"
        fdict = _object(fdict, p)
        a_preset = _take(fdict, "afield", p)
        t_preset = _take(fdict, "theta", p)
        _done(fdict, p)
        if a_preset is not None:
            initial[i, _A] = build_preset(a_preset, grid, f"{p}.afield", "vector")
        if t_preset is not None:
            initial[i, _RHO], initial[i, _J] = build_preset(t_preset, grid, f"{p}.theta", "pair")

    background = None if bg_preset is None else build_preset(bg_preset, grid, "background", "vector")

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
        initial=initial,
        background=background,
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
