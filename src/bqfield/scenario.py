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
from dataclasses import dataclass, field

import numpy as np

from .evolution import MODES, StepperConfig
from .fields import Grid, Medium
from .diagnostics import LAWS

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario", "build_preset"]


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


def _number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path} must be a number, got {v!r}")
    return float(v)


def _complex_scalar(v, path: str) -> complex:
    if v is None:
        return 0.0 + 0.0j
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
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


def _int_vector(v, path: str, lo: int) -> tuple[int, ...]:
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise ScenarioError(f"{path} must be a 3-element list")
    out = []
    for i, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ScenarioError(f"{path}[{i}] must be an integer")
        if x < lo:
            raise ScenarioError(f"{path}[{i}] must be >= {lo}, got {x}")
        out.append(x)
    return tuple(out)


def _medium(md, path: str) -> Medium:
    if not isinstance(md, dict):
        raise ScenarioError(f"{path} must be an object")
    md = dict(md)
    eps = _number(_take(md, "epsilon", path, default=1.0), _ctx(path, "epsilon"))
    mu = _number(_take(md, "mu", path, default=1.0), _ctx(path, "mu"))
    kappa = _number(_take(md, "kappa", path, default=1.0), _ctx(path, "kappa"))
    _done(md, path)
    if eps <= 0 or mu <= 0 or kappa <= 0:
        raise ScenarioError(f"{path} constants must be positive")
    return Medium(epsilon=eps, mu=mu, kappa=kappa)


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
    """Build initial data from a preset dict.

    want = "vector" returns a complex (3, nx, ny, nz) array; want = "pair"
    returns (scalar, vector) for a charge-current field.
    """
    if preset is None:
        vec = np.zeros((3,) + grid.n, dtype=np.complex128)
        if want == "vector":
            return vec
        return np.zeros(grid.n, dtype=np.complex128), vec
    if not isinstance(preset, dict):
        raise ScenarioError(f"{path} must be an object or null")
    d = dict(preset)
    kind = _take(d, "type", path, required=True)
    scalar = np.zeros(grid.n, dtype=np.complex128)
    if kind == "plane_wave":
        k = _real_vector(_take(d, "k", path, required=True), _ctx(path, "k"))
        pol = _complex_vector(_take(d, "polarization", path), _ctx(path, "polarization"))
        amp = _complex_scalar(_take(d, "amplitude", path, default=1.0), _ctx(path, "amplitude"))
        sc = _complex_scalar(_take(d, "scalar", path), _ctx(path, "scalar"))
        _done(d, path)
        for a in range(3):
            kL = k[a] * grid.L[a] / (2 * np.pi)
            if abs(kL - round(kL)) > 1e-9:
                raise ScenarioError(
                    f"{path}: wave vector component {a} does not fit the box "
                    f"(k*L/2pi = {kL})"
                )
        X = grid.meshgrid()
        phase = np.exp(1j * sum(k[a] * X[a] for a in range(3)))
        vec = amp * pol[:, None, None, None] * phase
        scalar = amp * sc * phase
    elif kind == "gaussian_pulse":
        center = _real_vector(
            _take(d, "center", path, default=[L / 2 for L in grid.L]), _ctx(path, "center")
        )
        width = _number(_take(d, "width", path, default=min(grid.L) / 8), _ctx(path, "width"))
        if width <= 0:
            raise ScenarioError(f"{_ctx(path, 'width')} must be positive")
        amp = _complex_scalar(_take(d, "amplitude", path, default=1.0), _ctx(path, "amplitude"))
        pol = _take(d, "polarization", path)
        gradient = _take(d, "gradient", path, default=False)
        sc = _complex_scalar(_take(d, "scalar", path), _ctx(path, "scalar"))
        _done(d, path)
        if not isinstance(gradient, bool):
            raise ScenarioError(f"{_ctx(path, 'gradient')} must be a boolean")
        g = _periodic_gaussian(grid, center, width)
        if gradient:
            if pol is not None:
                raise ScenarioError(
                    f"{path}: gradient pulses take no polarization (they point along grad g)"
                )
            vec = amp * _periodic_gaussian(grid, center, width, gradient=True)
        else:
            p = _complex_vector(pol, _ctx(path, "polarization"))
            vec = amp * p[:, None, None, None] * g
        scalar = amp * sc * g
    elif kind == "uniform":
        val = _complex_vector(_take(d, "value", path), _ctx(path, "value"))
        sc = _complex_scalar(_take(d, "scalar", path), _ctx(path, "scalar"))
        _done(d, path)
        vec = np.broadcast_to(val[:, None, None, None], (3,) + grid.n).astype(np.complex128).copy()
        scalar = np.full(grid.n, sc, dtype=np.complex128)
    else:
        raise ScenarioError(f"{path}: unknown preset type {kind!r}")
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
    fields: list  # list of (A0 (3,n) complex, rho0 (n), J0 (3,n))
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
    if mode not in MODES:
        raise ScenarioError(f"mode must be one of {MODES}, got {mode!r}")

    output_dir = _take(d, "output_dir", "")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError("output_dir must be a string path")

    gd = _take(d, "grid", "", required=True)
    if not isinstance(gd, dict):
        raise ScenarioError("grid must be an object")
    gd = dict(gd)
    n = _int_vector(_take(gd, "n", "grid", required=True), "grid.n", lo=4)
    L_raw = _take(gd, "L", "grid", default=[2 * np.pi] * 3)
    if isinstance(L_raw, (int, float)) and not isinstance(L_raw, bool):
        L = (float(L_raw),) * 3
    else:
        L = tuple(_real_vector(L_raw, "grid.L"))
    if min(L) <= 0:
        raise ScenarioError("grid.L must be positive")
    dtau_raw = _take(gd, "dtau", "grid")
    _done(gd, "grid")

    medium = _medium(_take(d, "medium", "", default={}), "medium")

    sd = _take(d, "stepper", "", default={})
    if not isinstance(sd, dict):
        raise ScenarioError("stepper must be an object")
    sd = dict(sd)
    scheme = _take(sd, "scheme", "stepper", default="rk4")
    cfl = _number(_take(sd, "cfl", "stepper", default=0.25), "stepper.cfl")
    proj = _take(sd, "constraint_projection", "stepper", default=False)
    dealias = _take(sd, "dealias", "stepper", default=True)
    _done(sd, "stepper")
    if scheme != "rk4":
        raise ScenarioError(f"stepper.scheme must be 'rk4', got {scheme!r}")
    if not isinstance(proj, bool) or not isinstance(dealias, bool):
        raise ScenarioError("stepper flags must be booleans")
    if cfl <= 0:
        raise ScenarioError("stepper.cfl must be positive")
    stepper = StepperConfig(
        scheme=scheme,
        cfl=cfl,
        constraint_projection=proj,
        dealias=dealias,
    )

    nabla_scheme = _take(d, "nabla", "", default="spectral")
    if nabla_scheme not in ("spectral", "central4"):
        raise ScenarioError(f"nabla must be 'spectral' or 'central4', got {nabla_scheme!r}")

    h_min = min(Li / ni for Li, ni in zip(L, n))
    if dtau_raw is None:
        dtau = cfl * h_min
    else:
        dtau = _number(dtau_raw, "grid.dtau")
        if dtau <= 0:
            raise ScenarioError("grid.dtau must be positive")
        if dtau > cfl * h_min * (1 + 1e-12):
            raise ScenarioError(
                f"grid.dtau = {dtau} violates the step bound cfl * min(h) = {cfl * h_min}"
            )
    grid = Grid(n=n, L=L, dtau=dtau)

    duration = _number(_take(d, "duration", "", required=True), "duration")
    if duration <= 0:
        raise ScenarioError("duration must be positive")
    steps = int(round(duration / dtau))
    if steps < 1 or abs(steps * dtau - duration) > 1e-9 * max(1.0, duration):
        raise ScenarioError(
            f"duration = {duration} is not an integer number of steps of dtau = {dtau}"
        )

    fd = _take(d, "initial_conditions", "", required=True)
    if not isinstance(fd, list) or len(fd) < 1:
        raise ScenarioError("initial_conditions must be a non-empty list")
    if mode in ("interaction", "united") and len(fd) < 2:
        raise ScenarioError(f"mode {mode!r} needs at least two fields")
    fields = []
    for i, fdict in enumerate(fd):
        if not isinstance(fdict, dict):
            raise ScenarioError(f"initial_conditions[{i}] must be an object")
        fdict = dict(fdict)
        a_preset = _take(fdict, "afield", f"initial_conditions[{i}]")
        t_preset = _take(fdict, "theta", f"initial_conditions[{i}]")
        _done(fdict, f"initial_conditions[{i}]")
        A0 = build_preset(a_preset, grid, f"initial_conditions[{i}].afield", "vector")
        rho0, J0 = build_preset(t_preset, grid, f"initial_conditions[{i}].theta", "pair")
        fields.append((A0, rho0, J0))

    bg_preset = _take(d, "background", "")
    if mode == "strong_field":
        if bg_preset is None:
            raise ScenarioError("mode 'strong_field' requires a background preset")
        background = build_preset(bg_preset, grid, "background", "vector")
    else:
        if bg_preset is not None:
            raise ScenarioError(f"background is only meaningful in mode 'strong_field'")
        background = None

    diag = _take(d, "diagnostics", "", default=[])
    if not isinstance(diag, list):
        raise ScenarioError("diagnostics must be a list")
    specs = []
    seen = set()
    for i, spec in enumerate(diag):
        if not isinstance(spec, dict):
            raise ScenarioError(f"diagnostics[{i}] must be an object")
        spec = dict(spec)
        p = f"diagnostics[{i}]"
        name = _take(spec, "name", p, required=True)
        if name not in LAWS:
            raise ScenarioError(f"{p}.name: unknown diagnostic {name!r}")
        if name in seen:
            raise ScenarioError(f"{p}.name: duplicate diagnostic {name!r}")
        seen.add(name)
        cadence = _take(spec, "cadence", p, default=1)
        if isinstance(cadence, bool) or not isinstance(cadence, int) or cadence < 1:
            raise ScenarioError(f"{p}.cadence must be a positive integer")
        tol = _take(spec, "tolerance", p)
        if tol is not None:
            tol = _number(tol, f"{p}.tolerance")
            if tol <= 0:
                raise ScenarioError(f"{p}.tolerance must be positive")
        out = {"name": name, "cadence": cadence, "tolerance": tol}
        region = _take(spec, "region", p)
        if region is not None:
            if not isinstance(region, dict):
                raise ScenarioError(f"{p}.region must be an object")
            region = dict(region)
            lo = _int_vector(_take(region, "lo", f"{p}.region", required=True), f"{p}.region.lo", lo=0)
            hi = _int_vector(_take(region, "hi", f"{p}.region", required=True), f"{p}.region.hi", lo=1)
            _done(region, f"{p}.region")
            for a in range(3):
                if not (0 <= lo[a] < hi[a] <= n[a]):
                    raise ScenarioError(
                        f"{p}.region axis {a}: need 0 <= lo < hi <= n, got [{lo[a]}, {hi[a]})"
                    )
            out["region"] = {"lo": lo, "hi": hi}
        surface = _take(spec, "surface", p)
        if surface is not None:
            if not isinstance(surface, dict):
                raise ScenarioError(f"{p}.surface must be an object")
            surface = dict(surface)
            sout = {}
            for key in ("axis", "index", "part_axis", "j0", "j1"):
                v = _take(surface, key, f"{p}.surface", required=True)
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ScenarioError(f"{p}.surface.{key} must be an integer")
                sout[key] = v
            _done(surface, f"{p}.surface")
            if sout["axis"] == sout["part_axis"] or not (0 <= sout["axis"] <= 2) or not (0 <= sout["part_axis"] <= 2):
                raise ScenarioError(f"{p}.surface: axis and part_axis must be distinct in 0..2")
            n_part = n[sout["part_axis"]]
            if not 0 < sout["j1"] - sout["j0"] <= n_part:
                raise ScenarioError(
                    f"{p}.surface: the run j1 - j0 must be in 1..{n_part}, "
                    f"got [{sout['j0']}, {sout['j1']})"
                )
            out["surface"] = sout
        _done(spec, p)
        specs.append(out)
    # the integral laws share one accumulator: one cadence, one region, one surface
    integral = [s for s in specs if LAWS[s["name"]].kind == "integral"]
    for key in ("cadence", "region", "surface"):
        given = []
        for s in integral:
            if s.get(key) is not None and s[key] not in given:
                given.append(s[key])
        if len(given) > 1:
            raise ScenarioError(f"integral series must share one {key}, got {given}")

    _done(d, "")
    return Scenario(
        mode=mode,
        grid=grid,
        medium=medium,
        stepper=stepper,
        nabla_scheme=nabla_scheme,
        duration=duration,
        steps=steps,
        fields=fields,
        background=background,
        diagnostics=specs,
        description=description,
        output_dir=output_dir,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(doc)
