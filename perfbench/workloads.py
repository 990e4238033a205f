"""Seeded scenario generator and per-workload correctness checks.

Each workload turns a seed into one scenario document (the only thing the
program sees) plus an ``expect`` dict that only the checks read.  All three
use classical RK4 at CFL 0.25 on a 2*pi periodic box.

The checks run in the child process after ``cli.main`` has returned, so they
sit outside every timed region.  They read the last state ``step_rk4``
returned; the free-transport check also rebuilds the initial state from the
scenario file, so the run itself never holds it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CFL = 0.25
TWO_PI = 2.0 * math.pi

# Every series the diagnostics engine knows; united-32-diag samples all of them.
ALL_SERIES = (
    "charge", "poynting", "first_law", "box_rho", "freeness", "reciprocity",
    "constraint_drift", "interaction_power_eh", "interaction_power_bd",
    "energy_decomposition", "integral_charge", "integral_energy",
    "integral_flux", "integral_volume",
)

# Tolerances for the series of united-32-diag that are identities of the
# scheme.  energy_decomposition is algebra and sits at round-off (< 3e-15).
# The integral volume and flux laws are exact in space (spectral sub-box
# quadrature), which leaves the fourth-order tau quadrature: measured at
# <= 0.45 dtau^4 over seeds 0..9 at 32^3 and 0..3 at 12^3 and 16^3, so the
# tolerance of 4 dtau^4 holds with a 9x margin at every grid size.
def united_tolerances(dtau: float) -> dict[str, float]:
    return {"energy_decomposition": 1e-12,
            "integral_volume": 4 * dtau**4,
            "integral_flux": 4 * dtau**4}


# name -> (grid points per axis, RK4 steps per run)
SIZES = {
    "maxwell-64": (64, 20),
    "united-32-diag": (32, 20),
    "free-64-central4": (64, 16),
}


def _cvec(v) -> dict:
    v = np.asarray(v, dtype=complex)
    return {"re": [float(x) for x in v.real], "im": [float(x) for x in v.imag]}


def _cnum(z) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _random_complex(rng, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * complex(np.exp(1j * rng.uniform(0, TWO_PI)))


def _dtau(n: int) -> float:
    return CFL * TWO_PI / n


def _maxwell(rng, n: int, steps: int):
    """Circularly polarised plane wave: an exact eigenmode of maxwell mode."""
    while True:
        k = rng.integers(-2, 3, size=3).astype(float)
        if k.any():
            break
    khat = k / np.linalg.norm(k)
    trial = rng.normal(size=3)
    e1 = trial - (trial @ khat) * khat
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(khat, e1)
    hand = int(rng.choice([-1, 1]))
    amp = _random_complex(rng, 0.5, 2.0)
    doc = {
        "description": "seeded circularly polarised plane wave",
        "mode": "maxwell",
        "grid": {"n": [n] * 3},
        "stepper": {"scheme": "rk4", "cfl": CFL},
        "duration": steps * _dtau(n),
        "initial_conditions": [{
            "afield": {
                "type": "plane_wave",
                "k": [float(x) for x in k],
                "polarization": {"re": [float(x) for x in e1],
                                 "im": [float(hand * x) for x in e2]},
                "amplitude": _cnum(amp),
            }
        }],
    }
    expect = {"k": [float(x) for x in k], "e1": list(map(float, e1)),
              "e2": list(map(float, e2)), "hand": hand, "amp": _cnum(amp)}
    return doc, expect


def _free(rng, n: int, steps: int):
    """Longitudinal charge-current pulse (gradient preset) on central4 stencils."""
    doc = {
        "description": "seeded gradient charge-current pulse, central4 stencils",
        "mode": "free_theta",
        "grid": {"n": [n] * 3},
        "nabla": "central4",
        "stepper": {"scheme": "rk4", "cfl": CFL},
        "duration": steps * _dtau(n),
        "initial_conditions": [{
            "theta": {
                "type": "gaussian_pulse",
                "center": [float(x) for x in rng.uniform(0.3, 0.7, size=3) * TWO_PI],
                "width": float(rng.uniform(0.5, 0.8)),
                "gradient": True,
                "amplitude": _cnum(_random_complex(rng, 0.5, 1.5)),
                "scalar": _cnum(_random_complex(rng, 0.5, 1.5)),
            }
        }],
    }
    return doc, {}


def _united(rng, n: int, steps: int):
    """Two overlapping field + charge-current pulses with every series on."""
    c0 = rng.uniform(0.35, 0.65, size=3) * TWO_PI
    offset = rng.normal(size=3)
    c1 = c0 + rng.uniform(0.4, 0.9) * offset / np.linalg.norm(offset)
    fields = []
    for c in (c0, c1):
        width = float(rng.uniform(0.6, 0.9))
        fields.append({
            "afield": {
                "type": "gaussian_pulse", "center": [float(x) for x in c], "width": width,
                "amplitude": _cnum(_random_complex(rng, 0.5, 1.0)),
                "polarization": _cvec(rng.normal(size=3) + 1j * rng.normal(size=3)),
            },
            "theta": {
                "type": "gaussian_pulse", "center": [float(x) for x in c], "width": width,
                "amplitude": _cnum(_random_complex(rng, 0.1, 0.3)),
                "polarization": _cvec(rng.normal(size=3) + 1j * rng.normal(size=3)),
                "scalar": _cnum(_random_complex(rng, 0.5, 1.0)),
            },
        })
    region = {"lo": [n // 8, n // 5, n // 4], "hi": [n - n // 8, n - n // 5, n - n // 4]}
    tolerances = united_tolerances(_dtau(n))
    diagnostics = []
    for name in ALL_SERIES:
        spec = {"name": name, "cadence": 1}
        if name in tolerances:
            spec["tolerance"] = tolerances[name]
        if name.startswith("integral_"):
            spec["region"] = region
        diagnostics.append(spec)
    doc = {
        "description": "seeded overlapping pulses, all diagnostic series",
        "mode": "united",
        "grid": {"n": [n] * 3},
        "stepper": {"scheme": "rk4", "cfl": CFL},
        "duration": steps * _dtau(n),
        "initial_conditions": fields,
        "diagnostics": diagnostics,
    }
    return doc, {"series": list(ALL_SERIES), "tolerances": tolerances}


_BUILDERS = {"maxwell-64": _maxwell, "united-32-diag": _united, "free-64-central4": _free}
WORKLOADS = tuple(_BUILDERS)


def make_scenario(workload: str, seed: int, n: int | None = None, steps: int | None = None):
    """Return (scenario document, expect dict) for a workload and seed.

    ``n`` and ``steps`` override the workload's size (the smoke test uses a
    tiny grid); the seed alone fixes every other input.
    """
    n0, steps0 = SIZES[workload]
    n, steps = n or n0, steps or steps0
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    doc, expect = _BUILDERS[workload](rng, n, steps)
    expect.update({"workload": workload, "n": n, "steps": steps, "dtau": _dtau(n)})
    return doc, expect


# -- correctness checks ------------------------------------------------------------


def _rk4_gain(z):
    """Amplification of one classical RK4 step for y' = (z/dt) y."""
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


def _check_maxwell(expect, initial, last, out_dir):
    """The plane wave rotates by exp(-i hand |k| tau); RK4 lags by its own gain."""
    n, steps, dt = expect["n"], expect["steps"], expect["dtau"]
    k = np.asarray(expect["k"])
    pol = np.asarray(expect["e1"]) + 1j * expect["hand"] * np.asarray(expect["e2"])
    amp = complex(expect["amp"]["re"], expect["amp"]["im"])
    x = np.arange(n) * (TWO_PI / n)
    X = np.meshgrid(x, x, x, indexing="ij")
    phase = np.exp(1j * sum(k[a] * X[a] for a in range(3)))
    omega = expect["hand"] * np.linalg.norm(k)
    tau = steps * dt
    exact = amp * pol[:, None, None, None] * phase * np.exp(-1j * omega * tau)
    err = float(np.abs(last.U[0, 0:3] - exact).max())
    # a single Fourier mode makes the discrete solution exactly amp * gain^steps
    floor = abs(_rk4_gain(-1j * omega * dt) ** steps - np.exp(-1j * omega * tau))
    bound = 1.5 * floor * abs(amp) * float(np.abs(pol).max()) + 1e-11 * abs(amp)
    ok = err <= bound and math.isclose(last.tau, tau, rel_tol=1e-12)
    return ok, f"max|A - A_exact| = {err:.3e}, RK4-floor bound {bound:.3e}"


def _central4_multiplier(n: int) -> np.ndarray:
    """Real symbol d(k) of the fourth-order centred first derivative."""
    h = TWO_PI / n
    kh = TWO_PI * np.fft.fftfreq(n)
    return (8 * np.sin(kh) - np.sin(2 * kh)) / (6 * h)


def _check_free(expect, initial, last, out_dir):
    """Skew-adjoint flow: each Fourier mode's norm scales by |gain(i|d|dt)|^steps."""
    steps, dt = expect["steps"], expect["dtau"]
    theta0, theta1 = initial().U[:, 3:7], last.U[:, 3:7]
    norm0 = float(np.sqrt((np.abs(theta0) ** 2).sum()))
    norm1 = float(np.sqrt((np.abs(theta1) ** 2).sum()))
    d = [_central4_multiplier(m) for m in theta0.shape[-3:]]
    dmag = np.sqrt(d[0][:, None, None] ** 2 + d[1][None, :, None] ** 2 + d[2][None, None, :] ** 2)
    gain = np.abs(_rk4_gain(1j * dmag * dt)) ** steps
    power0 = (np.abs(np.fft.fftn(theta0, axes=(-3, -2, -1))) ** 2).sum(axis=(0, 1))
    predicted = float(np.sqrt((gain**2 * power0).sum() / power0.sum())) * norm0
    mismatch = abs(norm1 - predicted) / norm0
    no_growth = norm1 <= norm0 * (1 + 1e-12)
    return no_growth and mismatch <= 1e-12, (
        f"|Theta| drop {1 - norm1 / norm0:.3e}, predicted {1 - predicted / norm0:.3e}, "
        f"mismatch {mismatch:.1e}"
    )


def _check_united(expect, initial, last, out_dir):
    """Exit 0 with every series written; identity series within tolerance."""
    summary = json.loads((Path(out_dir) / "summary.json").read_text())
    series = summary["series"]
    missing = [s for s in expect["series"] if not series.get(s, {}).get("rows")]
    worst = {s: series[s]["max_linf"] for s in expect["tolerances"]}
    within = all(worst[s] <= tol for s, tol in expect["tolerances"].items())
    finite = bool(np.isfinite(last.U).all())
    ok = summary["exit_code"] == 0 and not missing and within and finite
    detail = ", ".join(f"{s} {v:.2e}" for s, v in worst.items())
    return ok, f"missing series {missing}, {detail}"


_CHECKS = {"maxwell-64": _check_maxwell, "united-32-diag": _check_united,
           "free-64-central4": _check_free}


def check(expect: dict, exit_code: int, initial, last, out_dir) -> tuple[bool, str]:
    """(passed, one-line detail) for one finished run.

    ``initial`` is a zero-argument callable returning the initial SimState;
    ``last`` is the last SimState ``step_rk4`` returned.
    """
    if exit_code != 0:
        return False, f"bqfield run exited {exit_code}"
    if last is None:
        return False, "step_rk4 was never called"
    return _CHECKS[expect["workload"]](expect, initial, last, out_dir)
