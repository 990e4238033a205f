"""Jump relations on moving wave fronts and the characteristic symbol.

A front moving with unit normal m at light speed carries field jumps [A] and
source jumps ([rho], [J]).  The admissible field jumps satisfy

    [A] + i [A] x m = 0,

equivalently the pair of real relations sqrt(eps)[E] = sqrt(mu)[H] x m and
sqrt(mu)[H] = -sqrt(eps)[E] x m; such jumps are transverse and circularly
polarised, and the jump energy-momentum satisfies W = (m, P) with ||P|| = W.
Source jumps obey m [rho] - [J] - i m x [J] = 0, whose scalar shadow is
[rho] = ([J], m).

``characteristic_roots`` builds the 4x4 symbol of the first-order system in
the plane-wave ansatz and returns its wave-speed spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import Medium

__all__ = [
    "FrontData",
    "afield_jump_residual",
    "afield_jump_energy",
    "theta_jump_residual",
    "admissible_jump",
    "characteristic_matrix",
    "characteristic_determinant",
    "characteristic_roots",
]


def _unit(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3,):
        raise ValueError(f"normal must be a 3-vector, got shape {m.shape}")
    nrm = np.linalg.norm(m)
    if not nrm > 0:
        raise ValueError("normal must be nonzero")
    return m / nrm


@dataclass(eq=False)
class FrontData:
    """Jumps carried by a light-speed front with unit normal ``m``.

    jump_E and jump_H are the real physical field jumps; jump_rho and jump_J
    are the complex charge-current jumps.  The complex field jump is assembled
    as [A] = sqrt(eps) [E] + i sqrt(mu) [H].
    """

    m: np.ndarray
    jump_E: np.ndarray = field(default_factory=lambda: np.zeros(3))
    jump_H: np.ndarray = field(default_factory=lambda: np.zeros(3))
    jump_rho: complex = 0.0
    jump_J: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.complex128))
    medium: Medium = field(default_factory=Medium)

    def __post_init__(self):
        self.m = _unit(self.m)
        self.jump_E = np.asarray(self.jump_E, dtype=float)
        self.jump_H = np.asarray(self.jump_H, dtype=float)
        self.jump_J = np.asarray(self.jump_J, dtype=np.complex128)
        assert self.jump_E.shape == (3,) and self.jump_H.shape == (3,)
        assert self.jump_J.shape == (3,)

    @property
    def jump_A(self) -> np.ndarray:
        med = self.medium
        return np.sqrt(med.epsilon) * self.jump_E + 1j * np.sqrt(med.mu) * self.jump_H


def afield_jump_residual(front: FrontData) -> dict[str, float]:
    """Residuals of the complex jump relation and of transversality.

    Returns {"jump_relation": ||[A] + i [A] x m||_inf,
             "transversality": |([A], m)|}.
    """
    jA, m = front.jump_A, front.m
    r = jA + 1j * np.cross(jA, m)
    return {
        "jump_relation": float(np.abs(r).max()),
        "transversality": float(abs(jA @ m)),
    }


def afield_jump_energy(front: FrontData) -> dict[str, float]:
    """Residuals of the real pair of jump relations and the front energy laws.

    The keys:
      ``pair_e``      sqrt(eps)[E] - sqrt(mu)[H] x m
      ``pair_h``      sqrt(mu)[H] + sqrt(eps)[E] x m
      ``energy_flux`` W - (m, P) for the jump energy W and momentum P
      ``energy_speed`` W - ||P||
      ``charge_flux`` |[rho] - ([J], m)|
    All of the first four vanish exactly on admissible jumps.
    """
    med = front.medium
    se, sm = np.sqrt(med.epsilon), np.sqrt(med.mu)
    jE, jH, m = front.jump_E, front.jump_H, front.m
    pair_e = se * jE - sm * np.cross(jH, m)
    pair_h = sm * jH + se * np.cross(jE, m)
    W = 0.5 * (med.epsilon * jE @ jE + med.mu * jH @ jH)
    P = np.cross(jE, jH) / med.c
    return {
        "pair_e": float(np.abs(pair_e).max()),
        "pair_h": float(np.abs(pair_h).max()),
        "energy_flux": float(abs(W - m @ P)),
        "energy_speed": float(abs(W - np.linalg.norm(P))),
        "charge_flux": float(abs(front.jump_rho - front.jump_J @ m)),
    }


def theta_jump_residual(front: FrontData) -> dict[str, float]:
    """Residuals of the charge-current jump relation on the front.

    ``vector`` is the full relation m [rho] - [J] - i m x [J]; ``scalar`` is
    its projection [rho] - ([J], m), which vanishes whenever the vector
    relation does.
    """
    m, jr, jJ = front.m, front.jump_rho, front.jump_J
    r_v = m * jr - jJ - 1j * np.cross(m, jJ)
    r_s = jr - jJ @ m
    return {"vector": float(np.abs(r_v).max()), "scalar": float(abs(r_s))}


def admissible_jump(m, amplitude: complex = 1.0) -> np.ndarray:
    """A complex field jump satisfying [A] + i [A] x m = 0.

    The admissible jumps form a one-complex-dimensional family spanned by the
    circular polarisation vector p with p x m = i p; any complex multiple is
    again admissible.
    """
    m = _unit(m)
    t = np.array([1.0, 0.0, 0.0])
    if abs(m[0]) > 0.9:
        t = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(m, t)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(m, e1)
    p = e1 + 1j * e2
    assert np.abs(np.cross(p, m) - 1j * p).max() < 1e-12
    return amplitude * p


def characteristic_matrix(m, lam: complex) -> np.ndarray:
    """The 4x4 plane-wave symbol of the first-order field system.

    Row ordering (scalar, vector): the scalar row couples -lam to m, the
    vector rows carry -lam on the diagonal and the cross-product structure
    +/- i m_k off the diagonal.
    """
    m = np.asarray(m, dtype=float)
    m1, m2, m3 = m
    return np.array(
        [
            [-lam, m1, m2, m3],
            [m1, -lam, -1j * m3, 1j * m2],
            [m2, 1j * m3, -lam, -1j * m1],
            [m3, -1j * m2, 1j * m1, -lam],
        ],
        dtype=np.complex128,
    )


def characteristic_determinant(m, lam: complex) -> complex:
    """det of the symbol; for unit m it equals (lam^2 - 1)^2."""
    return complex(np.linalg.det(characteristic_matrix(m, lam)))


def characteristic_roots(m) -> np.ndarray:
    """Wave speeds: the lam with det(symbol) = 0, sorted ascending.

    For unit m the determinant factors as (lam^2 - 1)^2, giving the double
    pair {-1, -1, +1, +1}: every characteristic moves at light speed and
    there is no standing root.  Computed as the eigenvalues of the symbol
    with lam = 0 (which is Hermitian, so the spectrum is real) and checked
    against the closed form.
    """
    m = _unit(m)
    B = characteristic_matrix(m, 0.0)
    assert np.abs(B - B.conj().T).max() < 1e-14
    roots = np.sort(np.linalg.eigvalsh(B))
    closed = np.array([-1.0, -1.0, 1.0, 1.0])
    assert np.abs(roots - closed).max() < 1e-12, roots
    return roots
