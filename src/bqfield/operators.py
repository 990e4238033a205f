"""Discrete nabla on a periodic grid and the mutual complex gradients D+-.

Two interchangeable schemes sit behind one interface:

* ``spectral`` -- exact wavenumber multiplication via FFT (default; the odd
  Nyquist wavenumber is zeroed so first derivatives of real data stay real),
* ``central4`` -- fourth-order centred differences with periodic wraparound.

The mutual gradients act on biquaternions F = f + F as

    D+- F = (dF/dtau -+ i div F) + (dF/dtau_vec +- i grad f +- i curl F)

and factor the wave operator: D- D+ = D+ D- = d^2/dtau^2 - Laplacian.  With
the quaternion gradient nabla o F = -div F + (grad f + curl F) they read
D+- F = dF/dtau +- i nabla o F.  Time
derivatives are not discretised here; callers supply them (analytically in
tests, from stored history in diagnostics).
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy import fft as sfft

from .biquaternion import Biquaternion

__all__ = ["Nabla", "DerivativeSpace", "apply_dplus", "apply_dminus", "apply_box"]

_AXES = (-3, -2, -1)


class Nabla:
    """Spatial derivative bundle bound to a grid and a scheme.

    Parameters
    ----------
    grid : Grid
        Periodic box; only n, L, h are used.
    scheme : str
        "spectral" or "central4".
    workers : int
        Thread count handed to scipy.fft (spectral scheme only).
    """

    schemes = ("spectral", "central4")

    def __init__(self, grid, scheme: str = "spectral", workers: int = 1):
        if scheme not in self.schemes:
            raise ValueError(f"unknown scheme {scheme!r}, pick from {self.schemes}")
        self.grid = grid
        self.scheme = scheme
        self.workers = int(workers)
        if scheme == "spectral":
            # ik arrays for first derivatives (odd Nyquist zeroed), |k|^2 for the
            # Laplacian (Nyquist kept: even derivative), and the 2/3-rule mask.
            iks = []
            k2s = []
            keep = []
            for ax, (n, h) in enumerate(zip(grid.n, grid.h)):
                k = 2 * np.pi * np.fft.fftfreq(n, d=h)
                k2s.append(k**2)
                kd = k.copy()
                if n % 2 == 0:
                    kd[n // 2] = 0.0
                iks.append(1j * kd)
                m = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n / 3
                keep.append(m)
            shape = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
            self._ik = [a.reshape(s) for a, s in zip(iks, shape)]
            self._k2 = sum(a.reshape(s) for a, s in zip(k2s, shape))
            self._dealias = np.ones(grid.n, dtype=bool)
            for m, s in zip(keep, shape):
                self._dealias &= m.reshape(s)

    # -- transforms ----------------------------------------------------------
    def fftn(self, f):
        return sfft.fftn(f, axes=_AXES, workers=self.workers)

    def ifftn(self, fh):
        return sfft.ifftn(fh, axes=_AXES, workers=self.workers)

    # -- scheme primitives: into derivative space, d/dx_a, Laplacian, back ----
    # Spectral works on Fourier coefficients; central4 stays in physical space
    # on its roll stencils and does no transforms.
    def _to(self, f):
        return self.fftn(f) if self.scheme == "spectral" else f

    def _d(self, fh, a: int):
        if self.scheme == "spectral":
            return self._ik[a] * fh
        r = partial(np.roll, fh, axis=a - 3)
        return (-r(-2) + 8 * r(-1) - 8 * r(1) + r(2)) / (12 * self.grid.h[a])

    def _lap(self, fh):
        if self.scheme == "spectral":
            return -self._k2 * fh
        out = 0
        for a, h in enumerate(self.grid.h):
            r = partial(np.roll, fh, axis=a - 3)
            out = out + (-r(-2) + 16 * r(-1) - 30 * fh + 16 * r(1) - r(2)) / (12 * h * h)
        return out

    def _back(self, fh):
        return self.ifftn(fh) if self.scheme == "spectral" else fh

    def _mask(self, fh):
        """2/3 rule in derivative space, in place (all-pass on central4)."""
        if self.scheme == "spectral":
            fh *= self._dealias
        return fh

    # -- operators in derivative space ----------------------------------------
    def _grad(self, fh):
        return np.stack([self._d(fh, a) for a in range(3)])

    def _div(self, Fh):
        return sum(self._d(Fh[a], a) for a in range(3))

    def _curl(self, Fh):
        d = self._d
        return np.stack(
            [
                d(Fh[2], 1) - d(Fh[1], 2),
                d(Fh[0], 2) - d(Fh[2], 0),
                d(Fh[1], 0) - d(Fh[0], 1),
            ]
        )

    def _quaternion_gradient(self, fh, Vh):
        return -self._div(Vh), self._grad(fh) + self._curl(Vh)

    # -- differential operators -------------------------------------------------
    def grad(self, f):
        """Gradient of a scalar field, shape (3, nx, ny, nz)."""
        return self._back(self._grad(self._to(f)))

    def div(self, F):
        """Divergence of a vector field (component axis first)."""
        return self._back(self._div(self._to(F)))

    def curl(self, F):
        """Curl of a vector field (component axis first)."""
        return self._back(self._curl(self._to(F)))

    def laplacian(self, f):
        """Laplacian of a scalar or componentwise of a vector field."""
        return self._back(self._lap(self._to(f)))

    def quaternion_gradient(self, F: Biquaternion) -> Biquaternion:
        """Quaternion gradient nabla o F = -div F + (grad f + curl F).

        One forward and one inverse transform per channel on the spectral
        scheme, against 14 transforms for separate grad, div and curl.
        """
        s, v = self._quaternion_gradient(self._to(F.scalar), self._to(F.vector))
        return Biquaternion(self._back(s), self._back(v))

    def dealias(self, f):
        """2/3-rule filter: zero every mode with any |k_i| > n_i/3.

        Applied to quadratic products only; with band-limited inputs this
        removes the aliased tail exactly.
        """
        return self._back(self._mask(self._to(f)))

    def product_term(self, f, dealias: bool):
        """A quadratic product as a right-hand-side term, 2/3-filtered if dealias."""
        return self.dealias(f) if dealias else f


class DerivativeSpace:
    """A Nabla's operators on data kept in its derivative space: ``to``/``back``
    move data in and out (FFT on spectral, identity on central4), and
    ``product_term`` takes a physical product in, with the 2/3 rule as a mask.
    """

    def __init__(self, nabla: Nabla):
        self.nabla = nabla
        self.to, self.back = nabla._to, nabla._back

    def div(self, Fh):
        return self.nabla._div(Fh)

    def curl(self, Fh):
        return self.nabla._curl(Fh)

    def quaternion_gradient(self, Fh: Biquaternion) -> Biquaternion:
        return Biquaternion(*self.nabla._quaternion_gradient(Fh.scalar, Fh.vector))

    def product_term(self, f, dealias: bool):
        fh = self.to(f)
        return self.nabla._mask(fh) if dealias else fh


def apply_dplus(nabla: Nabla, F: Biquaternion, dF_dtau: Biquaternion) -> Biquaternion:
    """D+ F = dF/dtau + i nabla o F = (f_tau - i div F) + (F_tau + i grad f + i curl F)."""
    return dF_dtau.add_scaled(nabla.quaternion_gradient(F), 1j)


def apply_dminus(nabla: Nabla, F: Biquaternion, dF_dtau: Biquaternion) -> Biquaternion:
    """D- F = dF/dtau - i nabla o F = (f_tau + i div F) + (F_tau - i grad f - i curl F)."""
    return dF_dtau.add_scaled(nabla.quaternion_gradient(F), -1j)


def apply_box(nabla: Nabla, F: Biquaternion, d2F_dtau2: Biquaternion) -> Biquaternion:
    """Wave operator (d^2/dtau^2 - Laplacian) F, componentwise."""
    return Biquaternion(
        d2F_dtau2.scalar - nabla.laplacian(F.scalar),
        d2F_dtau2.vector - nabla.laplacian(F.vector),
    )
