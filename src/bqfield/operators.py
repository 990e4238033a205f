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

``Nabla``'s operators take and return physical arrays on the full grid, so
they differentiate products that are not band-limited exactly.  Its
``DerivativeSpace`` (``Nabla.space``) holds data between calls: on spectral
only the 2/3 band of Fourier coefficients, which is all a dealiased state
has, on central4 the physical array itself.
"""

from __future__ import annotations

from itertools import product

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
            # ik for first derivatives (odd Nyquist zeroed), keyed by the length
            # of the axis it multiplies: n on the full grid, 2 (n // 3) + 1 on
            # the 2/3 band; |k|^2 for the Laplacian (Nyquist kept: even
            # derivative).
            self._ik, self._k2 = [], 0
            for ax, (n, h) in enumerate(zip(grid.n, grid.h)):
                shape = [1, 1, 1]
                shape[ax] = -1
                k = 2 * np.pi * np.fft.fftfreq(n, d=h)
                kd = np.where((np.arange(n) == n // 2) & (n % 2 == 0), 0.0, k)
                band = np.concatenate([kd[full] for _, full in _band_runs(n)])
                self._ik.append({len(v): 1j * v.reshape(shape) for v in (kd, band)})
                self._k2 = self._k2 + (k**2).reshape(shape)
        self.space = DerivativeSpace(self)

    # -- transforms ----------------------------------------------------------
    def fftn(self, f):
        return sfft.fftn(f, axes=_AXES, workers=self.workers)

    def ifftn(self, fh):
        """Inverse transform that consumes ``fh``: scipy may overwrite it, so
        callers pass only an array they made for this call."""
        return sfft.ifftn(fh, axes=_AXES, workers=self.workers, overwrite_x=True)

    # -- scheme primitives: into derivative space, d/dx_a, Laplacian, back ----
    # Spectral works on Fourier coefficients; central4 stays in physical space
    # on one periodic 5-point stencil and does no transforms.
    def _to(self, f):
        return self.fftn(f) if self.scheme == "spectral" else f

    def _d(self, fh, a: int):
        if self.scheme == "spectral":
            return self._ik[a][fh.shape[a - 3]] * fh
        return _five_point(fh, a - 3, 1 / (12 * self.grid.h[a]), 8)

    def _lap(self, fh):
        if self.scheme == "spectral":
            return -self._k2 * fh
        return sum(_five_point(fh, a - 3, 1 / (12 * h * h), 16, -30) for a, h in enumerate(self.grid.h))

    def _back(self, fh):
        return self.ifftn(fh) if self.scheme == "spectral" else fh

    # -- operators in derivative space ----------------------------------------
    def _grad(self, fh):
        return np.stack([self._d(fh, a) for a in range(3)])

    def _div(self, Fh):
        return sum(self._d(Fh[a], a) for a in range(3))

    def _curl(self, Fh):
        out = None
        for a in range(3):  # component a is d_b F_c - d_c F_b, (a, b, c) cyclic
            b, c = (a + 1) % 3, (a + 2) % 3
            p, q = self._d(Fh[c], b), self._d(Fh[b], c)
            if out is None:
                out = np.empty((3,) + p.shape, p.dtype)
            np.subtract(p, q, out=out[a])
        return out

    def _quaternion_gradient(self, fh, Vh):
        # grad f added into the curl's array: no stacked gradient, no temporary sum
        v = self._curl(Vh)  # complex, as a Biquaternion's parts always are
        for a in range(3):
            v[a] += self._d(fh, a)
        return -self._div(Vh), v

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

        The scheme's rule, not a setting: spectral filters every quadratic
        product and the initial data (exact for band-limited inputs), and
        central4 returns its input.
        """
        return self.space.back(self.space.to(f))


def _five_point(f, axis: int, scale: float, w1: int, w0: int | None = None):
    """Fourth-order periodic stencil along ``axis`` (negative), f[k] = f(x + k h):

        scale (w1 (f[1] - f[-1]) - (f[2] - f[-2]))             if w0 is None,
        scale (w1 (f[1] + f[-1]) - (f[2] + f[-2]) + w0 f[0])   otherwise.

    One copy of f wrap-padded by 2 along the axis; the shifts are slices of
    it, combined in place into one output array.
    """
    n = f.shape[axis]
    rest = (slice(None),) * (-1 - axis)
    p = np.concatenate((f[(..., slice(n - 2, n), *rest)], f, f[(..., slice(0, 2), *rest)]),
                       axis=axis, dtype=np.result_type(f, 1.0))
    at = [p[(..., slice(k, k + n), *rest)] for k in range(5)]  # at[2 + k] is f[k]
    odd = w0 is None
    out = (np.subtract if odd else np.add)(at[3], at[1])
    out *= w1
    out -= at[4]
    (np.add if odd else np.subtract)(out, at[0], out=out)
    if not odd:
        centre = at[2]
        centre *= w0  # the padded copy is private
        out += centre
    out *= scale
    return out


def _band_runs(n: int):
    """The two runs of an axis of n points that the 2/3 rule keeps, as
    (slice of the band, slice of the full axis): wavenumbers 0..m and -m..-1
    with m = n // 3, i.e. every |k| <= n/3."""
    m = n // 3
    return (slice(0, m + 1), slice(0, m + 1)), (slice(m + 1, 2 * m + 1), slice(n - m, n))


class DerivativeSpace:
    """A Nabla's operators on data kept in its derivative space.

    On spectral the space holds the 2/3 band, the Fourier coefficients with
    every |k_i| <= n_i/3: ``to`` is fftn then a gather of the band (8 block
    copies), ``back`` scatters into zeros then runs ifftn.  The gather is the
    2/3 rule, so ``dealias`` is ``to``.  On central4 the space is physical and
    all three return their input.  Derivatives go through the Nabla's ``_d``
    with band-sized ik, and ``k2`` gives their |k|^2 on the band.  Each Nabla
    builds one, as ``Nabla.space``.
    """

    def __init__(self, nabla: Nabla):
        self.nabla = nabla
        self.gains = None  # the stepper's (step length, gain arrays) on the band
        if nabla.scheme == "spectral":
            self.shape = tuple(2 * (n // 3) + 1 for n in nabla.grid.n)
            self._blocks = [tuple((..., *s) for s in zip(*runs))
                            for runs in product(*map(_band_runs, nabla.grid.n))]

    def to(self, f):
        if self.nabla.scheme != "spectral":
            return f
        fh = self.nabla.fftn(f)
        X = np.empty(fh.shape[:-3] + self.shape, dtype=fh.dtype)
        for band, full in self._blocks:
            X[band] = fh[full]
        return X

    dealias = to

    def back(self, X):
        if self.nabla.scheme != "spectral":
            return X
        fh = np.zeros(X.shape[:-3] + self.nabla.grid.n, dtype=X.dtype)
        for band, full in self._blocks:
            fh[full] = X[band]
        return self.nabla.ifftn(fh)

    def k2(self):
        """|k|^2 on the band, from the ik that ``Nabla._d`` multiplies by (spectral)."""
        return sum(self.nabla._ik[a][m].imag ** 2 for a, m in enumerate(self.shape))

    def curl(self, Fh):
        return self.nabla._curl(Fh)

    def quaternion_gradient(self, Fh: Biquaternion) -> Biquaternion:
        return Biquaternion(*self.nabla._quaternion_gradient(Fh.scalar, Fh.vector))


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
