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
they differentiate products that are not band-limited exactly.  Between
calls data is held in its band representation (``to_band``/``from_band``):
on spectral only the 2/3 band of Fourier coefficients, which is all a
dealiased state has, on central4 the physical array itself.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from scipy import fft as sfft

from .biquaternion import Biquaternion
from .fields import _integer

__all__ = ["Nabla", "apply_dplus", "apply_dminus", "apply_box"]

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
        Thread count handed to scipy.fft (spectral scheme only); negative
        counts back from the CPU count, as scipy reads them.

    On spectral the band representation holds the Fourier coefficients with
    every |k_i| <= n_i/3: ``to_band`` is fftn then a gather of the band (8
    block copies), and ``from_band`` scatters into zeros then runs ifftn,
    in a buffer the caller gives or in a new one.  The gather is the 2/3
    rule.  On central4 the band representation is physical and both return
    their input (``from_band`` copies it into a given buffer).  ``_d``
    takes band-sized arrays too, ``band_k2`` gives their |k|^2, and
    ``band_frame`` the band curl's eigenbasis, in which ``to_helicity`` and
    ``from_helicity`` rotate a whole stack of band vector fields.
    """

    schemes = ("spectral", "central4")

    def __init__(self, grid, scheme: str = "spectral", workers: int = 1):
        if scheme not in self.schemes:
            raise ValueError(f"unknown scheme {scheme!r}, pick from {self.schemes}")
        self.grid = grid
        self.scheme = scheme
        try:
            self.workers = _integer(workers)
        except TypeError:
            self.workers = 0  # not an integer: refused below
        if self.workers == 0:
            raise ValueError(f"workers must be a nonzero integer, got {workers!r}")
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
            self._band_shape = tuple(2 * (n // 3) + 1 for n in grid.n)
            self._band_blocks = [tuple((..., *s) for s in zip(*runs))
                                 for runs in product(*map(_band_runs, grid.n))]
            self._frame = None

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

    # -- the band representation: the 2/3 band on spectral, physical on central4 --
    def to_band(self, f):
        if self.scheme != "spectral":
            return f
        fh = self.fftn(f)
        X = np.empty(fh.shape[:-3] + self._band_shape, dtype=fh.dtype)
        for band, full in self._band_blocks:
            X[band] = fh[full]
        return X

    def from_band(self, X, out=None):
        """The physical arrays of band coefficients X, written into ``out``
        where given.  On spectral X is scattered into zeros and transformed
        there, so ``out`` also serves as the transform's buffer."""
        if self.scheme != "spectral":
            if out is not None:
                out[...] = X
            return X if out is None else out
        if out is None:
            out = np.zeros(X.shape[:-3] + self.grid.n, dtype=X.dtype)
        else:
            out.fill(0)
        for band, full in self._band_blocks:
            out[full] = X[band]
        f = self.ifftn(out)
        if not np.may_share_memory(f, out):  # scipy did not transform in place
            out[...] = f
        return out

    def band_k2(self):
        """|k|^2 on the band, from the ik that ``_d`` multiplies by (spectral)."""
        return sum(self._ik[a][m].imag ** 2 for a, m in enumerate(self._band_shape))

    def band_frame(self):
        """The eigenbasis of the band curl (spectral), as (c, sigma, cy, cz, s),
        made on first call and kept.

        A right-handed orthonormal frame per band wavenumber k,
        u = (0, cz, -cy), w = (-sigma, c cy, c cz) and n = u x w =
        (c, sigma cy, sigma cz), with k = s n and s = |k|: u is n x e_x
        normalised, w = n x u.  So k x maps u + i w to -i s (u + i w),
        u - i w to i s (u - i w) and n to 0.  Broadcast from the three 1-D
        wavenumber axes: cy and cz have shape (1, ny, nz) and c, sigma, s
        the band's.
        """
        if self._frame is None:
            kx, ky, kz = (self._ik[a][m].imag for a, m in enumerate(self._band_shape))
            rho = np.hypot(ky, kz)
            s = np.sqrt(self.band_k2())
            c = np.divide(kx, s, out=np.ones_like(s), where=s != 0)
            sigma = np.divide(rho, s, out=np.zeros_like(s), where=s != 0)
            cy = np.divide(ky, rho, out=np.ones_like(rho), where=rho != 0)
            cz = np.divide(kz, rho, out=np.zeros_like(rho), where=rho != 0)
            self._frame = c, sigma, cy, cz, s
        return self._frame

    def to_helicity(self, X):
        """A stack X of band vectors (component axis -4) in ``band_frame``'s
        helicity components (u.X + i w.X, u.X - i w.X, n.X), on which the
        band's k x acts as i s, -i s and 0.  One field at a time, so the
        frame and the temporaries are band arrays, never (3, 3) + band."""
        c, sigma, cy, cz, _ = self.band_frame()
        H = np.empty(X.shape, np.result_type(X, 1j))
        for x, h in zip(_vectors(X), _vectors(H)):
            t = cy * x[1]
            t += cz * x[2]  # X along (0, cy, cz)
            np.multiply(sigma, t, out=h[2])
            h[2] += c * x[0]
            q = c * t
            q -= sigma * x[0]
            q *= 1j
            p = cz * x[1]
            p -= cy * x[2]
            np.add(p, q, out=h[0])
            np.subtract(p, q, out=h[1])
        return H

    def from_helicity(self, H):
        """The band vectors whose ``to_helicity`` components are H:
        X = p u + q w + r n with p, q = (h+ + h-)/2, (h+ - h-)/2i and r = h0."""
        c, sigma, cy, cz, _ = self.band_frame()
        X = np.empty(H.shape, H.dtype)
        for h, x in zip(_vectors(H), _vectors(X)):
            p2 = h[0] + h[1]  # 2 p
            q = h[0] - h[1]
            q *= -0.5j
            np.multiply(c, h[2], out=x[0])
            x[0] -= sigma * q
            q *= c
            q += sigma * h[2]  # X along (0, cy, cz)
            np.multiply(cy, q, out=x[1])
            x[1] += (cz / 2) * p2
            np.multiply(cz, q, out=x[2])
            x[2] -= (cy / 2) * p2
        return X

    # -- operators in derivative space ----------------------------------------
    def _grad(self, fh):
        return np.stack([self._d(fh, a) for a in range(3)])

    def _div(self, Fh):
        out = self._d(Fh[0], 0)
        for a in (1, 2):
            out += self._d(Fh[a], a)
        return out

    def _curl(self, Fh, out=None):
        """curl F into ``out`` (made here if not given)."""
        for a in range(3):  # component a is d_b F_c - d_c F_b, (a, b, c) cyclic
            b, c = (a + 1) % 3, (a + 2) % 3
            p, q = self._d(Fh[c], b), self._d(Fh[b], c)
            if out is None:
                out = np.empty((3,) + p.shape, p.dtype)
            np.subtract(p, q, out=out[a])
            del p, q  # before the next pair is made
        return out

    def _quaternion_gradient(self, fh, Vh, out=None):
        """nabla o (f + V) as (scalar, vector), views of ``out``, one
        complex (4,) + shape array (made here if not given)."""
        if out is None:  # complex, as a Biquaternion's parts always are
            out = np.empty((4,) + Vh.shape[1:], np.result_type(fh, Vh))
        # grad f added into the curl's rows: no stacked gradient, no temporary sum
        self._curl(Vh, out=out[1:])
        for a in range(3):
            out[1 + a] += self._d(fh, a)
        np.negative(self._div(Vh), out=out[0])
        return out[0], out[1:]

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
        return self.from_band(self.to_band(f))


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


def _vectors(X):
    """A stack of vectors (component axis -4) as one stack of vectors: a
    view where X is contiguous."""
    return X.reshape((-1,) + X.shape[-4:])


def _band_runs(n: int):
    """The two runs of an axis of n points that the 2/3 rule keeps, as
    (slice of the band, slice of the full axis): wavenumbers 0..m and -m..-1
    with m = n // 3, i.e. every |k| <= n/3."""
    m = n // 3
    return (slice(0, m + 1), slice(0, m + 1)), (slice(m + 1, 2 * m + 1), slice(n - m, n))


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
