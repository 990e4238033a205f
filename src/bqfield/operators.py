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

Both schemes differentiate on Fourier coefficients, one multiplier per
axis: spectral's k, and central4's 5-point stencil as its own Fourier
symbol, d(k) = (8 sin kh - sin 2kh) / (6h) for d/dx and
-(30 - 32 cos kh + 2 cos 2kh) / (12 h^2) for d^2/dx^2, which on a periodic
grid is the stencil exactly (the modified wavenumber of Lele 1992,
J. Comput. Phys. 103:16).  ``Nabla``'s operators take and return physical
arrays on the full grid, so they differentiate products that are not
band-limited exactly.  Between calls the stepper holds Fourier coefficients
on the band, the wavenumbers its scheme's derivative symbol acts on
(``to_spectrum``/``from_spectrum``): spectral's 2/3 band, which is all a
dealiased state has, and central4's whole grid.
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
        Thread count handed to scipy.fft; negative counts back from the CPU
        count, as scipy reads them.

    Every derivative is a multiply of Fourier coefficients by the scheme's
    symbol: i s_a for d/dx_a and -sum_a l_a for the Laplacian, with s_a = k
    and l_a = k^2 on spectral, s_a = d(k) = (8 sin kh - sin 2kh) / (6h) and
    l_a = (30 - 32 cos kh + 2 cos 2kh) / (12 h^2) on central4, the
    5-point stencils' symbols.  The band holds the Fourier coefficients the
    stepper keeps: every |k_i| <= n_i/3 on spectral, the whole grid on
    central4.  ``to_spectrum`` is fftn then a gather of the band (8 block
    copies on spectral, which is the 2/3 rule; none on central4),
    ``band_of_terms`` the same from 1-D factors with no 3-D transform, and
    ``from_spectrum`` scatters into zeros then runs ifftn, in a buffer the
    caller gives or in a new one.  ``_d`` takes band-sized arrays too.
    ``band_k2`` gives the symbol's s^2 on the band, and ``band_frame`` the
    eigenbasis of its curl, in which ``to_helicity`` and ``from_helicity``
    rotate a whole stack of band fields.
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
        # Per axis the runs of the band, the wavenumbers the stepper holds, and
        # the real symbols s_a of d/dx_a = i s_a and l_a of d^2/dx_a^2 = -l_a:
        # spectral's k and k^2 on its 2/3 band, central4's 5-point stencils'
        # own on the whole axis.  Both zero the odd Nyquist wavenumber of s_a,
        # so first derivatives of real data stay real.
        self._runs, self._symbol, self._ik, self._l = [], [], [], []
        for ax, (n, h) in enumerate(zip(grid.n, grid.h)):
            shape = [1, 1, 1]
            shape[ax] = -1
            k = 2 * np.pi * np.fft.fftfreq(n, d=h)
            odd = (np.arange(n) == n // 2) & (n % 2 == 0)
            if scheme == "spectral":
                runs, s, lap = _band_runs(n), k, k**2
            else:
                runs = ((slice(0, n), slice(0, n)),)
                s = (8 * np.sin(k * h) - np.sin(2 * k * h)) / (6 * h)
                lap = (30 - 32 * np.cos(k * h) + 2 * np.cos(2 * k * h)) / (12 * h * h)
            kd = np.where(odd, 0.0, s)
            band = np.concatenate([kd[full] for _, full in runs])
            self._runs.append(runs)
            self._symbol.append(band.reshape(shape))
            self._ik.append({len(v): 1j * v.reshape(shape) for v in (kd, band)})  # by axis length
            self._l.append(lap.reshape(shape))
        # the Laplacian's symbol, the sum of the l_a, is grid-sized: spectral
        # makes it here, ahead of a run's large arrays (made mid-run, it left a
        # 32^3 united run's peak RSS 1 MiB higher), and central4 on first use,
        # so a central4 run that takes no Laplacian holds no grid-sized array
        self._lap_symbol = sum(self._l) if scheme == "spectral" else None
        self._band_shape = tuple(s.size for s in self._symbol)
        self._band_blocks = [tuple((..., *s) for s in zip(*runs)) for runs in product(*self._runs)]
        # the band's k_x runs in chunks of at most a sixteenth of a run, and
        # its (k_y, k_z) blocks, as (band, full) index pairs: a rotation runs
        # one chunk at a time, so its temporaries stay small and in cache
        self._band_rows = _chunks(self._runs[0])
        self._band_planes = [tuple(zip(*yz)) for yz in product(*self._runs[1:])]
        self._frame = None

    # -- transforms ----------------------------------------------------------
    def fftn(self, f):
        return sfft.fftn(f, axes=_AXES, workers=self.workers)

    def ifftn(self, fh):
        """Inverse transform that consumes ``fh``: scipy may overwrite it, so
        callers pass only an array they made for this call."""
        return sfft.ifftn(fh, axes=_AXES, workers=self.workers, overwrite_x=True)

    # -- the symbols: d/dx_a and the Laplacian on Fourier coefficients ----------
    def _d(self, fh, a: int):
        return self._ik[a][fh.shape[a - 3]] * fh

    def _lap(self, fh):
        if self._lap_symbol is None:
            self._lap_symbol = sum(self._l)
        return -self._lap_symbol * fh

    # -- the band: Fourier coefficients on the wavenumbers of the symbol --------
    def to_spectrum(self, f):
        """The band coefficients of physical arrays f: fftn, then on spectral
        a gather of the 2/3 band (8 block copies), which is the 2/3 rule; on
        central4 the band is the whole grid."""
        fh = self.fftn(f)
        if fh.shape[-3:] == self._band_shape:
            return fh
        X = np.empty(fh.shape[:-3] + self._band_shape, dtype=fh.dtype)
        for band, full in self._band_blocks:
            X[band] = fh[full]
        return X

    def band_of_terms(self, terms):
        """``to_spectrum`` of rows of rank-1 terms, shape (rows, channels) +
        band, with no 3-D transform: a term (coef, (f_x, f_y, f_z)) is coef
        f_x(x) f_y(y) f_z(z), and the DFT of that product is coef times the
        outer product of its factors' 1-D DFTs, each gathered to the band's
        runs.  A None term is a zero channel."""
        X = np.zeros((len(terms), len(terms[0])) + self._band_shape, np.complex128)
        for row, x in zip(terms, X):
            for t, xc in zip(row, x):
                if t is None:
                    continue
                coef, factors = t
                ffts = (sfft.fft(f, workers=self.workers) for f in factors)
                bx, by, bz = (np.concatenate([F[full] for _, full in runs]) for F, runs in zip(ffts, self._runs))
                np.multiply(bx[:, None, None] * by[:, None], bz, out=xc)
                np.multiply(coef, xc, out=xc)  # coef ((f_x f_y) f_z), with no band-sized temporary
        return X

    def from_spectrum(self, X, out=None, helical=False):
        """The physical arrays of band coefficients X, written into ``out``
        where given: X scattered into zeros, rotated back from
        ``to_helicity``'s components on the way where ``helical`` (a chunk
        of k_x planes at a time, then scattered), and transformed there, so
        ``out`` also serves as the transform's buffer."""
        if out is None:
            out = np.zeros(X.shape[:-3] + self.grid.n, dtype=X.dtype)
        elif self._band_shape != self.grid.n:
            out.fill(0)
        if helical:
            for bx, fx, frame in self._frame_rows():
                t = np.empty(X[..., bx, :, :].shape, X.dtype)
                _from_helicity(frame, X[..., bx, :, :], t)
                for band, full in self._band_planes:
                    out[(..., fx) + full] = t[(...,) + band]
        else:
            for band, full in self._band_blocks:
                out[full] = X[band]
        f = self.ifftn(out)
        if not np.may_share_memory(f, out):  # scipy did not transform in place
            out[...] = f
        return out

    def band_k2(self):
        """s^2 = |k|^2 on the band, of the symbol ``band_frame`` is built from
        (spectral's k, central4's d(k))."""
        return sum(k**2 for k in self._symbol)

    def band_frame(self):
        """The eigenbasis of the band curl, as (c, sigma, cy, cz, s), made on
        first call and kept.

        A right-handed orthonormal frame per band wavenumber, built from the
        scheme's symbol k (d(k) on central4), u = (0, cz, -cy),
        w = (-sigma, c cy, c cz) and n = u x w = (c, sigma cy, sigma cz), with
        k = s n and s = |k|: u is n x e_x normalised, w = n x u.  So k x maps
        u + i w to -i s (u + i w), u - i w to i s (u - i w) and n to 0.
        Broadcast from the three 1-D wavenumber axes: cy and cz have shape
        (1, ny, nz) and c, sigma, s the band's.
        """
        if self._frame is None:
            kx, ky, kz = self._symbol
            rho = np.hypot(ky, kz)
            s = np.sqrt(self.band_k2())
            c = np.divide(kx, s, out=np.ones_like(s), where=s != 0)
            sigma = np.divide(rho, s, out=np.zeros_like(s), where=s != 0)
            cy = np.divide(ky, rho, out=np.ones_like(rho), where=rho != 0)
            cz = np.divide(kz, rho, out=np.zeros_like(rho), where=rho != 0)
            self._frame = c, sigma, cy, cz, s
        return self._frame

    def to_helicity(self, X):
        """A stack X of band fields (component axis -4) in ``band_frame``'s
        characteristic components.  A vector v goes to (u.v + i w.v,
        u.v - i w.v, n.v), on which the band's k x acts as i s, -i s and 0.
        A scalar and a vector (f, v), such as (rho, J), go to (f - n.v, h+,
        h-, f + n.v), with h+- v's first two, on which free transport
        (f, v)' = (-i k.v, -i k f - k x v) acts as -i s (-1, 1, -1, 1).  One
        field and one chunk of k_x planes at a time, so the temporaries are
        small, never (3, 3) + band.  The components go into a new array, the
        caller's to keep (step 1 keeps it as the new state's coefficients and
        multiplies the gains in there), never into X: a component is read
        after others are written."""
        H = np.empty(X.shape, np.result_type(X, 1j))
        for bx, _, frame in self._frame_rows():
            _to_helicity(frame, X[..., bx, :, :], H[..., bx, :, :])
        return H

    def from_helicity(self, H):
        """The band fields whose ``to_helicity`` components are H."""
        X = np.empty(H.shape, H.dtype)
        for bx, _, frame in self._frame_rows():
            _from_helicity(frame, H[..., bx, :, :], X[..., bx, :, :])
        return X

    def _frame_rows(self):
        """(band k_x chunk, its full-grid k_x, ``band_frame``'s (c, sigma,
        cy, cz) on the chunk) per chunk of the band's k_x axis."""
        c, sigma, cy, cz, _ = self.band_frame()
        return [(bx, fx, (c[bx], sigma[bx], cy, cz)) for bx, fx in self._band_rows]

    # -- operators on Fourier coefficients ------------------------------------
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
        return self.ifftn(self._grad(self.fftn(f)))

    def div(self, F):
        """Divergence of a vector field (component axis first)."""
        return self.ifftn(self._div(self.fftn(F)))

    def curl(self, F):
        """Curl of a vector field (component axis first)."""
        return self.ifftn(self._curl(self.fftn(F)))

    def laplacian(self, f):
        """Laplacian of a scalar or componentwise of a vector field."""
        return self.ifftn(self._lap(self.fftn(f)))

    def quaternion_gradient(self, F: Biquaternion) -> Biquaternion:
        """Quaternion gradient nabla o F = -div F + (grad f + curl F).

        One forward and one inverse transform per channel, against 14 transforms for separate grad, div and curl.
        """
        s, v = self._quaternion_gradient(self.fftn(F.scalar), self.fftn(F.vector))
        return Biquaternion(self.ifftn(s), self.ifftn(v))

    def dealias(self, f):
        """2/3-rule filter: zero every mode with any |k_i| > n_i/3.

        The scheme's rule, not a setting: spectral filters every quadratic
        product and the initial data (exact for band-limited inputs), and
        central4 returns its input.
        """
        return self.from_spectrum(self.to_spectrum(f)) if self.scheme == "spectral" else f


def _to_helicity(frame, X, H):
    """H <- ``Nabla.to_helicity`` of X, with (c, sigma, cy, cz) of the frame
    on X's wavenumbers: u.v +- i w.v with u.v = cz v_y - cy v_z and
    w.v = -sigma v_x + c (cy v_y + cz v_z), and n.v = c v_x + sigma (cy v_y +
    cz v_z)."""
    c, sigma, cy, cz = frame
    for i in np.ndindex(X.shape[:-4]):
        x, h = X[i], H[i]
        v, hv = x[-3:], h[-3:]
        t = cy * v[1]
        t += cz * v[2]  # v along (0, cy, cz)
        np.multiply(sigma, t, out=hv[2])
        hv[2] += c * v[0]
        q = c * t
        q -= sigma * v[0]
        q *= 1j
        p = cz * v[1]
        p -= cy * v[2]
        np.add(p, q, out=hv[0])
        np.subtract(p, q, out=hv[1])
        if len(x) == 4:  # (f - n.v, h+, h-, f + n.v)
            np.subtract(x[0], hv[2], out=h[0])
            hv[2] += x[0]


def _from_helicity(frame, H, X):
    """X <- the fields whose ``_to_helicity`` components are H.
    A vector is p u + q w + r n with p, q = (h+ + h-)/2, (h+ - h-)/2i and
    r = n.v; a scalar and a vector (a, h+, h-, b) have f, n.v = (a + b)/2,
    (b - a)/2."""
    c, sigma, cy, cz = frame
    for i in np.ndindex(H.shape[:-4]):
        h, x = H[i], X[i]
        if len(h) == 4:
            hn = h[3] - h[0]
            hn *= 0.5
            np.add(h[0], h[3], out=x[0])
            x[0] *= 0.5
            hp, hm = h[1], h[2]
        else:
            hp, hm, hn = h
        v = x[-3:]
        p2 = hp + hm  # 2 p
        q = hp - hm
        q *= -0.5j
        np.multiply(c, hn, out=v[0])
        v[0] -= sigma * q
        q *= c
        q += sigma * hn  # v along (0, cy, cz)
        np.multiply(cy, q, out=v[1])
        v[1] += (cz / 2) * p2
        np.multiply(cz, q, out=v[2])
        v[2] -= (cy / 2) * p2


def _chunks(runs):
    """Each (band, full) run of slices of an axis cut into chunks of at
    most a sixteenth of it, as (band, full) pairs."""
    chunks = []
    for band, full in runs:
        m = band.stop - band.start
        step = max(1, -(-m // 16))
        chunks += [(slice(band.start + i, band.start + min(i + step, m)),
                    slice(full.start + i, full.start + min(i + step, m))) for i in range(0, m, step)]
    return chunks


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
