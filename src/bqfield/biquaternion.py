"""Biquaternion algebra on complex scalar + complex 3-vector pairs.

A biquaternion is written a = f + F with f a complex scalar and F a complex
3-vector.  The product is

    a @ b = (f g - (F, G)) + (f G + g F + [F, G])

where both (,) and [,] are complex *bilinear* (no conjugation anywhere in the
product -- the scalar form is the analytic continuation of the Euclidean dot,
so (F, F) can vanish for nonzero F).  Conjugation is a* = conj(f) - conj(F),
an involution: (a b)* = b* a*, (alpha a)* = conj(alpha) a*, a** = a.

All components may be numpy arrays; the vector part carries its xyz axis
first, shape (3, ...), and everything broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Biquaternion",
    "cdot",
    "ccross",
    "from_scalar",
    "from_vector",
    "basis_vector",
    "one",
]


def cdot(F, G):
    """Complex-bilinear dot product sum_k F_k G_k (no conjugation)."""
    return (np.asarray(F) * np.asarray(G)).sum(axis=0)


def ccross(F, G):
    """Complex-bilinear cross product, component axis first.

    Written out component by component into one output array, bit-identical
    to ``np.cross(F, G, axis=0)``, which moves the component axis and works on
    strided copies at several times the cost.
    """
    F, G = np.asarray(F), np.asarray(G)
    out = np.empty((3,) + np.broadcast_shapes(F.shape[1:], G.shape[1:]), np.result_type(F, G))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(F[j], G[k], out=out[i, ...])  # a view even for 3-vectors
        out[i, ...] -= F[k] * G[j]
    return out


@dataclass(slots=True)
class Biquaternion:
    """Complex scalar plus complex 3-vector, with ``@`` as the ring product."""

    scalar: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        self.scalar = np.asarray(self.scalar, dtype=np.complex128)
        self.vector = np.asarray(self.vector, dtype=np.complex128)
        assert self.vector.shape[0] == 3, (
            f"vector part must have the xyz axis first, got shape {self.vector.shape}"
        )

    # -- linear structure ---------------------------------------------------
    def __add__(self, other: "Biquaternion") -> "Biquaternion":
        return Biquaternion(self.scalar + other.scalar, self.vector + other.vector)

    def __sub__(self, other: "Biquaternion") -> "Biquaternion":
        return Biquaternion(self.scalar - other.scalar, self.vector - other.vector)

    def __neg__(self) -> "Biquaternion":
        return Biquaternion(-self.scalar, -self.vector)

    def __mul__(self, alpha) -> "Biquaternion":
        """Scaling by a complex number (or pointwise by a scalar field)."""
        alpha = np.asarray(alpha)
        return Biquaternion(alpha * self.scalar, alpha * self.vector)

    __rmul__ = __mul__

    def add_scaled(self, other: "Biquaternion", alpha) -> "Biquaternion":
        """self + alpha * other in one pass."""
        alpha = np.asarray(alpha)
        return Biquaternion(
            self.scalar + alpha * other.scalar, self.vector + alpha * other.vector
        )

    # -- ring product -------------------------------------------------------
    def __matmul__(self, other: "Biquaternion") -> "Biquaternion":
        f, F = self.scalar, self.vector
        g, G = other.scalar, other.vector
        return Biquaternion(
            f * g - cdot(F, G),
            f * G + g * F + ccross(F, G),
        )

    # -- involution ---------------------------------------------------------
    def conj(self) -> "Biquaternion":
        """a* = conj(f) - conj(F)."""
        return Biquaternion(np.conj(self.scalar), -np.conj(self.vector))

    # -- views and measures -------------------------------------------------
    def decompose(self):
        """Return the (scalar, vector) pair."""
        return self.scalar, self.vector

    def copy(self) -> "Biquaternion":
        return Biquaternion(self.scalar.copy(), self.vector.copy())

    def linf(self) -> float:
        """Max absolute value over all four complex components."""
        return max(float(np.abs(self.scalar).max()), float(np.abs(self.vector).max()))

    def l2(self) -> float:
        """Root-mean-square over all four complex components and all points."""
        s2 = float((np.abs(self.scalar) ** 2).sum())
        v2 = float((np.abs(self.vector) ** 2).sum())
        return float(np.sqrt((s2 + v2) / (self.scalar.size + self.vector.size)))

    @property
    def shape(self):
        return self.scalar.shape


def from_scalar(f) -> Biquaternion:
    """Biquaternion with zero vector part."""
    f = np.asarray(f, dtype=np.complex128)
    return Biquaternion(f, np.zeros((3,) + f.shape, dtype=np.complex128))


def from_vector(F) -> Biquaternion:
    """Pure-vector biquaternion 0 + F."""
    F = np.asarray(F, dtype=np.complex128)
    return Biquaternion(np.zeros(F.shape[1:], dtype=np.complex128), F)


def basis_vector(i: int) -> Biquaternion:
    """Unit basis element e_{i+1}, i in {0, 1, 2}.  e1 @ e1 = -1, e1 @ e2 = e3."""
    e = np.zeros(3, dtype=np.complex128)
    e[i] = 1.0
    return Biquaternion(np.complex128(0.0), e)


def one() -> Biquaternion:
    """Multiplicative identity."""
    return Biquaternion(np.complex128(1.0), np.zeros(3, dtype=np.complex128))
