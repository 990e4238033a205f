"""Bounded property tests of the biquaternion ring on random fields.

Each draw is a field of biquaternions on a random shape of up to 3 axes (up
to 6 points each), its components complex normals times one random scale
in [1e-3, 1e3].  The product is associative, and conjugation is an
involution that reverses products: (ab)* = b* a*, (alpha a)* = conj(alpha)
a* and a** = a, the last two exactly.  Round-off bounds are relative to the
product of the factors' largest components.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from bqfield import Biquaternion

EPS = np.finfo(float).eps

bounded = settings(max_examples=50, deadline=None, database=None, derandomize=True)
shapes = st.lists(st.integers(1, 6), min_size=0, max_size=3).map(tuple)
scales = st.floats(1e-3, 1e3)
numbers = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


def fields(rng, shape, scales):
    """One random biquaternion field of ``shape`` per scale."""
    def c(sh):
        return rng.standard_normal(sh) + 1j * rng.standard_normal(sh)

    return [Biquaternion(s * c(shape), s * c((3,) + shape)) for s in scales]


@bounded
@given(shapes, st.integers(0, 2**32 - 1), scales, scales, scales)
def test_the_product_is_associative(shape, seed, sa, sb, sc):
    a, b, c = fields(np.random.default_rng(seed), shape, (sa, sb, sc))
    size = a.linf() * b.linf() * c.linf()
    assert ((a @ b) @ c - a @ (b @ c)).linf() <= 64 * EPS * size


@bounded
@given(shapes, st.integers(0, 2**32 - 1), scales, scales)
def test_conjugation_reverses_products(shape, seed, sa, sb):
    a, b = fields(np.random.default_rng(seed), shape, (sa, sb))
    assert ((a @ b).conj() - b.conj() @ a.conj()).linf() <= 16 * EPS * a.linf() * b.linf()


@bounded
@given(shapes, st.integers(0, 2**32 - 1), scales, numbers)
def test_conjugation_is_a_conjugate_linear_involution(shape, seed, sa, alpha):
    (a,) = fields(np.random.default_rng(seed), shape, (sa,))
    left, right = (a * alpha).conj(), a.conj() * np.conj(alpha)
    assert np.array_equal(left.scalar, right.scalar) and np.array_equal(left.vector, right.vector)
    twice = a.conj().conj()
    assert np.array_equal(twice.scalar, a.scalar) and np.array_equal(twice.vector, a.vector)
