"""Algebra tests: the complex-bilinear quaternion product, its basis table,
the involution, and bulk random property checks with an independent oracle.
"""

import time

import numpy as np
import pytest

from bqfield import (
    Biquaternion,
    basis_vector,
    ccross,
    cdot,
    from_scalar,
    from_vector,
    one,
)


def mul_oracle(a: Biquaternion, b: Biquaternion) -> Biquaternion:
    """Multiply via eight real quaternion products.

    Splits each factor into real and imaginary quaternions, multiplies with
    the classical Hamilton rule written out component by component, and
    recombines.  Shares no code with Biquaternion.__matmul__.
    """

    def hamilton(p, q):
        # p, q: arrays of shape (4,) + field, real
        w1, x1, y1, z1 = p
        w2, x2, y2, z2 = q
        return np.stack(
            [
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            ]
        )

    pa = np.concatenate([np.asarray(a.scalar)[None], np.asarray(a.vector)])
    pb = np.concatenate([np.asarray(b.scalar)[None], np.asarray(b.vector)])
    out = hamilton(pa.real, pb.real) - hamilton(pa.imag, pb.imag) + 1j * (
        hamilton(pa.real, pb.imag) + hamilton(pa.imag, pb.real)
    )
    return Biquaternion(out[0], out[1:])


def random_bq(rng, shape=()):
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
    return Biquaternion(s, v)


def bq_close(a, b, tol):
    d = a - b
    return max(np.abs(d.scalar).max(), np.abs(d.vector).max()) <= tol


def test_product_definition_small_case():
    # (f + F)(g + G) = (fg - F.G) + (fG + gF + [F, G]), everything bilinear.
    a = Biquaternion(2.0 + 1j, np.array([1.0, 0.0, 0.0], dtype=complex))
    b = Biquaternion(0.5, np.array([0.0, 3.0, 0.0], dtype=complex))
    c = a @ b
    assert c.scalar == (2.0 + 1j) * 0.5 - 0.0
    np.testing.assert_allclose(
        c.vector, [(2 + 1j) * 0.0 + 0.5 * 1.0, (2 + 1j) * 3.0, 1.0 * 3.0]
    )


def test_basis_table_exact():
    """e_j e_k = -delta_jk + eps_jkl e_l, and 1 is the identity: exact equality."""
    e = [basis_vector(i) for i in range(3)]
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for j in range(3):
        for k in range(3):
            prod = e[j] @ e[k]
            want_scalar = -1.0 if j == k else 0.0
            assert prod.scalar == want_scalar
            assert np.array_equal(prod.vector, eps[j, k])
    for j in range(3):
        assert (one() @ e[j] - e[j]).linf() == 0.0
        assert (e[j] @ one() - e[j]).linf() == 0.0
    assert (one() @ one() - one()).linf() == 0.0


def test_complex_bilinear_not_hermitian():
    # (i e1)(i e1) = -(e1 e1) = +1: the product is bilinear over C, there is
    # no complex conjugation hiding in the dot product.
    ie1 = basis_vector(0) * 1j
    sq = ie1 @ ie1
    assert sq.scalar == 1.0 + 0.0j
    assert np.abs(sq.vector).max() == 0.0


def test_scalar_imaginary_unit_commutes():
    rng = np.random.default_rng(7)
    a = random_bq(rng)
    ia = a * 1j
    left = from_scalar(np.asarray(1j)) @ a
    assert bq_close(left, ia, 1e-15)


def test_conjugation_involution_laws():
    """a* = conj(f) - conj(F); (ab)* = b* a*; (alpha a)* = conj(alpha) a*."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = random_bq(rng)
        b = random_bq(rng)
        ab = a @ b
        assert bq_close(ab.conj(), b.conj() @ a.conj(), 1e-12)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        assert bq_close((a * alpha).conj(), a.conj() * np.conj(alpha), 1e-13)
        # double conjugation is the identity
        assert bq_close(a.conj().conj(), a, 0.0)


def test_conjugation_components():
    a = Biquaternion(1 + 2j, np.array([3 + 4j, -1j, 5.0]))
    ac = a.conj()
    assert ac.scalar == 1 - 2j
    np.testing.assert_array_equal(ac.vector, [-(3 - 4j), -1j, -5.0])


def test_norm_form_multiplicative():
    # sigma(a) = f^2 + (F, F) is multiplicative: sigma(ab) = sigma(a) sigma(b).
    rng = np.random.default_rng(13)

    def sigma(q):
        return q.scalar**2 + cdot(q.vector, q.vector)

    for _ in range(100):
        a = random_bq(rng)
        b = random_bq(rng)
        lhs = sigma(a @ b)
        rhs = sigma(a) * sigma(b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_product_against_oracle_random():
    rng = np.random.default_rng(17)
    for _ in range(300):
        a = random_bq(rng)
        b = random_bq(rng)
        assert bq_close(a @ b, mul_oracle(a, b), 1e-12)


def test_product_oracle_on_fields():
    rng = np.random.default_rng(19)
    a = random_bq(rng, shape=(4, 5))
    b = random_bq(rng, shape=(4, 5))
    c = a @ b
    d = mul_oracle(a, b)
    assert bq_close(c, d, 1e-12)
    assert c.shape == (4, 5)


def test_associativity_thousand_random_under_a_second():
    rng = np.random.default_rng(23)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a = random_bq(rng)
        b = random_bq(rng)
        c = random_bq(rng)
        d = (a @ b) @ c - a @ (b @ c)
        worst = max(worst, d.linf())
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_distributivity_and_scaling():
    rng = np.random.default_rng(29)
    for _ in range(100):
        a, b, c = (random_bq(rng) for _ in range(3))
        assert bq_close(a @ (b + c), a @ b + a @ c, 1e-12)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        assert bq_close((a * alpha) @ b, (a @ b) * alpha, 1e-12)


def test_add_scaled_matches_arithmetic():
    rng = np.random.default_rng(31)
    a = random_bq(rng, shape=(6,))
    b = random_bq(rng, shape=(6,))
    assert bq_close(a.add_scaled(b, 0.25 - 2j), a + b * (0.25 - 2j), 0.0)


def test_from_scalar_from_vector_decompose():
    f = np.asarray(2.5 - 1j)
    F = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.abs(from_scalar(f).vector).max() == 0.0
    assert np.abs(from_vector(F).scalar).max() == 0.0
    s, v = (from_scalar(f) + from_vector(F)).decompose()
    assert s == f
    np.testing.assert_array_equal(v, F)


def test_cdot_ccross_bilinear():
    rng = np.random.default_rng(37)
    F = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    G = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    # bilinear dot: no conjugation
    assert abs(cdot(F, G) - (F * G).sum()) == 0.0
    np.testing.assert_allclose(ccross(F, G), np.cross(F, G), atol=1e-15)


@pytest.mark.parametrize(
    "f_shape,g_shape",
    [((3, 8, 8, 8), (3, 8, 8, 8)), ((3,), (3, 8, 8, 8)), ((3, 8, 1, 8), (3, 1, 8, 1)), ((3, 1, 1, 1), (3,))],
)
def test_ccross_bit_equal_to_numpy_cross(f_shape, g_shape):
    rng = np.random.default_rng(43)
    F = rng.standard_normal(f_shape) + 1j * rng.standard_normal(f_shape)
    G = rng.standard_normal(g_shape) + 1j * rng.standard_normal(g_shape)
    got = ccross(F, G)
    assert got.shape == np.cross(F, G, axis=0).shape
    assert np.array_equal(got, np.cross(F, G, axis=0))
    assert np.array_equal(ccross(F.real, G.real), np.cross(F.real, G.real, axis=0))


def test_vector_broadcast_shapes():
    rng = np.random.default_rng(41)
    a = random_bq(rng, shape=(8, 8, 8))
    b = random_bq(rng, shape=(8, 8, 8))
    c = a @ b
    assert c.scalar.shape == (8, 8, 8)
    assert c.vector.shape == (3, 8, 8, 8)
    assert np.isfinite(c.l2())
