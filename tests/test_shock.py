"""Front algebra tests: the complex jump relation and its real shadow pair,
admissible circular jumps, energy laws on the front, the charge-current jump
relation, and the characteristic symbol's wave-speed spectrum.
"""

import numpy as np
import pytest

from bqfield import (
    FrontData,
    Medium,
    admissible_jump,
    afield_jump_energy,
    afield_jump_residual,
    characteristic_determinant,
    characteristic_matrix,
    characteristic_roots,
    theta_jump_residual,
)


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def front_from_jump_A(m, jA, med=None):
    med = med or Medium()
    return FrontData(
        m=m,
        jump_E=jA.real / np.sqrt(med.epsilon),
        jump_H=jA.imag / np.sqrt(med.mu),
        medium=med,
    )


def test_admissible_jump_satisfies_relation():
    rng = np.random.default_rng(43)
    for _ in range(50):
        m = random_unit(rng)
        amp = complex(rng.standard_normal(), rng.standard_normal())
        jA = admissible_jump(m, amp)
        f = front_from_jump_A(m, jA)
        res = afield_jump_residual(f)
        assert res["jump_relation"] <= 1e-12 * max(abs(amp), 1.0)
        assert res["transversality"] <= 1e-12 * max(abs(amp), 1.0)


def test_generic_jump_is_inadmissible():
    f = FrontData(m=[0, 0, 1], jump_E=[1.0, 0.0, 0.0], jump_H=[0.0, 0.0, 0.0])
    res = afield_jump_residual(f)
    assert res["jump_relation"] > 0.5


def test_complex_relation_equals_real_pair():
    """[A] + i[A]xm recombines the two real relations as pair_e + i pair_h,
    for every jump, admissible or not."""
    rng = np.random.default_rng(47)
    for _ in range(100):
        med = Medium(epsilon=float(rng.uniform(0.3, 3)), mu=float(rng.uniform(0.3, 3)))
        m = random_unit(rng)
        jE = rng.standard_normal(3)
        jH = rng.standard_normal(3)
        f = FrontData(m=m, jump_E=jE, jump_H=jH, medium=med)
        se, sm = np.sqrt(med.epsilon), np.sqrt(med.mu)
        pair_e = se * jE - sm * np.cross(jH, m)
        pair_h = sm * jH + se * np.cross(jE, m)
        r = f.jump_A + 1j * np.cross(f.jump_A, m)
        assert np.abs(r - (pair_e + 1j * pair_h)).max() <= 1e-14


def test_front_energy_laws_follow_from_pair_relations():
    """Any transverse [H] with [E] = sqrt(mu/eps) [H] x m is admissible and
    carries W = (m, P) = ||P|| exactly."""
    rng = np.random.default_rng(53)
    for _ in range(100):
        med = Medium(epsilon=float(rng.uniform(0.3, 3)), mu=float(rng.uniform(0.3, 3)))
        m = random_unit(rng)
        h = rng.standard_normal(3)
        h -= (h @ m) * m
        jE = np.sqrt(med.mu / med.epsilon) * np.cross(h, m)
        f = FrontData(m=m, jump_E=jE, jump_H=h, medium=med)
        res = afield_jump_energy(f)
        scale = max(h @ h, 1.0)
        assert res["pair_e"] <= 1e-13 * scale
        assert res["pair_h"] <= 1e-13 * scale
        assert res["energy_flux"] <= 1e-12 * scale
        assert res["energy_speed"] <= 1e-12 * scale


def test_front_energy_breaks_without_transversality():
    med = Medium()
    m = np.array([0.0, 0.0, 1.0])
    h = np.array([0.0, 1.0, 1.0])  # longitudinal part along m
    jE = np.cross(h, m)
    f = FrontData(m=m, jump_E=jE, jump_H=h, medium=med)
    res = afield_jump_energy(f)
    assert res["pair_h"] > 0.5
    # W - (m, P) = mu (m.H)^2 / 2 here
    assert res["energy_flux"] == pytest.approx(0.5, rel=1e-12)


def test_theta_jump_relation_solutions():
    rng = np.random.default_rng(59)
    for _ in range(50):
        m = random_unit(rng)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        # transverse solutions need m x q = i q: the conjugate circular mode
        jJ = alpha * m + beta * np.conj(admissible_jump(m))
        f = FrontData(m=m, jump_rho=alpha, jump_J=jJ)
        res = theta_jump_residual(f)
        scale = max(abs(alpha), abs(beta), 1.0)
        assert res["vector"] <= 1e-12 * scale
        assert res["scalar"] <= 1e-12 * scale
    # longitudinal current with the wrong scalar jump breaks the relation
    f_bad = FrontData(m=[0, 0, 1], jump_rho=2.0, jump_J=np.array([0, 0, 1.0], complex))
    assert theta_jump_residual(f_bad)["vector"] > 0.5


def test_charge_flux_shadow():
    m = np.array([0.0, 1.0, 0.0])
    f = FrontData(m=m, jump_rho=0.7, jump_J=0.7 * m.astype(complex))
    assert theta_jump_residual(f)["scalar"] <= 1e-15
    f2 = FrontData(m=m, jump_rho=1.0, jump_J=0.2 * m.astype(complex))
    assert theta_jump_residual(f2)["scalar"] == pytest.approx(0.8)
    # the one home of |[rho] - ([J], m)|: the field's energy laws do not restate it
    assert set(afield_jump_energy(f2)) == {"pair_e", "pair_h", "energy_flux", "energy_speed"}


@pytest.mark.parametrize("m", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 1.0]])
def test_front_normal_must_be_finite_and_nonzero(m):
    with pytest.raises(ValueError, match="normal must be finite and nonzero"):
        FrontData(m=m)


def test_front_normal_is_normalised():
    f = FrontData(m=[0.0, 0.0, 5.0])
    np.testing.assert_allclose(f.m, [0, 0, 1.0])


@pytest.mark.parametrize("key", ["jump_E", "jump_H", "jump_J"])
def test_front_jumps_must_be_3_vectors(key):
    """A ValueError, not an assert, so the check holds under python -O too."""
    with pytest.raises(ValueError, match=f"{key} must be a 3-vector"):
        FrontData(m=[0.0, 0.0, 1.0], **{key: [1.0, 0.0]})


def test_characteristic_matrix_structure():
    m = np.array([0.0, 0.0, 1.0])
    B = characteristic_matrix(m, 0.5)
    np.testing.assert_allclose(np.diag(B), [-0.5] * 4)
    np.testing.assert_allclose(B[0, 1:], m)
    np.testing.assert_allclose(B[1:, 0], m)
    # lam = 0 symbol is Hermitian
    B0 = characteristic_matrix(np.array([0.3, -0.5, 0.81]), 0.0)
    np.testing.assert_allclose(B0, B0.conj().T, atol=1e-15)


def test_characteristic_determinant_factorisation():
    """det = (lam^2 - 1)^2 for unit m: frozen values at pinned lam."""
    rng = np.random.default_rng(61)
    for _ in range(20):
        m = random_unit(rng)
        for lam, want in ((0.0, 1.0), (0.5, 0.5625), (1.0, 0.0), (-1.0, 0.0), (2.0, 9.0)):
            d = characteristic_determinant(m, lam)
            assert d == pytest.approx(want, abs=1e-10)


def test_characteristic_roots_double_light_pair():
    """The measured spectrum is {-1, -1, +1, +1}: both sheets move at light
    speed and there is no standing characteristic."""
    rng = np.random.default_rng(67)
    for _ in range(30):
        roots = characteristic_roots(random_unit(rng))
        np.testing.assert_allclose(roots, [-1.0, -1.0, 1.0, 1.0], atol=1e-10)
