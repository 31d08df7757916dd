"""Operator and state constructors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from weaklind import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    WeakMeasurementSetup,
    bloch_to_density,
    is_density,
    is_hermitian,
    jy_six_level,
    pauli,
    pure_density,
    sodium_jump_operators,
)
from weaklind.errors import NotDensity
from weaklind.operators import NormTooLarge

unit_interval = st.floats(-1.0, 1.0, allow_nan=False)


def test_pauli_algebra():
    paulis = [pauli("x"), pauli("y"), pauli("z")]
    eye = np.eye(2)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1
    for i in range(3):
        for j in range(3):
            expect = (i == j) * eye + 1j * sum(eps[i, j, k] * paulis[k] for k in range(3))
            assert np.allclose(paulis[i] @ paulis[j], expect, atol=1e-15)


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_ladder_combinations():
    np.testing.assert_allclose(SIGMA_PLUS, (SIGMA_X + 1j * SIGMA_Y) / 2)
    np.testing.assert_allclose(SIGMA_MINUS, (SIGMA_X - 1j * SIGMA_Y) / 2)
    # basis is (|e>, |g>): sigma_minus de-excites
    e = np.array([1.0, 0.0])
    np.testing.assert_allclose(SIGMA_MINUS @ e, [0.0, 1.0])


@given(unit_interval, unit_interval, unit_interval)
def test_bloch_round_trip(x, y, z):
    r = np.array([x, y, z])
    n = np.linalg.norm(r)
    if n > 1.0:
        r = r / (n * 1.0000001)
    rho = bloch_to_density(r)
    assert is_density(rho, tol=1e-12)
    back = [np.trace(rho @ pauli(axis)).real for axis in "xyz"]
    np.testing.assert_allclose(back, r, atol=1e-12)


def test_bloch_rejects_long_vectors():
    with pytest.raises(NormTooLarge):
        bloch_to_density([1.0, 0.5, 0.0])


def test_pure_density_normalizes():
    rho = pure_density([3.0, 4.0j])
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert abs(rho[0, 0] - 0.36) < 1e-15
    with pytest.raises(ValueError):
        pure_density([0.0, 0.0])


@pytest.mark.parametrize("amplitudes, expected", [
    ([1e200, 1.0], [1.0, 0.0]),                  # the norm overflows
    ([1e-200, 1e-200], [0.5, 0.5]),              # the norm underflows to 0
    ([1e308 + 1e308j, 1e308j], [2 / 3, 1 / 3]),  # even |amplitude| overflows
    ([5e-324, 0.0], [1.0, 0.0]),                 # a subnormal amplitude
])
def test_pure_density_normalizes_extreme_amplitudes(amplitudes, expected):
    rho = pure_density(amplitudes)
    assert is_density(rho, tol=1e-12)
    np.testing.assert_allclose(np.diag(rho).real, expected, rtol=1e-12, atol=1e-300)


def test_is_density_checks():
    assert is_density(np.eye(2) / 2)
    assert not is_density(np.eye(2))                       # trace 2
    assert not is_density(np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue
    assert not is_density(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not hermitian
    assert not is_density(np.full((2, 3), 1.0 / 3.0))          # not square
    with pytest.raises(NotDensity, match="^sigma_fI is not a density matrix at tol 1e-10$"):
        WeakMeasurementSetup(sigma_i=np.eye(2) / 2, sigma_fI=np.full((2, 3), 1.0 / 3.0),
                             A_SI=np.eye(2))
    assert is_hermitian(SIGMA_Y)
    assert not is_hermitian(SIGMA_PLUS)


def test_fock_ladder_matrix_elements():
    # the meter operators of the joint-readout oracle
    a, ad = orc._meter_ops(7, 1.3, 1.0)
    for n in range(1, 7):
        assert abs(a[n - 1, n] - np.sqrt(n)) < 1e-15
    np.testing.assert_allclose(ad, a.conj().T)
    comm = a @ ad - ad @ a
    # canonical commutator away from the truncation corner
    np.testing.assert_allclose(np.diag(comm)[:-1], np.ones(6), atol=1e-14)
    np.testing.assert_allclose(ad @ a, np.diag(np.arange(7.0)), atol=1e-14)


def test_quadrature_commutator():
    Q, P = orc._quadratures_at(11, 0.7, 2.0, 0.0)
    comm = Q @ P - P @ Q
    np.testing.assert_allclose(np.diag(comm)[:-1], 1j * 2.0 * np.ones(10), atol=1e-13)
    assert is_hermitian(Q) and is_hermitian(P)
    # the interaction picture rotates Q into P / omega_f a quarter period on
    Qt, _ = orc._quadratures_at(11, 0.7, 2.0, 0.5 * np.pi / 0.7)
    np.testing.assert_allclose(Qt, P / 0.7, atol=1e-13)


def test_jy_six_level_matches_ladder_construction():
    jy = jy_six_level()
    np.testing.assert_allclose(jy, orc.jy_oracle(), atol=1e-14)
    assert is_hermitian(jy)
    # block-diagonal: no mixing between the four excited and two ground levels
    assert np.abs(jy[:4, 4:]).max() == 0.0
    evs = np.sort(np.linalg.eigvalsh(jy[:4, :4]))
    np.testing.assert_allclose(evs, [-1.5, -0.5, 0.5, 1.5], atol=1e-12)
    evs_g = np.sort(np.linalg.eigvalsh(jy[4:, 4:]))
    np.testing.assert_allclose(evs_g, [-0.5, 0.5], atol=1e-12)


def test_sodium_jump_operators_structure():
    jumps = sodium_jump_operators()
    assert len(jumps) == 3
    oracle = orc.sodium_jumps_oracle()
    for L, q in zip(jumps, (0, -1, 1)):
        np.testing.assert_allclose(L, oracle[q], atol=1e-15)
        # decay only: excited manifold -> ground manifold
        assert np.abs(L[:4, :]).max() == 0.0
        assert np.abs(L[:, 4:]).max() == 0.0
    total = sum(L.conj().T @ L for L in jumps)
    np.testing.assert_allclose(total, np.diag([1, 1, 1, 1, 0, 0]), atol=1e-14)
