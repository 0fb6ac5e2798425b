import numpy as np
import pytest

from helpers import PHI, random_primitive_matrices
from sftbounds import (
    CeilingError,
    InputError,
    NotPrimitiveError,
    parry_measure,
    perron_eigendata,
    subdominant_modulus,
    transition_matrix,
)


def test_full_shift_eigendata(full2, eig_full2):
    assert abs(eig_full2.lam - 2.0) <= 1e-12
    assert np.allclose(eig_full2.u * eig_full2.v, 0.5, atol=1e-12)
    assert np.allclose(eig_full2.u, eig_full2.v * (eig_full2.u[0] / eig_full2.v[0]), atol=1e-12)


def test_golden_mean_perron_root(eig_golden):
    # positive root of x^2 - x - 1
    assert abs(eig_golden.lam - PHI) <= 1e-10


def test_eigendata_invariants(eig_golden, golden):
    u, v, lam = eig_golden.u, eig_golden.v, eig_golden.lam
    arr = golden.array.astype(float)
    assert np.all(u > 0) and np.all(v > 0)
    assert abs(float(u @ v) - 1.0) <= 1e-12
    assert abs(float(v.sum()) - 1.0) <= 1e-12
    scale = lam * max(float(v.max()), float(u.max()))
    assert float(np.max(np.abs(arr @ v - lam * v))) <= 1e-12 * scale
    assert float(np.max(np.abs(u @ arr - lam * u))) <= 1e-12 * scale


def test_non_primitive_rejected():
    A = transition_matrix([[0, 1], [1, 0]])
    with pytest.raises(NotPrimitiveError):
        perron_eigendata(A)


def test_nonconvergence_reports_residual(golden):
    from sftbounds.errors import ConvergenceError

    with pytest.raises(ConvergenceError) as info:
        perron_eigendata(golden, max_iter=1)
    assert info.value.residual is not None


def test_transpose_swaps_left_and_right():
    A = transition_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    At = transition_matrix(A.array.T)
    eig = perron_eigendata(A)
    eig_t = perron_eigendata(At)
    assert abs(eig.lam - eig_t.lam) <= 1e-11
    # compare directions: each vector normalized to unit sum
    assert np.allclose(eig_t.v / eig_t.v.sum(), eig.u / eig.u.sum(), atol=1e-11)
    assert np.allclose(eig_t.u / eig_t.u.sum(), eig.v / eig.v.sum(), atol=1e-11)


def test_lambda_between_row_sum_extremes():
    for A in random_primitive_matrices(6, (2, 3, 4, 5), seed=21):
        eig = perron_eigendata(A)
        sums = A.array.sum(axis=1)
        assert sums.min() - 1e-9 <= eig.lam <= sums.max() + 1e-9
        assert eig.lam > 1.0


def test_rescaling_leaves_parry_unchanged(golden, eig_golden):
    from sftbounds.spectral import PerronData

    c = 3.7
    alt = PerronData(eig_golden.lam, eig_golden.u * c, eig_golden.v / c)
    base = parry_measure(golden, eig_golden)
    other = parry_measure(golden, alt)
    assert np.allclose(base.stationary, other.stationary, atol=1e-12)
    assert np.allclose(base.transition, other.transition, atol=1e-12)


def test_subdominant_full_shift_transfer_matrix():
    assert subdominant_modulus([[0.5, 0.5], [0.5, 0.5]]) <= 1e-12


def test_subdominant_identity():
    assert abs(subdominant_modulus(np.eye(2)) - 1.0) <= 1e-14


def test_subdominant_golden_parry_kernel():
    # trace 1/phi, determinant -1/phi^2, so the eigenvalues are 1 and -1/phi^2
    q = [[1 / PHI, 1 / PHI**2], [1.0, 0.0]]
    assert abs(subdominant_modulus(q) - 1 / PHI**2) <= 1e-12


def test_subdominant_dimension_one():
    assert subdominant_modulus([[0.7]]) == 0.0


def test_subdominant_ceiling():
    with pytest.raises(CeilingError):
        subdominant_modulus(np.eye(65))


def test_subdominant_rejects_zero_matrix():
    with pytest.raises(InputError):
        subdominant_modulus(np.zeros((3, 3)))


def test_strict_spectral_gap_for_primitive():
    for A in random_primitive_matrices(6, (2, 3, 4), seed=8):
        arr = A.array.astype(float)
        eig = perron_eigendata(A)
        assert subdominant_modulus(arr) < eig.lam - 1e-9
