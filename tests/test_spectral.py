import numpy as np
import pytest

from helpers import PHI, random_primitive_matrices
from sftbounds import (
    InputError,
    NotPrimitiveError,
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


# Perron data of the benchmark matrices, as float.hex: (lam, u, v). Every `hole` and
# `model-dim` output on them is a function of these bits.
PINNED = {
    "full2": ([[1, 1], [1, 1]], "0x1.0000000000000p+1",
              ["0x1.0000000000000p+0"] * 2, ["0x1.0000000000000p-1"] * 2),
    "golden": ([[1, 1], [1, 0]], "0x1.9e3779b97f4a8p+0",
               ["0x1.2bbae2a27f931p+0", "0x1.727c9716ffb75p-1"],
               ["0x1.3c6ef372fe950p-1", "0x1.8722191a02d61p-2"]),
    "full3": ([[1, 1, 1]] * 3, "0x1.8000000000000p+1",
              ["0x1.0000000000000p+0"] * 3, ["0x1.5555555555555p-2"] * 3),
    "wide3": ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], "0x1.0000000000000p+1",
              ["0x1.0000000000000p+0"] * 3, ["0x1.5555555555555p-2"] * 3),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_benchmark_eigendata_bits(name):
    rows, lam, u, v = PINNED[name]
    eig = perron_eigendata(transition_matrix(rows))
    assert eig.lam.hex() == lam
    assert [x.hex() for x in eig.u] == u
    assert [x.hex() for x in eig.v] == v


def mp_perron(A):
    """Perron root and left/right vectors of A at 40 digits by mpmath.eig, with the
    PerronData normalization: sum(v) = 1 and u . v = 1."""
    import mpmath  # only this oracle needs it

    with mpmath.workdps(40):
        E, EL, ER = mpmath.eig(mpmath.matrix(A.array.tolist()), left=True, right=True)
        i = max(range(A.size), key=lambda j: mpmath.re(E[j]))
        v = [mpmath.re(ER[j, i]) for j in range(A.size)]
        u = [mpmath.re(EL[i, j]) for j in range(A.size)]
        total = sum(v)
        v = [x / total for x in v]
        uv = sum(a * b for a, b in zip(u, v))
        u = [x / uv for x in u]
        return mpmath.re(E[i]), u, v


def assert_matches_oracle(A):
    eig = perron_eigendata(A)
    lam, u, v = mp_perron(A)
    assert abs(eig.lam - lam) <= 1e-14 * lam
    for got, want in ((eig.u, u), (eig.v, v)):
        for x, y in zip(got, want):
            assert abs(x - y) <= 1e-14 * y


def test_eigendata_matches_mpmath_oracle():
    rng = np.random.default_rng(40)
    checked = 0
    while checked < 48:
        s = int(rng.integers(2, 9))
        try:
            A = transition_matrix((rng.random((s, s)) < rng.uniform(0.25, 0.9)).astype(int))
        except InputError:  # a zero row or column
            continue
        if A.primitive:
            assert_matches_oracle(A)
            checked += 1


def wielandt(n):
    """The cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord n-1 -> 1: the slowest mixing
    primitive n x n matrix (|mu| / lam = 0.988 for n = 8)."""
    rows = np.roll(np.eye(n, dtype=int), 1, axis=1)
    rows[n - 1, 1] = 1
    return rows


@pytest.mark.parametrize("rows", [
    # complex subdominant pairs make the update size oscillate; a stop on its
    # first rise below 1e-12 leaves relative errors of 6e-13 to 1.3e-12 on the
    # first three, and above 1e-14 on all four
    [[0, 0, 1, 0, 0, 0], [1, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 1], [0, 0, 1, 0, 1, 0],
     [0, 0, 1, 0, 0, 0], [1, 1, 0, 1, 0, 0]],
    [[0, 0, 1, 1, 0], [0, 0, 0, 1, 0], [1, 1, 0, 0, 1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 1]],
    [[0, 0, 0, 0, 0, 1, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 1, 1, 1, 0],
     [0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0, 0, 1], [0, 1, 0, 0, 0, 0, 1, 0],
     [0, 1, 0, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0, 0, 0]],
    wielandt(8),
], ids=["osc6", "osc5", "osc8", "wielandt8"])
def test_eigendata_matches_mpmath_oracle_on_oscillating_updates(rows):
    assert_matches_oracle(transition_matrix(rows))


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


def test_subdominant_rejects_zero_matrix():
    with pytest.raises(InputError):
        subdominant_modulus(np.zeros((3, 3)))


@pytest.mark.parametrize("M, message", [
    (np.ones((2, 3)), r"need a square matrix, got shape \(2, 3\)"),
    ([[1.0, -1.0], [1.0, 1.0]], "matrix has negative entries"),
], ids=["non-square", "negative"])
def test_subdominant_rejects_bad_matrices(M, message):
    with pytest.raises(InputError, match=message):
        subdominant_modulus(M)


def test_strict_spectral_gap_for_primitive():
    for A in random_primitive_matrices(6, (2, 3, 4), seed=8):
        arr = A.array.astype(float)
        eig = perron_eigendata(A)
        assert subdominant_modulus(arr) < eig.lam - 1e-9
