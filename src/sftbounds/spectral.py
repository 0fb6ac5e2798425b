"""Perron eigendata of primitive 0/1 matrices and subdominant eigenvalue moduli."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CeilingError, ConvergenceError, InputError, NotPrimitiveError
from .sft import TransitionMatrix

# Dense eigensolves are restricted to desk-scale matrices.
EIG_CEILING = 64


@dataclass(frozen=True)
class PerronData:
    """Perron root with strictly positive left/right eigenvectors.

    Normalization: sum(v) = 1 pins the scaling freedom, then u is rescaled so
    that sum(u * v) = 1.
    """

    lam: float
    u: np.ndarray
    v: np.ndarray


def power_iteration(mat: np.ndarray, tol: float = 1e-14, max_iter: int = 1_000_000):
    """Dominant eigenpair of a nonnegative primitive matrix from the flat start vector.

    Stops once successive Rayleigh quotients differ by less than `tol`, the
    componentwise residual is below 1e-13 * lam * max(x), and the residual has
    hit its rounding floor (no further geometric improvement). Returns (lam, x)
    with x positive and sum(x) = 1.
    """
    n = mat.shape[0]
    x = np.full(n, 1.0 / n)
    lam_prev = np.inf
    resid_prev = np.inf
    resid = np.inf
    for _ in range(max_iter):
        y = mat @ x
        lam = float(x @ y) / float(x @ x)
        resid = float(np.max(np.abs(y - lam * x)))
        small = resid <= 1e-13 * max(lam, 1.0) * float(np.max(x))
        plateaued = resid == 0.0 or resid > 0.5 * resid_prev
        if abs(lam - lam_prev) < tol and small and plateaued:
            return lam, x
        lam_prev = lam
        resid_prev = resid
        total = float(y.sum())
        if total <= 0.0:
            raise ConvergenceError("iterate left the positive cone", residual=resid)
        x = y / total
    raise ConvergenceError(
        f"power iteration did not converge within {max_iter} iterations",
        residual=resid,
    )


def perron_eigendata(A: TransitionMatrix, tol: float = 1e-14, max_iter: int = 1_000_000) -> PerronData:
    """Perron root and eigenvectors of a primitive transition matrix.

    Power iteration on A gives (lam, v); on A transposed gives (lam, u).
    """
    if not A.primitive:
        raise NotPrimitiveError(
            "transition matrix is not primitive; no unique dominant eigenpair"
        )
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    arr = A.array.astype(float)
    lam_right, v = power_iteration(arr, tol, max_iter)
    lam_left, u = power_iteration(arr.T, tol, max_iter)
    lam = 0.5 * (lam_right + lam_left)
    v = v / v.sum()
    u = u / float(u @ v)
    u.setflags(write=False)
    v.setflags(write=False)
    return PerronData(lam, u, v)


def subdominant_modulus(M) -> float:
    """Modulus of the second-largest eigenvalue of a nonnegative square matrix.

    Dense eigensolve; matrices above EIG_CEILING rows are rejected. A 1x1 input
    returns 0 by convention.
    """
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"need a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 1:
        return 0.0
    if n > EIG_CEILING:
        raise CeilingError(f"matrix size {n} exceeds the eigensolver ceiling {EIG_CEILING}")
    if float(arr.min()) < -1e-12:
        raise InputError("matrix has negative entries")
    moduli = np.sort(np.abs(np.linalg.eigvals(arr)))[::-1]
    if moduli[0] <= 0.0:
        raise InputError("matrix has zero spectral radius")
    return float(moduli[1])
