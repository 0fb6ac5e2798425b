"""Perron eigendata of primitive 0/1 matrices and subdominant eigenvalue moduli."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError, NotPrimitiveError
from .measures import stationary_vector
from .sft import TransitionMatrix


class PerronData(NamedTuple):
    """Perron root with strictly positive left/right eigenvectors.

    Normalization: sum(v) = 1 pins the scaling freedom, then u is rescaled so
    that sum(u * v) = 1.
    """

    lam: float
    u: np.ndarray
    v: np.ndarray


def perron_eigendata(A: TransitionMatrix) -> PerronData:
    """Perron root and eigenvectors of a primitive transition matrix.

    One batched power iteration on the stack (A^T, A) gives v and u, each run
    to its rounding floor (`stationary_vector` with tol=0); lam is the mean of
    their Rayleigh quotients.
    """
    if not A.primitive:
        raise NotPrimitiveError(
            "transition matrix is not primitive; no unique dominant eigenpair"
        )
    arr = A.array.astype(float)
    v, u = stationary_vector(np.stack([arr.T, arr]), tol=0.0)
    lam = 0.5 * (float(v @ (arr @ v)) / float(v @ v) + float(u @ (arr.T @ u)) / float(u @ u))
    v = v / v.sum()
    u = u / float(u @ v)
    u.setflags(write=False)
    v.setflags(write=False)
    return PerronData(lam, u, v)


def subdominant_modulus(M) -> float:
    """Modulus of the second-largest eigenvalue of a nonnegative square matrix.

    Dense eigensolve. A 1x1 input returns 0 by convention.
    """
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"need a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 1:
        return 0.0
    if float(arr.min()) < -1e-12:
        raise InputError("matrix has negative entries")
    moduli = np.sort(np.abs(np.linalg.eigvals(arr)))[::-1]
    if moduli[0] <= 0.0:
        raise InputError("matrix has zero spectral radius")
    return float(moduli[1])
