"""The transfer operator on locally constant functions, the theta seminorm, and
decay-rate certificates (C, rho) for sup-norm decay of mean-zero iterates.

On depth-d functions the operator is an exact finite matrix with kernel weights
u_i / (lam u_j); it maps depth d to depth max(d-1, 1). The certificate takes rho
as the subdominant modulus of that matrix and calibrates C on the mean-zero
probe basis over DECAY_HORIZON steps; the word count is checked against the
eigensolver ceiling before the matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import CeilingError, DegenerateSpectrumError, InputError
from .measures import LocallyConstantFunction, cylinder_measure_vector, parry_measure
from .sft import MetricParams, TransitionMatrix, enumerate_words, predecessors, word_count, word_index
from .spectral import EIG_CEILING, PerronData, subdominant_modulus

DECAY_HORIZON = 50

# Iterate sup-norms at or below DECAY_FLOOR * |g|_theta are rounding residue of an
# exact zero and are treated as 0 in calibration and verification.
DECAY_FLOOR = 1e-13


def supnorm(f: LocallyConstantFunction) -> float:
    return float(np.max(np.abs(f.values)))


def lip_seminorm(f: LocallyConstantFunction, params: MetricParams = MetricParams()) -> float:
    """max over 0 <= n < depth of var_n(f) / theta^n.

    var_n is the largest |f(w) - f(w')| over admissible word pairs agreeing on
    the first n symbols; it vanishes for n >= depth, so the sup is a finite max.
    """
    words = f.words
    vals = f.values
    best = 0.0
    for n in range(f.depth):
        lo: dict = {}
        hi: dict = {}
        for w, x in zip(words, vals):
            key = w[:n]
            if key not in lo:
                lo[key] = x
                hi[key] = x
            else:
                if x < lo[key]:
                    lo[key] = x
                if x > hi[key]:
                    hi[key] = x
        var_n = max(hi[k] - lo[k] for k in lo)
        best = max(best, var_n / params.theta**n)
    return float(best)


def _kernel(A: TransitionMatrix, eig: PerronData, depth: int) -> csr_matrix:
    """The operator from depth-`depth` words to depth-max(depth-1, 1) words, as a
    sparse matrix with entries u_i/(lam u_j): row w sums over i -> w0 the value at
    i.w[:depth-1], its columns in ascending i."""
    out_words = enumerate_words(A, max(depth - 1, 1))
    index = word_index(A, depth)
    u, lam = eig.u, eig.lam
    indptr = [0]
    cols: list[int] = []
    vals: list[float] = []
    for w in out_words:
        j = w[0]
        for i in predecessors(A, j):
            cols.append(index[(i,) + w[: depth - 1]])
            vals.append(u[i] / (lam * u[j]))
        indptr.append(len(cols))
    return csr_matrix((vals, cols, indptr), shape=(len(out_words), len(index)))


def transfer_apply(f: LocallyConstantFunction, eig: PerronData) -> LocallyConstantFunction:
    """Apply the operator once: (Lf)(w) = sum over i -> w0 of u_i/(lam u_w0) f(i.w)."""
    K = _kernel(f.matrix, eig, f.depth)
    return LocallyConstantFunction(f.matrix, max(f.depth - 1, 1), K @ f.values)


def transfer_matrix(A: TransitionMatrix, eig: PerronData, depth: int):
    """Matrix of the operator on the depth-`depth` word space (with the image
    depth-(d-1) space embedded back into depth d). Returns (matrix, words)."""
    words = enumerate_words(A, depth)
    out_depth = max(depth - 1, 1)
    image = word_index(A, out_depth)
    rows = [image[w[:out_depth]] for w in words]
    return _kernel(A, eig, depth).toarray()[rows], words


def conditional_expectation_check(f: LocallyConstantFunction, eig: PerronData) -> float:
    """Max discrepancy between (Lf) after one shift and the direct conditional
    expectation sum over predecessors, evaluated on depth-(d+1) words."""
    A = f.matrix
    d = f.depth
    u, lam = eig.u, eig.lam
    lf = transfer_apply(f, eig)
    worst = 0.0
    for x in enumerate_words(A, d + 1):
        j = x[1]
        direct = sum(
            u[i] / (lam * u[j]) * f.value((i,) + x[1:d]) for i in predecessors(A, j)
        )
        shifted = lf.value(x[1 : 1 + lf.depth])
        worst = max(worst, abs(direct - shifted))
    return worst


@dataclass(frozen=True)
class DecayEstimate:
    """Certificate |L^n g|_inf <= C rho^n |g|_theta for mean-zero g of the stated depth."""

    C: float
    rho: float
    source: str  # always "spectral"
    depth: int
    theta: float

    @property
    def c_hat(self) -> float:
        """The constant sqrt(2) C / (1 - rho) of the integral-discrepancy bound."""
        return float(np.sqrt(2.0)) * self.C / (1.0 - self.rho)


def mean_zero_probes(A: TransitionMatrix, eig: PerronData, depth: int) -> list[LocallyConstantFunction]:
    """Calibration basis: the indicator of each depth cylinder minus its Parry measure."""
    mass = cylinder_measure_vector(parry_measure(A, eig), depth)
    probes = []
    for k, mass_k in enumerate(mass):
        vals = np.full(len(mass), -mass_k)
        vals[k] += 1.0
        probes.append(LocallyConstantFunction(A, depth, vals))
    return probes


def _calibrate(M: np.ndarray, probes, rho: float, params: MetricParams) -> float:
    big_c = 0.0
    for g in probes:
        sem = lip_seminorm(g, params)
        if sem <= 0.0:
            continue
        vec = g.values.copy()
        for n in range(DECAY_HORIZON + 1):
            sup = float(np.max(np.abs(vec)))
            if sup <= DECAY_FLOOR * sem:
                # numerically dead iterate; the exact-arithmetic value is 0
                pass
            elif rho**n * sem == 0.0:
                raise DegenerateSpectrumError(
                    "decay rate is exactly 0 but an iterate is nonzero at step "
                    f"{n}; no geometric certificate exists at this depth "
                    "(retry at depth 1)"
                )
            else:
                ratio = sup / (rho**n * sem)
                if ratio > big_c:
                    big_c = ratio
            vec = M @ vec
    return big_c


def decay_estimate(
    A: TransitionMatrix,
    eig: PerronData,
    depth: int,
    params: MetricParams = MetricParams(),
) -> DecayEstimate:
    """Certificate (C, rho) for sup-norm decay of mean-zero depth-`depth` functions.

    rho is the subdominant modulus of the operator matrix on the depth word
    space and C is calibrated so the bound holds over the probe basis for all n
    up to DECAY_HORIZON (0/0 steps skipped). Word spaces above EIG_CEILING are
    refused before the matrix is built.
    """
    if depth < 1:
        raise InputError(f"depth must be at least 1, got {depth}")
    n_words = word_count(A, depth)
    if n_words > EIG_CEILING:
        raise CeilingError(
            f"depth-{depth} word space has {n_words} words, above the "
            f"eigensolver ceiling {EIG_CEILING}"
        )
    M, _ = transfer_matrix(A, eig, depth)
    rho = subdominant_modulus(M)
    big_c = _calibrate(M, mean_zero_probes(A, eig, depth), rho, params)
    return DecayEstimate(big_c, rho, "spectral", depth, params.theta)
