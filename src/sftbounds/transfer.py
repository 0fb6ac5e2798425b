"""The transfer operator on locally constant functions, the oscillation
seminorm, and a proven certificate for sup-norm decay of mean-zero iterates.

On depth-d functions the operator is an exact finite sum with kernel weights
u_i / (lam u_j); it maps depth d to depth max(d-1, 1). The certificate bounds
each iterate of a mean-zero function by per-step constants read from the s x s
depth-1 operator and closes the infinite sum with a geometric tail, so no
operator on the depth-d word space is built.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InputError
from .measures import LocallyConstantFunction, _left_sum
from .sft import _check_ceiling, enumerate_words, predecessors, word_array
from .spectral import PerronData, subdominant_modulus

# decay_estimate sums at most this many depth-1 terms before its tail must close.
DECAY_TERM_CAP = 10_000


def supnorm(f: LocallyConstantFunction) -> float:
    return float(np.max(np.abs(f.values)))


def lip_seminorm(f: LocallyConstantFunction):
    """The oscillation max f - min f: the n = 0 term of the Lipschitz seminorm
    |f|_theta = max over n of var_n(f) theta**n (var_n the largest change of f
    between words agreeing on n leading symbols), so at most |f|_theta for
    every theta. An array with one oscillation per function for a stack."""
    osc = np.maximum(0.0, f.values.max(axis=-1) - f.values.min(axis=-1))
    return float(osc) if osc.ndim == 0 else osc


def _kernel(eig: PerronData, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The operator from depth-`depth` words to depth-max(depth-1, 1) words, as
    two (rows, s) tables: for i -> w0, entry [w, i] of `cols` is the column of
    the word i.w[:depth-1] and that of `weights` is u_i/(lam u_w0); for other i
    they are -1 and 0.0, and the -1 gathers a 0.0 appended to the values."""
    A = eig.parry.support
    head = word_array(A, max(depth - 1, 1))[:, 0]
    edge = A.array[:, head].T > 0
    if depth > 1:
        # word_array(A, depth) lists the words i.w by i, then by the row of w:
        # the order in which np.nonzero walks the pairs (i, w) of edge.T.
        cols = np.full(edge.shape, -1)
        i, w = np.nonzero(edge.T)
        cols[w, i] = np.arange(len(i))
    else:
        cols = np.where(edge, np.arange(A.size), -1)
    weights = np.where(edge, eig.u / (eig.lam * eig.u[head, None]), 0.0)
    return cols, weights


def transfer_apply(f: LocallyConstantFunction, eig: PerronData) -> LocallyConstantFunction:
    """Apply the operator once: (Lf)(w) = sum over i -> w0 of u_i/(lam u_w0) f(i.w),
    the terms added in ascending i from +0.0. Refuses f on another shift than eig's."""
    if f.matrix != eig.parry.support:
        raise InputError("function and eigendata live on different transition matrices")
    cols, weights = _kernel(eig, f.depth)
    values = np.append(f.values, 0.0)
    out = _left_sum(weights[:, i] * values[cols[:, i]] for i in range(cols.shape[1]))
    return LocallyConstantFunction(f.matrix, max(f.depth - 1, 1), out)


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
        direct = _left_sum(
            u[i] / (lam * u[j]) * f.value((i,) + x[1:d]) for i in predecessors(A, j)
        )
        shifted = lf.value(x[1 : 1 + lf.depth])
        worst = max(worst, abs(direct - shifted))
    return worst


class DecayEstimate(NamedTuple):
    """Proven decay of mean-zero g of the stated depth: |L^n g|_inf <= steps[n] |g|_theta
    for each summed step n, and the later steps sum to at most tail |g|_theta."""

    eig: PerronData  # the Perron record the certificate was proven on
    depth: int
    steps: tuple[float, ...]
    tail: float
    rho: float  # diagnostic: subdominant modulus of the depth-1 operator

    @property
    def C(self) -> float:
        """Diagnostic: the max over summed steps of steps[n] / rho^n (inf when rho^n is 0)."""
        return max(
            b / self.rho**n if self.rho**n > 0.0 else (math.inf if b > 0.0 else 0.0)
            for n, b in enumerate(self.steps)
        )

    @property
    def c_hat(self) -> float:
        """The constant sqrt(2) (sum(steps) + tail) of the integral-discrepancy bound,
        the steps added by `_left_sum`."""
        return math.sqrt(2.0) * (_left_sum(self.steps) + self.tail)


def _norm_inf(M: np.ndarray) -> float:
    return float(np.abs(M).sum(axis=1).max())


def decay_estimate(eig: PerronData, depth: int) -> DecayEstimate:
    """Proven sup-norm decay bounds for mean-zero depth-`depth` functions, from the
    s x s depth-1 operator M1 alone.

    L is Markov and maps depth d to depth max(d-1, 1), and |g|_inf <= |g|_theta
    for mean-zero g, so the first depth-1 steps are bounded by 1. From then on
    the iterate is a mean-zero depth-1 vector, on which L acts as
    M10 = M1 - 1 m1^T (m1 the Parry stationary vector), so step depth-1+j is
    bounded by ||M10^j||_inf. The terms are summed up to the first J with
    q = ||M10^J||_inf < 1; by submultiplicativity the rest sum to at most
    (sum over r < J of ||M10^r||_inf) q / (1 - q). No J within DECAY_TERM_CAP
    terms raises ConvergenceError. A depth past WORD_CEILING steps is refused
    before any step is built.
    """
    if depth < 1:
        raise InputError(f"depth must be at least 1, got {depth}")
    _check_ceiling(depth, "{} decay steps", depth)
    M1 = _kernel(eig, 1)[1]  # the operator on depth-1 functions
    M10 = M1 - eig.parry.stationary[None, :]
    power = np.eye(len(M1))
    norms = []
    for _ in range(DECAY_TERM_CAP):
        norms.append(_norm_inf(power))
        power = M10 @ power
        q = _norm_inf(power)
        if q < 1.0:
            steps = (1.0,) * (depth - 1) + tuple(norms)
            return DecayEstimate(eig, depth, steps, _left_sum(norms) * q / (1.0 - q), subdominant_modulus(M1))
    raise ConvergenceError(
        f"||M10^j||_inf stayed at or above 1 for {DECAY_TERM_CAP} terms", residual=q
    )
