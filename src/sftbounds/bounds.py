"""Pinsker inequality, the entropy-gap identity, the single-step bound, and the
end-to-end integral-discrepancy certificate

    |∫f dmu - ∫f dm| <= c_hat |f|_theta (log lam - h_mu)^(1/2),

with c_hat = sqrt(2) (sum of the per-step decay bounds + their tail) read from
the proven decay certificate (`DecayEstimate.c_hat`). It is verified with the
oscillation max f - min f <= |f|_theta, which implies the stated bound.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, VerificationError
from .measures import (
    LocallyConstantFunction,
    MarkovMeasure,
    centered,
    conditional_vectors,
    entropy,
    integrate,
    markov_measure,
    parry_measure,
    random_function,
    sample_markov_batch,
    stationary_vector,
)
from .sft import TransitionMatrix
from .spectral import PerronData, perron_eigendata
from .transfer import DecayEstimate, decay_estimate, lip_seminorm, supnorm, transfer_apply

# Samples with a gap at or below this are excluded from ratio statistics.
GAP_FLOOR = 1e-12

# Absolute rounding allowance on the right-hand side of each verified bound.
EFFECTIVE_BOUND_SLACK = 1e-9
STEP_BOUND_SLACK = 1e-12

# ratio_scan: the first FAMILIES samples each contribute a log-log slope from
# FAMILY_POINTS kernels on the segment towards the Parry measure.
FAMILIES = 5
FAMILY_POINTS = 8


def phi_divergence(p, q) -> float:
    """KL divergence sum q_i log(q_i / p_i), with 0 log(. / 0) = 0 when q_i = 0.

    Rejects pairs where q charges a point of p-mass zero (the divergence would
    be infinite, signalling a support violation upstream).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise InputError(f"probability vectors must share a 1-d shape, got {p.shape} and {q.shape}")
    if float(p.min()) < 0 or float(q.min()) < 0:
        raise InputError("probability vectors must be nonnegative")
    for vec, name in ((p, "p"), (q, "q")):
        if abs(float(vec.sum()) - 1.0) > 1e-9:
            raise InputError(f"{name} sums to {vec.sum()}, not 1")
    if bool(((q > 0) & (p == 0)).any()):
        raise InputError("q has mass where p vanishes; divergence is infinite")
    terms = np.zeros_like(q)
    pos = q > 0
    terms[pos] = q[pos] * np.log(q[pos] / p[pos])
    return max(float(terms.sum()), 0.0)


class PinskerResult(NamedTuple):
    l1: float
    bound: float
    holds: bool


def pinsker_verify(p, q, slack: float = 1e-12) -> PinskerResult:
    """Check ||q - p||_1 <= sqrt(2 phi(q)) on one pair."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    l1 = float(np.abs(q - p).sum())
    bound = float(np.sqrt(2.0 * phi_divergence(p, q)))
    return PinskerResult(l1, bound, l1 <= bound + slack)


class GapIdentity(NamedTuple):
    lhs: float
    rhs: float
    discrepancy: float


def gap_identity_check(mu: MarkovMeasure, eig: PerronData) -> GapIdentity:
    """Fiberwise-divergence integral versus the entropy gap log lam - h_mu.

    The integrand depends only on the second coordinate, so the integral is
    sum_j r_j * phi(p_j, q_j) over symbols with r_j > 0.
    """
    lhs = 0.0
    for j in range(mu.support.size):
        rj = float(mu.stationary[j])
        if rj <= 0.0:
            continue
        p, q = conditional_vectors(mu, eig, j)
        lhs += rj * phi_divergence(p, q)
    rhs = float(np.log(eig.lam)) - entropy(mu)
    return GapIdentity(lhs, rhs, abs(lhs - rhs))


class StepBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def step_bound_verify(
    f: LocallyConstantFunction,
    mu: MarkovMeasure,
    eig: PerronData,
    n: int,
) -> StepBound:
    """Single telescoping step: |∫L^(n+1)f dmu - ∫L^n f dmu| against
    sqrt(2) |L^n f|_inf sqrt(gap)."""
    if n < 0:
        raise InputError(f"step index must be nonnegative, got {n}")
    fn = f
    for _ in range(n):
        fn = transfer_apply(fn, eig)
    fn1 = transfer_apply(fn, eig)
    lhs = abs(integrate(fn1, mu) - integrate(fn, mu))
    gap = max(float(np.log(eig.lam)) - entropy(mu), 0.0)
    rhs = float(np.sqrt(2.0)) * supnorm(fn) * float(np.sqrt(gap))
    return StepBound(lhs, rhs, lhs <= rhs + STEP_BOUND_SLACK)


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    seminorm: float
    gap: float
    c_hat: float
    ratio: float
    holds: bool


def effective_bound_verify(
    f: LocallyConstantFunction,
    mu: MarkovMeasure,
    eig: PerronData,
    decay: DecayEstimate,
    m: MarkovMeasure | None = None,
) -> BoundReport:
    """Verify the integral-discrepancy bound for one (f, mu) pair.

    f is centered against the Parry measure first (pass `m` to reuse one). A gap
    below -1e-9 means the measure claims more entropy than log lam and is
    treated as a hard error. The ratio field is lhs / (seminorm sqrt(gap)),
    with the oscillation `lip_seminorm`, NaN when the gap or the seminorm is
    too small to divide by.
    """
    if m is None:
        m = parry_measure(f.matrix, eig)
    fc = centered(f, m)
    gap = float(np.log(eig.lam)) - entropy(mu)
    if gap < -1e-9:
        raise VerificationError(
            f"entropy exceeds log lambda by {-gap:.3e}; measure or eigendata is broken"
        )
    gap_pos = max(gap, 0.0)
    lhs = abs(integrate(fc, mu) - integrate(fc, m))
    sem = lip_seminorm(fc)
    c_hat = decay.c_hat
    holds = lhs <= c_hat * sem * float(np.sqrt(gap_pos)) + EFFECTIVE_BOUND_SLACK
    if gap_pos > GAP_FLOOR and sem > 0.0:
        ratio = lhs / (sem * float(np.sqrt(gap_pos)))
    else:
        ratio = float("nan")
    return BoundReport(lhs, sem, gap, c_hat, ratio, holds)


@dataclass(frozen=True)
class ScanSummary:
    """`rows[i]` is the report of sample i."""

    rows: tuple[BoundReport, ...]
    max_ratio: float
    argmax_id: int
    slope: float
    c_hat: float
    C: float
    rho: float
    all_hold: bool


def _family_slope(
    A: TransitionMatrix,
    eig: PerronData,
    m: MarkovMeasure,
    fc: LocallyConstantFunction,
    q_direction: np.ndarray,
    t_grid: np.ndarray,
) -> float:
    """Least-squares slope of log lhs against log gap along the segment from the
    Parry kernel towards q_direction. NaN when too few usable points."""
    log_gap = []
    log_lhs = []
    base = integrate(fc, m)
    t = t_grid[:, None, None]
    Qs = (1.0 - t) * m.transition + t * q_direction
    for r, Q in zip(stationary_vector(Qs), Qs):
        mu = markov_measure(r, Q, A)
        gap = float(np.log(eig.lam)) - entropy(mu)
        lhs = abs(integrate(fc, mu) - base)
        if gap > GAP_FLOOR and lhs > 1e-13:
            log_gap.append(float(np.log(gap)))
            log_lhs.append(float(np.log(lhs)))
    if len(log_gap) < 3:
        return float("nan")
    return float(np.polyfit(log_gap, log_lhs, 1)[0])


def ratio_scan(
    A: TransitionMatrix,
    samples: int,
    seed: int,
    depth: int = 2,
) -> ScanSummary:
    """Sample (mu, f) pairs, verify the bound on each, and report the largest
    observed ratio plus a log-log slope of lhs versus gap along one-parameter
    kernel families approaching the Parry measure.

    Purely observational beyond the per-sample verification: the slope is
    evidence about the gap exponent, not an asserted inequality.
    """
    if samples < 1:
        raise InputError(f"need at least one sample, got {samples}")
    eig = perron_eigendata(A)
    m = parry_measure(A, eig)
    decay = decay_estimate(A, eig, depth)

    master = np.random.default_rng(seed)
    sub_seeds = master.integers(0, 2**63 - 1, size=2 * samples)
    rows = []
    slopes = []
    t_grid = np.geomspace(1e-3, 1e-1, FAMILY_POINTS)
    for i, mu in enumerate(sample_markov_batch(A, sub_seeds[0::2])):
        f = random_function(A, depth, int(sub_seeds[2 * i + 1]))
        rows.append(effective_bound_verify(f, mu, eig, decay, m=m))
        if i < FAMILIES:
            fc = centered(f, m)
            slopes.append(_family_slope(A, eig, m, fc, mu.transition, t_grid))

    finite = [(r.ratio, i) for i, r in enumerate(rows) if np.isfinite(r.ratio)]
    if finite:
        max_ratio, argmax_id = max(finite)
    else:
        max_ratio, argmax_id = float("nan"), -1
    usable = [s for s in slopes if np.isfinite(s)]
    # statistics, not np.median: that loads numpy.ma on first use.
    slope = float(statistics.median(usable)) if usable else float("nan")
    return ScanSummary(
        rows=tuple(rows),
        max_ratio=float(max_ratio),
        argmax_id=int(argmax_id),
        slope=slope,
        c_hat=decay.c_hat,
        C=decay.C,
        rho=decay.rho,
        all_hold=all(r.holds for r in rows),
    )
