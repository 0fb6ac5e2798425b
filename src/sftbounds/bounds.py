"""Pinsker inequality, the entropy-gap identity, the single-step bound, and the
end-to-end integral-discrepancy certificate

    |∫f dmu - ∫f dm| <= c_hat |f|_theta (log lam - h_mu)^(1/2),

with c_hat = sqrt(2) (sum of the per-step decay bounds + their tail) read from
the proven decay certificate (`DecayEstimate.c_hat`). It is verified with the
oscillation max f - min f <= |f|_theta, which implies the stated bound.

Sampled measures are checked as stacks: the divergence, the gap identity and
the bound take k measures (and k functions) at once and return arrays, one
entry per measure, with the bits of each one-measure check. `ratio_scan`
solves its samples and its slope families in one batch and checks them in one
stacked call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError, VerificationError, first_failure
from .measures import (
    LocallyConstantFunction,
    MarkovMeasure,
    _check_kernels,
    _check_stack,
    centered,
    conditional_vectors,
    dirichlet_kernels,
    entropy,
    integrate,
    markov_measure,
    random_function,
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
PINSKER_SLACK = 1e-12

# ratio_scan: the first FAMILIES samples each contribute a log-log slope from
# FAMILY_POINTS kernels on the segment towards the Parry measure.
FAMILIES = 5
FAMILY_POINTS = 8


def phi_divergence(p, q):
    """KL divergence sum q_i log(q_i / p_i), with 0 log(. / 0) = 0 when q_i = 0;
    for (k, n) stacks of pairs, an array with one divergence per row.

    Rejects pairs where q charges a point of p-mass zero (the divergence would
    be infinite, signalling a support violation upstream); a stack is rejected
    for its first bad pair's first failed check.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim not in (1, 2):
        raise InputError(
            f"probability vectors must share a 1-d or (k, n) shape, got {p.shape} and {q.shape}"
        )
    P, Qv = np.atleast_2d(p), np.atleast_2d(q)
    p_sum, q_sum = P.sum(axis=1), Qv.sum(axis=1)
    pos = Qv > 0
    failure = first_failure((
        ((P.min(axis=1) < 0) | (Qv.min(axis=1) < 0),
         lambda i: "probability vectors must be nonnegative"),
        (np.abs(p_sum - 1.0) > 1e-9, lambda i: f"p sums to {p_sum[i]}, not 1"),
        (np.abs(q_sum - 1.0) > 1e-9, lambda i: f"q sums to {q_sum[i]}, not 1"),
        ((pos & (P == 0)).any(axis=1), lambda i: "q has mass where p vanishes; divergence is infinite"),
    ))
    if failure:
        raise InputError(failure[1])
    ratio = np.divide(Qv, P, out=np.ones_like(Qv), where=pos)
    phi = np.maximum(np.where(pos, Qv * np.log(ratio), 0.0).sum(axis=1), 0.0)
    return float(phi[0]) if p.ndim == 1 else phi


class PinskerResult(NamedTuple):
    l1: float
    bound: float
    holds: bool


def pinsker_verify(p, q) -> PinskerResult:
    """Check ||q - p||_1 <= sqrt(2 phi(q)) on one pair; for (k, n) stacks of
    pairs, each field is an array with one entry per row."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    l1 = np.abs(q - p).sum(axis=-1)
    bound = np.sqrt(2.0 * phi_divergence(p, q))
    res = PinskerResult(l1, bound, l1 <= bound + PINSKER_SLACK)
    return res if p.ndim == 2 else PinskerResult(*(x.item() for x in res))


class GapIdentity(NamedTuple):
    lhs: float
    rhs: float
    discrepancy: float


def gap_identity_check(mu: MarkovMeasure, eig: PerronData) -> GapIdentity:
    """Fiberwise-divergence integral versus the entropy gap log lam - h_mu; for a
    stack of measures, each field is an array with one entry per measure.

    The integrand depends only on the second coordinate, so the integral is
    sum_j r_j * phi(p_j, q_j) over symbols with r_j > 0, added up one symbol j
    at a time across the stack.
    """
    stack = mu if mu.stationary.ndim == 2 else mu[None]
    r = stack.stationary
    lhs = np.zeros(len(r))
    for j in range(mu.support.size):
        live = np.flatnonzero(r[:, j] > 0.0)
        p, q = conditional_vectors(stack[live], eig, j)
        lhs[live] += r[live, j] * phi_divergence(np.broadcast_to(p, q.shape), q)
    rhs = float(np.log(eig.lam)) - entropy(stack)
    ident = GapIdentity(lhs, rhs, np.abs(lhs - rhs))
    return ident if stack is mu else GapIdentity(*(float(x[0]) for x in ident))


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


class BoundReport(NamedTuple):
    lhs: float
    seminorm: float
    gap: float
    ratio: float
    holds: bool


def effective_bound_verify(
    f: LocallyConstantFunction,
    mu: MarkovMeasure,
    decay: DecayEstimate,
) -> BoundReport:
    """Verify the integral-discrepancy bound for one (f, mu) pair, or for each
    pair of a stack of k functions and a stack of k measures (either may be a
    single one, broadcast); the report's fields are then arrays, one per pair.

    f is centered first against the Parry measure of `decay.eig`, the Perron
    record the certificate was proven on, which also gives lam, so f and mu
    of another shift are refused. A gap
    below -1e-9 means the measure claims more entropy than log lam and is
    treated as a hard error, raised for the first such pair of a stack. The
    ratio field is lhs / (seminorm sqrt(gap)), with the oscillation
    `lip_seminorm`, NaN when the gap or the seminorm is too small to divide by.
    A certificate covers functions of its depth or less; a deeper f is refused.
    """
    if f.depth > decay.depth:
        raise InputError(f"a depth-{decay.depth} certificate does not cover depth-{f.depth} functions")
    single = f.values.ndim == 1 and mu.stationary.ndim == 1
    eig = decay.eig
    fc = centered(f, eig.parry)
    gap = float(np.log(eig.lam)) - np.atleast_1d(entropy(mu))
    lhs = np.abs(integrate(fc, mu) - integrate(fc, eig.parry))
    gap, lhs, sem = np.broadcast_arrays(gap, lhs, lip_seminorm(fc))
    broken = np.flatnonzero(gap < -1e-9)
    if broken.size:
        i = broken[0]
        raise VerificationError(
            f"{'' if single else f'pair {i}: '}entropy exceeds log lambda by {-gap[i]:.3e}; "
            "measure or eigendata is broken"
        )
    gap_pos = np.maximum(gap, 0.0)
    root = np.sqrt(gap_pos)
    holds = lhs <= decay.c_hat * sem * root + EFFECTIVE_BOUND_SLACK
    usable = (gap_pos > GAP_FLOOR) & (sem > 0.0)
    ratio = np.divide(lhs, sem * root, out=np.full(gap.shape, np.nan), where=usable)
    report = BoundReport(lhs, sem, gap, ratio, holds)
    return BoundReport(*(x.item() for x in report)) if single else report


class ScanSummary(NamedTuple):
    """The stacked report of every sample (entry i is sample i), the decay
    certificate it was checked against, and the median family slope."""

    report: BoundReport
    decay: DecayEstimate
    slope: float

    @property
    def argmax_id(self) -> int:
        """The sample of largest finite ratio, the last of equal ones; -1 when
        no ratio is finite."""
        ratio = self.report.ratio
        top = np.flatnonzero(ratio == ratio[np.isfinite(ratio)].max(initial=-np.inf))
        return int(top[-1]) if top.size else -1

    @property
    def max_ratio(self) -> float:
        i = self.argmax_id
        return float(self.report.ratio[i]) if i >= 0 else float("nan")

    @property
    def all_hold(self) -> bool:
        return bool(self.report.holds.all())


def _family_slopes(gap: np.ndarray, lhs: np.ndarray) -> list[float]:
    """Least-squares slope of log lhs against log gap along each family, the
    gaps and discrepancies of its FAMILY_POINTS consecutive pairs. NaN for a
    family with fewer than 3 usable points."""
    slopes = []
    for g, h in zip(gap.reshape(-1, FAMILY_POINTS), lhs.reshape(-1, FAMILY_POINTS)):
        use = (g > GAP_FLOOR) & (h > 1e-13)
        slope = np.polyfit(np.log(g[use]), np.log(h[use]), 1)[0] if use.sum() >= 3 else np.nan
        slopes.append(float(slope))
    return slopes


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

    The sampled kernels and the family kernels (the first FAMILIES samples'
    segments) are solved in one batch and validated as one stack. One
    stacked `effective_bound_verify` call checks every sample and then each
    family kernel against its sample's function; the summary reports the
    samples' rows.
    """
    if samples < 1:
        raise InputError(f"need at least one sample, got {samples}")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    eig = perron_eigendata(A)
    decay = decay_estimate(eig, depth)

    # before the 2 * samples sub-seeds are drawn: random_function's refusal,
    # and that of the kernels of the samples and of the families built below
    _check_stack(A, depth, samples)
    _check_kernels(A, samples + min(samples, FAMILIES) * FAMILY_POINTS)
    master = np.random.default_rng(seed)
    sub_seeds = master.integers(0, 2**63 - 1, size=2 * samples)
    f = random_function(A, depth, sub_seeds[1::2])
    kernels = dirichlet_kernels(A, sub_seeds[0::2])
    t = np.geomspace(1e-3, 1e-1, FAMILY_POINTS)[:, None, None]
    segments = (1.0 - t) * eig.parry.transition + t * kernels[:FAMILIES, None]
    Qs = np.concatenate([kernels, segments.reshape(-1, A.size, A.size)])
    del kernels, segments
    mu = markov_measure(stationary_vector(Qs), Qs, A)
    del Qs  # mu holds the validated copy; the check's temporaries need the room
    values = np.concatenate([f.values, np.repeat(f.values[:FAMILIES], FAMILY_POINTS, axis=0)])
    pairs = effective_bound_verify(LocallyConstantFunction(A, depth, values), mu, decay)
    report = BoundReport(*(x[:samples] for x in pairs))
    slopes = _family_slopes(pairs.gap[samples:], pairs.lhs[samples:])
    usable = sorted(s for s in slopes if np.isfinite(s))
    # the median, as statistics.median takes it; np.median loads numpy.ma
    mid = len(usable) // 2
    slope = (usable[mid] + usable[~mid]) / 2 if usable else float("nan")
    return ScanSummary(report, decay, slope)
