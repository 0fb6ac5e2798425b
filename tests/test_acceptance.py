"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Tolerances
are pinned here, not configurable.
"""

import functools
import math
import time

import numpy as np

from helpers import PHI, bernoulli_entropy, dp_avoid_count, random_primitive_matrices
from sftbounds import (
    centered,
    conditional_expectation_check,
    constant_function,
    cylinder_measure,
    decay_estimate,
    dim_upper_bound,
    effective_bound_verify,
    entropy,
    enumerate_words,
    exceptional_dimension_bound,
    full_shift,
    gap_identity_check,
    golden_mean_shift,
    higher_block_prune,
    hole_family_scan,
    indicator,
    information_mean,
    integrate,
    lip_seminorm,
    markov_measure,
    mean_zero_probes,
    model_preset,
    parry_measure,
    perron_eigendata,
    phi_divergence,
    pinsker_verify,
    pruned_word_count,
    random_function,
    ratio_scan,
    sample_markov,
    sample_markov_batch,
    step_bound_verify,
    survivor_entropy,
    transfer_apply,
    transfer_matrix,
)

# Iterate sup-norms at or below DECAY_FLOOR * |g|_theta are rounding residue of
# an exact zero.
DECAY_FLOOR = 1e-13

FULL2 = full_shift(2)
GOLDEN = golden_mean_shift()
FULL3 = full_shift(3)
EIG2 = perron_eigendata(FULL2)
EIGG = perron_eigendata(GOLDEN)


def criterion(number: int, title: str, limit: float | None = None):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            elapsed = time.perf_counter() - start
            print(f"PASS criterion {number}: {title} ({elapsed:.2f}s)")
            if limit is not None:
                assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, limit {limit}s"
        return run
    return wrap


def bernoulli(p):
    return markov_measure([p, 1 - p], [[p, 1 - p], [p, 1 - p]], FULL2)


@criterion(1, "Perron/Parry anchors", limit=1.0)
def test_criterion_1_perron_parry_anchors():
    assert abs(EIG2.lam - 2.0) <= 1e-12
    m2 = parry_measure(FULL2, EIG2)
    assert np.allclose(m2.stationary, 0.5, atol=1e-12)
    assert np.allclose(m2.transition, 0.5, atol=1e-12)
    for w in enumerate_words(FULL2, 3):
        assert abs(cylinder_measure(m2, w) - 0.125) <= 1e-12
    assert abs(EIGG.lam - (1 + math.sqrt(5)) / 2) <= 1e-10
    mg = parry_measure(GOLDEN, EIGG)
    assert abs(entropy(mg) - math.log(EIGG.lam)) <= 1e-10


@criterion(2, "coboundary identity on sampled measures", limit=10.0)
def test_criterion_2_information_mean():
    mats = random_primitive_matrices(10, (2, 3, 4, 5), seed=2024)
    for A in mats:
        eig = perron_eigendata(A)
        log_lam = math.log(eig.lam)
        for mu in sample_markov_batch(A, range(100)):
            assert abs(information_mean(mu, eig) - log_lam) <= 1e-9


@criterion(3, "divergence-integral identity and Bernoulli(0.9) anchor")
def test_criterion_3_gap_identity():
    mats = random_primitive_matrices(10, (2, 3, 4, 5), seed=2024)
    for A in mats:
        eig = perron_eigendata(A)
        for mu in sample_markov_batch(A, range(100)):
            assert gap_identity_check(mu, eig).discrepancy <= 1e-9
    res = gap_identity_check(bernoulli(0.9), EIG2)
    assert abs(res.lhs - 0.3680642) <= 1e-6
    assert abs(res.rhs - 0.3680642) <= 1e-6


@criterion(4, "Pinsker inequality on 10^4 pairs per dimension 2..8")
def test_criterion_4_pinsker():
    rng = np.random.default_rng(7)
    for dim in range(2, 9):
        p_batch = rng.dirichlet(np.ones(dim), size=10_000)
        q_batch = rng.dirichlet(np.ones(dim), size=10_000)
        for p, q in zip(p_batch, q_batch):
            res = pinsker_verify(p, q)
            assert res.holds
        # unique-zero clause
        p = rng.dirichlet(np.ones(dim))
        assert phi_divergence(p, p) == 0.0
        assert pinsker_verify(p, p) == (0.0, 0.0, True)


@criterion(5, "transfer-operator suite: fixed point, duality, decay")
def test_criterion_5_transfer():
    cases = ((FULL2, EIG2), (GOLDEN, EIGG), (FULL3, perron_eigendata(FULL3)))
    for A, eig in cases:
        m = parry_measure(A, eig)
        one = constant_function(A, 1.0, depth=2)
        assert np.allclose(transfer_apply(one, eig).values, 1.0, atol=1e-12)
        for depth in range(1, 5):
            f = random_function(A, depth, seed=depth)
            assert abs(integrate(transfer_apply(f, eig), m) - integrate(f, m)) <= 1e-12
            assert conditional_expectation_check(f, eig) <= 1e-12
    # decay with spectral constants: golden mean at several depths plus the
    # full shift where mean-zero functions die in one exact step
    decay_cases = [(GOLDEN, EIGG, d) for d in (1, 2, 3, 4)] + [(FULL2, EIG2, 1)]
    for A, eig, depth in decay_cases:
        est = decay_estimate(A, eig, depth)
        M, _ = transfer_matrix(A, eig, depth)
        for g in mean_zero_probes(A, eig, depth):
            sem = lip_seminorm(g)
            vec = g.values.copy()
            for n in range(51):
                sup = float(np.max(np.abs(vec)))
                assert sup <= est.C * est.rho**n * sem + DECAY_FLOOR * sem
                vec = M @ vec
    assert abs(decay_estimate(GOLDEN, EIGG, 1).rho - 1 / PHI**2) <= 1e-9


@criterion(6, "integral-discrepancy certification on 10^3 pairs per system", limit=60.0)
def test_criterion_6_effective_bound():
    for A in (FULL2, GOLDEN):
        scan = ratio_scan(A, samples=1000, seed=0, depth=2)
        assert scan.all_hold
    # Bernoulli family with the first-cylinder indicator: ratio capped at 1/sqrt(2)
    decay1 = decay_estimate(FULL2, EIG2, 1)
    m2 = parry_measure(FULL2, EIG2)
    f0 = indicator(FULL2, (0,))
    worst = 0.0
    for p in np.linspace(0.01, 0.99, 197):
        rep = effective_bound_verify(f0, bernoulli(float(p)), EIG2, decay1, m=m2)
        assert rep.holds
        if math.isfinite(rep.ratio):
            worst = max(worst, rep.ratio)
    assert worst <= 1 / math.sqrt(2) + 1e-9
    # gap exponent 1/2 from the scan's family fit and from the Bernoulli family
    scan2 = ratio_scan(FULL2, samples=50, seed=0, depth=2)
    assert abs(scan2.slope - 0.5) <= 0.05
    fc = centered(f0, m2)
    log_gap, log_lhs = [], []
    for eps in np.geomspace(1e-4, 1e-1, 12):
        mu = bernoulli(0.5 + float(eps))
        log_gap.append(math.log(math.log(2) - entropy(mu)))
        log_lhs.append(math.log(abs(integrate(fc, mu) - integrate(fc, m2))))
    slope = float(np.polyfit(log_gap, log_lhs, 1)[0])
    assert abs(slope - 0.5) <= 0.05


@criterion(7, "single-step bound and its worked anchor")
def test_criterion_7_step_bound():
    for A, eig in ((FULL2, EIG2), (GOLDEN, EIGG)):
        for seed in range(10):
            mu = sample_markov(A, seed=seed)
            f = random_function(A, 2, seed=900 + seed)
            for n in range(21):
                assert step_bound_verify(f, mu, eig, n).holds
    m2 = parry_measure(FULL2, EIG2)
    f = centered(indicator(FULL2, (0,)), m2)
    res = step_bound_verify(f, bernoulli(0.9), EIG2, 0)
    rhs_oracle = math.sqrt(2) * 0.5 * math.sqrt(math.log(2) - bernoulli_entropy(0.9))
    assert abs(res.lhs - 0.4) <= 1e-9
    assert abs(res.rhs - rhs_oracle) <= 1e-6
    assert res.holds and res.lhs <= res.rhs


@criterion(8, "hole pruning: anchors, monotonicity, growth, family constants")
def test_criterion_8_holes():
    ps = higher_block_prune(FULL2, (1, 1))
    assert abs(ps.survivor_lambda - (1 + math.sqrt(5)) / 2) <= 1e-9
    dim = dim_upper_bound(survivor_entropy(ps), math.log(2), 1.0, math.log(2))
    assert abs(dim - 0.6942419) <= 1e-7
    assert abs(dim - math.log(PHI) / math.log(2)) <= 1e-8
    # extension monotonicity, exhaustively for s <= 3 up to depth 4
    for A in (FULL2, GOLDEN, FULL3):
        radius = {}
        for k in range(1, 5):
            for w in enumerate_words(A, k):
                radius[w] = higher_block_prune(A, w).survivor_lambda
        for w, lam_w in radius.items():
            if len(w) < 4:
                for c in A.successor_sets[w[-1]]:
                    assert radius[w + (c,)] >= lam_w - 1e-10
    # word-count growth rate at n = 30
    for A, w in ((FULL2, (1, 1)), (FULL2, (0, 0)), (FULL3, (1, 2))):
        ps = higher_block_prune(A, w)
        slope = math.log(pruned_word_count(ps, 31)) - math.log(pruned_word_count(ps, 30))
        assert abs(slope - survivor_entropy(ps)) <= 1e-3
        assert pruned_word_count(ps, 12) == dp_avoid_count(A, w, 12)
    # fitted family constant stays positive
    for A in (FULL2, GOLDEN, FULL3):
        scan = hole_family_scan(A, 3)
        assert scan.fitted_c > 0.0
        assert not scan.monotonicity_violations


@criterion(9, "expanding-map pipeline: spectral bound, box count, delta grid", limit=60.0)
def test_criterion_9_models():
    doubling = model_preset("doubling")
    # ball of radius 1/8 at 1/8 is the dyadic cylinder [0, 1/4], the hole "00"
    rep = exceptional_dimension_bound(doubling, 0.125, 0.125)
    target = math.log(PHI) / math.log(2)
    assert abs(rep.bound - target) <= 1e-8
    # direct depth-20 box count of factor-avoiding words
    count = dp_avoid_count(FULL2, (0, 0), 20)
    estimate = math.log(count) / (20 * math.log(2))
    assert abs(estimate - rep.bound) <= 0.05
    # the bound decreases as the hole grows, over a 10-point grid
    previous = None
    for delta in np.geomspace(0.01, 0.35, 10):
        bound = exceptional_dimension_bound(doubling, 0.125, float(delta)).bound
        if previous is not None:
            assert bound <= previous + 1e-9
        previous = bound
