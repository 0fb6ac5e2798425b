import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bernoulli_entropy
from sftbounds import (
    CeilingError,
    InputError,
    VerificationError,
    centered,
    decay_estimate,
    effective_bound_verify,
    entropy,
    full_shift,
    gap_identity_check,
    indicator,
    integrate,
    markov_measure,
    parry_measure,
    phi_divergence,
    pinsker_verify,
    random_function,
    ratio_scan,
    sample_markov,
    sample_markov_batch,
    step_bound_verify,
)
from sftbounds import bounds
from sftbounds.cli import main
from sftbounds.spectral import PerronData
from sftbounds.transfer import lip_seminorm, transfer_apply


def bernoulli(p, A):
    return markov_measure([p, 1 - p], [[p, 1 - p], [p, 1 - p]], A)


# ---------- phi divergence and Pinsker ----------

def test_phi_zero_at_p():
    assert phi_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_phi_point_mass():
    assert abs(phi_divergence([0.5, 0.5], [1.0, 0.0]) - math.log(2)) <= 1e-12


def test_phi_three_quarters():
    # oracle: 0.75 log 1.5 + 0.25 log 0.5 evaluated directly
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert abs(expected - 0.1308120) <= 1e-7
    assert abs(phi_divergence([0.5, 0.5], [0.75, 0.25]) - expected) <= 1e-12


def test_phi_support_violation_rejected():
    with pytest.raises(InputError, match="vanishes"):
        phi_divergence([1.0, 0.0], [0.5, 0.5])


def test_phi_zero_with_matching_zero_coordinates():
    # q_i = 0 wherever p_i = 0 is fine; those terms drop out
    assert abs(phi_divergence([0.0, 0.5, 0.5], [0.0, 1.0, 0.0]) - math.log(2)) <= 1e-12


def test_phi_rejects_non_probability():
    with pytest.raises(InputError):
        phi_divergence([0.5, 0.6], [0.5, 0.5])


@given(st.integers(0, 10_000), st.integers(2, 8))
def test_phi_nonnegative_and_pinsker(seed, dim):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(dim))
    q = rng.dirichlet(np.ones(dim))
    phi = phi_divergence(p, q)
    assert phi >= 0.0
    res = pinsker_verify(p, q)
    assert res.holds
    assert res.l1 <= res.bound + 1e-12


def test_pinsker_at_equality_point():
    res = pinsker_verify([0.4, 0.6], [0.4, 0.6])
    assert res == (0.0, 0.0, True)


def test_pinsker_point_mass_anchor():
    res = pinsker_verify([0.5, 0.5], [1.0, 0.0])
    assert abs(res.l1 - 1.0) <= 1e-12
    assert abs(res.bound - math.sqrt(2 * math.log(2))) <= 1e-12
    assert res.holds


def test_pinsker_three_quarters_anchor():
    expected_phi = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    res = pinsker_verify([0.5, 0.5], [0.75, 0.25])
    assert abs(res.l1 - 0.5) <= 1e-12
    assert abs(res.bound - math.sqrt(2 * expected_phi)) <= 1e-12
    assert res.holds


def test_unique_zero_clause():
    rng = np.random.default_rng(0)
    for dim in range(2, 9):
        p = rng.dirichlet(np.ones(dim))
        assert phi_divergence(p, p) == 0.0
        # any genuine perturbation moves phi strictly above 0
        q = rng.dirichlet(np.ones(dim))
        if float(np.abs(q - p).sum()) > 1e-8:
            assert phi_divergence(p, q) > 0.0


# ---------- gap identity ----------

def test_gap_identity_parry_is_zero(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    res = gap_identity_check(m, eig_golden)
    assert res.lhs <= 1e-12 and abs(res.rhs) <= 1e-12


def test_gap_identity_bernoulli_anchor(full2, eig_full2):
    mu = bernoulli(0.9, full2)
    res = gap_identity_check(mu, eig_full2)
    expected = math.log(2) - bernoulli_entropy(0.9)
    assert abs(expected - 0.3680642) <= 1e-6
    assert abs(res.lhs - expected) <= 1e-12
    assert abs(res.rhs - expected) <= 1e-12
    assert res.discrepancy <= 1e-12


def test_gap_identity_sampled(golden, eig_golden, full3, eig_full3):
    for A, eig in ((golden, eig_golden), (full3, eig_full3)):
        for seed in range(40):
            res = gap_identity_check(sample_markov(A, seed=seed), eig)
            assert res.discrepancy <= 1e-9


def test_gap_identity_skips_null_fibers(golden, eig_golden):
    # the cycle measure kills no symbol here, but 0-mass rows must not crash
    mu = markov_measure([1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], golden)
    res = gap_identity_check(mu, eig_golden)
    assert math.isfinite(res.discrepancy)


# ---------- step bound ----------

def test_step_bound_parry_lhs_zero(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    f = random_function(golden, 2, seed=1)
    res = step_bound_verify(f, m, eig_golden, 0)
    assert res.lhs <= 1e-12
    assert res.holds


def test_step_bound_refuses_a_negative_step(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    with pytest.raises(InputError, match="step index must be nonnegative, got -1"):
        step_bound_verify(random_function(golden, 2, seed=1), m, eig_golden, -1)


def test_step_bound_worked_anchor(full2, eig_full2):
    # f = 1_{C(0)} - 1/2, mu = Bernoulli(0.9), n = 0: the operator kills f, so
    # lhs = |0 - 0.4|; rhs = sqrt(2) * 0.5 * sqrt(log 2 - H(0.9))
    m = parry_measure(full2, eig_full2)
    f = centered(indicator(full2, (0,)), m)
    mu = bernoulli(0.9, full2)
    res = step_bound_verify(f, mu, eig_full2, 0)
    rhs_oracle = math.sqrt(2) * 0.5 * math.sqrt(math.log(2) - bernoulli_entropy(0.9))
    assert abs(res.lhs - 0.4) <= 1e-12
    assert abs(res.rhs - rhs_oracle) <= 1e-12
    assert abs(res.rhs - 0.4289896310917649) <= 1e-6
    assert res.holds


def test_step_bound_sampled(golden, eig_golden, full2, eig_full2):
    for A, eig in ((golden, eig_golden), (full2, eig_full2)):
        for seed in range(8):
            mu = sample_markov(A, seed=seed)
            f = random_function(A, 2, seed=1000 + seed)
            for n in range(0, 21, 4):
                assert step_bound_verify(f, mu, eig, n).holds


def test_step_bound_beyond_decay_horizon(golden, eig_golden):
    mu = sample_markov(golden, seed=2)
    f = random_function(golden, 2, seed=3)
    res = step_bound_verify(f, mu, eig_golden, 60)
    assert res.lhs <= 1e-12
    assert res.holds


# ---------- effective bound ----------

def test_effective_bound_parry(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    decay = decay_estimate(golden, eig_golden, 2)
    f = random_function(golden, 2, seed=4)
    rep = effective_bound_verify(f, m, eig_golden, decay, m=m)
    assert rep.lhs <= 1e-12
    assert rep.holds
    assert math.isnan(rep.ratio)


def test_effective_bound_bernoulli_family(full2, eig_full2):
    decay = decay_estimate(full2, eig_full2, 1)
    m = parry_measure(full2, eig_full2)
    f = indicator(full2, (0,))
    worst = 0.0
    for p in np.linspace(0.01, 0.99, 99):
        rep = effective_bound_verify(f, bernoulli(float(p), full2), eig_full2, decay, m=m)
        assert rep.holds
        assert abs(rep.lhs - abs(p - 0.5)) <= 1e-12
        if math.isfinite(rep.ratio):
            worst = max(worst, rep.ratio)
    assert worst <= 1 / math.sqrt(2) + 1e-9


def test_effective_bound_sampled_pairs(golden, eig_golden, full2, eig_full2):
    for A, eig in ((golden, eig_golden), (full2, eig_full2)):
        decay = decay_estimate(A, eig, 2)
        m = parry_measure(A, eig)
        for seed in range(60):
            mu = sample_markov(A, seed=seed)
            f = random_function(A, 2, seed=5000 + seed)
            assert effective_bound_verify(f, mu, eig, decay, m=m).holds


def test_effective_bound_rejects_negative_gap(golden, eig_golden):
    # corrupt the root so log lam undercuts the true entropy; reuse the intact
    # Parry measure so the error surfaces at the gap check
    broken = PerronData(1.01, eig_golden.u, eig_golden.v)
    decay = decay_estimate(golden, eig_golden, 2)
    m = parry_measure(golden, eig_golden)
    mu = sample_markov(golden, seed=1)
    f = random_function(golden, 2, seed=1)
    assert entropy(mu) > math.log(1.01)
    with pytest.raises(VerificationError):
        effective_bound_verify(f, mu, broken, decay, m=m)


def test_telescoping_consistency(golden, eig_golden):
    # partial telescoping sums plus the certified tail dominate the discrepancy
    m = parry_measure(golden, eig_golden)
    decay = decay_estimate(golden, eig_golden, 2)
    for seed in (0, 1, 2):
        mu = sample_markov(golden, seed=seed)
        f = centered(random_function(golden, 2, seed=seed), m)
        lhs = abs(integrate(f, mu) - integrate(f, m))
        sem = lip_seminorm(f)
        for big_n in (0, 3, 10):
            steps = 0.0
            fn = f
            for _ in range(big_n + 1):
                fn1 = transfer_apply(fn, eig_golden)
                steps += abs(integrate(fn1, mu) - integrate(fn, mu))
                fn = fn1
            tail = abs(integrate(fn, mu))
            assert lhs <= steps + tail + 1e-12
            assert tail <= decay.C * decay.rho ** (big_n + 1) * sem + 1e-12


# ---------- ratio scan ----------

def test_ratio_scan_deterministic(full2):
    a = ratio_scan(full2, samples=40, seed=9, depth=2)
    b = ratio_scan(full2, samples=40, seed=9, depth=2)
    assert [np.asarray(x).tobytes() for x in a.report._asdict().values()] == [
        np.asarray(x).tobytes() for x in b.report._asdict().values()]
    assert (a.decay, a.slope) == (b.decay, b.slope)


def test_ratio_scan_all_hold_and_slope(full2, golden):
    for A in (full2, golden):
        scan = ratio_scan(A, samples=150, seed=0, depth=2)
        assert scan.all_hold
        assert abs(scan.slope - 0.5) <= 0.05
        assert math.isfinite(scan.max_ratio)
        assert scan.max_ratio <= scan.decay.c_hat


def test_ratio_scan_refuses_zero_samples(golden):
    with pytest.raises(InputError, match="^need at least one sample, got 0$"):
        ratio_scan(golden, 0, 1)


@pytest.mark.parametrize("s, call, message", [
    # 10**7 functions of 4 words: the 2 * 10**7 sub-seeds (153 MiB) are not drawn
    (2, lambda A: ratio_scan(A, 10**7, 0, depth=2), "10000000 functions of 4 words: 40000000 values"),
    (3, lambda A: sample_markov_batch(A, range(2 * 10**6)), "2000000 kernels on 3 symbols: 18000000 values"),
    # 71 samples fit: 111 kernels of 300 x 300 entries are 9990000 values
    (300, lambda A: ratio_scan(A, 72, 0, depth=1), "112 kernels on 300 symbols: 10080000 values"),
    (3, ["entropy", "--matrix", "A", "--samples", "2000000"], "2000000 kernels on 3 symbols: 18000000 values"),
    (3, ["pinsker", "--samples", "2000000"], "2000000 samples of dimension 8: 16000000 values"),
], ids=["ratio_scan-functions", "sample_markov_batch", "ratio_scan-kernels", "entropy", "pinsker"])
def test_stacks_past_the_value_ceiling_are_refused_before_drawing(capsys, tmp_path, s, call, message):
    # A library call raises CeilingError, a CLI run exits 2, before the stack
    # or the seeds it is drawn from are allocated: under 8 MiB, where the
    # 2 * 10**6 sub-seeds of entropy are 15.3 MiB. The full shift is built
    # first; the 300-symbol one's rows take 5.8 MiB of Python tuples.
    A = full_shift(s)
    matrix = tmp_path / "A.json"
    matrix.write_text(json.dumps({"rows": A.array.tolist()}))
    tracemalloc.start()
    try:
        if callable(call):
            with pytest.raises(CeilingError, match=message):
                call(A)
        else:
            assert main([str(matrix) if a == "A" else a for a in call]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    if not callable(call):
        assert capsys.readouterr().err == f"input error: {message} exceeds the ceiling 10000000\n"


def test_ratio_scan_refuses_a_negative_seed(golden):
    with pytest.raises(InputError, match="^seed must be nonnegative, got -1$"):
        ratio_scan(golden, 3, -1)
    assert ratio_scan(golden, 1, 2**64).all_hold  # default_rng takes any nonnegative seed


def test_ratio_scan_reads_certificate_c_hat(golden, eig_golden):
    assert ratio_scan(golden, 20, 0).decay.c_hat == decay_estimate(golden, eig_golden, 2).c_hat


def test_ratio_scan_excludes_degenerate_gaps(golden, eig_golden):
    scan = ratio_scan(golden, samples=30, seed=2, depth=2)
    for gap, ratio in zip(scan.report.gap, scan.report.ratio):
        if gap <= 1e-12:
            assert math.isnan(ratio)


def test_ratio_scan_argmax_is_the_last_tied_sample(monkeypatch, golden):
    # max over (ratio, i) pairs picks the last sample among equal ratios
    def tied(*args, **kwargs):
        report = effective_bound_verify(*args, **kwargs)
        ratio = np.array([0.25, 0.5, np.nan, 0.5, 0.125, 0.5, np.inf])
        return report._replace(ratio=ratio)

    monkeypatch.setattr(bounds, "effective_bound_verify", tied)
    scan = ratio_scan(golden, samples=7, seed=0, depth=2)
    assert (scan.argmax_id, scan.max_ratio) == (5, 0.5)
    assert type(scan.argmax_id) is int and type(scan.max_ratio) is float


def test_bernoulli_family_slope_direct(full2, eig_full2):
    # oracle for the exponent: lhs ~ |eps| while gap ~ 2 eps^2 near the center
    m = parry_measure(full2, eig_full2)
    f = centered(indicator(full2, (0,)), m)
    log_gap, log_lhs = [], []
    for eps in np.geomspace(1e-4, 1e-1, 12):
        mu = bernoulli(0.5 + float(eps), full2)
        log_gap.append(math.log(math.log(2) - entropy(mu)))
        log_lhs.append(math.log(abs(integrate(f, mu) - integrate(f, m))))
    slope = float(np.polyfit(log_gap, log_lhs, 1)[0])
    assert abs(slope - 0.5) <= 0.05
