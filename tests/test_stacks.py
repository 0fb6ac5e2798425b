"""Sampled measures as stacks: bit parity with a per-sample loop, and the error
paths of the stacked checks.

The loop oracles below are the one-measure formulas written out on plain
arrays, one sample at a time, as the pipelines ran before they took stacks:
every `ratio_scan` row, its summary and every `entropy` CSV row must carry the
same bits.
"""

import csv
import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_primitive_matrices
from sftbounds import (
    InputError,
    VerificationError,
    decay_estimate,
    effective_bound_verify,
    entropy,
    gap_identity_check,
    golden_mean_shift,
    markov_measure,
    perron_eigendata,
    pinsker_verify,
    random_function,
    ratio_scan,
    sample_markov_batch,
    stationary_vector,
    transition_matrix,
    word_array,
    word_count,
)
from sftbounds import bounds
from sftbounds.bounds import EFFECTIVE_BOUND_SLACK, FAMILIES, FAMILY_POINTS, GAP_FLOOR
from sftbounds.cli import main
from sftbounds.measures import dirichlet_kernels

GOLDEN = golden_mean_shift()
WIDE3 = transition_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


# ---------- per-sample loop oracles ----------

def loop_measure(r, Q, A):
    """The clamped copies markov_measure keeps of one validated (r, Q)."""
    Q = np.maximum(Q, 0.0)
    Q[A.array == 0] = 0.0
    return np.maximum(r, 0.0), Q


def loop_entropy(r, Q):
    mask = Q > 0.0
    terms = np.where(mask, Q * np.log(np.where(mask, Q, 1.0)), 0.0)
    return float(-(r[:, None] * terms).sum())


def loop_integral(values, A, r, Q, depth):
    W = word_array(A, depth)
    p = r[W[:, 0]]
    for t in range(1, depth):
        p = p * Q[W[:, t - 1], W[:, t]]
    return float(values @ p)


def loop_report(values, A, r, Q, eig, m, c_hat, depth):
    fc = values - loop_integral(values, A, *m, depth)
    gap = float(np.log(eig.lam)) - loop_entropy(r, Q)
    gap_pos = max(gap, 0.0)
    lhs = abs(loop_integral(fc, A, r, Q, depth) - loop_integral(fc, A, *m, depth))
    sem = float(max(0.0, fc.max() - fc.min()))
    holds = lhs <= c_hat * sem * float(np.sqrt(gap_pos)) + EFFECTIVE_BOUND_SLACK
    if gap_pos > GAP_FLOOR and sem > 0.0:
        ratio = lhs / (sem * float(np.sqrt(gap_pos)))
    else:
        ratio = float("nan")
    return fc, (lhs, sem, gap, ratio, holds)


def loop_family_slope(fc, A, eig, m, q_direction, depth):
    log_gap, log_lhs = [], []
    base = loop_integral(fc, A, *m, depth)
    t = np.geomspace(1e-3, 1e-1, FAMILY_POINTS)[:, None, None]
    Qs = (1.0 - t) * m[1] + t * q_direction
    for r, Q in zip(stationary_vector(Qs), Qs):
        r, Q = loop_measure(r, Q, A)
        gap = float(np.log(eig.lam)) - loop_entropy(r, Q)
        lhs = abs(loop_integral(fc, A, r, Q, depth) - base)
        if gap > GAP_FLOOR and lhs > 1e-13:
            log_gap.append(float(np.log(gap)))
            log_lhs.append(float(np.log(lhs)))
    if len(log_gap) < 3:
        return float("nan")
    return float(np.polyfit(log_gap, log_lhs, 1)[0])


def loop_ratio_scan(A, samples, seed, depth):
    """ratio_scan one sample at a time: rows, max_ratio, argmax_id, slope, all_hold."""
    eig = perron_eigendata(A)
    m = (eig.parry.stationary, eig.parry.transition)
    c_hat = decay_estimate(eig, depth).c_hat
    sub_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=2 * samples)
    Qs = dirichlet_kernels(A, sub_seeds[0::2])
    rows, slopes = [], []
    for i, (r, Q) in enumerate(zip(stationary_vector(Qs), Qs)):
        r, Q = loop_measure(r, Q, A)
        rng = np.random.default_rng(int(sub_seeds[2 * i + 1]))
        values = rng.standard_normal(word_count(A, depth))
        fc, row = loop_report(values, A, r, Q, eig, m, c_hat, depth)
        rows.append(row)
        if i < FAMILIES:
            slopes.append(loop_family_slope(fc, A, eig, m, Q, depth))
    finite = [(row[3], i) for i, row in enumerate(rows) if np.isfinite(row[3])]
    max_ratio, argmax_id = max(finite) if finite else (float("nan"), -1)
    usable = [s for s in slopes if np.isfinite(s)]
    slope = float(statistics.median(usable)) if usable else float("nan")
    return rows, (max_ratio, argmax_id, slope, all(row[4] for row in rows))


def loop_phi(p, q):
    terms = np.zeros_like(q)
    pos = q > 0
    terms[pos] = q[pos] * np.log(q[pos] / p[pos])
    return max(float(terms.sum()), 0.0)


def loop_gap_identity(r, Q, A, eig):
    lhs = 0.0
    for j in range(A.size):
        rj = float(r[j])
        if rj <= 0.0:
            continue
        idx = list(A.predecessor_sets[j])
        p = eig.u[idx] / (eig.lam * eig.u[j])
        lhs += rj * loop_phi(p, r[idx] * Q[idx, j] / rj)
    rhs = float(np.log(eig.lam)) - loop_entropy(r, Q)
    return lhs, rhs, abs(lhs - rhs)


def loop_entropy_row(r, Q, A, eig):
    log_lam = float(np.log(eig.lam))
    h = loop_entropy(r, Q)
    W = word_array(A, 2)
    g = np.log(eig.u)
    info = loop_integral(log_lam + g[W[:, 1]] - g[W[:, 0]], A, r, Q, 2)
    return [h, log_lam - h, info, abs(info - log_lam), loop_gap_identity(r, Q, A, eig)[2]]


def bits(values):
    return [x.hex() if isinstance(x, float) else x for x in values]


# ---------- parity ----------

MATRICES = {"golden": GOLDEN, "wide3": WIDE3}


@settings(max_examples=40)
@given(
    st.one_of(st.sampled_from(sorted(MATRICES)), st.integers(0, 10_000)),
    st.integers(1, 12),
    st.integers(0, 2**32),
    st.integers(1, 4),
)
@example("golden", 12, 0, 2)
@example("wide3", 12, 3, 3)
@example("golden", 3, 1, 1)
def test_ratio_scan_equals_per_sample_loop(matrix, samples, seed, depth):
    A = MATRICES[matrix] if isinstance(matrix, str) else random_primitive_matrices(1, (2, 3, 4), matrix)[0]
    scan = ratio_scan(A, samples, seed, depth=depth)
    rows, (max_ratio, argmax_id, slope, all_hold) = loop_ratio_scan(A, samples, seed, depth)
    report = scan.report
    columns = [report.lhs, report.seminorm, report.gap, report.ratio, report.holds]
    assert [c.dtype for c in columns] == [np.float64] * 4 + [np.bool_]
    assert [bits(row) for row in zip(*(c.tolist() for c in columns))] == [bits(row) for row in rows]
    assert scan.decay.c_hat == decay_estimate(perron_eigendata(A), depth).c_hat
    summary = [scan.max_ratio, scan.argmax_id, scan.slope, scan.all_hold]
    assert [type(x) for x in summary] == [float, int, float, bool]
    assert bits(summary) == bits([max_ratio, argmax_id, slope, all_hold])


@settings(max_examples=10)
@given(st.one_of(st.sampled_from(sorted(MATRICES)), st.integers(0, 10_000)), st.integers(0, 2**32))
@example("golden", 0)
def test_entropy_rows_equal_per_sample_loop(tmp_path_factory, matrix, seed):
    A = MATRICES[matrix] if isinstance(matrix, str) else random_primitive_matrices(1, (2, 3, 4), matrix)[0]
    path = tmp_path_factory.mktemp("entropy") / "m.json"
    path.write_text(json.dumps({"rows": A.rows}))
    out = path.with_name("out.json")
    assert main(["entropy", "--matrix", str(path), "--samples", "15", "--seed", str(seed),
                 "--out", str(out)]) in (0, 1)
    with open(out.with_suffix(".csv")) as fh:
        body = [[float(x) for x in row[1:]] for row in list(csv.reader(fh))[1:]]
    eig = perron_eigendata(A)
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=15)
    Qs = dirichlet_kernels(A, seeds)
    expected = [loop_entropy_row(*loop_measure(r, Q, A), A, eig)
                for r, Q in zip(stationary_vector(Qs), Qs)]
    assert [bits(row) for row in body] == [bits(row) for row in expected]


def test_gap_identity_stack_skips_zero_mass_symbols():
    # the cycle measure puts no mass on symbol 1, so its row skips j = 1
    eig = perron_eigendata(GOLDEN)
    sampled = sample_markov_batch(GOLDEN, [5, 6, 7])
    r = np.vstack([sampled.stationary[:1], [[1.0, 0.0]], sampled.stationary[1:]])
    Q = np.concatenate([sampled.transition[:1], [[[1.0, 0.0], [1.0, 0.0]]], sampled.transition[1:]])
    ident = gap_identity_check(markov_measure(r, Q, GOLDEN), eig)
    assert ident.lhs.shape == (4,)
    expected = [loop_gap_identity(ri, Qi, GOLDEN, eig) for ri, Qi in zip(r, Q)]
    assert [bits(row) for row in zip(*(x.tolist() for x in ident))] == [bits(row) for row in expected]
    assert bits(gap_identity_check(markov_measure(r[1], Q[1], GOLDEN), eig)) == bits(expected[1])


@settings(max_examples=20)
@given(st.integers(2, 12), st.integers(1, 40), st.integers(0, 2**32))
def test_pinsker_stack_equals_per_pair_calls(dim, k, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(dim), size=k)
    q = rng.dirichlet(np.ones(dim), size=k)
    stack = pinsker_verify(p, q)
    assert [c.dtype for c in stack] == [np.float64, np.float64, np.bool_]
    rows = [pinsker_verify(pi, qi) for pi, qi in zip(p, q)]
    assert [bits(row) for row in zip(*(c.tolist() for c in stack))] == [bits(row) for row in rows]


# ---------- error paths of the stacked checks ----------

def sampled_stack(A=GOLDEN, k=6):
    mu = sample_markov_batch(A, list(range(k)))
    return np.array(mu.stationary), np.array(mu.transition)


def test_stack_names_the_non_stationary_measure():
    r, Q = sampled_stack()
    r[3] = [0.5, 0.5]
    with pytest.raises(InputError, match="measure 3 of the stack: vector is not stationary"):
        markov_measure(r, Q, GOLDEN)


def test_stack_names_the_off_support_measure():
    r, Q = sampled_stack()
    Q[4, 1] = [0.5, 0.5]  # golden forbids 1 -> 1
    with pytest.raises(InputError, match="measure 4 of the stack: transition probabilities positive outside"):
        markov_measure(r, Q, GOLDEN)


def test_stack_names_the_first_bad_measure_and_its_first_failed_check():
    # measure 2 fails only the last check, measure 4 the first: a loop stops at 2
    r, Q = sampled_stack()
    r[2] = [0.5, 0.5]
    Q[4, 0] = [1.5, -0.5]
    with pytest.raises(InputError, match="measure 2 of the stack: vector is not stationary"):
        markov_measure(r, Q, GOLDEN)
    with pytest.raises(InputError, match="^negative probabilities$"):
        markov_measure(r[4], Q[4], GOLDEN)


def test_stack_rejects_mismatched_shapes():
    r, Q = sampled_stack()
    with pytest.raises(InputError, match="do not match"):
        markov_measure(r, Q[:5], GOLDEN)
    with pytest.raises(InputError, match="do not match"):
        markov_measure(r[None], Q[None], GOLDEN)


def test_verification_error_names_the_first_sample_above_log_lambda():
    eig = perron_eigendata(GOLDEN)
    decay = decay_estimate(eig, 2)
    mu = sample_markov_batch(GOLDEN, list(range(40)))
    h = entropy(mu)
    # log lam at the largest of the first three entropies: a later sample exceeds it
    broken = eig._replace(lam=math.exp(float(h[:3].max())))
    decay = decay._replace(eig=broken)
    f = random_function(GOLDEN, 2, list(range(100, 140)))
    first = next(i for i in range(40) if h[i] > math.log(broken.lam) + 1e-9)
    assert first >= 3 and (h[first + 1:] > math.log(broken.lam) + 1e-9).any()
    with pytest.raises(VerificationError, match=f"^pair {first}: entropy exceeds"):
        effective_bound_verify(f, mu, decay)
    # the loop over single pairs stops at the same sample
    for i in range(first):
        effective_bound_verify(random_function(GOLDEN, 2, 100 + i), mu[i], decay)
    with pytest.raises(VerificationError, match="^entropy exceeds"):
        effective_bound_verify(random_function(GOLDEN, 2, 100 + first), mu[first], decay)


def test_single_measure_is_the_stack_of_one():
    eig = perron_eigendata(WIDE3)
    decay = decay_estimate(eig, 3)
    mu = sample_markov_batch(WIDE3, [4, 9, 2])
    f = random_function(WIDE3, 3, [11, 12, 13])
    stack = effective_bound_verify(f, mu, decay)
    for i, seed in enumerate([4, 9, 2]):
        one_mu = sample_markov_batch(WIDE3, [seed])[0]
        one = effective_bound_verify(random_function(WIDE3, 3, 11 + i), one_mu, decay)
        assert bits(one._asdict().values()) == bits([stack.lhs[i].item(), stack.seminorm[i].item(),
                                                     stack.gap[i].item(), stack.ratio[i].item(),
                                                     stack.holds[i].item()])


@pytest.fixture()
def golden_path(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"size": 2, "rows": [[1, 1], [1, 0]]}))
    return path


def test_cli_non_stationary_sample_exits_two(capsys, monkeypatch, golden_path):
    solve = bounds.stationary_vector

    def skewed(Qs):
        out = solve(Qs)
        out[7] = [0.5, 0.5]
        return out

    monkeypatch.setattr(bounds, "stationary_vector", skewed)
    assert main(["verify", "--matrix", str(golden_path), "--samples", "20"]) == 2
    assert "measure 7 of the stack: vector is not stationary" in capsys.readouterr().err


def test_cli_entropy_above_log_lambda_exits_one(capsys, monkeypatch, golden_path):
    true_entropy = bounds.entropy

    def inflated(mu):
        h = true_entropy(mu)
        h[[5, 9]] += 1.0
        return h

    monkeypatch.setattr(bounds, "entropy", inflated)
    assert main(["verify", "--matrix", str(golden_path), "--samples", "20"]) == 1
    assert "pair 5: entropy exceeds log lambda" in capsys.readouterr().err
