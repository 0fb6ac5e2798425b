import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PHI, bernoulli_entropy, random_primitive_matrices
from sftbounds import (
    ConvergenceError,
    InputError,
    centered,
    conditional_vectors,
    constant_function,
    cylinder_measure,
    entropy,
    enumerate_words,
    function_from_dict,
    indicator,
    information_mean,
    integrate,
    markov_measure,
    parry_measure,
    perron_eigendata,
    random_function,
    sample_markov,
    sample_markov_batch,
    stationary_vector,
    transition_matrix,
)
from sftbounds.io import load_function, load_measure
from sftbounds.measures import cylinder_measure_vector


def bernoulli(p, A):
    return markov_measure([p, 1 - p], [[p, 1 - p], [p, 1 - p]], A)


def test_full_shift_parry_is_fair_bernoulli(full2, eig_full2):
    m = parry_measure(full2, eig_full2)
    assert np.allclose(m.stationary, 0.5, atol=1e-12)
    assert np.allclose(m.transition, 0.5, atol=1e-12)
    for w in enumerate_words(full2, 3):
        assert abs(cylinder_measure(m, w) - 0.125) <= 1e-12


def test_golden_parry_closed_form(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    assert abs(m.stationary[0] - (5 + math.sqrt(5)) / 10) <= 1e-12
    expected_q = np.array([[1 / PHI, 1 / PHI**2], [1.0, 0.0]])
    assert np.allclose(m.transition, expected_q, atol=1e-12)


def test_parry_rows_sum_to_one():
    for A in random_primitive_matrices(5, (2, 3, 4), seed=17):
        m = parry_measure(A, perron_eigendata(A))
        assert np.allclose(m.transition.sum(axis=1), 1.0, atol=1e-12)


def test_cylinder_product_matches_closed_form(golden, eig_golden, full2, eig_full2):
    for A, eig in ((golden, eig_golden), (full2, eig_full2)):
        m = parry_measure(A, eig)
        for k in range(1, 7):
            for w in enumerate_words(A, k):
                closed = eig.u[w[0]] * eig.v[w[-1]] / eig.lam ** (len(w) - 1)
                assert abs(cylinder_measure(m, w) - closed) <= 1e-12


def test_cylinder_bounds(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    a = min(ui * vj for ui in eig_golden.u for vj in eig_golden.v)
    b = max(ui * vj for ui in eig_golden.u for vj in eig_golden.v)
    for k in range(1, 7):
        for w in enumerate_words(golden, k):
            scale = eig_golden.lam ** -(len(w) - 1)
            assert a * scale - 1e-12 <= cylinder_measure(m, w) <= b * scale + 1e-12


def test_golden_depth1_cylinder(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    assert abs(cylinder_measure(m, (0, 0)) - PHI / (PHI + 2)) <= 1e-12
    assert abs(cylinder_measure(m, (0,)) - m.stationary[0]) <= 1e-15


def test_cylinder_additivity(golden, eig_golden):
    mu = sample_markov(golden, seed=42)
    for k in range(1, 5):
        for w in enumerate_words(golden, k):
            extensions = [w + (c,) for c in golden.successor_sets[w[-1]]]
            total = sum(cylinder_measure(mu, e) for e in extensions)
            assert abs(total - cylinder_measure(mu, w)) <= 1e-13


def test_inadmissible_cylinder_rejected(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    with pytest.raises(InputError):
        cylinder_measure(m, (1, 1))


def test_entropy_anchors(full2, eig_full2, golden, eig_golden):
    assert abs(entropy(bernoulli(0.5, full2)) - math.log(2)) <= 1e-12
    assert abs(entropy(parry_measure(golden, eig_golden)) - math.log(PHI)) <= 1e-10
    cycle = markov_measure([0.5, 0.5], [[0, 1], [1, 0]], golden)
    assert entropy(cycle) == 0.0


def test_entropy_matches_bernoulli_formula(full2):
    for p in (0.1, 0.3, 0.9):
        assert abs(entropy(bernoulli(p, full2)) - bernoulli_entropy(p)) <= 1e-12


def test_integrate_indicator_and_constant(full2, golden, eig_golden):
    mu = bernoulli(0.7, full2)
    assert abs(integrate(indicator(full2, (0,)), mu) - 0.7) <= 1e-12
    for A, m in ((full2, mu), (golden, sample_markov(golden, seed=9))):
        assert abs(integrate(constant_function(A, 3.25, depth=2), m) - 3.25) <= 1e-12


def test_integrate_requires_matching_support(full2, golden):
    f = indicator(full2, (0,))
    with pytest.raises(InputError):
        integrate(f, sample_markov(golden, seed=1))


def test_information_mean_full_shift(full2, eig_full2):
    # u is constant, so the information function is identically log 2
    for p in (0.2, 0.5, 0.9):
        assert abs(information_mean(bernoulli(p, full2), eig_full2) - math.log(2)) <= 1e-12


def test_information_mean_golden_parry(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    assert abs(information_mean(m, eig_golden) - math.log(PHI)) <= 1e-12


def test_information_mean_golden_cycle(golden, eig_golden):
    cycle = markov_measure([0.5, 0.5], [[0, 1], [1, 0]], golden)
    assert abs(information_mean(cycle, eig_golden) - math.log(PHI)) <= 1e-12


def test_information_mean_sampled(golden, eig_golden):
    log_lam = math.log(eig_golden.lam)
    for seed in range(30):
        mu = sample_markov(golden, seed=seed)
        assert abs(information_mean(mu, eig_golden) - log_lam) <= 1e-9


def test_conditional_vectors_full_shift(full2, eig_full2):
    m = parry_measure(full2, eig_full2)
    for j in (0, 1):
        p, q = conditional_vectors(m, eig_full2, j)
        assert np.allclose(p, 0.5, atol=1e-12)
        assert np.allclose(q, 0.5, atol=1e-12)


def test_conditional_vectors_golden(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    p, q = conditional_vectors(m, eig_golden, 1)
    assert p.shape == (1,)
    assert abs(p[0] - 1.0) <= 1e-12  # u0 / (lam u1) = phi / phi
    p0, q0 = conditional_vectors(m, eig_golden, 0)
    assert np.allclose(p0, q0, atol=1e-12)
    assert abs(p0.sum() - 1.0) <= 1e-12 and abs(q0.sum() - 1.0) <= 1e-12
    assert np.all(p0 > 0)


def test_conditional_vectors_sum_to_one(golden, eig_golden):
    for seed in range(10):
        mu = sample_markov(golden, seed=seed)
        for j in range(golden.size):
            p, q = conditional_vectors(mu, eig_golden, j)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert abs(q.sum() - 1.0) <= 1e-12


def test_conditional_rejects_null_fiber(golden, eig_golden):
    mu = markov_measure([1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], golden)
    with pytest.raises(InputError):
        conditional_vectors(mu, eig_golden, 1)


def test_sampler_deterministic(golden):
    a = sample_markov(golden, seed=123)
    b = sample_markov(golden, seed=123)
    assert np.array_equal(a.stationary, b.stationary)
    assert np.array_equal(a.transition, b.transition)


def test_sampler_single_allowed_entry_is_point_mass(golden):
    mu = sample_markov(golden, seed=7)
    assert mu.transition[1, 0] == 1.0  # row 1 allows only symbol 0


def test_sampler_concentration_limit(full2):
    mu = sample_markov(full2, seed=0, concentration=1e7)
    assert np.allclose(mu.transition, 0.5, atol=1e-3)


def test_sampler_outputs_validate(golden, full3):
    for A in (golden, full3):
        for seed in range(20):
            mu = sample_markov(A, seed=seed)
            assert abs(mu.stationary.sum() - 1.0) <= 1e-12
            assert float(np.max(np.abs(mu.stationary @ mu.transition - mu.stationary))) <= 1e-12


def test_entropy_maximality(golden, eig_golden, full2, eig_full2):
    for A, eig in ((golden, eig_golden), (full2, eig_full2)):
        log_lam = math.log(eig.lam)
        m = parry_measure(A, eig)
        for seed in range(100):
            mu = sample_markov(A, seed=seed)
            gap = log_lam - entropy(mu)
            assert gap >= -1e-9
            if gap <= 1e-9:
                dist = max(
                    float(np.max(np.abs(mu.stationary - m.stationary))),
                    float(np.max(np.abs(mu.transition - m.transition))),
                )
                assert dist < 1e-6
        # the Parry measure itself is the positive control
        assert abs(entropy(m) - log_lam) <= 1e-9


from sftbounds import golden_mean_shift as _gms

_GOLDEN = _gms()
_GOLDEN_LOG_LAM = math.log(perron_eigendata(_GOLDEN).lam)


@given(st.integers(0, 10_000))
def test_sampled_measure_entropy_below_log_lambda(seed):
    mu = sample_markov(_GOLDEN, seed=seed)
    assert entropy(mu) <= _GOLDEN_LOG_LAM + 1e-9


def test_centered_has_zero_integral(golden, eig_golden):
    m = parry_measure(golden, eig_golden)
    f = random_function(golden, 3, seed=5)
    assert abs(integrate(centered(f, m), m)) <= 1e-14


def test_measure_json_roundtrip(tmp_path, golden):
    mu = sample_markov(golden, seed=3)
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({
        "stationary": list(mu.stationary),
        "transition": [list(row) for row in mu.transition],
    }))
    loaded = load_measure(path, golden)
    assert np.allclose(loaded.stationary, mu.stationary)
    assert np.allclose(loaded.transition, mu.transition)


def test_measure_json_rejects_unsupported_transition(tmp_path, golden):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({
        "stationary": [0.5, 0.5],
        "transition": [[0.0, 1.0], [0.5, 0.5]],  # uses the forbidden 1 -> 1 edge
    }))
    with pytest.raises(InputError):
        load_measure(path, golden)


def test_function_json_requires_every_word(tmp_path, golden):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"depth": 2, "values": {"00": 1.0, "01": 2.0}}))
    with pytest.raises(InputError, match="missing"):
        load_function(path, golden)


def test_function_json_roundtrip(tmp_path, golden):
    f = random_function(golden, 2, seed=8)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"depth": 2, "values": f.as_dict()}))
    loaded = load_function(path, golden)
    assert np.allclose(loaded.values, f.values)


def test_function_from_dict_rejects_inadmissible_word(golden):
    vals = {"00": 1.0, "01": 2.0, "10": 3.0, "11": 4.0}
    with pytest.raises(InputError):
        function_from_dict(golden, 2, vals)


def test_stationarity_enforced(golden):
    with pytest.raises(InputError, match="stationary"):
        markov_measure([0.9, 0.1], [[0.5, 0.5], [1.0, 0.0]], golden)


# ---------- batched stationary solve and cylinder vectors ----------

def scalar_stationary(Q, tol=1e-14, max_iter=1_000_000):
    """One chain's power iteration, as solved before batching: (vector, stop rule)."""
    n = Q.shape[0]
    x = np.full(n, 1.0 / n)
    inc_prev = np.inf
    drift = np.inf
    for _ in range(max_iter):
        y = x @ Q
        y = y / y.sum()
        z = y @ Q
        drift = float(np.max(np.abs(z - y)))
        if drift <= tol:
            return y, "drift"
        inc = float(np.max(np.abs(y - x)))
        if inc >= inc_prev and inc <= 1e-12 and np.max(np.abs(z / z.sum() - y)) <= 1e-12:
            return y, "cycle"
        inc_prev = inc
        x = y
    raise ConvergenceError("no convergence", residual=drift)


def slow_chain(s, p):
    """A nearly periodic kernel: golden [[p, 1-p], [1, 0]] for s = 2, a near 3-cycle for s = 3."""
    if s == 2:
        return np.array([[p, 1.0 - p], [1.0, 0.0]])
    return np.array([[p, 1.0 - p, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def fast_chain(s, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(s), size=s)


@settings(max_examples=12)
@given(
    st.sampled_from([2, 3]),
    st.lists(
        st.one_of(
            st.tuples(st.just("fast"), st.integers(0, 2**32)),
            # p = 1e-4 would take ~2e5 steps per chain; over this range both stop rules fire
            st.tuples(st.just("slow"), st.floats(-2.3, -1.3)),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_batched_stationary_rows_equal_single_chain_solves(s, chains):
    stack = np.array([
        fast_chain(s, arg) if kind == "fast" else slow_chain(s, 10.0 ** arg) for kind, arg in chains
    ])
    rows = stationary_vector(stack)
    assert rows.shape == (len(chains), s)
    for Q, row in zip(stack, rows):
        assert np.array_equal(row, scalar_stationary(Q)[0])


def test_batch_mixes_both_stop_rules():
    stack = np.array([slow_chain(2, 3e-3), slow_chain(2, 1e-2), fast_chain(2, 5), slow_chain(2, 0.3)])
    oracle = [scalar_stationary(Q) for Q in stack]
    assert {rule for _, rule in oracle} == {"drift", "cycle"}
    rows = stationary_vector(stack)
    for (y, _), row in zip(oracle, rows):
        assert np.array_equal(row, y)
    # one matrix is the one-chain case of the stack
    assert np.array_equal(stationary_vector(stack[0]), oracle[0][0])


def test_batch_failure_reports_widest_open_drift():
    stack = np.array([slow_chain(2, 1e-3), fast_chain(2, 1), slow_chain(2, 2e-3)])
    open_drifts = []
    for Q in stack:
        try:
            scalar_stationary(Q, max_iter=60)
        except ConvergenceError as err:
            open_drifts.append(err.residual)
    assert len(open_drifts) == 2
    with pytest.raises(ConvergenceError) as info:
        stationary_vector(stack, max_iter=60)
    assert info.value.residual == max(open_drifts)


def test_sampler_batch_equals_one_seed_draws(golden, full3):
    for A in (golden, full3):
        seeds = [3, 2**62 + 11, 0, 77]
        for mu, seed in zip(sample_markov_batch(A, seeds), seeds):
            one = sample_markov(A, seed)
            assert np.array_equal(mu.stationary, one.stationary)
            assert np.array_equal(mu.transition, one.transition)


@pytest.mark.parametrize("concentration", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_sampler_rejects_bad_concentration_before_drawing(golden, monkeypatch, concentration):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before validating the concentration")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(InputError, match="concentration"):
        sample_markov(golden, seed=1, concentration=concentration)
    with pytest.raises(InputError, match="concentration"):
        sample_markov_batch(golden, [1, 2], concentration=concentration)


WIDE3 = transition_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


@pytest.mark.parametrize("name", ["full2", "golden", "wide3", "full3"])
def test_cylinder_vector_equals_per_word_products(name, request):
    A = WIDE3 if name == "wide3" else request.getfixturevalue(name)
    for seed in range(3):
        mu = sample_markov(A, seed)
        for depth in range(1, 7):
            vec = cylinder_measure_vector(mu, depth)
            words = enumerate_words(A, depth)
            assert vec.shape == (len(words),)
            assert all(vec[i] == cylinder_measure(mu, w) for i, w in enumerate(words))
